(* Sharded-campaign guarantees: the merged trajectory is a deterministic
   function of (seed, sync_interval) alone — byte-identical across shard
   counts {1, 2, 4}, worker counts and re-runs, for afl-style edge and
   pathafl feedback with cmplog on and off — and the per-shard step loop
   stays allocation-lean in steady state. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

let easy_bug_src =
  "fn main() { if (in(0) == 104) { if (in(1) == 105) { bug(5); } } return 0; }"

let run_sharded ?(budget = 2_000) ?(seed = 11) ?(sync_interval = 256)
    ?(mode = Pathcov.Feedback.Edge) ?(cmplog = false) ?workers ~shards prog
    seeds =
  let cfg =
    {
      Fuzz.Shard.base =
        { Fuzz.Campaign.default_config with mode; budget; rng_seed = seed; cmplog };
      shards;
      sync_interval;
    }
  in
  Fuzz.Shard.run ?workers cfg prog ~seeds

(* The full byte-identity contract between two sharded runs: queue
   contents and order, merged virgin maps, crash sets (raw, stack-unique,
   coverage-novel, ground-truth bugs), and the exec clock. *)
let check_identical label (a : Fuzz.Shard.result) (b : Fuzz.Shard.result) =
  check Alcotest.int (label ^ ": execs") a.campaign.execs b.campaign.execs;
  check
    (Alcotest.list Alcotest.string)
    (label ^ ": queue inputs")
    (Fuzz.Campaign.queue_inputs a.campaign)
    (Fuzz.Campaign.queue_inputs b.campaign);
  check_bool
    (label ^ ": virgin map bytes")
    true
    (Pathcov.Coverage_map.equal a.virgin b.virgin);
  check_bool
    (label ^ ": crash-virgin map bytes")
    true
    (Pathcov.Coverage_map.equal a.crash_virgin b.crash_virgin);
  check Alcotest.int
    (label ^ ": total crashes")
    a.campaign.triage.total_crashes b.campaign.triage.total_crashes;
  check Alcotest.int
    (label ^ ": total hangs")
    a.campaign.triage.total_hangs b.campaign.triage.total_hangs;
  check Alcotest.int
    (label ^ ": stack-unique crashes")
    (Fuzz.Triage.unique_crashes a.campaign.triage)
    (Fuzz.Triage.unique_crashes b.campaign.triage);
  check Alcotest.int
    (label ^ ": coverage-novel crashes")
    (Fuzz.Triage.afl_unique_crashes a.campaign.triage)
    (Fuzz.Triage.afl_unique_crashes b.campaign.triage);
  let stacks (t : Fuzz.Triage.t) =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.by_stack [] |> List.sort compare
  in
  check
    (Alcotest.list Alcotest.int)
    (label ^ ": crash stack hashes")
    (stacks a.campaign.triage) (stacks b.campaign.triage);
  check_bool
    (label ^ ": ground-truth bugs")
    true
    (Fuzz.Triage.bugs a.campaign.triage = Fuzz.Triage.bugs b.campaign.triage);
  check Alcotest.int (label ^ ": items planned") a.items b.items;
  check Alcotest.int (label ^ ": epochs") a.epochs b.epochs;
  check Alcotest.int (label ^ ": dup_dropped") a.dup_dropped b.dup_dropped

(* shards ∈ {1, 2, 4} x {afl-edge, pathafl} x cmplog {off, on}: the merge
   barrier must hide the shard count completely. *)
let test_differential_shard_counts () =
  let prog = Minic.Lower.compile easy_bug_src in
  List.iter
    (fun (mode, mname) ->
      List.iter
        (fun cmplog ->
          let label =
            Printf.sprintf "%s cmplog=%b" mname cmplog
          in
          let r1 = run_sharded ~mode ~cmplog ~shards:1 prog [ "aa" ] in
          let r2 = run_sharded ~mode ~cmplog ~shards:2 prog [ "aa" ] in
          let r4 = run_sharded ~mode ~cmplog ~shards:4 prog [ "aa" ] in
          check_identical (label ^ " 1v2") r1 r2;
          check_identical (label ^ " 1v4") r1 r4)
        [ false; true ])
    [ (Pathcov.Feedback.Edge, "edge"); (Pathcov.Feedback.Pathafl, "pathafl") ]

(* Registry subjects with a real block graph: same contract, plus the
   virgin fingerprint, on cflow under afl-style edge feedback and on gdk
   under every campaign feedback mode with cmplog on. *)
let test_differential_subject () =
  List.iter
    (fun (name, mode, cmplog, budget) ->
      let s = Subjects.Registry.find_exn name in
      let prog = Subjects.Subject.compile_fresh s in
      let run shards =
        run_sharded ~budget ~mode ~cmplog ~shards prog s.seeds
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      let label =
        Printf.sprintf "%s %s" name (Pathcov.Feedback.mode_name mode)
      in
      check_identical (label ^ " 1v2") r1 r2;
      check_identical (label ^ " 1v4") r1 r4;
      check Alcotest.int (label ^ ": virgin fingerprints agree")
        (Pathcov.Coverage_map.bytes_hash r1.virgin)
        (Pathcov.Coverage_map.bytes_hash r4.virgin))
    (("cflow", Pathcov.Feedback.Edge, false, 1_500)
    :: List.map
         (fun mode -> ("gdk", mode, true, 1_000))
         Pathcov.Feedback.[ Block; Edge; Path; Pathafl ])

(* Worker count is a pure wall-clock knob: undersubscribed (2 workers for
   4 shards) and fully inline (1 worker) runs match the one-per-shard
   default byte for byte. *)
let test_workers_irrelevant () =
  let prog = Minic.Lower.compile easy_bug_src in
  let r_def = run_sharded ~shards:4 prog [ "aa" ] in
  let r_w1 = run_sharded ~shards:4 ~workers:1 prog [ "aa" ] in
  let r_w2 = run_sharded ~shards:4 ~workers:2 prog [ "aa" ] in
  check_identical "workers 1" r_def r_w1;
  check_identical "workers 2" r_def r_w2

(* Lanes claim items dynamically, so which lane runs which item changes
   from run to run once lanes run on their own domains. Each item undoes
   its merges into its lane's maps, so no result may depend on that
   assignment: retention- and crash-heavy pathafl campaigns at 2 and 4
   shards, one worker per shard, three runs each, all match 1 shard. *)
let test_schedule_independent () =
  List.iter
    (fun (name, budget) ->
      let s = Subjects.Registry.find_exn name in
      let prog = Subjects.Subject.compile_fresh s in
      let run shards =
        run_sharded ~budget ~mode:Pathcov.Feedback.Pathafl ~cmplog:true
          ~workers:shards ~shards prog s.seeds
      in
      let r1 = run 1 in
      List.iter
        (fun shards ->
          for k = 1 to 3 do
            let r = run shards in
            let label = Printf.sprintf "%s pathafl %d shards, run %d" name shards k in
            check_identical label r1 r;
            check Alcotest.int (label ^ ": virgin fingerprint")
              (Pathcov.Coverage_map.bytes_hash r1.virgin)
              (Pathcov.Coverage_map.bytes_hash r.virgin);
            check Alcotest.int (label ^ ": crash-virgin fingerprint")
              (Pathcov.Coverage_map.bytes_hash r1.crash_virgin)
              (Pathcov.Coverage_map.bytes_hash r.crash_virgin)
          done)
        [ 2; 4 ])
    [ ("gdk", 3_000); ("sqlite3", 3_000) ]

(* Re-running the same configuration is trivially byte-identical. *)
let test_rerun_identical () =
  let prog = Minic.Lower.compile easy_bug_src in
  let r1 = run_sharded ~shards:2 ~cmplog:true prog [ "aa" ] in
  let r2 = run_sharded ~shards:2 ~cmplog:true prog [ "aa" ] in
  check_identical "rerun" r1 r2

(* The sync schedule is part of the trajectory's identity: a different
   sync_interval is allowed to (and here does) change the outcome, which
   is what pins the determinism contract to (seed, sync_interval). *)
let test_sync_interval_changes_trajectory () =
  let prog = Minic.Lower.compile easy_bug_src in
  let r_a = run_sharded ~shards:2 ~sync_interval:64 prog [ "aa" ] in
  let r_b = run_sharded ~shards:2 ~sync_interval:512 prog [ "aa" ] in
  check Alcotest.int "epochs differ with the schedule" 0
    (if r_a.epochs = r_b.epochs then 1 else 0)

let test_budget_and_bug () =
  let prog = Minic.Lower.compile easy_bug_src in
  let r = run_sharded ~budget:4_000 ~shards:2 prog [ "aa" ] in
  check_bool "execs reach the budget" true
    (r.campaign.execs >= 4_000 && r.campaign.execs < 4_000 + 600);
  check_bool "easy bug found" true
    (List.mem (Vm.Crash.Id 5) (Fuzz.Triage.bugs r.campaign.triage))

let test_rejects_bad_config () =
  let prog = Minic.Lower.compile easy_bug_src in
  let bad shards sync_interval =
    match run_sharded ~shards ~sync_interval prog [ "aa" ] with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "shards 0 rejected" true (bad 0 256);
  check_bool "sync_interval 0 rejected" true (bad 2 0)

(* Steady-state allocation of the per-shard step loop, through the same
   observer-clock bracket the sequential campaign guarantee uses: the
   scratch engine mutates in place, so the mutator allocates nothing per
   candidate on any shard. *)
let test_shard_allocation () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let obs = Obs.Observer.create ~clock:(fun () -> 0.) () in
  let cfg =
    {
      Fuzz.Shard.base =
        { Fuzz.Campaign.default_config with budget = 6_000; rng_seed = 3 };
      shards = 2;
      sync_interval = 512;
    }
  in
  let r = Fuzz.Shard.run ~obs cfg prog ~seeds:s.seeds in
  check_bool "sharded campaign generated candidates" true
    (r.campaign.havocs > 1_000);
  let per_cand =
    r.campaign.mut_minor_words /. float_of_int r.campaign.havocs
  in
  check_bool
    (Printf.sprintf "shard-loop minor words per candidate bounded (got %.1f)"
       per_cand)
    true
    (per_cand >= 0. && per_cand < 20.)

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "byte-identical across shard counts" `Quick
          test_differential_shard_counts;
        Alcotest.test_case "byte-identical on a registry subject" `Quick
          test_differential_subject;
        Alcotest.test_case "worker count is wall-clock only" `Quick
          test_workers_irrelevant;
        Alcotest.test_case "item-to-lane assignment is invisible" `Quick
          test_schedule_independent;
        Alcotest.test_case "re-run identical" `Quick test_rerun_identical;
        Alcotest.test_case "sync interval is part of the identity" `Quick
          test_sync_interval_changes_trajectory;
        Alcotest.test_case "budget respected, bug found" `Quick
          test_budget_and_bug;
        Alcotest.test_case "bad config rejected" `Quick test_rejects_bad_config;
        Alcotest.test_case "per-shard loop steady-state allocation" `Quick
          test_shard_allocation;
      ] );
  ]
