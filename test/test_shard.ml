(* Sharded-campaign guarantees besides trajectory identity (which the
   contract suite checks across shard counts, worker counts and re-runs):
   the sync interval is part of the trajectory's identity, the budget
   holds, bad configs are refused, and the per-shard step loop stays
   allocation-lean in steady state. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

let run_sharded ?(budget = 2_000) ?(sync_interval = 256) ~shards prog seeds =
  let base =
    { Fuzz.Campaign.default_config with budget; rng_seed = 11; cmplog = false }
  in
  Fuzz.Shard.run { Fuzz.Shard.base; shards; sync_interval } prog ~seeds

(* The sync schedule is part of the trajectory's identity: a different
   sync_interval is allowed to (and here does) change the outcome, which
   is what pins the determinism contract to (seed, sync_interval). *)
let test_sync_interval_changes_trajectory () =
  let prog = Minic.Lower.compile Contract.easy_bug_src in
  let r_a = run_sharded ~shards:2 ~sync_interval:64 prog [ "aa" ] in
  let r_b = run_sharded ~shards:2 ~sync_interval:512 prog [ "aa" ] in
  check Alcotest.int "epochs differ with the schedule" 0
    (if r_a.epochs = r_b.epochs then 1 else 0)

let test_budget_and_bug () =
  let prog = Minic.Lower.compile Contract.easy_bug_src in
  let r = run_sharded ~budget:4_000 ~shards:2 prog [ "aa" ] in
  check_bool "execs reach the budget" true
    (r.campaign.execs >= 4_000 && r.campaign.execs < 4_000 + 600);
  check_bool "easy bug found" true
    (List.mem (Vm.Crash.Id 5) (Fuzz.Triage.bugs r.campaign.triage))

let test_rejects_bad_config () =
  let prog = Minic.Lower.compile Contract.easy_bug_src in
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
        Contract.claim "byte-identical across shard counts" Contract.easy_bug;
        Contract.claim "byte-identical on a registry subject"
          (Contract.cflow_afl_3000 :: Contract.gdk_modes);
        Contract.claim "worker count is wall-clock only" Contract.easy_bug;
        Contract.claim "item-to-lane assignment is invisible"
          Contract.claim_heavy;
        Contract.claim "re-run identical" Contract.easy_bug;
        Alcotest.test_case "sync interval is part of the identity" `Quick
          test_sync_interval_changes_trajectory;
        Alcotest.test_case "budget respected, bug found" `Quick
          test_budget_and_bug;
        Alcotest.test_case "bad config rejected" `Quick test_rejects_bad_config;
        Alcotest.test_case "per-shard loop steady-state allocation" `Quick
          test_shard_allocation;
      ] );
  ]
