(* Checkpoint/resume guarantees (DESIGN.md §9): a snapshot captured at a
   deterministic boundary and resumed later replays the uninterrupted
   run's remaining trajectory byte for byte — queue, coverage maps,
   crash triage, counters, and every subsequently-written snapshot — for
   sequential and sharded campaigns, edge and pathafl feedback, cmplog
   on and off. The serialized format round-trips exactly and rejects
   every damaged input with a clean [Error]. Also pins the RNG stream
   (the checkpoint format records raw stream positions, so the stream
   itself is part of the on-disk contract). *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

let easy_bug_src =
  "fn main() { if (in(0) == 104) { if (in(1) == 105) { bug(5); } } return 0; }"

(* ------------------------------------------------------------------ *)
(* RNG stream pins                                                     *)
(* ------------------------------------------------------------------ *)

(* The raw stream is frozen: any change to the generator invalidates
   every recorded trajectory and every checkpoint's [rng_state]. These
   draws were recorded from the current implementation. *)
let test_rng_pins () =
  let r = Fuzz.Rng.create 1 in
  let next8 = List.init 8 (fun _ -> Fuzz.Rng.next r) in
  check
    (Alcotest.list Alcotest.int)
    "Rng.next, seed 1, first 8"
    [
      2301179995845785463;
      737513604162040260;
      2715498065152891471;
      3776362331709563659;
      2499084914300579375;
      505749053440136933;
      626836860205017594;
      2723450598084135843;
    ]
    next8;
  (* [Rng.int] is next mod bound — modulo-biased, deliberately kept (see
     rng.mli): these pins also freeze the bias. *)
  let r = Fuzz.Rng.create 42 in
  let mod8 = List.init 8 (fun _ -> Fuzz.Rng.int r 1000) in
  check
    (Alcotest.list Alcotest.int)
    "Rng.int _ 1000, seed 42, first 8"
    [ 971; 319; 939; 312; 779; 465; 586; 619 ]
    mod8;
  let sub = Fuzz.Rng.substream ~seed:7 3 in
  let sub4 = List.init 4 (fun _ -> Fuzz.Rng.next sub) in
  check
    (Alcotest.list Alcotest.int)
    "Rng.substream ~seed:7 3, first 4"
    [
      2219306520149622348;
      146489169204054088;
      1601720339431690807;
      2444856828765668800;
    ]
    sub4

(* state/of_state/set_state continue the stream draw for draw. *)
let test_rng_state_roundtrip () =
  let r = Fuzz.Rng.create 123 in
  for _ = 1 to 5 do
    ignore (Fuzz.Rng.next r)
  done;
  let s = Fuzz.Rng.state r in
  let expect = List.init 6 (fun _ -> Fuzz.Rng.next r) in
  let r2 = Fuzz.Rng.of_state s in
  check
    (Alcotest.list Alcotest.int)
    "of_state continues the stream" expect
    (List.init 6 (fun _ -> Fuzz.Rng.next r2));
  let r3 = Fuzz.Rng.create 0 in
  ignore (Fuzz.Rng.next r3);
  Fuzz.Rng.set_state r3 s;
  check
    (Alcotest.list Alcotest.int)
    "set_state repositions in place" expect
    (List.init 6 (fun _ -> Fuzz.Rng.next r3))

(* ------------------------------------------------------------------ *)
(* Helpers: runs with an in-memory checkpoint sink                     *)
(* ------------------------------------------------------------------ *)

(* Collect every snapshot a run writes; [every = 1] fires at each
   deterministic boundary that advanced the exec clock. *)
let mem_sink acc =
  {
    Fuzz.Checkpoint.every = 1;
    subject = "easy";
    fuzzer = "test";
    save = (fun ck -> acc := ck :: !acc);
  }

let seq_config ?(budget = 3_000) ?(seed = 11) ?(cmplog = false)
    ?(mode = Pathcov.Feedback.Edge) () =
  { Fuzz.Campaign.default_config with mode; budget; rng_seed = seed; cmplog }

let run_seq ?checkpoint ?resume config prog seeds =
  let obs = Obs.Observer.create () in
  let r = Fuzz.Campaign.run ~obs ~config ?checkpoint ?resume prog ~seeds in
  (r, obs)

let shard_config ?(budget = 1_500) ?(seed = 11) ?(sync_interval = 256)
    ?(cmplog = false) ?(mode = Pathcov.Feedback.Edge) ~shards () =
  {
    Fuzz.Shard.base =
      { Fuzz.Campaign.default_config with mode; budget; rng_seed = seed; cmplog };
    shards;
    sync_interval;
  }

let run_shd ?checkpoint ?resume config prog seeds =
  let obs = Obs.Observer.create () in
  let r = Fuzz.Shard.run ~obs ?checkpoint ?resume config prog ~seeds in
  (r, obs)

let counter_fields (obs : Obs.Observer.t) =
  Obs.Counters.to_fields obs.Obs.Observer.counters

(* Campaign-level byte identity (the sequential analogue of
   test_shard.check_identical) plus the full counter block. *)
let check_campaign_identical label (a : Fuzz.Campaign.result) oa
    (b : Fuzz.Campaign.result) ob =
  check Alcotest.int (label ^ ": execs") a.execs b.execs;
  check Alcotest.int (label ^ ": blocks") a.sum_exec_blocks b.sum_exec_blocks;
  check Alcotest.int (label ^ ": havocs") a.havocs b.havocs;
  check
    (Alcotest.list Alcotest.string)
    (label ^ ": queue inputs")
    (Fuzz.Campaign.queue_inputs a)
    (Fuzz.Campaign.queue_inputs b);
  check Alcotest.int (label ^ ": total crashes") a.triage.total_crashes
    b.triage.total_crashes;
  check Alcotest.int (label ^ ": total hangs") a.triage.total_hangs
    b.triage.total_hangs;
  check Alcotest.int
    (label ^ ": stack-unique crashes")
    (Fuzz.Triage.unique_crashes a.triage)
    (Fuzz.Triage.unique_crashes b.triage);
  check Alcotest.int
    (label ^ ": coverage-novel crashes")
    (Fuzz.Triage.afl_unique_crashes a.triage)
    (Fuzz.Triage.afl_unique_crashes b.triage);
  check_bool
    (label ^ ": ground-truth bugs")
    true
    (Fuzz.Triage.bugs a.triage = Fuzz.Triage.bugs b.triage);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (label ^ ": counter block") (counter_fields oa) (counter_fields ob)

let check_shard_identical label (a : Fuzz.Shard.result) oa
    (b : Fuzz.Shard.result) ob =
  check_campaign_identical label a.campaign oa b.campaign ob;
  check_bool
    (label ^ ": virgin map bytes")
    true
    (Pathcov.Coverage_map.equal a.virgin b.virgin);
  check_bool
    (label ^ ": crash-virgin map bytes")
    true
    (Pathcov.Coverage_map.equal a.crash_virgin b.crash_virgin);
  check Alcotest.int (label ^ ": items planned") a.items b.items;
  check Alcotest.int (label ^ ": epochs") a.epochs b.epochs;
  check Alcotest.int (label ^ ": dup_dropped") a.dup_dropped b.dup_dropped

(* The snapshots a resumed run writes must be the straight run's tail:
   same boundaries, same fingerprints (wall-clock floats zeroed). *)
let check_snapshot_tail label ~(straight : Fuzz.Checkpoint.t list)
    ~(resumed_from : Fuzz.Checkpoint.t) (resumed : Fuzz.Checkpoint.t list) =
  let tail =
    List.filter
      (fun (ck : Fuzz.Checkpoint.t) ->
        ck.progress.execs > resumed_from.Fuzz.Checkpoint.progress.execs)
      straight
  in
  check Alcotest.int
    (label ^ ": resumed snapshot count")
    (List.length tail) (List.length resumed);
  List.iter2
    (fun (s : Fuzz.Checkpoint.t) (r : Fuzz.Checkpoint.t) ->
      check Alcotest.int
        (Printf.sprintf "%s: snapshot exec clock @%d" label s.progress.execs)
        s.progress.execs r.progress.execs;
      check Alcotest.int
        (Printf.sprintf "%s: snapshot fingerprint @%d" label s.progress.execs)
        (Fuzz.Checkpoint.fingerprint s)
        (Fuzz.Checkpoint.fingerprint r))
    tail resumed

(* Evenly-spaced sample of at most [n] elements (always includes the
   first and last) — resuming from every cycle boundary of a sequential
   run would be hundreds of runs for no extra coverage. *)
let sample n l =
  let len = List.length l in
  if len <= n then l
  else
    List.filteri
      (fun i _ -> i = 0 || i = len - 1 || i * (n - 1) / len <> (i + 1) * (n - 1) / len)
      l

(* ------------------------------------------------------------------ *)
(* Differential resume: sequential campaign                            *)
(* ------------------------------------------------------------------ *)

let test_sequential_resume () =
  let prog = Minic.Lower.compile easy_bug_src in
  List.iter
    (fun cmplog ->
      let config = seq_config ~cmplog () in
      let acc = ref [] in
      let straight, obs_s =
        run_seq ~checkpoint:(mem_sink acc) config prog [ "aa" ]
      in
      let cks = List.rev !acc in
      check_bool
        (Printf.sprintf "cmplog=%b: straight run wrote snapshots" cmplog)
        true
        (List.length cks >= 2);
      List.iter
        (fun (ck : Fuzz.Checkpoint.t) ->
          let label =
            Printf.sprintf "seq cmplog=%b resume@%d" cmplog ck.progress.execs
          in
          let acc_r = ref [] in
          let resumed, obs_r =
            run_seq ~checkpoint:(mem_sink acc_r) ~resume:ck config prog []
          in
          check_campaign_identical label straight obs_s resumed obs_r;
          check_snapshot_tail label ~straight:cks ~resumed_from:ck
            (List.rev !acc_r))
        (sample 5 cks))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Differential resume: sharded campaign                               *)
(* ------------------------------------------------------------------ *)

(* feedback mode x cmplog x resume shard count in {1, 2}: a snapshot
   taken at a merge barrier resumes byte-identically, at the snapshot's
   own shard count or a different one (barriers are functions of
   (seed, sync_interval) alone). *)
let test_sharded_resume () =
  let prog = Minic.Lower.compile easy_bug_src in
  List.iter
    (fun (mode, mname) ->
      List.iter
        (fun cmplog ->
          let acc = ref [] in
          let straight, obs_s =
            run_shd
              ~checkpoint:(mem_sink acc)
              (shard_config ~mode ~cmplog ~shards:2 ())
              prog [ "aa" ]
          in
          let cks = List.rev !acc in
          check_bool
            (Printf.sprintf "%s cmplog=%b: barriers wrote snapshots" mname
               cmplog)
            true
            (List.length cks >= 2);
          List.iter
            (fun shards ->
              List.iter
                (fun (ck : Fuzz.Checkpoint.t) ->
                  let label =
                    Printf.sprintf "%s cmplog=%b shards=%d resume@%d" mname
                      cmplog shards ck.progress.execs
                  in
                  let acc_r = ref [] in
                  let resumed, obs_r =
                    run_shd
                      ~checkpoint:(mem_sink acc_r)
                      ~resume:ck
                      (shard_config ~mode ~cmplog ~shards ())
                      prog []
                  in
                  check_shard_identical label straight obs_s resumed obs_r;
                  check_snapshot_tail label ~straight:cks ~resumed_from:ck
                    (List.rev !acc_r))
                (sample 3 cks))
            [ 1; 2 ])
        [ false; true ])
    [ (Pathcov.Feedback.Edge, "edge"); (Pathcov.Feedback.Pathafl, "pathafl") ]

(* A retention-heavy sharded pathafl campaign over a 2^18 map: its index
   sets need the 4-byte packing, and resuming from every barrier
   snapshot, at one shard or two, is still byte-identical. *)
let test_wide_map_resume () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config shards =
    {
      Fuzz.Shard.base =
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Pathafl;
          budget = 3_000;
          rng_seed = 5;
          map_size_log2 = 18;
        };
      shards;
      sync_interval = 512;
    }
  in
  let acc = ref [] in
  let straight, obs_s =
    run_shd ~checkpoint:(mem_sink acc) (config 2) prog s.seeds
  in
  let cks = List.rev !acc in
  check_bool "barriers wrote snapshots" true (List.length cks >= 3);
  let last = List.nth cks (List.length cks - 1) in
  check_bool "some index set is 4 bytes wide" true
    (Array.exists
       (fun (e : Fuzz.Checkpoint.entry_rec) ->
         Pathcov.Index_set.width e.e_indices = 4)
       last.entries);
  List.iter
    (fun shards ->
      List.iter
        (fun (ck : Fuzz.Checkpoint.t) ->
          let label =
            Printf.sprintf "map 2^18 shards=%d resume@%d" shards ck.progress.execs
          in
          let ck =
            match Fuzz.Checkpoint.of_string (Fuzz.Checkpoint.to_string ck) with
            | Ok ck -> ck
            | Error e -> Alcotest.fail (label ^ ": " ^ e)
          in
          let acc_r = ref [] in
          let resumed, obs_r =
            run_shd ~checkpoint:(mem_sink acc_r) ~resume:ck (config shards) prog []
          in
          check_shard_identical label straight obs_s resumed obs_r;
          check_snapshot_tail label ~straight:cks ~resumed_from:ck (List.rev !acc_r))
        cks)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Serialization round trip and robustness                             *)
(* ------------------------------------------------------------------ *)

(* A representative snapshot: mid-run, non-empty queue, crashes triaged. *)
let some_checkpoint () =
  let prog = Minic.Lower.compile easy_bug_src in
  let acc = ref [] in
  let _ =
    run_shd
      ~checkpoint:(mem_sink acc)
      (shard_config ~budget:2_000 ~cmplog:true ~shards:2 ())
      prog [ "aa" ]
  in
  match List.rev !acc with
  | [] -> Alcotest.fail "expected at least one snapshot"
  | _ :: _ as l -> List.nth l (List.length l - 1)

let test_roundtrip () =
  let ck = some_checkpoint () in
  let s = Fuzz.Checkpoint.to_string ck in
  match Fuzz.Checkpoint.of_string s with
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  | Ok ck2 ->
      check Alcotest.string "re-serialization is byte-identical" s
        (Fuzz.Checkpoint.to_string ck2);
      check Alcotest.int "fingerprints agree"
        (Fuzz.Checkpoint.fingerprint ck)
        (Fuzz.Checkpoint.fingerprint ck2);
      check Alcotest.int "exec clock survives" ck.progress.execs
        ck2.progress.execs;
      check Alcotest.int "queue survives"
        (Array.length ck.entries)
        (Array.length ck2.entries)

let expect_error label = function
  | Ok (_ : Fuzz.Checkpoint.t) ->
      Alcotest.fail (label ^ ": damaged snapshot was accepted")
  | Error msg ->
      check_bool (label ^ ": diagnostic is not empty") true
        (String.length msg > 0)

let test_rejects_damage () =
  let ck = some_checkpoint () in
  let s = Fuzz.Checkpoint.to_string ck in
  let len = String.length s in
  (* truncation at every interesting depth: inside the magic, inside the
     payload, one byte short of the checksum *)
  List.iter
    (fun n ->
      expect_error
        (Printf.sprintf "truncated to %d/%d bytes" n len)
        (Fuzz.Checkpoint.of_string (String.sub s 0 n)))
    [ 0; 5; len / 3; len / 2; len - 1 ];
  (* a single flipped payload byte must fail the whole-file checksum *)
  let flipped = Bytes.of_string s in
  let pos = len / 2 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
  expect_error "flipped payload byte"
    (Fuzz.Checkpoint.of_string (Bytes.to_string flipped));
  (* future version: same magic, version we do not understand *)
  let future = Bytes.of_string s in
  let vpos = String.length "pathfuzz-checkpoint/v" in
  Bytes.set future vpos '9';
  expect_error "future version"
    (Fuzz.Checkpoint.of_string (Bytes.to_string future));
  (* foreign files *)
  expect_error "empty string" (Fuzz.Checkpoint.of_string "");
  expect_error "foreign bytes"
    (Fuzz.Checkpoint.of_string "not a checkpoint at all\n\x00\x01\x02")

(* A payload can carry a valid checksum and still not fit the map it
   records: every index set and top-rated pair must be strictly
   ascending, inside [2^map_size_log2], and name a real entry, or the
   flat top-rated table of the restore path would fault. *)
let test_rejects_inconsistent_payload () =
  let ck = some_checkpoint () in
  let map_len = 1 lsl ck.id.map_size_log2 in
  let reencoded label (ck' : Fuzz.Checkpoint.t) =
    expect_error label
      (Fuzz.Checkpoint.of_string (Fuzz.Checkpoint.to_string ck'))
  in
  let with_entry0_indices a =
    let entries = Array.copy ck.entries in
    entries.(0) <- { entries.(0) with e_indices = Pathcov.Index_set.of_array a };
    { ck with entries }
  in
  check_bool "snapshot has entries and top-rated slots" true
    (Array.length ck.entries > 0 && Array.length ck.top_rated > 1);
  reencoded "entry index at the map size" (with_entry0_indices [| 1; map_len |]);
  reencoded "entry index set not ascending" (with_entry0_indices [| 5; 3 |]);
  reencoded "entry index set with a repeat" (with_entry0_indices [| 3; 3 |]);
  let with_top_rated f = { ck with top_rated = f (Array.copy ck.top_rated) } in
  reencoded "top-rated index at the map size"
    (with_top_rated (fun a ->
         let n = Array.length a in
         a.(n - 1) <- (map_len, snd a.(n - 1));
         a));
  reencoded "top-rated index negative"
    (with_top_rated (fun a ->
         a.(0) <- (-1, snd a.(0));
         a));
  reencoded "top-rated indices out of order"
    (with_top_rated (fun a ->
         let t = a.(0) in
         a.(0) <- a.(1);
         a.(1) <- t;
         a));
  reencoded "top-rated dangling entry id"
    (with_top_rated (fun a ->
         a.(0) <- (fst a.(0), ck.next_entry_id + 7);
         a));
  (* the unmodified snapshot still decodes *)
  match Fuzz.Checkpoint.of_string (Fuzz.Checkpoint.to_string ck) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("pristine snapshot rejected: " ^ e)

(* Format v1 stored every index as an int64; this build reads only v2,
   and says so. *)
let test_rejects_v1 () =
  let s = Fuzz.Checkpoint.to_string (some_checkpoint ()) in
  let vpos = String.length "pathfuzz-checkpoint/v" in
  check Alcotest.char "this build writes v2" '2' s.[vpos];
  let v1 = Bytes.of_string s in
  Bytes.set v1 vpos '1';
  match Fuzz.Checkpoint.of_string (Bytes.to_string v1) with
  | Ok _ -> Alcotest.fail "v1 snapshot accepted"
  | Error msg ->
      check_bool
        (Printf.sprintf "diagnostic names the version (%s)" msg)
        true
        (String.starts_with ~prefix:"unsupported checkpoint format version \"v1\""
           msg)

let test_compat_check () =
  let ck = some_checkpoint () in
  (match Fuzz.Checkpoint.check_compat ~expected:ck.id ck with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("identical config rejected: " ^ e));
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (match
     Fuzz.Checkpoint.check_compat
       ~expected:{ ck.id with rng_seed = ck.id.rng_seed + 1 }
       ck
   with
  | Ok () -> Alcotest.fail "seed mismatch accepted"
  | Error e ->
      check_bool "diagnostic names the field" true (contains e "seed"));
  match
    Fuzz.Checkpoint.check_compat
      ~expected:{ ck.id with subject = "other"; cmplog = not ck.id.cmplog }
      ck
  with
  | Ok () -> Alcotest.fail "multi-field mismatch accepted"
  | Error e ->
      check_bool "diagnostic lists every mismatch" true
        (contains e "subject" && contains e "cmplog")

let test_file_io () =
  let ck = some_checkpoint () in
  let path = Filename.temp_file "pathfuzz-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let bytes_written = Fuzz.Checkpoint.write_file ~path ck in
      check Alcotest.int "write_file reports the serialized size"
        (String.length (Fuzz.Checkpoint.to_string ck))
        bytes_written;
      (match Fuzz.Checkpoint.read_file path with
      | Error e -> Alcotest.fail ("read back failed: " ^ e)
      | Ok ck2 ->
          check Alcotest.string "file round trip is byte-identical"
            (Fuzz.Checkpoint.to_string ck)
            (Fuzz.Checkpoint.to_string ck2));
      check_bool "no .tmp residue left behind" false
        (Sys.file_exists (path ^ ".tmp")));
  match Fuzz.Checkpoint.read_file "/nonexistent/pathfuzz.ckpt" with
  | Ok _ -> Alcotest.fail "read of a missing file succeeded"
  | Error msg -> check_bool "missing file is a clean Error" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Steady state with a live sink                                       *)
(* ------------------------------------------------------------------ *)

(* Periodic checkpointing must not leak allocation into the mutator's
   steady state: same bound as the shard-loop allocation guarantee, with
   a sink capturing real snapshots at every barrier. *)
let test_allocation_with_checkpointing () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let obs = Obs.Observer.create ~clock:(fun () -> 0.) () in
  let saved = ref 0 in
  let sink =
    {
      Fuzz.Checkpoint.every = 1_024;
      subject = "cflow";
      fuzzer = "afl";
      save = (fun (_ : Fuzz.Checkpoint.t) -> incr saved);
    }
  in
  let cfg =
    {
      Fuzz.Shard.base =
        { Fuzz.Campaign.default_config with budget = 6_000; rng_seed = 3 };
      shards = 2;
      sync_interval = 512;
    }
  in
  let r = Fuzz.Shard.run ~obs ~checkpoint:sink cfg prog ~seeds:s.seeds in
  check_bool "snapshots were captured" true (!saved >= 2);
  check_bool "campaign generated candidates" true (r.campaign.havocs > 1_000);
  let per_cand =
    r.campaign.mut_minor_words /. float_of_int r.campaign.havocs
  in
  check_bool
    (Printf.sprintf
       "mutator minor words per candidate bounded with sink active (got %.1f)"
       per_cand)
    true
    (per_cand >= 0. && per_cand < 20.)

let suite =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "rng stream pinned" `Quick test_rng_pins;
        Alcotest.test_case "rng state round trip" `Quick
          test_rng_state_roundtrip;
        Alcotest.test_case "sequential resume byte-identical" `Quick
          test_sequential_resume;
        Alcotest.test_case "sharded resume byte-identical" `Quick
          test_sharded_resume;
        Alcotest.test_case "serialization round trip" `Quick test_roundtrip;
        Alcotest.test_case "sharded pathafl resume at map 2^18" `Quick
          test_wide_map_resume;
        Alcotest.test_case "damaged snapshots rejected" `Quick
          test_rejects_damage;
        Alcotest.test_case "inconsistent payloads rejected" `Quick
          test_rejects_inconsistent_payload;
        Alcotest.test_case "v1 snapshots rejected" `Quick test_rejects_v1;
        Alcotest.test_case "config compatibility check" `Quick
          test_compat_check;
        Alcotest.test_case "atomic file round trip" `Quick test_file_io;
        Alcotest.test_case "steady-state allocation with sink" `Quick
          test_allocation_with_checkpointing;
      ] );
  ]
