(* Engine and selective-tracing guarantees (DESIGN.md §12): campaign
   trajectories — queue contents and order, exec/block clocks, triage,
   snapshot rows — are byte-identical across execution engines
   (interpreter, fused closures, native units), selective tracing on/off, shard
   counts, and checkpoint/resume under either engine. Probe self-pruning
   marks functions whose Ball–Larus commit universe is saturated and
   unmarks them when the virgin map is replaced. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

let row =
  Alcotest.testable
    (fun fmt (r : Obs.Snapshot.row) ->
      Fmt.pf fmt "row@%d queue=%d blocks=%d" r.at_exec r.queue r.blocks)
    ( = )

(* The seed "hi" triggers bug 5 immediately, so seed import, calibration
   and a dense neighborhood of mutated candidates all exercise the
   selective crash-replay path. *)
let easy_bug_src =
  "fn main() { if (in(0) == 104) { if (in(1) == 105) { bug(5); } } return 0; }"

(* Trajectory facts only: everything here is decision-determined.
   Deliberately NOT the full counter block — selective tracing spends a
   different number of (off-clock) replays, which is the point. Snapshot
   rows exclude the replay counter, so they compare equal. *)
let check_traj label (a : Fuzz.Campaign.result) (b : Fuzz.Campaign.result) =
  check Alcotest.int (label ^ ": execs") a.execs b.execs;
  check Alcotest.int (label ^ ": blocks") a.sum_exec_blocks b.sum_exec_blocks;
  check Alcotest.int (label ^ ": havocs") a.havocs b.havocs;
  check
    (Alcotest.list Alcotest.string)
    (label ^ ": queue inputs")
    (Fuzz.Campaign.queue_inputs a)
    (Fuzz.Campaign.queue_inputs b);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (label ^ ": queue series") a.queue_series b.queue_series;
  check (Alcotest.list row) (label ^ ": snapshot rows") a.snapshots b.snapshots;
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
    (Fuzz.Triage.bugs a.triage = Fuzz.Triage.bugs b.triage)

let run_one ?(budget = 4_000) ?(seed = 7) ~engine ~selective ~mode ~cmplog prog
    seeds =
  let config =
    {
      Fuzz.Campaign.default_config with
      mode;
      budget;
      rng_seed = seed;
      cmplog;
      engine;
      selective;
    }
  in
  Fuzz.Campaign.run ~obs:(Obs.Observer.create ()) ~config prog ~seeds

(* Every engine x selective combination must replay the reference
   trajectory, per feedback mode and cmplog setting. Native degrades to
   fused when the emitter is unavailable, so its variants hold on every
   host: with a toolchain they pin the generated units to the reference
   trajectory, without one they pin the fallback path. *)
let engine_variants =
  [
    (Fuzz.Tracer.Fused, false, "fused");
    (Fuzz.Tracer.Fused, true, "fused+sel");
    (Fuzz.Tracer.Interp, true, "interp+sel");
    (Fuzz.Tracer.Native, false, "native");
    (Fuzz.Tracer.Native, true, "native+sel");
  ]

let test_sequential_engines () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  List.iter
    (fun (mode, mname) ->
      List.iter
        (fun cmplog ->
          let base =
            run_one ~engine:Fuzz.Tracer.Interp ~selective:false ~mode ~cmplog
              prog s.seeds
          in
          List.iter
            (fun (engine, selective, ename) ->
              let r = run_one ~engine ~selective ~mode ~cmplog prog s.seeds in
              check_traj
                (Printf.sprintf "cflow/%s cmplog=%b %s" mname cmplog ename)
                base r)
            engine_variants)
        [ false; true ])
    [
      (Pathcov.Feedback.Path, "path");
      (Pathcov.Feedback.Edge, "edge");
      (Pathcov.Feedback.Pathafl, "pathafl");
    ]

let test_sequential_engines_crashy () =
  let prog = Minic.Lower.compile easy_bug_src in
  let base =
    run_one ~budget:3_000 ~seed:5 ~engine:Fuzz.Tracer.Interp ~selective:false
      ~mode:Pathcov.Feedback.Path ~cmplog:true prog [ "hi" ]
  in
  check_bool "crash-dense subject actually crashes" true
    (base.triage.total_crashes > 0);
  List.iter
    (fun (engine, selective, ename) ->
      let r =
        run_one ~budget:3_000 ~seed:5 ~engine ~selective
          ~mode:Pathcov.Feedback.Path ~cmplog:true prog [ "hi" ]
      in
      check_traj ("easy-bug path " ^ ename) base r)
    engine_variants

(* ------------------------------------------------------------------ *)
(* Sharded campaigns                                                  *)
(* ------------------------------------------------------------------ *)

let run_shd ~engine ~selective ~shards prog seeds =
  let cfg =
    {
      Fuzz.Shard.base =
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Path;
          budget = 2_500;
          rng_seed = 11;
          cmplog = true;
          engine;
          selective;
        };
      shards;
      sync_interval = 512;
    }
  in
  Fuzz.Shard.run ~obs:(Obs.Observer.create ()) cfg prog ~seeds

let check_shard_traj label (a : Fuzz.Shard.result) (b : Fuzz.Shard.result) =
  check_traj label a.campaign b.campaign;
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

(* The per-shard seen sets must be invisible: same trajectory (and the
   same barrier duplicate-drop count) for selective on/off at every
   shard count. *)
let test_sharded_selective () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let base =
    run_shd ~engine:Fuzz.Tracer.Interp ~selective:false ~shards:1 prog s.seeds
  in
  List.iter
    (fun shards ->
      let r =
        run_shd ~engine:Fuzz.Tracer.Fused ~selective:true ~shards prog
          s.seeds
      in
      check_shard_traj
        (Printf.sprintf "sharded fused+sel shards=%d" shards)
        base r;
      let r2 =
        run_shd ~engine:Fuzz.Tracer.Interp ~selective:true ~shards prog s.seeds
      in
      check_shard_traj
        (Printf.sprintf "sharded interp+sel shards=%d" shards)
        base r2;
      let r3 =
        run_shd ~engine:Fuzz.Tracer.Native ~selective:true ~shards prog s.seeds
      in
      check_shard_traj
        (Printf.sprintf "sharded native+sel shards=%d" shards)
        base r3)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume under selective tracing                          *)
(* ------------------------------------------------------------------ *)

(* The seen-signal set is deliberately absent from snapshots: a resumed
   selective run starts with an empty set, re-replays a few signals and
   reaches identical decisions. Checkpoints exclude the engine axis, so
   a snapshot written under one engine must resume identically under
   another — including Native, whose resumes cross the Dynlink'd
   generated units (or the fallback path on toolchain-less hosts). *)
let test_selective_resume () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config_for engine =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 6_000;
      rng_seed = 3;
      cmplog = true;
      engine;
      selective = true;
    }
  in
  let acc = ref [] in
  let sink =
    {
      Fuzz.Checkpoint.every = 2_000;
      subject = "cflow";
      fuzzer = "test";
      save = (fun ck -> acc := ck :: !acc);
    }
  in
  let straight =
    Fuzz.Campaign.run
      ~config:(config_for Fuzz.Tracer.Fused)
      ~checkpoint:sink prog ~seeds:s.seeds
  in
  check_bool "wrote at least one checkpoint" true (!acc <> []);
  List.iter
    (fun (engine, ename) ->
      let config = config_for engine in
      List.iter
        (fun ck ->
          let resumed = Fuzz.Campaign.run ~config ~resume:ck prog ~seeds:[] in
          let label =
            Printf.sprintf "selective resume@%d (%s)"
              ck.Fuzz.Checkpoint.progress.execs ename
          in
          check Alcotest.int (label ^ ": execs") straight.execs resumed.execs;
          check
            (Alcotest.list Alcotest.string)
            (label ^ ": queue inputs")
            (Fuzz.Campaign.queue_inputs straight)
            (Fuzz.Campaign.queue_inputs resumed);
          check Alcotest.int (label ^ ": blocks") straight.sum_exec_blocks
            resumed.sum_exec_blocks;
          check Alcotest.int (label ^ ": total crashes")
            straight.triage.total_crashes resumed.triage.total_crashes;
          check_bool
            (label ^ ": ground-truth bugs")
            true
            (Fuzz.Triage.bugs straight.triage = Fuzz.Triage.bugs resumed.triage))
        !acc)
    [ (Fuzz.Tracer.Fused, "fused"); (Fuzz.Tracer.Native, "native") ]

(* ------------------------------------------------------------------ *)
(* Probe self-pruning                                                 *)
(* ------------------------------------------------------------------ *)

(* Merge every index of [idxs] at every bucket, saturating it. *)
let saturate virgin (idxs : int array) =
  let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
  let vals = String.make (Array.length idxs) '\255' in
  ignore
    (Pathcov.Coverage_map.merge_sparse_into ~virgin
       ~idxs:(Pathcov.Index_set.of_array idxs) ~vals)

let saturate_universe virgin (u : int array) =
  let mask = Pathcov.Coverage_map.size virgin - 1 in
  saturate virgin (Array.map (fun i -> i land mask) u)

let test_pruning_marks () =
  let prog = Minic.Lower.compile easy_bug_src in
  let prepared = Vm.Interp.prepare_cached prog in
  let tracer =
    Fuzz.Tracer.make ~engine:Fuzz.Tracer.Fused ~selective:true
      ~cmplog:false ~mode:Pathcov.Feedback.Path prepared
  in
  check_bool "pruning available (fused+selective+path)" true
    (Fuzz.Tracer.pruning_available tracer);
  let interp_tracer =
    Fuzz.Tracer.make ~engine:Fuzz.Tracer.Interp ~selective:true ~cmplog:false
      ~mode:Pathcov.Feedback.Path prepared
  in
  check_bool "pruning unavailable on the interpreter engine" false
    (Fuzz.Tracer.pruning_available interp_tracer);
  let virgin = Pathcov.Coverage_map.create_virgin () in
  Fuzz.Tracer.refresh_pruning tracer ~virgin;
  check Alcotest.int "fresh virgin map prunes nothing" 0
    (Fuzz.Tracer.pruned_fids tracer);
  (* saturate every enumerable commit universe; main's three acyclic
     paths are comfortably within the enumeration bound *)
  let art = Vm.Compile.cached ~cmplog:false prepared (Vm.Compile.Sfull Pathcov.Feedback.Path) in
  let enumerable = ref 0 in
  Array.iteri
    (fun fid _ ->
      let u = Vm.Compile.path_universe art fid in
      if Array.length u > 0 then begin
        incr enumerable;
        saturate_universe virgin u
      end)
    prepared.Vm.Interp.rfuncs;
  check_bool "at least one enumerable function" true (!enumerable > 0);
  Fuzz.Tracer.refresh_pruning tracer ~virgin;
  check Alcotest.int "saturated universes all prune" !enumerable
    (Fuzz.Tracer.pruned_fids tracer);
  (* a fresh (restored) virgin map must unprune everything again *)
  let fresh = Pathcov.Coverage_map.create_virgin () in
  Fuzz.Tracer.refresh_pruning tracer ~virgin:fresh;
  check Alcotest.int "fresh virgin map unprunes" 0
    (Fuzz.Tracer.pruned_fids tracer)

(* End to end: a campaign whose virgin map is fully saturated must prune
   during calibration — and still calibrate/triage correctly (the
   crash-dense entry replays unpruned before crash triage). *)
let test_pruning_in_calibration () =
  let prog = Minic.Lower.compile easy_bug_src in
  let config =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 1_000;
      cmplog = true;
      engine = Fuzz.Tracer.Fused;
      selective = true;
    }
  in
  let st = Fuzz.Campaign.make_state ~config prog in
  Fuzz.Campaign.add_seed st "xx";
  check_bool "seed retained" true (Fuzz.Corpus.size st.corpus > 0);
  (* saturate the whole virgin map *)
  saturate st.virgin (Array.init (Pathcov.Coverage_map.size st.virgin) Fun.id);
  let crashes0 = st.triage.total_crashes in
  ignore (Fuzz.Campaign.calibrate st (Fuzz.Corpus.get st.corpus 0));
  check_bool "calibration engaged pruning" true
    (Fuzz.Tracer.pruned_fids st.tracer > 0);
  (* the crashing seed "hi" was never retained; force a crash calibration
     on a synthetic entry to cross the pruned-crash replay path *)
  let e =
    Fuzz.Corpus.add st.corpus ~data:"hi" ~indices:[||] ~exec_blocks:1 ~depth:0
      ~found_at:0
  in
  ignore (Fuzz.Campaign.calibrate st e);
  check Alcotest.int "pruned calibration still triages crashes"
    (crashes0 + 1) st.triage.total_crashes

let suite =
  [
    ( "tracer",
      [
        Alcotest.test_case "sequential engine/selective identity" `Slow
          test_sequential_engines;
        Alcotest.test_case "crash-dense engine/selective identity" `Quick
          test_sequential_engines_crashy;
        Alcotest.test_case "sharded selective identity" `Slow
          test_sharded_selective;
        Alcotest.test_case "selective checkpoint/resume identity" `Quick
          test_selective_resume;
        Alcotest.test_case "pruning marks follow virgin saturation" `Quick
          test_pruning_marks;
        Alcotest.test_case "pruning engages in calibration" `Quick
          test_pruning_in_calibration;
      ] );
  ]
