(* Engine guarantees (DESIGN.md §12): campaign trajectories — queue
   contents and order, exec/block clocks, triage, snapshot rows — are
   byte-identical across execution engines (interpreter, fused closures,
   native units), shard counts, and checkpoint/resume under any
   engine. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

let row =
  Alcotest.testable
    (fun fmt (r : Obs.Snapshot.row) ->
      Fmt.pf fmt "row@%d queue=%d blocks=%d" r.at_exec r.queue r.blocks)
    ( = )

(* The seed "hi" triggers bug 5 immediately, so seed import, calibration
   and a dense neighborhood of mutated candidates all exercise every
   engine's crash path. *)
let easy_bug_src =
  "fn main() { if (in(0) == 104) { if (in(1) == 105) { bug(5); } } return 0; }"

(* Trajectory facts only: everything here is decision-determined. *)
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

let run_one ?(budget = 4_000) ?(seed = 7) ~engine ~mode ~cmplog prog seeds =
  let config =
    {
      Fuzz.Campaign.default_config with
      mode;
      budget;
      rng_seed = seed;
      cmplog;
      engine;
    }
  in
  Fuzz.Campaign.run ~obs:(Obs.Observer.create ()) ~config prog ~seeds

(* Every engine must replay the interpreter's reference trajectory, per
   feedback mode and cmplog setting. Native degrades to fused when the
   emitter is unavailable, so its variant holds on every host: with a
   toolchain it pins the generated units to the reference trajectory,
   without one it pins the fallback path. *)
let engine_variants =
  [ (Fuzz.Tracer.Fused, "fused"); (Fuzz.Tracer.Native, "native") ]

let test_sequential_engines () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  List.iter
    (fun (mode, mname) ->
      List.iter
        (fun cmplog ->
          let base =
            run_one ~engine:Fuzz.Tracer.Interp ~mode ~cmplog prog s.seeds
          in
          List.iter
            (fun (engine, ename) ->
              let r = run_one ~engine ~mode ~cmplog prog s.seeds in
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
    run_one ~budget:3_000 ~seed:5 ~engine:Fuzz.Tracer.Interp
      ~mode:Pathcov.Feedback.Path ~cmplog:true prog [ "hi" ]
  in
  check_bool "crash-dense subject actually crashes" true
    (base.triage.total_crashes > 0);
  List.iter
    (fun (engine, ename) ->
      let r =
        run_one ~budget:3_000 ~seed:5 ~engine ~mode:Pathcov.Feedback.Path
          ~cmplog:true prog [ "hi" ]
      in
      check_traj ("easy-bug path " ^ ename) base r)
    engine_variants

(* ------------------------------------------------------------------ *)
(* Sharded campaigns                                                  *)
(* ------------------------------------------------------------------ *)

let run_shd ~engine ~shards prog seeds =
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

(* Every engine runs the same sharded trajectory (and the same barrier
   duplicate-drop count) at every shard count. *)
let test_sharded_engines () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let base = run_shd ~engine:Fuzz.Tracer.Interp ~shards:1 prog s.seeds in
  List.iter
    (fun shards ->
      List.iter
        (fun (engine, ename) ->
          check_shard_traj
            (Printf.sprintf "sharded %s shards=%d" ename shards)
            base
            (run_shd ~engine ~shards prog s.seeds))
        [
          (Fuzz.Tracer.Fused, "fused");
          (Fuzz.Tracer.Interp, "interp");
          (Fuzz.Tracer.Native, "native");
        ])
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume across engines                                  *)
(* ------------------------------------------------------------------ *)

(* Checkpoints exclude the engine axis, so a snapshot written under one
   engine must resume identically under another — including Native,
   whose resumes cross the Dynlink'd generated units (or the fallback
   path on toolchain-less hosts). *)
let test_cross_engine_resume () =
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
            Printf.sprintf "resume@%d (%s)"
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
(* Compatibility fields                                               *)
(* ------------------------------------------------------------------ *)

(* [Campaign.config.selective] and [Tracer.make ~selective] outlive the
   feature they configured; asking for it is an error everywhere. *)
let test_selective_rejected () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let raises label f =
    check_bool label true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  raises "Tracer.make ~selective:true" (fun () ->
      ignore
        (Fuzz.Tracer.make ~engine:Fuzz.Tracer.Fused ~selective:true
           ~cmplog:true ~mode:Pathcov.Feedback.Path
           (Vm.Interp.prepare_cached prog)));
  let config =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 500;
      selective = true;
    }
  in
  raises "Campaign.run with selective = true" (fun () ->
      ignore (Fuzz.Campaign.run ~config prog ~seeds:s.seeds));
  raises "Shard.run with selective = true" (fun () ->
      ignore
        (Fuzz.Shard.run
           { Fuzz.Shard.base = config; shards = 2; sync_interval = 512 }
           prog ~seeds:s.seeds))

(* ------------------------------------------------------------------ *)
(* Calibration-only comparison capture                                *)
(* ------------------------------------------------------------------ *)

(* The reference capture: an always-on probe applying the per-exec
   dedupe rule (skip equal operands, skip pairs already held, stop at the
   buffer's capacity) over a fresh interpreter run of [input]. Returns
   the pairs in capture order. *)
let reference_pairs prepared (config : Fuzz.Campaign.config) input =
  let cap = Array.length (Fuzz.Campaign.make_cmp_buf ()).ops_a in
  let pairs = ref [] and n = ref 0 in
  let h_cmp a b =
    if a <> b && !n < cap && not (List.mem (a, b) !pairs) then begin
      pairs := (a, b) :: !pairs;
      incr n
    end
  in
  let ctx =
    Vm.Interp.create_ctx ~hooks:{ Vm.Interp.no_hooks with h_cmp } prepared
  in
  ignore
    (Vm.Interp.run_ctx ~fuel:config.fuel ~max_depth:config.max_depth ctx
       ~input);
  List.rev !pairs

(* What [calibrate] hands the mutator for the reference pairs: both
   substitution directions per pair. *)
let both_directions pairs =
  Array.of_list
    (List.concat_map
       (fun (a, b) ->
         [
           { Fuzz.Mutator.observed = a; wanted = b };
           { Fuzz.Mutator.observed = b; wanted = a };
         ])
       pairs)

let cmp_pair =
  Alcotest.testable
    (fun fmt (p : Fuzz.Mutator.cmp_pair) ->
      Fmt.pf fmt "%d->%d" p.observed p.wanted)
    ( = )

let capture_variants =
  [
    (Fuzz.Tracer.Interp, "interp");
    (Fuzz.Tracer.Fused, "fused");
    (Fuzz.Tracer.Native, "native");
  ]

(* Comparison operands are captured on calibration runs only. Every
   engine must hand the mutator exactly the reference pairs of the
   calibrated entry, and the candidate runs in between (cohorts of one
   through [process], plain [execute]s) must leave the buffer
   untouched. Sharded calibration runs are checked
   through their events: each carries the pair count its capture saw. *)
let test_calibration_capture_oracle () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let prepared = Vm.Interp.prepare prog in
  let config =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 3_000;
      rng_seed = 7;
      cmplog = true;
    }
  in
  let queue =
    Fuzz.Campaign.queue_inputs (Fuzz.Campaign.run ~config prog ~seeds:s.seeds)
  in
  let others = Array.of_list queue in
  check_bool "queue to calibrate" true (Array.length others > 10);
  List.iter
    (fun (engine, ename) ->
      let config = { config with engine } in
      let st = Fuzz.Campaign.make_state ~config prog in
      List.iter (Fuzz.Campaign.add_seed st) queue;
      let b = st.cmp_buf in
      let saturated = ref 0 in
      for i = 0 to Fuzz.Corpus.size st.corpus - 1 do
        let e = Fuzz.Corpus.get st.corpus i in
        let want = reference_pairs prepared config e.data in
        if List.length want = Array.length b.ops_a then incr saturated;
        check (Alcotest.array cmp_pair)
          (Printf.sprintf "%s: entry %d pairs" ename i)
          (both_directions want)
          (Fuzz.Campaign.calibrate st e);
        let held = (b.n_cmps, Array.copy b.ops_a, Array.copy b.ops_b) in
        let other = others.((i + 1) mod Array.length others) in
        Fuzz.Campaign.process st ~depth:1 other;
        ignore (Fuzz.Campaign.execute st other);
        check_bool
          (Printf.sprintf "%s: candidates after entry %d leave the buffer"
             ename i)
          true
          (held = (b.n_cmps, b.ops_a, b.ops_b))
      done;
      check_bool (ename ^ ": some entries below capacity") true
        (!saturated < Fuzz.Corpus.size st.corpus);
      List.iter
        (fun shards ->
          let ring = Obs.Sink.create_ring ~capacity:(1 lsl 16) () in
          let r =
            Fuzz.Shard.run
              ~obs:(Obs.Observer.create ~sink:(Obs.Sink.ring ring) ())
              { Fuzz.Shard.base = config; shards; sync_interval = 512 }
              prog ~seeds:s.seeds
          in
          let data = Hashtbl.create 64 in
          Fuzz.Corpus.iter
            (fun (e : Fuzz.Corpus.entry) -> Hashtbl.replace data e.id e.data)
            r.campaign.corpus;
          let calibrations = ref 0 in
          List.iter
            (function
              | Obs.Event.Calibration { entry; cmps; _ } ->
                  incr calibrations;
                  check Alcotest.int
                    (Printf.sprintf "%s shards=%d: entry %d pair count" ename
                       shards entry)
                    (List.length
                       (reference_pairs prepared config (Hashtbl.find data entry)))
                    cmps
              | _ -> ())
            (Obs.Sink.ring_events ring);
          check_bool
            (Printf.sprintf "%s shards=%d: calibrations seen" ename shards)
            true (!calibrations > 10))
        [ 1; 2 ])
    capture_variants

(* A finished campaign releases its tracer: the per-domain cached
   artifact no longer keeps the campaign's trace map alive (a weak
   pointer taken while the campaign runs is cleared by a full major
   collection after it returns), and the released tracer refuses to
   run. *)
let test_release_unbinds_cached_artifact () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 1_000;
      engine = Fuzz.Tracer.Fused;
    }
  in
  let prepared = Vm.Interp.prepare_cached prog in
  let art =
    Vm.Compile.cached ~cmplog:config.cmplog prepared
      (Vm.Compile.Sfull config.mode)
  in
  let probe = Weak.create 1 in
  let sink =
    Obs.Sink.make (function
      | Obs.Event.Snapshot _ when not (Weak.check probe 0) ->
          Weak.set probe 0 (Some (Vm.Compile.bound_trace art))
      | _ -> ())
  in
  let st = Fuzz.Campaign.make_state ~config prog in
  check_bool "campaign binds the cached artifact" true
    (Vm.Compile.bound_trace art == st.feedback.trace);
  ignore (Fuzz.Campaign.run_state st ~seeds:s.seeds);
  check_bool "released tracer refuses to run" true
    (match Fuzz.Campaign.execute st "x" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "artifact unbound from the campaign" true
    (Vm.Compile.bound_trace art != st.feedback.trace);
  (* [st] is still reachable here, so probe a campaign whose state only
     [Campaign.run] holds *)
  ignore
    (Fuzz.Campaign.run ~obs:(Obs.Observer.create ~sink ()) ~config prog
       ~seeds:s.seeds);
  check_bool "probe armed during the run" true (Weak.check probe 0);
  Gc.full_major ();
  check_bool "finished campaign's trace map collected" false
    (Weak.check probe 0)

(* Under the native engine a comparison reaches [h_cmp] only inside a
   [Campaign.capturing] window: the unit's probes are armed there and
   nowhere else. A counting wrapper around each campaign's own probe
   sees every call; calls outside a window must be zero, while the
   calibrations still hand the mutator the always-on reference pairs.
   The same holds with one and with two campaigns running at once on
   their own domains (the arm flag is per unit instance). A released
   tracer is left disarmed. *)
let test_native_cmp_armed_only_while_capturing () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let prepared = Vm.Interp.prepare prog in
  let base =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 3_000;
      rng_seed = 7;
      cmplog = true;
    }
  in
  let queue =
    Array.of_list
      (Fuzz.Campaign.queue_inputs (Fuzz.Campaign.run ~config:base prog ~seeds:s.seeds))
  in
  let config = { base with engine = Fuzz.Tracer.Native } in
  (* one campaign: (native live, calls inside, calls outside, pair
     mismatches, armed after) *)
  let campaign () =
    let st = Fuzz.Campaign.make_state ~config prog in
    let inside = ref 0 and outside = ref 0 and mismatches = ref 0 in
    let probe = st.ctx.Vm.Interp.hooks.h_cmp in
    Fuzz.Tracer.bind st.tracer ~trace:st.feedback.trace ~h_cmp:(fun a b ->
        if st.cmp_buf.capture then incr inside else incr outside;
        probe a b);
    Array.iter (Fuzz.Campaign.add_seed st) queue;
    for i = 0 to Fuzz.Corpus.size st.corpus - 1 do
      let e = Fuzz.Corpus.get st.corpus i in
      if
        Fuzz.Campaign.calibrate st e
        <> both_directions (reference_pairs prepared config e.data)
      then incr mismatches;
      let other = queue.((i + 1) mod Array.length queue) in
      Fuzz.Campaign.process st ~depth:1 other;
      ignore (Fuzz.Campaign.execute st other)
    done;
    let armed_after = Fuzz.Tracer.cmp_armed st.tracer in
    ( Fuzz.Tracer.emit_fallback st.tracer = None,
      !inside,
      !outside,
      !mismatches,
      armed_after )
  in
  List.iter
    (fun domains ->
      List.init domains (fun _ -> Domain.spawn campaign)
      |> List.map Domain.join
      |> List.iteri (fun d (live, inside, outside, mismatches, armed_after) ->
             let where = Printf.sprintf "domains=%d #%d" domains d in
             check Alcotest.int (where ^ ": calibration pairs") 0 mismatches;
             check_bool (where ^ ": window closed after the campaign") false
               armed_after;
             if live then begin
               check_bool (where ^ ": h_cmp called while capturing") true
                 (inside > 0);
               check Alcotest.int (where ^ ": h_cmp calls outside windows") 0
                 outside
             end))
    [ 1; 2 ];
  let tracer =
    Fuzz.Tracer.make ~engine:Fuzz.Tracer.Native ~selective:false ~cmplog:true
      ~mode:Pathcov.Feedback.Path prepared
  in
  Fuzz.Tracer.arm_cmp tracer true;
  check_bool "arming reaches a live native unit" true
    (Fuzz.Tracer.cmp_armed tracer = (Fuzz.Tracer.emit_fallback tracer = None));
  Fuzz.Tracer.release tracer;
  check_bool "released tracer disarmed" false (Fuzz.Tracer.cmp_armed tracer)

let suite =
  [
    ( "tracer",
      [
        Alcotest.test_case "sequential engine identity" `Slow
          test_sequential_engines;
        Alcotest.test_case "crash-dense engine identity" `Quick
          test_sequential_engines_crashy;
        Alcotest.test_case "sharded engine identity" `Slow
          test_sharded_engines;
        Alcotest.test_case "cross-engine checkpoint/resume identity" `Quick
          test_cross_engine_resume;
        Alcotest.test_case "selective compatibility fields rejected" `Quick
          test_selective_rejected;
        Alcotest.test_case "calibration-only cmplog capture oracle" `Quick
          test_calibration_capture_oracle;
        Alcotest.test_case "finished campaign releases its artifact" `Quick
          test_release_unbinds_cached_artifact;
        Alcotest.test_case "native cmplog armed only while capturing" `Quick
          test_native_cmp_armed_only_while_capturing;
      ] );
  ]
