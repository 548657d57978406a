(* Tracer guarantees besides trajectory identity (which the contract
   suite checks across engines, DESIGN.md §12): retired compatibility
   fields are refused, comparison operands are captured on calibration
   runs only, and a finished campaign releases its artifact. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

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
  ignore
    (Vm.Interp.run ~fuel:config.fuel ~max_depth:config.max_depth
       ~hooks:{ Vm.Interp.no_hooks with h_cmp }
       prepared.Vm.Interp.prog ~input);
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
      config.mode
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
        Contract.claim "sequential engine identity" Contract.cflow_modes;
        Contract.claim "crash-dense engine identity" [ Contract.easy_bug_path ];
        Contract.claim "sharded engine identity" [ Contract.cflow_path_3000 ];
        Contract.claim "cross-engine checkpoint/resume identity"
          [ Contract.cflow_path_6000 ];
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
