(** Execution-engine selection for campaigns, and the only module that
    knows which engine runs.

    A campaign executes candidates through one of three engines over the
    same pooled {!Vm.Interp.exec_ctx}:

    - [Interp]: the reference CFG interpreter driving the runtime
      feedback listener through hooks;
    - [Fused]: the {!Vm.Compile} staged artifact — the listener probes
      partially evaluated into the block closures, single-predecessor
      goto chains collapsed into one closure with coalesced fuel burns
      and folded Ball–Larus increments;
    - [Native]: the {!Vm.Emit} per-subject generated OCaml unit — the
      fused plan plus out-of-process [ocamlopt] and a Dynlink load,
      cached on disk. When emission fails for any reason (no toolchain,
      compile error, forced [PATHFUZZ_EMIT_FAIL]) the tracer degrades
      to [Fused], records why ({!emit_fallback}) and says so in one
      stderr line per process, so campaigns behave identically on
      toolchain-less machines.

    The tracer wires the probes ({!attach}), opens and closes the one
    cmplog capture window ({!arm_cmp}) and harvests the engine metrics
    ({!harvest_metrics}), so no caller matches on the engine. All
    engines produce byte-identical traces, outcomes and fuel accounting
    (test-enforced differentially), so the engine choice is invisible to
    the fuzzing trajectory. Every execution runs fully instrumented. *)

type engine = Interp | Fused | Native

let engine_name = function
  | Interp -> "interp"
  | Fused -> "fused"
  | Native -> "native"

let engine_of_name = function
  | "interp" -> Some Interp
  | "fused" -> Some Fused
  | "native" -> Some Native
  | _ -> None

let engine_names = [ "interp"; "fused"; "native" ]

let matrix_engine = Fused

(* Set by the first native fallback of the process, on whichever domain
   it happens, so the stderr line is printed once. *)
let fallback_reported = Atomic.make false

(* The VM-wall bracket, preallocated once per tracer so that timing a
   run allocates nothing but its two clock reads: the running batch's
   clock, charge, [gen] and [sink] sit in mutable slots read by two fixed
   wrappers; every timed batch sets all four (batches never nest).
   [walls] holds the start stamp and the accumulated VM wall in
   a float array, whose stores do not box. *)
type bracket = {
  mutable now : unit -> float;
  mutable charge : (float -> unit) option;
      (** a caller's per-run charge; [None] accumulates into [walls.(1)] *)
  mutable gen : int -> Bytes.t * int;
  mutable sink : int -> Vm.Interp.outcome -> unit;
  walls : float array;
}

(* [gen] returning marks the start of a run and the matching [sink] call
   its end, so generation and consumption stay outside the measured
   wall: exactly two clock reads per run. *)
let bracket_gen (b : bracket) k =
  let v = b.gen k in
  Array.unsafe_set b.walls 0 (b.now ());
  v

let bracket_sink (b : bracket) k out =
  let dt = b.now () -. Array.unsafe_get b.walls 0 in
  (match b.charge with
  | None -> Array.unsafe_set b.walls 1 (Array.unsafe_get b.walls 1 +. dt)
  | Some f -> f dt);
  b.sink k out

type t = {
  engine : engine;
  prepared : Vm.Interp.prepared;
  mode : Pathcov.Feedback.mode;
  plans : Pathcov.Ball_larus.program_plans option;
  cmplog : bool;  (** were comparison probes asked for? *)
  full_art : Vm.Compile.t option;  (** [Fused]: the closure artifact *)
  full_emit : Vm.Emit.t option;  (** [Native]: the emitted unit *)
  entry : Vm.Interp.entry option;
      (** the compiled engine's way into the run harness, chosen once
          here; [None] runs the interpreter *)
  emit_fallback : string option;
      (** [Native] only: why emission failed and the tracer degraded to
          the fused closure engine ([None] when native is live) *)
  compile_s : float;  (** wall spent compiling artifacts (0 unclocked) *)
  clock : (unit -> float) option;  (** default VM-wall clock of every batch *)
  bracket : bracket;
  timed_gen : int -> Bytes.t * int;  (** [bracket_gen bracket] *)
  timed_sink : int -> Vm.Interp.outcome -> unit;  (** [bracket_sink bracket] *)
  mutable cmp_on : bool;
      (** [Interp]: the capture window its [h_cmp] hook tests (the
          compiled engines keep theirs in the artifact) *)
  mutable released : bool;  (** {!release}d: every run entry refuses *)
}

(** Build a tracer over a prepared subject. [shared] (default [true])
    memoises compiled artifacts per domain ({!Vm.Compile.cached});
    sharded campaigns pass [~shared:false] to compile fresh per shard —
    the artifact's rebindable state is single-threaded. [cmplog = false]
    leaves the comparison probes out (compiled code has none, the
    interpreter's hook does nothing), so {!attach}'s [h_cmp] is never
    called. [clock] (optional, observation-only) times the
    artifact compilations into [engine.compile_s] and is the default
    clock of every batch, whose VM walls accumulate until {!take_vm_s}.
    [selective] survives only because the benchmark harness still names
    it: [true] raises [Invalid_argument]. Drop it with the next
    benchmark change. *)
let make ?plans ?clock ?(shared = true) ~(engine : engine)
    ~(selective : bool) ~(cmplog : bool) ~(mode : Pathcov.Feedback.mode)
    (prepared : Vm.Interp.prepared) : t =
  if selective then
    invalid_arg "Tracer.make: selective tracing was removed";
  let compile_s = ref 0. in
  let clocked f =
    let t0 = match clock with Some c -> c () | None -> 0. in
    let r = f () in
    (match clock with
    | Some c -> compile_s := !compile_s +. (c () -. t0)
    | None -> ());
    r
  in
  (* [Native]: emit + load the unit up front, or degrade to fused (see
     the header). *)
  let full_emit, emit_fallback =
    match engine with
    | Interp | Fused -> (None, None)
    | Native -> (
        match
          clocked (fun () ->
              Vm.Emit.instance ?plans ~cmplog prepared mode)
        with
        | Ok full -> (Some full, None)
        | Error reason ->
            Vm.Emit.note_fallback ();
            if not (Atomic.exchange fallback_reported true) then
              Printf.eprintf
                "pathfuzz: native engine unavailable (%s); continuing on fused\n%!"
                reason;
            (None, Some reason))
  in
  let closures =
    match engine with
    | Fused -> true
    | Native -> emit_fallback <> None
    | Interp -> false
  in
  let full_art =
    if closures then
      Some
        (clocked (fun () ->
             if shared then Vm.Compile.cached ?plans ~cmplog prepared mode
             else Vm.Compile.compile ?plans ~cmplog prepared mode))
    else None
  in
  let bracket =
    {
      now = (fun () -> 0.);
      charge = None;
      gen = (fun _ -> (Bytes.empty, 0));
      sink = (fun _ _ -> ());
      walls = [| 0.; 0. |];
    }
  in
  let entry =
    match (full_emit, full_art) with
    | Some e, _ -> Some (Vm.Emit.entry e)
    | None, Some art -> Some (Vm.Compile.entry art)
    | None, None -> None
  in
  {
    engine;
    prepared;
    mode;
    plans;
    cmplog;
    full_art;
    full_emit;
    entry;
    emit_fallback;
    compile_s = !compile_s;
    clock;
    bracket;
    timed_gen = bracket_gen bracket;
    timed_sink = bracket_sink bracket;
    cmp_on = false;
    released = false;
  }

(** [Some reason] when a [Native] tracer failed to emit and degraded to
    the fused closure engine; [None] otherwise. *)
let emit_fallback (t : t) : string option = t.emit_fallback

(* Retarget the compiled artifact's probes at a trace map and cmplog
   probe (nothing to retarget under the interpreter, whose hooks
   {!attach} builds). *)
let bind (t : t) ~(trace : Pathcov.Coverage_map.t) ~(h_cmp : int -> int -> unit)
    : unit =
  match t.full_emit with
  | Some e -> Vm.Emit.bind e ~trace ~h_cmp
  | None -> (
      match t.full_art with
      | Some art -> Vm.Compile.bind art ~trace ~h_cmp
      | None -> ())

(** The campaign's probe wiring: under [Interp] the mode's listener and
    a context over its hooks, whose [h_cmp] calls [h_cmp] only inside
    the tracer's capture window; under [Fused] and [Native] a trace-only
    listener whose map, with [h_cmp], is bound into the artifact, and a
    plain context (compiled probes ignore its hooks). *)
let attach ?size_log2 ?(h_cmp = fun _ _ -> ()) (t : t) :
    Pathcov.Feedback.t * Vm.Interp.exec_ctx =
  match t.entry with
  | None ->
      let fb =
        Pathcov.Feedback.make ?size_log2 ?plans:t.plans t.mode t.prepared.prog
      in
      let hooks =
        if t.cmplog then
          Vm.Interp.hooks_of ~h_cmp:(fun a b -> if t.cmp_on then h_cmp a b) fb
        else Vm.Interp.hooks_of fb
      in
      (fb, Vm.Interp.create_ctx ~hooks t.prepared)
  | Some _ ->
      let fb = Pathcov.Feedback.trace_only ?size_log2 t.mode in
      bind t ~trace:fb.trace ~h_cmp;
      (fb, Vm.Interp.create_ctx t.prepared)

(** Open or close the comparison-capture window: every engine's
    comparison probes call [h_cmp] only while it is open. *)
let arm_cmp (t : t) (on : bool) : unit =
  match (t.full_emit, t.full_art) with
  | Some e, _ -> Vm.Emit.arm e on
  | None, Some art -> Vm.Compile.arm art on
  | None, None -> t.cmp_on <- on

let cmp_armed (t : t) : bool =
  match (t.full_emit, t.full_art) with
  | Some e, _ -> Vm.Emit.armed e
  | None, Some art -> Vm.Compile.armed art
  | None, None -> t.cmp_on

(** Retire the tracer at the end of its campaign: point the artifact's
    probes at a fresh private map and a no-op cmplog probe, so a
    per-domain cached artifact stops keeping the finished campaign's
    trace map, buffers and hooks alive, and disarm the comparison
    probes. The placeholder is allocated
    here, never shared, so no two domains can write it. Every later run
    raises [Invalid_argument]. *)
let release (t : t) : unit =
  t.released <- true;
  arm_cmp t false;
  bind t
    ~trace:(Pathcov.Coverage_map.create ~size_log2:4 ())
    ~h_cmp:(fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Execution: batched cohorts only, through the VM's one run harness with
   the entry chosen in [make], so the prepared-identity check runs once
   per cohort and back-to-back runs take the context's journaled
   fast-reset path; a one-off run is a cohort of one. *)

(* Run the batch inside the VM-wall bracket when a clock is in scope (the
   call's, else the tracer's), charging each run's wall to [vm_s] when
   given, else to the tracer's accumulator. *)
let run_full_batch ?clock ?vm_s (t : t) ctx ~fuel ~max_depth ~n ~gen ~sink =
  if t.released then invalid_arg "Tracer: run after release";
  match (match clock with None -> t.clock | c -> c) with
  | None -> Vm.Interp.run_batch ~fuel ~max_depth ?entry:t.entry ctx ~n ~gen ~sink
  | Some now ->
      let b = t.bracket in
      b.now <- now;
      b.charge <- vm_s;
      b.gen <- gen;
      b.sink <- sink;
      Vm.Interp.run_batch ~fuel ~max_depth ?entry:t.entry ctx ~n
        ~gen:t.timed_gen ~sink:t.timed_sink

(** The VM wall accumulated since the last call by runs timed without a
    [vm_s] charge; resets the accumulator. *)
let take_vm_s (t : t) : float =
  let w = t.bracket.walls.(1) in
  t.bracket.walls.(1) <- 0.;
  w

(* ------------------------------------------------------------------ *)
(* Metrics harvest *)

(** Drain the engine-level tallies of [tracers] (one campaign's, plus a
    sharded campaign's lanes') into [m], in a fixed registration order:
    the compile wall, the closure-cache gauges, the emitter's tallies
    when the campaign asked for [Native] (process-global cumulative
    sources, so set semantics; left out elsewhere to keep every other
    engine's dump, and the golden reports, untouched), then the closure
    artifacts' rollbacks and fusion shape. *)
let harvest_metrics (m : Obs.Metrics.t) (tracers : t list) : unit =
  Obs.Metrics.add_wall
    (Obs.Metrics.wall m "engine.compile_s")
    (List.fold_left (fun a t -> a +. t.compile_s) 0. tracers);
  let hits, misses = Vm.Compile.cache_stats () in
  Obs.Metrics.set (Obs.Metrics.gauge m "engine.cache_hits") hits;
  Obs.Metrics.set (Obs.Metrics.gauge m "engine.cache_misses") misses;
  if List.exists (fun t -> t.engine = Native) tracers then begin
    let e = Vm.Emit.stats () in
    Obs.Metrics.set_wall (Obs.Metrics.wall m "emit.compile_s") e.compile_s;
    Obs.Metrics.set (Obs.Metrics.gauge m "emit.cache_hits") e.cache_hits;
    Obs.Metrics.set (Obs.Metrics.gauge m "emit.cache_misses") e.cache_misses;
    Obs.Metrics.set (Obs.Metrics.gauge m "emit.fallbacks") e.fallbacks
  end;
  (* rollbacks and careful units add up over the artifacts; the fusion
     shape is the same for every artifact of one subject *)
  match List.filter_map (fun t -> t.full_art) tracers with
  | [] -> ()
  | art :: _ as arts ->
      let sum f =
        List.fold_left (fun a art -> a + f (Vm.Compile.runtime_stats art)) 0 arts
      in
      let s = Vm.Compile.static_stats art in
      Obs.Metrics.set
        (Obs.Metrics.gauge m "engine.rollbacks")
        (sum (fun r -> r.Vm.Compile.rollbacks));
      Obs.Metrics.set
        (Obs.Metrics.gauge m "engine.careful_units")
        (sum (fun r -> r.Vm.Compile.careful_units));
      Obs.Metrics.set (Obs.Metrics.gauge m "fusion.chains") s.Vm.Plan.chains;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.chain_blocks")
        s.Vm.Plan.chain_blocks;
      Obs.Metrics.set (Obs.Metrics.gauge m "fusion.chain_max") s.Vm.Plan.chain_max;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.dup_instrs")
        s.Vm.Plan.dup_instrs
