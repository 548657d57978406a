(** Execution-engine selection for campaigns.

    A campaign executes candidates through one of three engines over the
    same pooled {!Vm.Interp.exec_ctx}:

    - [Interp]: the reference CFG interpreter driving the runtime
      feedback listeners through hooks;
    - [Fused]: the {!Vm.Compile} staged artifact — the listener probes
      partially evaluated into the block closures, single-predecessor
      goto chains collapsed into one closure with coalesced fuel burns
      and folded Ball–Larus increments;
    - [Native]: the {!Vm.Emit} per-subject generated OCaml unit — the
      fused plan plus out-of-process [ocamlopt] and a Dynlink load,
      cached on disk. When emission fails for any reason (no toolchain,
      compile error, forced [PATHFUZZ_EMIT_FAIL]) the tracer silently
      degrades to [Fused] and records why ({!emit_fallback}), so
      campaigns behave identically on toolchain-less machines.

    All produce byte-identical traces, outcomes and fuel accounting
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

(* The VM-wall bracket, preallocated once per tracer so that timing a
   run allocates nothing but its two clock reads: the running batch's
   clock, charge, [gen] and [sink] sit in mutable slots read by two fixed
   wrappers, saved and restored around every timed batch so that a
   batch run from inside another batch's sink leaves the outer bracket
   intact. [walls] holds the start stamp and the accumulated VM wall in
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
  full_art : Vm.Compile.t option;  (** [Fused]: the [Sfull mode] artifact *)
  full_emit : Vm.Emit.t option;  (** [Native]: the emitted [Sfull mode] unit *)
  emit_fallback : string option;
      (** [Native] only: why emission failed and the tracer degraded to
          the fused closure engine ([None] when native is live) *)
  compile_s : float;  (** wall spent compiling artifacts (0 unclocked) *)
  clock : (unit -> float) option;  (** default VM-wall clock of every batch *)
  bracket : bracket;
  timed_gen : int -> Bytes.t * int;  (** [bracket_gen bracket] *)
  timed_sink : int -> Vm.Interp.outcome -> unit;  (** [bracket_sink bracket] *)
  mutable released : bool;  (** {!release}d: every run entry refuses *)
}

(** Build a tracer over a prepared subject. [shared] (default [true])
    memoises compiled artifacts per domain ({!Vm.Compile.cached});
    sharded campaigns pass [~shared:false] to compile fresh per shard —
    the artifact's rebindable state is single-threaded. [cmplog] elides
    the comparison probes from compiled code when the campaign binds a
    no-op [h_cmp] anyway. [clock] (optional, observation-only) times the
    artifact compilations into {!compile_seconds} and is the default
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
  (* [Native]: emit + load the unit up front. Any failure — no
     compiler on PATH, compile error, Dynlink refusal, forced
     [PATHFUZZ_EMIT_FAIL] — degrades the tracer to the fused closure
     engine (recording why), so campaigns behave identically on
     toolchain-less machines. *)
  let full_emit, emit_fallback =
    match engine with
    | Interp | Fused -> (None, None)
    | Native -> (
        match
          clocked (fun () ->
              Vm.Emit.instance ?plans ~cmplog prepared (Vm.Compile.Sfull mode))
        with
        | Ok full -> (Some full, None)
        | Error reason ->
            Vm.Emit.note_fallback ();
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
      let spec = Vm.Compile.Sfull mode in
      Some
        (clocked (fun () ->
             if shared then Vm.Compile.cached ?plans ~cmplog prepared spec
             else Vm.Compile.compile ?plans ~cmplog prepared spec))
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
  {
    engine;
    full_art;
    full_emit;
    emit_fallback;
    compile_s = !compile_s;
    clock;
    bracket;
    timed_gen = bracket_gen bracket;
    timed_sink = bracket_sink bracket;
    released = false;
  }

let engine_of (t : t) : engine = t.engine

(** [Some reason] when a [Native] tracer failed to emit and degraded to
    the fused closure engine; [None] otherwise. *)
let emit_fallback (t : t) : string option = t.emit_fallback

(** Retarget the compiled artifact's probes at the campaign's trace map
    and cmplog probe (no-op for the interpreter engine, whose hooks are
    installed in the campaign context directly). *)
let bind (t : t) ~(trace : Pathcov.Coverage_map.t) ~(h_cmp : int -> int -> unit)
    : unit =
  match t.full_emit with
  | Some e -> Vm.Emit.bind e ~trace ~h_cmp
  | None -> (
      match t.full_art with
      | Some art -> Vm.Compile.bind art ~trace ~h_cmp
      | None -> ())

(** Open or close a comparison-capture window. The native unit's
    comparison probes call [h_cmp] only while armed; the interpreter and
    fused engines call it on every comparison and leave the filtering to
    the probe itself, so this is a no-op for them. *)
let arm_cmp (t : t) (on : bool) : unit =
  match t.full_emit with Some e -> Vm.Emit.arm e on | None -> ()

let cmp_armed (t : t) : bool =
  match t.full_emit with Some e -> Vm.Emit.armed e | None -> false

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
(* Execution: batched cohorts only. The per-candidate engine dispatch
   (and, compiled, the prepared-identity check) is hoisted out of the
   loop, and back-to-back runs take the context's journaled fast-reset
   path; a one-off run is a cohort of one. *)

let full_batch (t : t) (ctx : Vm.Interp.exec_ctx) ~(fuel : int)
    ~(max_depth : int) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> Vm.Interp.outcome -> unit) : unit =
  match (t.full_emit, t.full_art) with
  | Some e, _ -> Vm.Emit.run_batch ~fuel ~max_depth e ctx ~n ~gen ~sink
  | None, Some art -> Vm.Compile.run_batch ~fuel ~max_depth art ctx ~n ~gen ~sink
  | None, None -> Vm.Interp.run_batch ~fuel ~max_depth ctx ~n ~gen ~sink

(* Run the batch inside the VM-wall bracket when a clock is in scope (the
   call's, else the tracer's), charging each run's wall to [vm_s] when
   given, else to the tracer's accumulator. The enclosing batch's slots
   are restored afterwards. *)
let run_full_batch ?clock ?vm_s (t : t) ctx ~fuel ~max_depth ~n ~gen ~sink =
  if t.released then invalid_arg "Tracer: run after release";
  match (match clock with None -> t.clock | c -> c) with
  | None -> full_batch t ctx ~fuel ~max_depth ~n ~gen ~sink
  | Some now ->
      let b = t.bracket in
      let now0 = b.now and charge0 = b.charge in
      let gen0 = b.gen and sink0 = b.sink in
      b.now <- now;
      b.charge <- vm_s;
      b.gen <- gen;
      b.sink <- sink;
      full_batch t ctx ~fuel ~max_depth ~n ~gen:t.timed_gen ~sink:t.timed_sink;
      b.now <- now0;
      b.charge <- charge0;
      b.gen <- gen0;
      b.sink <- sink0

(** The VM wall accumulated since the last call by runs timed without a
    [vm_s] charge; resets the accumulator. *)
let take_vm_s (t : t) : float =
  let w = t.bracket.walls.(1) in
  t.bracket.walls.(1) <- 0.;
  w

(* ------------------------------------------------------------------ *)
(* Introspection — read-only tallies for the metrics registry. *)

(** Wall spent compiling this tracer's artifacts ([0.] unclocked). *)
let compile_seconds (t : t) : float = t.compile_s

(** Engine-level tallies from the closure artifact. [None] for the
    interpreter engine and for a live native unit. *)
let artifact_stats (t : t) :
    (Vm.Compile.runtime_stats * Vm.Compile.static_stats) option =
  Option.map
    (fun a -> (Vm.Compile.runtime_stats a, Vm.Compile.static_stats a))
    t.full_art
