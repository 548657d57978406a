(** Execution-engine selection and selective tracing for campaigns.

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
    the fuzzing trajectory.

    On top of either engine, {e selective tracing} splits each candidate
    evaluation in two: a bulk run under a near-null specialisation that
    folds only a 62-bit rolling novelty signal over the tagged
    call/block/return event stream ({!Vm.Compile.signal} /
    {!Vm.Compile.signal_hooks}), and — only when the signal has not been
    seen before — a full-instrumentation replay that rebuilds the
    classified trace for the usual merge/retain pipeline. Because per-
    activation block sequences (and hence every derived feedback index,
    in every mode) are a function of the event stream, signal equality
    implies trace equality up to hash collisions, and the campaign's
    decisions are byte-identical to the always-instrumented pipeline's
    (DESIGN.md §12 gives the argument; the differential suite enforces
    it). The seen set is an in-memory cache of "this trace is already
    folded into the virgin map": it is deliberately absent from
    checkpoints — a resumed run re-replays a few signals and reaches the
    very same decisions.

    The tracer also owns the probe self-pruning schedule: once every map
    index a function's Ball–Larus path commits can produce is saturated
    in the virgin map, the commit's map write can never change novelty
    and is elided ({!Vm.Compile.prune_fid}). Pruning is enabled only
    around calibration runs — the one full-instrumentation site whose
    trace feeds nothing but the virgin merge — so retained entries keep
    exactly the trace indices the unpruned pipeline records. *)

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
   wrappers, saved and restored around every timed batch because a
   replay runs as a nested batch inside the sink of the cohort that
   triggered it. [walls] holds the start stamp and the accumulated VM
   wall in a float array, whose stores do not box. *)
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
  selective : bool;
  mode : Pathcov.Feedback.mode;
  full_art : Vm.Compile.t option;  (** [Fused]: the [Sfull mode] artifact *)
  sig_art : Vm.Compile.t option;  (** [Fused] + selective: [Ssignal] *)
  full_emit : Vm.Emit.t option;  (** [Native]: the emitted [Sfull mode] unit *)
  sig_emit : Vm.Emit.t option;  (** [Native] + selective: emitted [Ssignal] *)
  emit_fallback : string option;
      (** [Native] only: why emission failed and the tracer degraded to
          the fused closure engine ([None] when native is live) *)
  sig_cell : int ref;  (** [Interp] + selective: rolling-hash accumulator *)
  sig_ctx : Vm.Interp.exec_ctx option;
      (** [Interp] + selective: private context with the signal hooks *)
  seen : (int, unit) Hashtbl.t;  (** signals whose traces are in the virgin map *)
  mutable last_sig : int;  (** signal of the last signal-specialised run *)
  nfuncs : int;  (** the subject's function count (pruning marks) *)
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
    clock of every batch, whose VM walls accumulate until {!take_vm_s}. *)
let make ?plans ?clock ?(shared = true) ~(engine : engine)
    ~(selective : bool) ~(cmplog : bool) ~(mode : Pathcov.Feedback.mode)
    (prepared : Vm.Interp.prepared) : t =
  let compile_s = ref 0. in
  let clocked f =
    let t0 = match clock with Some c -> c () | None -> 0. in
    let r = f () in
    (match clock with
    | Some c -> compile_s := !compile_s +. (c () -. t0)
    | None -> ());
    r
  in
  (* [Native]: emit + load both needed specialisations up front. Any
     failure — no compiler on PATH, compile error, Dynlink refusal,
     forced [PATHFUZZ_EMIT_FAIL] — degrades the whole tracer to the
     fused closure engine (recording why), so campaigns behave
     identically on toolchain-less machines. *)
  let full_emit, sig_emit, emit_fallback =
    match engine with
    | Interp | Fused -> (None, None, None)
    | Native -> (
        let r =
          clocked (fun () ->
              match
                Vm.Emit.instance ?plans ~cmplog prepared
                  (Vm.Compile.Sfull mode)
              with
              | Error _ as e -> e
              | Ok full ->
                  if not selective then Ok (full, None)
                  else (
                    match
                      Vm.Emit.instance ?plans ~cmplog prepared
                        Vm.Compile.Ssignal
                    with
                    | Ok sg -> Ok (full, Some sg)
                    | Error e -> Error e))
        in
        match r with
        | Ok (full, sg) -> (Some full, sg, None)
        | Error reason ->
            Vm.Emit.note_fallback ();
            (None, None, Some reason))
  in
  let closures =
    match engine with
    | Fused -> true
    | Native -> emit_fallback <> None
    | Interp -> false
  in
  let compile spec =
    clocked (fun () ->
        if shared then Vm.Compile.cached ?plans ~cmplog prepared spec
        else Vm.Compile.compile ?plans ~cmplog prepared spec)
  in
  (* A per-domain cached artifact carries whatever pruning marks the
     previous campaign's tracer left on it; start from none. *)
  let full_art =
    if closures then begin
      let art = compile (Vm.Compile.Sfull mode) in
      Vm.Compile.clear_pruning art;
      Some art
    end
    else None
  in
  let sig_art =
    if closures && selective then Some (compile Vm.Compile.Ssignal) else None
  in
  let sig_cell = ref 0 in
  let sig_ctx =
    match engine with
    | Interp when selective ->
        Some
          (Vm.Interp.create_ctx
             ~hooks:(Vm.Compile.signal_hooks prepared ~cell:sig_cell)
             prepared)
    | _ -> None
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
    selective;
    mode;
    full_art;
    sig_art;
    full_emit;
    sig_emit;
    emit_fallback;
    sig_cell;
    sig_ctx;
    seen = Hashtbl.create 4096;
    last_sig = 0;
    nfuncs = Array.length prepared.rfuncs;
    compile_s = !compile_s;
    clock;
    bracket;
    timed_gen = bracket_gen bracket;
    timed_sink = bracket_sink bracket;
    released = false;
  }

let engine_of (t : t) : engine = t.engine
let selective (t : t) : bool = t.selective

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
    trace map, buffers and hooks alive, disarm the comparison probes and
    drop the artifact's pruning marks. The placeholder is allocated
    here, never shared, so no two domains can write it. Every later run
    raises [Invalid_argument]. *)
let release (t : t) : unit =
  t.released <- true;
  arm_cmp t false;
  Option.iter Vm.Compile.clear_pruning t.full_art;
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

(* The signal variant latches [last_sig] before each [sink] call. The
   interpreter case runs on the private signal context ([ctx] is
   ignored). *)
let signal_batch (t : t) (ctx : Vm.Interp.exec_ctx) ~(fuel : int)
    ~(max_depth : int) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> Vm.Interp.outcome -> unit) : unit =
  match (t.sig_emit, t.sig_art, t.sig_ctx) with
  | Some e, _, _ ->
      Vm.Emit.run_batch ~fuel ~max_depth e ctx ~n ~gen ~sink:(fun k out ->
          t.last_sig <- Vm.Emit.signal e;
          sink k out)
  | None, Some art, _ ->
      Vm.Compile.run_batch ~fuel ~max_depth art ctx ~n ~gen ~sink:(fun k out ->
          t.last_sig <- Vm.Compile.signal art;
          sink k out)
  | None, None, Some sctx ->
      Vm.Interp.run_batch ~fuel ~max_depth sctx ~n
        ~gen:(fun k ->
          t.sig_cell := 0;
          gen k)
        ~sink:(fun k out ->
          t.last_sig <- !(t.sig_cell);
          sink k out)
  | None, None, None ->
      invalid_arg "Tracer.run_signal_batch: not a selective tracer"

(* Run [batch] inside the VM-wall bracket when a clock is in scope (the
   call's, else the tracer's), charging each run's wall to [vm_s] when
   given, else to the tracer's accumulator. The enclosing batch's slots
   are restored afterwards. *)
let bracketed ?clock ?vm_s batch (t : t) ctx ~fuel ~max_depth ~n ~gen ~sink =
  if t.released then invalid_arg "Tracer: run after release";
  match (match clock with None -> t.clock | c -> c) with
  | None -> batch t ctx ~fuel ~max_depth ~n ~gen ~sink
  | Some now ->
      let b = t.bracket in
      let now0 = b.now and charge0 = b.charge in
      let gen0 = b.gen and sink0 = b.sink in
      b.now <- now;
      b.charge <- vm_s;
      b.gen <- gen;
      b.sink <- sink;
      batch t ctx ~fuel ~max_depth ~n ~gen:t.timed_gen ~sink:t.timed_sink;
      b.now <- now0;
      b.charge <- charge0;
      b.gen <- gen0;
      b.sink <- sink0

let run_full_batch ?clock ?vm_s t ctx ~fuel ~max_depth ~n ~gen ~sink =
  bracketed ?clock ?vm_s full_batch t ctx ~fuel ~max_depth ~n ~gen ~sink

let run_signal_batch ?clock ?vm_s t ctx ~fuel ~max_depth ~n ~gen ~sink =
  bracketed ?clock ?vm_s signal_batch t ctx ~fuel ~max_depth ~n ~gen ~sink

(** The VM wall accumulated since the last call by runs timed without a
    [vm_s] charge; resets the accumulator. *)
let take_vm_s (t : t) : float =
  let w = t.bracket.walls.(1) in
  t.bracket.walls.(1) <- 0.;
  w

let last_signal (t : t) : int = t.last_sig
let seen_signal (t : t) (s : int) : bool = Hashtbl.mem t.seen s

let mark_seen (t : t) (s : int) : unit =
  if not (Hashtbl.mem t.seen s) then Hashtbl.add t.seen s ()

(* ------------------------------------------------------------------ *)
(* Probe self-pruning *)

(** Pruning applies when the full engine is a closure [Path] artifact
    under selective tracing — the configuration whose calibration runs
    are the only consumers of the elided commits. *)
let pruning_available (t : t) : bool =
  t.selective
  && (match t.mode with Pathcov.Feedback.Path -> true | _ -> false)
  && t.full_art <> None

(** Recompute the per-function pruning marks from the virgin map: a
    function is pruned when every map index its path commits can produce
    ({!Vm.Compile.path_universe}) is fully saturated (virgin byte 0).
    Saturation is monotone, but culprits can also {e unprune}: the marks
    are recomputed from scratch, so a restored (resumed) virgin map
    yields the same marks as the uninterrupted run's. *)
let refresh_pruning (t : t) ~(virgin : Pathcov.Coverage_map.t) : unit =
  match t.full_art with
  | None -> ()
  | Some art ->
      for fid = 0 to t.nfuncs - 1 do
        let u = Vm.Compile.path_universe art fid in
        let n = Array.length u in
        if n > 0 then begin
          let sat = ref true in
          let k = ref 0 in
          while !sat && !k < n do
            if Pathcov.Coverage_map.get virgin (Array.unsafe_get u !k) <> 0
            then sat := false;
            incr k
          done;
          Vm.Compile.prune_fid art fid !sat
        end
      done

(** Gate the pruning marks on or off ({!Vm.Compile.set_pruning}); the
    initial state is off, and campaigns enable it only around
    calibration runs. *)
let set_pruning (t : t) (on : bool) : unit =
  match t.full_art with
  | Some art -> Vm.Compile.set_pruning art on
  | None -> ()

(** Functions currently marked pruned on the artifact (diagnostics and
    tests). *)
let pruned_fids (t : t) : int =
  match t.full_art with Some art -> Vm.Compile.pruned_count art | None -> 0

(* ------------------------------------------------------------------ *)
(* Introspection — read-only tallies for the metrics registry. *)

(** Wall spent compiling this tracer's artifacts ([0.] unclocked). *)
let compile_seconds (t : t) : float = t.compile_s

(** Distinct novelty signals recorded as seen. *)
let seen_signals (t : t) : int = Hashtbl.length t.seen

(** Engine-level tallies from the compiled artifacts: bulk-burn
    rollback counts summed over both artifacts, fusion shape from the
    full artifact. [None] for the interpreter engine. *)
let artifact_stats (t : t) :
    (Vm.Compile.runtime_stats * Vm.Compile.static_stats) option =
  match (t.full_art, t.sig_art) with
  | None, None -> None
  | full, sg ->
      let r art =
        match art with
        | Some a -> Vm.Compile.runtime_stats a
        | None -> { Vm.Compile.rollbacks = 0; careful_units = 0 }
      in
      let rf = r full and rs = r sg in
      let runtime =
        {
          Vm.Compile.rollbacks = rf.rollbacks + rs.rollbacks;
          careful_units = rf.careful_units + rs.careful_units;
        }
      in
      let static =
        match full with
        | Some a -> Vm.Compile.static_stats a
        | None ->
            { Vm.Compile.chains = 0; chain_blocks = 0; chain_max = 0; dup_instrs = 0 }
      in
      Some (runtime, static)
