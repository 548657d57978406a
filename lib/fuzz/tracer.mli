(** Execution-engine selection for campaigns, and the only module that
    knows which engine runs.

    A tracer wraps one prepared subject with a choice of execution
    engine — the reference CFG interpreter, the {!Vm.Compile} staged
    artifact with superblock fusion, or the {!Vm.Emit} per-subject
    generated-and-Dynlink'd native unit (degrading to fused, with
    {!emit_fallback} recording why, when emission fails). It wires a
    campaign's probes ({!attach}), opens and closes the one cmplog
    capture window every engine honours ({!arm_cmp}), runs the cohorts
    ({!run_full_batch}) and harvests the engine metrics
    ({!harvest_metrics}): callers never match on the engine. Every
    execution runs fully instrumented, and campaign trajectories are
    byte-identical across engines; the differential suite enforces
    it. *)

type engine = Interp | Fused | Native

val engine_name : engine -> string

(** Inverse of {!engine_name}; [None] on unknown names (CLI parsing). *)
val engine_of_name : string -> engine option

(** Every engine name, in presentation order — the single source of
    truth for CLI documentation and diagnostics. *)
val engine_names : string list

(** The engine of the paper-reproduction path — {!Strategy.run},
    [Experiments.Runner.run] and [pathfuzz tables] — unless told
    otherwise: [Fused]. Native is not the default there because its
    cold compile (seconds per subject unit) outweighs a matrix of short
    campaigns; [fuzz], [profile], [stats] and {!Campaign.default_config}
    keep [Interp]. *)
val matrix_engine : engine

type t

(** Build a tracer over a prepared subject. [shared] (default [true])
    memoises compiled artifacts per domain ({!Vm.Compile.cached});
    sharded campaigns pass [~shared:false] to compile fresh per shard —
    the artifact's rebindable state is single-threaded. [cmplog = false]
    leaves the comparison probes out (compiled code has none, the
    interpreter's hook does nothing), so {!attach}'s [h_cmp] is never
    called. [clock] (observation-only) times artifact compilation into
    [engine.compile_s], and is the default clock of every batch, whose
    VM walls accumulate until {!take_vm_s}. [make] only compiles: the
    listener, the trace map and the context come from {!attach}.

    [selective] is kept only for source compatibility with the
    benchmark harness, which names it: selective tracing was removed
    and [~selective:true] raises [Invalid_argument]. Drop the argument
    with the next benchmark change. *)
val make :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?clock:(unit -> float) ->
  ?shared:bool ->
  engine:engine ->
  selective:bool ->
  cmplog:bool ->
  mode:Pathcov.Feedback.mode ->
  Vm.Interp.prepared ->
  t

(** [Some reason] when a [Native] tracer failed to emit (no toolchain,
    compile error, Dynlink refusal, forced [PATHFUZZ_EMIT_FAIL]) and
    degraded to the fused closure engine; [None] otherwise. The first
    such tracer of the process prints
    [pathfuzz: native engine unavailable (REASON); continuing on fused]
    to stderr. *)
val emit_fallback : t -> string option

(** A campaign's probe wiring: its feedback listener and the execution
    context to run it on. Under [Interp], the mode's listener
    ({!Pathcov.Feedback.make}, over the [plans] given to {!make}) and a
    context over its hooks ({!Vm.Interp.hooks_of}); under [Fused] and
    [Native], whose artifacts run the probes themselves, a trace-only
    listener ({!Pathcov.Feedback.trace_only}) whose map is bound into
    the artifact, and a context whose hooks the compiled entry ignores.
    [size_log2] sizes the trace map. [h_cmp] (default: none) receives
    comparison operands, on every engine only inside the capture window
    ({!arm_cmp}). Attaching again rebinds the artifact to the new
    listener. *)
val attach :
  ?size_log2:int ->
  ?h_cmp:(int -> int -> unit) ->
  t ->
  Pathcov.Feedback.t * Vm.Interp.exec_ctx

(** Open ([true]) or close the comparison-capture window. On every
    engine a comparison calls the attached [h_cmp] only while the window
    is open, so outside it a comparison costs one flag test: the
    interpreter's hook tests the tracer's flag, compiled comparisons the
    flag of this tracer's artifact instance ({!Vm.Compile.arm},
    {!Vm.Emit.arm}), so shards arm independently. {!Campaign.capturing}
    is the only caller. *)
val arm_cmp : t -> bool -> unit

(** Is the capture window open? *)
val cmp_armed : t -> bool

(** Retire the tracer when its campaign ends: the artifact's probes are
    pointed at a fresh private placeholder map and a no-op cmplog probe,
    so a per-domain cached artifact ({!Vm.Compile.cached}) no longer
    keeps the finished campaign's trace map and hooks alive, and the
    comparison probes are disarmed. Every later run through this tracer raises
    [Invalid_argument]; a new campaign binds the artifact again through
    its own tracer. *)
val release : t -> unit

(** {2 Batched cohort execution}

    The only run entry points: a one-off run is a cohort of one. Run [n]
    candidates back-to-back on one context: [gen k] produces the [k]-th
    candidate as a [(buf, len)] scratch view, [sink k out] consumes its
    result before [gen (k + 1)] runs, so a single scratch buffer may
    back the whole cohort. [run_full_batch] executes with full
    instrumentation through the selected engine (compiled probes ignore
    the context's hooks); the batch hoists the engine dispatch out of
    the loop and lets back-to-back runs take the context's journaled
    fast-reset path. When a clock is in scope ([clock], else the
    tracer's), each VM run alone — generation and consumption excluded
    — is bracketed by two clock reads and its wall passed to [vm_s], or
    without [vm_s] added to the accumulator {!take_vm_s} drains. The
    bracket is preallocated: on the accumulator path the two clock
    reads are a timed run's only allocation. *)

val run_full_batch :
  ?clock:(unit -> float) ->
  ?vm_s:(float -> unit) ->
  t ->
  Vm.Interp.exec_ctx ->
  fuel:int ->
  max_depth:int ->
  n:int ->
  gen:(int -> Bytes.t * int) ->
  sink:(int -> Vm.Interp.outcome -> unit) ->
  unit

(** The VM wall accumulated since the last call by runs timed without a
    [vm_s] charge; resets the accumulator. Campaigns fold it into the
    counter block before anything reads [vm_s]. *)
val take_vm_s : t -> float

(** {2 Metrics}

    Engine-level tallies, drained at deterministic points; reading them
    never perturbs execution. *)

(** Register the engine rows of [tracers] (one campaign's, plus a
    sharded campaign's lanes') in [m], in this order: [engine.compile_s]
    (the compile walls [make] clocked), [engine.cache_hits] and
    [engine.cache_misses] ({!Vm.Compile.cache_stats}), the [emit.*]
    tallies ({!Vm.Emit.stats}) when the tracers were asked for [Native],
    then, when a closure artifact ran, [engine.rollbacks],
    [engine.careful_units] and the [fusion.*] shape ({!Vm.Plan.shape}).
    Gauges take the latest reading of cumulative sources. *)
val harvest_metrics : Obs.Metrics.t -> t list -> unit
