(** Per-subject native code emission — the third execution engine.

    Where {!Compile} renders a {!Interp.prepared} CFG's {!Plan} as a
    closure tree at runtime, this module prints the same plan as
    straight-line OCaml source — one function per block group control
    can enter, inlined
    comparisons, baked feedback probes per {!Pathcov.Feedback.mode},
    folded Ball–Larus adds on a path register passed between block
    functions as an [int] argument, cmplog taps, int returns that skip
    the write barrier — compiles it out-of-process with the process's
    {!toolchain}, and loads the artifact via {!Dynlink} through a
    registration side-channel. Generated code runs against the
    unmodified pooled {!Interp.exec_ctx} and replicates the
    interpreter's observable semantics exactly — fuel burn placement,
    evaluation order, crash kinds/sites/stacks, [h_cmp] timing,
    [blocks_executed] — with the same bulk-burn + careful-replay
    discipline as the fused engine (DESIGN §13, §15); the differential
    suite enforces this against the boxed reference interpreter.

    Artifacts are cached on disk keyed by a content hash of the
    resolved IR, the mode, the cmplog flag, the compiler version, the
    emitter version and the interfaces the unit links against
    ({!key_of}), so a campaign pays the compile cost once ever per
    subject. Every fallible step ({!instance}, {!preload}) returns
    [Error reason] rather than raising: callers degrade to the fused
    closure engine and surface the reason through their own telemetry
    (the fuzz layer's stderr line, [emit.fallbacks] metric and
    [emit_fallback] event). [PATHFUZZ_EMIT_FAIL=1], read on every call,
    forces every instantiation to fail — the fallback's test hook. *)

type t

(** {2 Artifact cache} *)

(** Override the on-disk artifact cache directory (highest
    precedence). Defaults, in order: [$PATHFUZZ_EMIT_CACHE],
    [$XDG_CACHE_HOME/pathfuzz-emit], [$HOME/.cache/pathfuzz-emit], a
    path under the system temp dir. The directory is created on
    first use. *)
val set_cache_dir : string -> unit

(** Remove the scratch directories ([tmp-PID-*]) that builds by dead
    processes left in [dir]: a PID for which [kill pid 0] fails with
    [ESRCH]. Returns how many were removed. The cache directory is
    swept once per process, on first use. *)
val collect_stale_tmp : string -> int

(** Bumped whenever generated code changes shape; part of the cache
    key, so stale artifacts from older emitters are never loaded.
    Interface changes in the units a plugin links against are caught
    by {!linked_interfaces} instead. *)
val emitter_version : int

(** The compiled interfaces ([.cmi] file names) every generated unit
    links against. A {!toolchain} digests each one, read from the
    include path the compile uses, so changing any of them invalidates
    cached artifacts. *)
val linked_interfaces : string list

(** {2 Toolchain}

    An include path holding {!linked_interfaces} and a compiler, resolved
    once per process (DESIGN §15): the include path, spawning nothing,
    from [$PATHFUZZ_EMIT_INC] or the dune build tree above the
    executable or working directory; the compiler, the first
    [ocamlopt.opt]/[ocamlopt] whose [-version] is [Sys.ocaml_version],
    by the first unit to compile. Without either, {!instance} and
    {!preload} fail at once. *)

type toolchain

(** The toolchain over an explicit include path; [Error] names the
    first of {!linked_interfaces} it lacks. *)
val toolchain : string list -> (toolchain, string) result

(** The cache key of one [(prepared, mode, cmplog)] triple: a digest of
    the resolved IR, the mode, the cmplog flag, the compiler and emitter
    versions, the linking model and the toolchain's digests of
    {!linked_interfaces}. *)
val key_of :
  toolchain -> Interp.prepared -> Pathcov.Feedback.mode -> bool -> string

(** Every child process of this module runs through [spawn ?bound ~log
    argv]: [argv] looked up on [PATH], no shell, its output written to
    the file [log] and returned. After [bound] seconds (default 300, far
    above the slowest build) the child is killed and reaped: [Error
    "PROG: timed out after N s"]. *)
val spawn : ?bound:float -> log:string -> string list -> (string, string) result

(** The source text of a one-subject unit: the prelude plus the
    generated code for one [(prepared, mode, cmplog)] triple, registered
    under the fixed key ["golden"] (a real unit's key embeds the digests
    of {!linked_interfaces}, which move for reasons unrelated to code
    generation). [plans] as in {!instance}. Pure: no compiler is
    involved. *)
val source :
  ?plans:Pathcov.Ball_larus.program_plans ->
  cmplog:bool ->
  Interp.prepared ->
  Pathcov.Feedback.mode ->
  string

(** {2 Instantiation} *)

(** Emit + compile + load (or reuse a cached artifact for) one
    [(prepared, mode, cmplog)] triple and return a runnable instance.
    [plans] as in {!Compile.compile} — consulted only under
    [Path], defaulting to [Ball_larus.of_program]. Each call
    returns an instance with private mutable probe state, so distinct
    shards/domains each take their own. All failures (no toolchain,
    compile error or timeout, Dynlink refusal, forced
    [PATHFUZZ_EMIT_FAIL]) come back as [Error reason]. *)
val instance :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?cmplog:bool ->
  Interp.prepared ->
  Pathcov.Feedback.mode ->
  (t, string) result

(** Batch-compile many triples into a handful of compilation units
    (amortising process-spawn + ocamlopt startup across subjects) and
    prime the in-process registry, so subsequent {!instance} calls hit.
    Returns the number of triples that are now servable; failures are
    skipped silently (the corresponding {!instance} call reports the
    reason). *)
val preload : (Interp.prepared * Pathcov.Feedback.mode * bool) list -> int

(** {2 Campaign binding + execution}

    {!bind} mirrors {!Compile.bind}; see there for semantics. *)

val bind :
  t -> trace:Pathcov.Coverage_map.t -> h_cmp:(int -> int -> unit) -> unit

(** Arm or disarm the unit's comparison probes. A generated comparison
    calls the bound [h_cmp] only while armed, so outside a capture
    window it costs one load and branch. The flag is private to the
    instance (safe across shard domains); a fresh instance is
    disarmed. *)
val arm : t -> bool -> unit

val armed : t -> bool

(** The unit's entry into the run harness ({!Interp.run_batch}):
    reset the probe state, then run the generated [main]. Same contract
    as {!Compile.entry}. *)
val entry : t -> Interp.entry

(** {2 Plugin side-channel}

    The registration protocol between a Dynlink'd artifact and the
    host. Generated modules call {!register} from their initialiser;
    the host drains registrations right after [Dynlink.loadfile]
    returns, under a global lock, so concurrent loaders never observe
    each other's pending entries. User code never calls these. *)

(** What a generated module hands the host: rebind/reset/read hooks
    over its private probe state plus the specialised entry point. *)
type raw = {
  r_set_trace : Pathcov.Coverage_map.t -> unit;
  r_set_cmp : (int -> int -> unit) -> unit;
  r_armed : bool ref;  (** comparison probes call [h_cmp] only when set *)
  r_reset : unit -> unit;  (** clear probe state before an execution *)
  r_enter : Interp.exec_ctx -> unit;  (** run main on a primed context *)
}

(** [register ~key make]: called by generated code at load time. [make]
    allocates a fresh private probe state per call. *)
val register : key:string -> (unit -> raw) -> unit

(** {2 Introspection}

    Process-global tallies (atomics — artifacts are shared across
    shards/domains through one registry). [compile_s] is wall time
    spent inside out-of-process compiler invocations. *)

type stats = {
  cache_hits : int;  (** instance/preload served from registry or disk *)
  cache_misses : int;  (** compilation units actually compiled *)
  fallbacks : int;  (** {!note_fallback} calls — callers degrading *)
  compile_s : float;
}

val stats : unit -> stats

(** Record one caller-side degradation to the fused engine (the fuzz
    layer calls this when {!instance} fails and it falls back). *)
val note_fallback : unit -> unit
