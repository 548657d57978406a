(** Per-subject native code emission — the fourth execution engine.

    Where {!Compile} partially evaluates a {!Interp.prepared} CFG into
    a closure tree at runtime, this module prints it as straight-line
    OCaml source — superblock chains, inlined comparisons, baked
    feedback probes per {!Compile.spec}, folded Ball–Larus adds, cmplog
    taps — compiles the source out-of-process ([ocamlfind ocamlopt
    -shared], falling back to [ocamlc] bytecode where native Dynlink is
    unavailable), and loads the artifact via {!Dynlink} through a
    registration side-channel. Generated code runs against the
    unmodified pooled {!Interp.exec_ctx} and replicates the
    interpreter's observable semantics exactly — fuel burn placement,
    evaluation order, crash kinds/sites/stacks, [h_cmp] timing,
    [blocks_executed] — with the same bulk-burn + careful-replay
    discipline as the fused engine (DESIGN §13, §15); the differential
    suite enforces this against the boxed reference interpreter.

    Artifacts are cached on disk keyed by a content hash of the
    resolved IR, the spec, the cmplog flag, the compiler version, the
    emitter version and the interfaces the unit links against
    ({!key_of}), so a campaign pays the compile cost once ever per
    subject. Every fallible step ({!instance}, {!preload}) returns
    [Error reason] rather than raising: callers degrade to the fused
    closure engine and surface the reason through their own telemetry
    (the fuzz layer's [emit.fallbacks] metric and [emit_fallback]
    event). Setting [PATHFUZZ_EMIT_FAIL=1] in the environment forces
    every instantiation to fail — the fallback path's test hook. *)

type t

(** {2 Artifact cache} *)

(** Override the on-disk artifact cache directory (highest
    precedence). Defaults, in order: [$PATHFUZZ_EMIT_CACHE],
    [$XDG_CACHE_HOME/pathfuzz-emit], [$HOME/.cache/pathfuzz-emit], a
    path under the system temp dir. The directory is created on
    first use. *)
val set_cache_dir : string -> unit

(** The cache directory currently in effect. *)
val cache_dir : unit -> string

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
    links against. {!key_of} digests each one, read from the include
    path the compile uses, so changing any of them invalidates cached
    artifacts. *)
val linked_interfaces : string list

(** The cache key of one [(prepared, spec, cmplog)] triple: a digest of
    the resolved IR, the spec, the cmplog flag, the compiler and emitter
    versions, the linking model and the contents of
    {!linked_interfaces} as found in [incs] (default: the discovered
    include path). *)
val key_of :
  ?incs:string list -> Interp.prepared -> Compile.spec -> bool -> string

(** {2 Instantiation} *)

(** Emit + compile + load (or reuse a cached artifact for) one
    [(prepared, spec, cmplog)] triple and return a runnable instance.
    [plans] as in {!Compile.compile} — consulted only under
    [Sfull Path], defaulting to [Ball_larus.of_program]. Each call
    returns an instance with private mutable probe state, so distinct
    shards/domains each take their own. All failures (no compiler,
    compile error, Dynlink refusal, forced [PATHFUZZ_EMIT_FAIL]) come
    back as [Error reason]. *)
val instance :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?cmplog:bool ->
  Interp.prepared ->
  Compile.spec ->
  (t, string) result

(** Batch-compile many triples into a handful of compilation units
    (amortising process-spawn + ocamlopt startup across subjects) and
    prime the in-process registry, so subsequent {!instance} calls hit.
    Returns the number of triples that are now servable; failures are
    skipped silently (the corresponding {!instance} call reports the
    reason). *)
val preload : (Interp.prepared * Compile.spec * bool) list -> int

(** {2 Campaign binding + execution}

    Mirrors of the {!Compile} equivalents; see there for semantics. *)

val bind :
  t -> trace:Pathcov.Coverage_map.t -> h_cmp:(int -> int -> unit) -> unit

(** Arm or disarm the unit's comparison probes. A generated comparison
    calls the bound [h_cmp] only while armed, so outside a capture
    window it costs one load and branch. The flag is private to the
    instance (safe across shard domains); a fresh instance is
    disarmed. *)
val arm : t -> bool -> unit

val armed : t -> bool

val run :
  ?fuel:int -> ?max_depth:int -> t -> Interp.exec_ctx -> input:string -> Interp.outcome

val run_batch :
  ?fuel:int ->
  ?max_depth:int ->
  t ->
  Interp.exec_ctx ->
  n:int ->
  gen:(int -> Bytes.t * int) ->
  sink:(int -> Interp.outcome -> unit) ->
  unit

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
