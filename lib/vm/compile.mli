(** Staged compilation of a prepared MiniC program into OCaml closures —
    the second execution engine.

    [compile] partially evaluates a {!Interp.prepared} CFG, threaded-code
    style: one closure per block group of the {!Plan} (a superblock
    chain or a lone block, and only the groups control can enter), jumps
    between groups resolved through a table read at call time,
    expression trees folded into closure trees with slots/sites/constants
    baked in, and the mode's {!Pathcov.Feedback.table} placed at its
    sites as the same {!Pathcov.Feedback.closure}s the interpreter's
    listener runs. A site with no probe (under [Path], an edge with no
    Ball–Larus operation) compiles to a direct jump, so the listener's
    per-event lookup disappears along with the interpreter's
    [rinstr]/[rexpr] match dispatch.

    Staged code executes against the unmodified pooled
    {!Interp.exec_ctx} and replicates the interpreter's observable
    semantics exactly — fuel burn placement, evaluation order, crash
    kinds/sites/stacks, [h_cmp] timing (while {!arm}ed),
    [blocks_executed] — which the differential suite enforces against
    the boxed reference interpreter.

    Artifacts are immutable modulo a small rebindable {!cstate} (trace
    map, cmplog probe and its arm flag, listener registers), so one
    artifact per [(prepared, mode)] serves every campaign on a domain;
    {!cached} memoises exactly that. The state is single-threaded:
    sharded campaigns compile one artifact per shard via {!compile}. *)

type t

(** [compile p mode] bakes [mode]'s {!Pathcov.Feedback} listener into
    [p] as per-site probes. [cmplog] (default [true]) controls whether
    comparisons emit [h_cmp] calls. A campaign with cmplog disabled
    binds a no-op probe, so such callers pass [~cmplog:false] to compile
    the calls out entirely — unobservable by construction.

    Every artifact applies superblock fusion ({!Plan}): chains of
    blocks linked by unconditional gotos whose interior blocks have a
    single predecessor (plus rejoining diamond tails within a
    tail-duplication budget) collapse into one closure — interior
    dispatch elided, interior fuel burns coalesced into one bulk burn
    with exact per-op replay on the crash/hang path, and consecutive
    Ball–Larus register increments folded into one constant-add.
    Observably equivalent to block-at-a-time execution (same outcomes,
    crash sites, fuel accounting, [blocks_executed], probe event order);
    enforced by the differential suite. *)
val compile :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?cmplog:bool ->
  Interp.prepared ->
  Pathcov.Feedback.mode ->
  t

(** Per-domain compile-once memo over [(prepared, mode, cmplog)]
    (physical identity on [prepared]). Safe for sequential campaigns
    and measurement replays; sharded campaigns must
    {!compile} fresh per shard instead. *)
val cached :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?cmplog:bool ->
  Interp.prepared ->
  Pathcov.Feedback.mode ->
  t

(** {2 Campaign binding} *)

(** Retarget the artifact's probes at a trace map and cmplog probe —
    two field writes, so callers may rebind before every execution. *)
val bind :
  t -> trace:Pathcov.Coverage_map.t -> h_cmp:(int -> int -> unit) -> unit

(** Open ([true]) or close the comparison-capture window. A compiled
    comparison calls the bound [h_cmp] only while armed, so outside the
    window it costs one load and branch; a fresh artifact is disarmed. *)
val arm : t -> bool -> unit

val armed : t -> bool

(** The trace map the probes currently write (tests and diagnostics). *)
val bound_trace : t -> Pathcov.Coverage_map.t

(** {2 Execution} *)

(** The artifact's entry into the run harness: pass it to
    {!Interp.run_batch} to execute the compiled program, with the same
    defaults, fences, outcome construction and crash materialisation as
    the interpreter. Build it once per campaign, not per cohort. The
    context must have been created over the same [prepared] value the
    artifact was compiled from ([Invalid_argument] otherwise); its hooks
    are ignored — probes are already compiled in. *)
val entry : t -> Interp.entry

(** {2 Introspection}

    Plain-int tallies — this library carries no obs dependency; the
    fuzz layer reads them into its metrics registry at deterministic
    points. Reading them never perturbs execution. *)

type runtime_stats = {
  rollbacks : int;  (** bulk-burn fast paths abandoned for careful replay *)
  careful_units : int;  (** fuel units re-burned by those replays *)
}

(** Bulk-burn rollback tallies accumulated since compilation. *)
val runtime_stats : t -> runtime_stats

(** The program's superblock-fusion shape, {!Plan.shape} (all zero
    when no chain qualifies). *)
val static_stats : t -> Plan.shape

(** [(hits, misses)] of {!cached} on the calling domain. *)
val cache_stats : unit -> int * int
