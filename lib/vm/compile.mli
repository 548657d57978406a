(** Staged compilation of a prepared MiniC program into OCaml closures —
    the second execution engine.

    [compile] partially evaluates a {!Interp.prepared} CFG, threaded-code
    style: one closure per basic block (forward references resolved
    through a block table read at call time), expression trees folded
    into closure trees with slots/sites/constants baked in, and the
    feedback listener specialised at compile time into per-site probes.
    Under {!spec} [Snone] no probe code exists at all; under
    [Sfull Path] each CFG edge bakes its resolved Ball–Larus operation
    (or compiles to a direct jump when it carries none), so the per-event
    dense-table dispatch of the runtime listener disappears along with
    the interpreter's [rinstr]/[rexpr] match dispatch.

    Staged code executes against the unmodified pooled
    {!Interp.exec_ctx} and replicates the interpreter's observable
    semantics exactly — fuel burn placement, evaluation order, crash
    kinds/sites/stacks, [h_cmp] timing, [blocks_executed] — which the
    differential suite enforces against the boxed reference interpreter.

    Artifacts are immutable modulo a small rebindable {!cstate} (trace
    map, cmplog probe, listener registers), so one
    artifact per [(prepared, spec)] serves every campaign on a domain;
    {!cached} memoises exactly that. The state is single-threaded:
    sharded campaigns compile one artifact per shard via {!compile}. *)

(** What gets baked in: nothing, or a full {!Pathcov.Feedback} mode. *)
type spec = Snone | Sfull of Pathcov.Feedback.mode

val spec_name : spec -> string

type t

(** [cmplog] (default [true]) controls whether comparisons emit [h_cmp]
    calls. A campaign with cmplog disabled binds a no-op probe, so such
    callers pass [~cmplog:false] to compile the calls out entirely —
    unobservable by construction.

    Every artifact applies superblock fusion: chains of blocks linked by
    unconditional gotos whose interior blocks have a single predecessor
    (plus rejoining diamond tails within a tail-duplication budget)
    collapse into one closure — interior dispatch elided, interior fuel
    burns coalesced into one bulk burn with exact per-op replay on the
    crash/hang path, and consecutive Ball–Larus register increments
    folded into one constant-add. Observably equivalent to block-at-a-
    time execution (same outcomes, crash sites, fuel accounting,
    [blocks_executed], probe event order); enforced by the differential
    suite. *)
val compile :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?cmplog:bool ->
  Interp.prepared ->
  spec ->
  t

(** Per-domain compile-once memo over [(prepared, spec, cmplog)]
    (physical identity on [prepared]). Safe for sequential campaigns,
    measurement replays and bench cells; sharded campaigns must
    {!compile} fresh per shard instead. *)
val cached :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?cmplog:bool ->
  Interp.prepared ->
  spec ->
  t

(** {2 Campaign binding} *)

(** Retarget the artifact's probes at a trace map and cmplog probe —
    two field writes, so callers may rebind before every execution.
    Only meaningful for [Sfull _] artifacts ([Snone] never touches
    either). *)
val bind :
  t -> trace:Pathcov.Coverage_map.t -> h_cmp:(int -> int -> unit) -> unit

(** The trace map the probes currently write (tests and diagnostics). *)
val bound_trace : t -> Pathcov.Coverage_map.t

(** {2 Execution}

    Both runners mirror {!Interp.run_ctx} / {!Interp.run_batch}: same
    defaults, same outcome construction, same crash materialisation.
    The context must have been created over the same [prepared] value
    the artifact was compiled from ([Invalid_argument] otherwise); the
    context's own hooks are ignored — probes are already compiled in. *)

val run : ?fuel:int -> ?max_depth:int -> t -> Interp.exec_ctx -> input:string -> Interp.outcome

(** Batched mirror of {!Interp.run_batch} over the compiled entry: run
    [n] candidates back-to-back on one context, [gen k] producing the
    [k]-th [(buf, len)] scratch view and [sink k outcome] consuming its
    result before the next [gen]. The prepared-program identity check
    happens once per cohort instead of once per exec. *)
val run_batch :
  ?fuel:int ->
  ?max_depth:int ->
  t ->
  Interp.exec_ctx ->
  n:int ->
  gen:(int -> Bytes.t * int) ->
  sink:(int -> Interp.outcome -> unit) ->
  unit

(** {2 Introspection}

    Plain-int tallies — this library carries no obs dependency; the
    fuzz layer reads them into its metrics registry at deterministic
    points. Reading them never perturbs execution. *)

type runtime_stats = {
  rollbacks : int;  (** bulk-burn fast paths abandoned for careful replay *)
  careful_units : int;  (** fuel units re-burned by those replays *)
}

type static_stats = {
  chains : int;  (** fused superblock chains emitted *)
  chain_blocks : int;  (** blocks covered by fused chains *)
  chain_max : int;  (** longest fused chain (blocks) *)
  dup_instrs : int;  (** instructions copied by tail duplication *)
}

(** Bulk-burn rollback tallies accumulated since compilation. *)
val runtime_stats : t -> runtime_stats

(** Superblock-fusion shape fixed at compilation (all zero when no
    chain qualifies). *)
val static_stats : t -> static_stats

(** [(hits, misses)] of {!cached} on the calling domain. *)
val cache_stats : unit -> int * int

(** {2 Shared planning} (consumed by {!Emit})

    The analyses and constants the closure engine bakes into its
    probes, exposed so the native source emitter specialises over
    exactly the same plan — any drift between the two engines is a
    trajectory divergence the differential suite would catch. *)

(** Per-slot may-hold-array verdicts of the whole-program fixpoint: a
    slot outside the tables never holds an array, so loads/stores on it
    compile to single unchecked int-table accesses. *)
type typing = {
  lmay : bool array array;  (** per (fid, local slot) *)
  gmay : bool array;  (** per global *)
}

val may_array_analysis : Interp.prepared -> typing

(** Per function: the local slots to zero at frame entry (the
    definite-assignment residue left over a pooled [acquire_raw]). *)
val zero_slots_analysis : Interp.prepared -> int array array

(** The per-function salt XOR-folded into every Ball–Larus commit key. *)
val path_salt : Minic.Ir.func -> int

(** The superblock-fusion plan for one resolved function: [Some chain]
    (length >= 2, head first) at every chain head, [None] elsewhere.
    Interior chain blocks still require standalone bodies — a
    budget-capped chain can end with a goto into one. *)
val fusion_plan : Interp.rfunc -> int list option array
