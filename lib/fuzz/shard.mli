(** Deterministic intra-campaign sharding: one campaign spread across N
    OCaml 5 domains with an execution-count synchronization schedule.

    A sharded run is organised as a sequence of {e epochs}. The
    coordinator — a {!Campaign.state} owning the shared queue, virgin
    maps, triage and observer — plans each epoch deterministically
    (walking the queue in cycle order with the sequential scheduler's
    skip/energy rules, one private RNG stream per work item keyed by the
    item's position in the global schedule), then lets N lanes, each a
    {!Campaign.state} built with [~lane], claim the items as they free
    up. A lane runs each item through the campaign stages against
    private copies of the epoch-start virgin maps, records discoveries
    as sparse captures (the indices that beat its map, and the
    top-rated slots a retention could still claim), and undoes the
    item's merges; the barrier replays the captures against the
    coordinator in global item order. The merged trajectory
    (queue contents and order, virgin-map bytes, crash set, counters) is
    therefore a deterministic function of [(seed, sync_interval)] alone
    — byte-identical across re-runs {e and across shard/worker counts},
    which the trajectory-contract test suite enforces.
    DESIGN.md §8 gives the full schedule and determinism argument. *)

type config = {
  base : Campaign.config;
  shards : int;  (** parallel width of each epoch (>= 1) *)
  sync_interval : int;  (** executions scheduled between merge barriers *)
}

val default_sync_interval : int

type result = {
  campaign : Campaign.result;  (** the familiar campaign-level report *)
  shards : int;
  sync_interval : int;
  epochs : int;  (** sync barriers executed *)
  items : int;  (** work items scheduled over the whole run *)
  dup_dropped : int;
      (** shard-retained candidates another item beat to the barrier *)
  virgin : Pathcov.Coverage_map.t;  (** final merged virgin map *)
  crash_virgin : Pathcov.Coverage_map.t;
}

(** Run one sharded campaign, the loop {!Strategy.exec} picks for a
    spec with shards. [workers] caps how
    many lanes run at once, the calling domain included (default: one
    per shard); it is purely a wall-clock knob — any value yields
    byte-identical results. [plans] and [obs] behave as on the
    sequential loop ({!Campaign.run}); the observer's optional clock
    enables the same vm/mutator wall split, accumulated per lane and
    aggregated at each barrier under the zero-perturbation rule.

    [checkpoint] writes a {!Checkpoint.t} at each merge barrier crossing
    a multiple of [sink.every] executions (mid-budget only); [resume]
    restores one instead of importing [seeds]. Barriers are functions of
    [(seed, sync_interval)] alone, so a snapshot taken at any
    shard/worker count resumes at any other with a byte-identical
    remaining trajectory. Both assume the campaign owns its observer. *)
val run :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?workers:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  config ->
  Minic.Ir.program ->
  seeds:string list ->
  result

(** {2 Stall watchdog}

    After every merge barrier of a clocked, multi-shard run the
    coordinator compares each shard's epoch wall against the epoch's
    median and emits an {!Obs.Event.Stall} (plus a [shard.stalls]
    counter bump) for any shard beyond [stall_factor ×] the median.
    Walls exist only when the observer carries a clock, so the watchdog
    is observation-only by construction. *)

(** Stall threshold as a multiple of the median epoch wall. *)
val stall_factor : float

(** Pure stall verdicts over one epoch's per-shard walls:
    [(shard, wall, median)] for each wall exceeding [factor *.] the
    median; empty for fewer than two shards or a non-positive median.
    Exposed for unit tests. *)
val stall_check : walls:float array -> factor:float -> (int * float * float) list
