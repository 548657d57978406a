(** The coverage-guided fuzzing loop: an afl-fuzz-shaped campaign over the
    MiniC VM, parameterised by the feedback listener (§IV "Integration").
    Budgets are execution counts — the deterministic stand-in for the
    paper's wall-clock budgets — and all randomness flows from one
    {!Rng.t}, so a run is a pure function of (program, seeds, config).

    Campaigns are observable: pass an {!Obs.Observer.t} to collect the
    counter block, periodic snapshot rows and structured events. The
    observer obeys the zero-perturbation rule (no RNG draws, no fuzzing
    decision reads observer state), so observed and unobserved runs are
    byte-identical — see DESIGN.md §7. *)

type config = {
  mode : Pathcov.Feedback.mode;
  budget : int;  (** total target executions *)
  rng_seed : int;
  fuel : int;  (** VM fuel per execution (the timeout analogue) *)
  max_depth : int;  (** VM call-depth limit per execution *)
  map_size_log2 : int;
  cmplog : bool;  (** comparison-operand capture + I2S mutations *)
  max_queue : int;  (** hard safety bound on queue growth *)
  engine : Tracer.engine;
      (** execution engine — the reference interpreter, the fused closure
          artifact or the native generated unit; the trajectory is
          engine-invariant (test-enforced differentially) *)
  selective : bool;
      (** kept only because the benchmark harness names it: selective
          tracing was removed, so [true] makes {!run} (and
          {!Shard.run}) raise [Invalid_argument]. Drop the field with
          the next benchmark change. *)
}

val default_config : config

type result = {
  config : config;
  corpus : Corpus.t;
  triage : Triage.t;
  execs : int;  (** executions actually performed *)
  queue_series : (int * int) list;
      (** (execs, queue size) samples — a derived view over [snapshots] *)
  sum_exec_blocks : int;  (** total VM blocks executed, throughput proxy *)
  havocs : int;  (** mutated candidates generated *)
  snapshots : Obs.Snapshot.row list;
      (** this run's periodic stats rows (the [plot_data] analogue) *)
  vm_s : float;  (** wall inside the VM (0 unless the observer has a clock) *)
  mut_s : float;  (** wall inside the mutator (0 unless clocked) *)
  mut_minor_words : float;  (** GC minor words allocated by the mutator *)
}

(** Final queue inputs, in discovery order. *)
val queue_inputs : result -> string list

(** Run a campaign. [plans] shares a precomputed Ball–Larus artifact
    across campaigns on the same program. [obs] supplies the observer —
    counters, snapshot log, event sink, and the optional wall clock that
    enables the mutation-vs-VM split [pathfuzz profile] reports.
    A shared observer accumulates across runs (multi-phase strategies,
    benches); each run's [result] reports its own deltas. Fuzzing
    behaviour is identical with or without an observer.

    [checkpoint] writes a {!Checkpoint.t} through the sink before the
    first queue entry (or cycle start) at which the exec clock has
    crossed a multiple of [sink.every] executions (mid-budget only); a
    snapshot taken inside a cycle records the queue cursor in its
    [cycle_len]/[next_qi] progress fields. [resume] restores one such
    snapshot instead of importing [seeds] and finishes the cycle it was
    taken in: the resumed run replays the uninterrupted run's remaining
    trajectory byte for byte (test-enforced differentially). Both
    require the campaign to own its observer — the checkpointed counter
    block is restored wholesale. *)
val run :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?config:config ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Minic.Ir.program ->
  seeds:string list ->
  result

(** {2 Pipeline stages}

    The individual stages of the loop are exposed so tests can drive them
    directly (e.g. triaging a calibration crash on an entry that was
    parked in the queue without a clean execution). *)

(** Comparison-operand capture: flat, insertion-ordered, deduplicated,
    bounded — pairs reach the mutator in program order rather than
    [Hashtbl.fold] order. The probe records only while [capture] is set,
    i.e. during a {!capturing} (calibration) run. *)
type cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
  mutable capture : bool;
}

val make_cmp_buf : unit -> cmp_buf

(** [capturing tracer b run] empties [b] and arms the probe — both [b]'s
    [capture] flag and the tracer's comparison probes
    ({!Tracer.arm_cmp}) — for the duration of [run] (one calibration
    execution): the only window in which pairs are recorded. Under the
    native engine it is also the only window in which [h_cmp] is called
    at all. *)
val capturing : Tracer.t -> cmp_buf -> (unit -> 'a) -> 'a

(** afl-fuzz's fuzz_one skip probabilities over an explicit RNG and
    queue state (the sharded planner draws from its own stream). *)
val entry_skip : Rng.t -> pending_favored:int -> Corpus.entry -> bool

(** Havoc energy for one queue entry (simplified perf_score): a pure
    function of the entry and the budget. *)
val entry_energy : budget:int -> Corpus.entry -> int

(** Live campaign state. Fields are exposed read-mostly for tests and
    diagnostics; mutate only through the stage functions below. The
    state owns a pooled {!Vm.Interp.exec_ctx} with the instrumentation
    hooks preinstalled, so every stage executes allocation-free. *)
type state = {
  prepared : Vm.Interp.prepared;
  ctx : Vm.Interp.exec_ctx;  (** pooled execution context, reused per exec *)
  tracer : Tracer.t;  (** engine dispatch *)
  cfg : config;
  feedback : Pathcov.Feedback.t;
      (** the interpreter's listener; under fused and native, whose
          artifacts run their own probes, {!Pathcov.Feedback.trace_only}:
          just the trace map *)
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  corpus : Corpus.t;
  triage : Triage.t;
  rng : Rng.t;
  mutable execs : int;  (** this campaign's executions (budget clock) *)
  mutable sample_every : int;
      (** snapshot cadence in executions ([max_int] under {!Shard},
          which samples at merge barriers) *)
  cmp_buf : cmp_buf;  (** calibration-run comparison pairs, program order *)
  scratch : Mutator.scratch;  (** pooled mutation buffer, reused per child *)
  obs : Obs.Observer.t;
      (** counters + snapshots + event sink; may be shared across phases *)
  mut_words : float array;
      (** one slot: mutator minor words counted since they were last
          folded into the counter block (at every snapshot row and
          checkpoint); a float-array store does not box, a store to the
          counter block does *)
  h_batch : Obs.Metrics.hist;
      (** cohort-size histogram ([exec.batch_n]), pre-registered in the
          observer's metrics registry at state creation *)
  h_dirty : Obs.Metrics.hist;
      (** context dirty-reset widths ([vm.dirty_reset_w]) *)
  track : int;  (** span-trace track: 0, or a shard lane's index + 1 *)
}

(** Build a fresh campaign state. With [lane], shard lane [lane] of a
    {!Shard} run: a private compiled artifact, trace track [lane + 1] of
    [obs]'s trace, and a private counter block and metrics registry
    behind the null sink (events stay coordinator-only). *)
val make_state :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?lane:int ->
  ?config:config ->
  Minic.Ir.program ->
  state

(** {!run}'s loop over a state built by {!make_state} (tests hold the
    state to inspect its maps while the loop runs). The state's tracer
    is released on return: the state cannot execute again. *)
val run_state :
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  state ->
  seeds:string list ->
  result

(** Run one input; the trace map is left classified for novelty checks. *)
val execute : state -> string -> Vm.Interp.outcome

(** Execute a seed and retain it unconditionally (afl imports the full
    seed directory); crashes and hangs are triaged. *)
val add_seed : state -> string -> unit

(** Evaluate one candidate end to end — a cohort of one through the
    same decision procedure as the campaign's havoc cohorts: execute,
    triage crashes/hangs, retain
    on coverage novelty if the queue has capacity. *)
val process : state -> depth:int -> string -> unit

(** One calibration run of a queue entry — the only run that captures
    cmplog operand pairs; a crash or hang is triaged like {!process}'s,
    or handed to [on_fault] instead (a shard lane captures it). *)
val calibrate :
  ?on_fault:(Vm.Interp.outcome -> unit) ->
  state -> Corpus.entry -> Mutator.cmp_pair array

(** {2 Stages shared with {!Shard}}

    A sharded campaign's coordinator and lanes are states built by
    {!make_state}, and run through these stages. *)

(** Span brackets on the state's trace track (no-ops without a trace). *)
val trace_begin : state -> Obs.Trace.kind -> unit
val trace_end : ?arg:int -> state -> unit

(** Reset the listener state (a no-op off the interpreter) and the
    trace map before one VM run. *)
val pre_exec : state -> unit

(** Account one VM run and classify its trace for novelty checks;
    samples a snapshot row every [sample_every] executions. *)
val post_exec : state -> Vm.Interp.outcome -> unit

(** [n] candidates through the state's tracer: [gen k] builds candidate
    [k], [sink k out] consumes its outcome before [gen (k + 1)] runs. *)
val cohort : state -> n:int -> gen:(int -> Bytes.t * int) ->
  sink:(int -> Vm.Interp.outcome -> unit) -> unit

(** One havoc-mutated candidate drawn from [rng] into [scratch]; counted,
    and timed when the observer has a clock. *)
val mutate : state -> rng:Rng.t -> cmps:Mutator.cmp_pair array ->
  ?splice_with:string -> string -> unit

(** Fold the tracer's VM wall and the mutator's minor words into the
    counter block. *)
val settle_walls : state -> unit

(** Append one snapshot row (walls settled first). *)
val take_snapshot : state -> unit

(** {!add_seed} each seed; a queue left empty gets a synthetic entry. *)
val add_seeds : state -> string list -> unit

(** Start a queue cycle at campaign exec [at_exec]: recompute and
    announce the favored set. Returns the queue size (the cycle bound). *)
val start_cycle : state -> at_exec:int -> int

(** Is the queue full for a finished exec at [at_exec]? Counts the drop
    (announcing the first); checked before any virgin merge. *)
val queue_full : state -> at_exec:int -> bool

(** Append a coverage-novel input found at campaign exec [at_exec] to
    the queue, claim its top-rated slots, count and announce it. With
    [claim], only those slots are tried ({!Corpus.claim_top_rated_at}):
    the merge barrier passes a capture's {!Corpus.dearer_slots} from
    the epoch start. *)
val admit : ?claim:Pathcov.Index_set.t -> state ->
  indices:Pathcov.Index_set.t -> data:string ->
  exec_blocks:int -> depth:int -> at_exec:int -> unit

(** The observer's counters at the start of a run. *)
type baseline

val baseline : state -> baseline

(** End a run: harvest the engine metrics of [tracers], release the
    state's tracer, report the run's deltas against the baseline. *)
val finish : state -> baseline -> tracers:Tracer.t list -> result

(** {2 Checkpoint/resume}

    Exposed so tests can capture and restore mid-campaign state without
    going through {!run}'s sink plumbing. *)

(** The identity a snapshot records and [--resume] checks
    ({!Checkpoint.check_compat}); [sync_interval = 0] marks the
    sequential loop. The one place a {!Checkpoint.config_id} is built. *)
val checkpoint_id : config -> subject:string -> fuzzer:string ->
  sync_interval:int -> Checkpoint.config_id

(** Snapshot the campaign between queue entries, or at a sharded merge
    barrier: [sync_interval] (default 0) goes into the identity and
    [planner] fills the cursor slots of the progress record (left zero:
    a cycle boundary). *)
val capture_checkpoint :
  ?sync_interval:int -> ?planner:(Checkpoint.progress -> Checkpoint.progress) ->
  state -> subject:string -> fuzzer:string -> Checkpoint.t

(** Load a snapshot into freshly built state (queue, triage, virgin maps,
    RNG position, exec clock, counters, snapshot rows); a sharded caller
    reads its planner cursor from the snapshot. Config validation is the
    caller's job ({!Checkpoint.check_compat}); only the map size is
    re-checked. *)
val restore_checkpoint : state -> Checkpoint.t -> unit
