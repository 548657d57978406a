(** The coverage-guided fuzzing loop: an afl-fuzz-shaped campaign over the
    MiniC VM, parameterised by the feedback listener (§IV "Integration").
    Budgets are execution counts — the deterministic stand-in for the
    paper's wall-clock budgets — and all randomness flows from one
    {!Rng.t}, so a run is a pure function of (program, seeds, config).

    Campaigns are observable: pass an {!Obs.Observer.t} to collect the
    counter block, periodic snapshot rows and structured events. The
    observer obeys the zero-perturbation rule (no RNG draws, no fuzzing
    decision reads observer state), so observed and unobserved runs are
    byte-identical — see DESIGN.md §7.

    {!Shard} runs on these states too, and every queue entry of either
    loop goes through one stage ({!fuzz_entry}) and one decision
    procedure: a sequential state applies each decision at once, a
    shard lane records it as a {!capture} that the merge barrier
    {!replay}s. A retention costs time in the indices its run touched
    and keeps none of them: the sequential loop claims top-rated slots
    straight from the trace map's journal, a lane computes its claim
    candidates from it, and neither the queue entry nor the capture
    holds the set.

    Each run's trace is walked once after the VM: the merge that gives
    the novelty verdict ({!Pathcov.Coverage_map.settle}, for the
    decision procedure, triage, calibration and seed import alike)
    classifies, merges, notes and zeroes in one pass, and the next run
    only rewinds the journal of a trace so settled (a trace no merge
    read, after a hang or with a full queue, is still cleared). A lane's
    capture takes its bytes from the notes. *)

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
  virgin : Pathcov.Coverage_map.t;  (** the final virgin map *)
  crash_virgin : Pathcov.Coverage_map.t;
  vm_s : float;  (** wall inside the VM (0 unless the observer has a clock) *)
  mut_s : float;  (** wall inside the mutator (0 unless clocked) *)
  mut_minor_words : float;  (** GC minor words allocated by the mutator *)
}

(** Final queue inputs, in discovery order. *)
val queue_inputs : result -> string list

(** Run one campaign on the sequential loop, the one {!Strategy.exec}
    picks for a spec without shards. [plans] shares a precomputed Ball–Larus artifact across campaigns
    on the same program. [obs] supplies the observer: counters, snapshot
    log, event sink, and the optional wall clock that enables the
    mutation-vs-VM split [pathfuzz profile] reports. A shared observer
    accumulates across runs (multi-phase strategies, benches); each
    run's [result] reports its own deltas. Fuzzing behaviour is
    identical with or without an observer.

    [checkpoint] writes a {!Checkpoint.t} through the sink before the
    first queue entry (or cycle start) at which the exec clock has
    crossed a multiple of [sink.every] executions (mid-budget only); a
    snapshot taken inside a cycle records the queue cursor in its
    [cycle_len]/[next_qi] progress fields. [resume] restores one such
    snapshot instead of importing [seeds] and finishes the cycle it was
    taken in: the resumed run replays the uninterrupted run's remaining
    trajectory byte for byte (test-enforced differentially). Both
    require the campaign to own its observer — the checkpointed counter
    block is restored wholesale. Neither checks the snapshot's identity;
    {!Strategy.exec} does. *)
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
    [Hashtbl.fold] order. *)
type cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
}

val make_cmp_buf : unit -> cmp_buf

(** The campaign's cmplog probe ({!Tracer.attach}'s [h_cmp]): record the
    pair unless its operands are equal, it is already held, or the
    buffer is full. *)
val record_cmp : cmp_buf -> int -> int -> unit

(** [capturing tracer b run] empties [b] and opens the tracer's capture
    window ({!Tracer.arm_cmp}) for the duration of [run] (one
    calibration execution). On every engine it is the only window in
    which the probe is called, hence in which pairs are recorded. *)
val capturing : Tracer.t -> cmp_buf -> (unit -> 'a) -> 'a

(** afl-fuzz's fuzz_one skip probabilities over an explicit RNG and
    queue state (the sharded planner draws from its own stream). *)
val entry_skip : Rng.t -> pending_favored:int -> Corpus.entry -> bool

(** Havoc energy for one queue entry (simplified perf_score) with
    [left] executions of the budget left: a pure function of the entry
    and the budget, cut to what is left after the entry's calibration
    run under cmplog. *)
val entry_energy : config -> left:int -> Corpus.entry -> int

(** What a shard lane records instead of applying a decision, replayed
    by the merge barrier ({!replay}); index sets are packed
    ({!Pathcov.Index_set}), in journal order. A capture carries only
    what can still change at the barrier: its {e delta}, the indices
    where it beat the lane's map (with their classified bytes), and for
    a retention its claim candidates — no set of every index the run
    touched, which nothing reads once the entry is claimed. The coordinator's map has cleared at least every
    bit the lane's had when the capture was taken (the lane's map is the
    epoch-start map plus the item's own earlier captures, each of which
    the barrier admits, finds already seen, or skips on a full queue and
    then skips this one too), so outside the delta the capture clears
    nothing there either: merging the delta gives the full capture's
    verdict and bytes. A lane's crash map also keeps the crash captures
    of the lane's earlier items of the epoch; lanes claim items in
    increasing order and the barrier replays every crash capture, so
    those are cleared in the coordinator's map first as well. A
    top-rated holder only gets cheaper, so the claim candidates hold
    every slot the entry can still claim (DESIGN.md §8). *)
type capture =
  | Retained of {
      data : string;
      delta : Pathcov.Index_set.t;  (** indices that beat the lane's map *)
      dvals : string;  (** classified trace bytes at [delta], one each *)
      claim : Pathcov.Index_set.t;
          (** trace indices whose epoch-start holder was dearer
              ({!Corpus.dearer_slots}) *)
      exec_blocks : int;
      depth : int;
      at_exec : int;
    }
  | Crashed of {
      crash : Vm.Crash.t;
      input : string;
      delta : Pathcov.Index_set.t;  (** indices that beat the lane's crash map *)
      dvals : string;
      at_exec : int;
    }
  | Hung of { at_exec : int }

(** Live campaign state. Fields are exposed read-mostly for tests and
    diagnostics; mutate only through the stage functions below. The
    state owns a pooled {!Vm.Interp.exec_ctx} and the feedback listener
    its tracer wired ({!Tracer.attach}), so every stage executes
    allocation-free. *)
type state = {
  prepared : Vm.Interp.prepared;
  ctx : Vm.Interp.exec_ctx;  (** pooled execution context, reused per exec *)
  tracer : Tracer.t;  (** engine dispatch *)
  cfg : config;
  feedback : Pathcov.Feedback.t;
      (** the listener {!Tracer.attach} wired: the interpreter's, or
          under the compiled engines just the trace map their probes
          write *)
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  corpus : Corpus.t;  (** the queue; a lane reads its coordinator's *)
  triage : Triage.t;
  rng : Rng.t;
  lane : bool;  (** a shard lane: decisions are captured, not applied *)
  mutable note : int array;
      (** the note log, [[0, nnote)]: indices the merges into the virgin
          maps changed — a lane's, since its work item began; otherwise
          the last merge's only *)
  mutable note_vals : Bytes.t;
      (** the classified trace byte each noted index merged, position
          for position with [note]: a capture's [dvals] *)
  mutable nnote : int;
  mutable cand : int array;  (** claim-candidate scratch *)
  mutable captures : capture list;  (** a lane's, newest first *)
  mutable execs : int;
      (** this campaign's executions (budget clock); a lane's runs on
          the campaign clock from its work item's base *)
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

(** Why a config cannot run, if it cannot: a [fuel] above
    [Corpus.max_cost / (Mutator.max_len + 16)] (an entry could cost more
    than the top-rated table stores) or a [max_queue] above
    [Corpus.max_entries / 2] (seeds bypass the cap, so the table's
    positions keep room for them). {!make_state} raises
    [Invalid_argument] with this message, and {!Strategy.exec} returns
    it as an [Error]. *)
val config_refusal : config -> string option

(** Build a fresh campaign state. With [lane = (l, co)], lane [l] of
    the {!Shard} run coordinated by [co]: a private compiled artifact,
    trace track [l + 1] of [co]'s trace, a private counter block and
    metrics registry behind the null sink (events stay
    coordinator-only; [obs] is ignored), and [co]'s queue, read for
    claim candidates. *)
val make_state :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?lane:int * state ->
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

(** Run one input and account it; the trace map is left raw
    (unclassified) for the one merge that settles it
    ({!Pathcov.Coverage_map.settle}). *)
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
    cmplog operand pairs; a crash or hang goes through the decision
    procedure like {!process}'s. *)
val calibrate : state -> Corpus.entry -> Mutator.cmp_pair array

(** {2 Stages shared with {!Shard}}

    A sharded campaign's coordinator and lanes are states built by
    {!make_state}, and run through these stages. *)

(** Span brackets on the state's trace track (no-ops without a trace). *)
val trace_begin : state -> Obs.Trace.kind -> unit
val trace_end : ?arg:int -> state -> unit

(** Where a queue entry's splice peers come from: the live queue (the
    sequential loop, where entries retained mid-cohort are eligible) or
    a fixed epoch-start view (a shard lane). *)
type peers = Live of Corpus.t | Frozen of Corpus.view

(** The queue-entry stage both loops run: the entry's calibration run
    under cmplog, then a cohort of [energy] havoc candidates, each with
    its splice draw from [peers] ahead of its mutation draws from [rng],
    and each outcome through the one decision procedure: triaged or
    retained at once, the queue cap checked before every merge, or on a
    lane (which never consults the cap) captured. The note log and the
    captures start empty. *)
val fuzz_entry :
  state -> rng:Rng.t -> peers:peers -> energy:int -> Corpus.entry -> unit

(** Replay one lane capture on the coordinator at the merge barrier: a
    crash is triaged, a hang counted; a retention is checked against
    the queue cap (counting the drop), its delta merged and, still
    novel, admitted with its claim candidates ([`Admitted]), else
    dropped as a duplicate of an earlier capture ([`Duplicate]). *)
val replay : state -> capture -> [ `Admitted | `Duplicate | `Other ]

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

(** The observer's counters at the start of a run. *)
type baseline

val baseline : state -> baseline

(** End a run: harvest the engine metrics of [tracers], release the
    state's tracer, report the run's deltas against the baseline. *)
val finish : state -> baseline -> tracers:Tracer.t list -> result

(** {2 Checkpoint/resume} *)

(** The identity a snapshot records and [--resume] checks
    ({!Checkpoint.check_compat}); [sync_interval = 0] marks the
    sequential loop. The one place a {!Checkpoint.config_id} is built. *)
val checkpoint_id : config -> subject:string -> fuzzer:string ->
  sync_interval:int -> Checkpoint.config_id

(** The snapshot schedule of one loop over a state, as the check the
    loop calls between queue entries or merge barriers: a snapshot once
    the exec clock has crossed the next multiple of [sink.every]
    executions, mid-budget only. [sync_interval] (default 0: the
    sequential loop) goes into the identity, and [planner] fills the
    progress record's cursor slots (left zero: a cycle boundary). *)
val checkpoint_schedule :
  ?sync_interval:int -> ?planner:(Checkpoint.progress -> Checkpoint.progress) ->
  Checkpoint.sink option -> state -> unit -> unit

(** Load a snapshot into freshly built state (queue, triage, virgin maps,
    RNG position, exec clock, counters, snapshot rows); a sharded caller
    reads its planner cursor from the snapshot. Config validation is the
    caller's job ({!Checkpoint.check_compat}); only the map size is
    re-checked. *)
val restore_checkpoint : state -> Checkpoint.t -> unit
