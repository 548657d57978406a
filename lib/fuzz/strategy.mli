(** The fuzzer configurations of the evaluation (§V) as strategy drivers
    over {!Campaign}: the plain feedbacks, the culling driver (with
    edge-preserving, path-preserving and random criteria), and the
    opportunistic two-phase driver. *)

type kind =
  | Plain of Pathcov.Feedback.mode
  | Cull of { rounds : int; criterion : [ `Edges | `Paths | `Random ] }
  | Opportunistic

type fuzzer = { name : string; spec : kind; cmplog : bool }

(** AFL++'s default edge feedback with cmplog — the paper's baseline. *)
val pcguard : fuzzer

(** The baseline path-aware fuzzer (§III-A). *)
val path : fuzzer

(** [path] with periodic edge-coverage-preserving queue culling (§III-B1). *)
val cull : ?rounds:int -> unit -> fuzzer

(** The Appendix D ablation: random trimming of 84–98% per round. *)
val cull_r : ?rounds:int -> unit -> fuzzer

(** Culling by path identity — the criterion the paper tested and
    rejected (§III-B1 footnote). *)
val cull_p : ?rounds:int -> unit -> fuzzer

(** The opportunistic strategy (§III-B2): first half of the budget under
    edge feedback, queue trimmed edge-preserving, second half path-aware;
    only the second phase's findings count. *)
val opp : fuzzer

(** PathAFL-like whole-program path sketch atop an AFL-2.52b-like profile
    (no cmplog), Appendix C. *)
val pathafl : fuzzer

(** Plain AFL-like edge fuzzing (no cmplog), Appendix C. *)
val afl : fuzzer

(** Sensitivity-ladder extras (§VII). *)
val block : fuzzer

val ngram : int -> fuzzer

(** Every named configuration above, the [cull*] ones with [rounds]
    rounds (default 8), and [ngram2] and [ngram4]: the names the CLI
    accepts. *)
val all : ?rounds:int -> unit -> fuzzer list

(** Campaign-level outcome of running one fuzzer on one subject. *)
type run_result = {
  fuzzer : string;
  final_queue : string list;  (** inputs in the queue when the budget ended *)
  queue_size : int;
  triage : Triage.t;
  execs : int;
  queue_series : (int * int) list;
  sum_exec_blocks : int;
}

(** {2 The run entry point}

    The CLI, the experiment runner and the trajectory contract start
    every campaign through {!exec}: one record describes the run, one
    call validates it and picks the loop. *)

(** Snapshot writing: at each deterministic boundary that crosses a
    multiple of [every] executions (mid-budget only), [write] stores
    the snapshot and returns its size in bytes. *)
type checkpoint = { every : int; write : Checkpoint.t -> int }

(** [trials] campaigns of one fuzzer on one program. *)
type spec = {
  fuzzer : fuzzer;
  config : Campaign.config;
      (** what every phase starts from (engine, map size, queue cap,
          budget, the first trial's seed); each phase sets its own
          mode, cmplog switch, budget share and seed *)
  trials : int;  (** trial [i] runs from seed [config.rng_seed + i] *)
  jobs : int;  (** worker domains the sequential trials fan out over *)
  shards : int;
      (** 0: the sequential loop; else each trial is one {!Shard} run
          of this width, and the trials run in turn *)
  sync_interval : int;  (** executions between shard merge barriers *)
  workers : int option;  (** lanes at once (default: one per shard) *)
  subject : string;  (** named in snapshot identities *)
  checkpoint : checkpoint option;
  resume : Checkpoint.t option;  (** restored instead of the seeds *)
  observer : unit -> Obs.Observer.t option;
      (** makes each trial's observer before any trial starts; a
          trial's phases share it. [None]: each campaign counts into
          its own *)
  trial_sink : Obs.Sink.t option;
      (** the sequential trials' fan-out events (trial begin and end) *)
}

(** One sequential trial of [fuzzer]: {!Campaign.default_config} with
    the given budget, seed, engine (default {!Tracer.matrix_engine})
    and map size; one job, no subject, snapshot or observer. *)
val spec :
  ?engine:Tracer.engine ->
  ?map_size_log2:int ->
  budget:int ->
  trial_seed:int ->
  fuzzer ->
  spec

(** One finished trial: its report, its last phase's campaign (a plain
    fuzzer has one) and the barrier counts, 0 on the sequential loop. *)
type trial = {
  result : run_result;
  campaign : Campaign.result;
  epochs : int;  (** merge barriers *)
  items : int;  (** work items scheduled *)
  dup_dropped : int;  (** retentions another item beat to the barrier *)
  obs : Obs.Observer.t option;  (** the trial's observer, as made *)
}

(** Run a spec on [prog] with [seeds], trial by trial; sequential trials
    fan out over [jobs] domains and land by index, so the result is the
    same at any job count. [plans] is shared by every campaign. A
    checkpointed trial's observer is charged each write's count, size
    and wall ([checkpoint.*]). Nothing runs if the spec is refused;
    [Error] says why:

    - fewer than one trial or job, a negative shard count, or a
      non-positive sync interval, worker count or checkpoint cadence;
    - a multi-phase fuzzer ([cull*], [opp]) with shards, a checkpoint
      or a resume;
    - a checkpoint, a resume, or an observer with a clock or a span
      trace, with more than one trial;
    - a resume snapshot whose identity ({!Campaign.checkpoint_id})
      differs from the run's. *)
val exec :
  ?plans:Pathcov.Ball_larus.program_plans ->
  spec ->
  Minic.Ir.program ->
  seeds:string list ->
  (trial array, string) result

(** Run [fuzzer] on a program for [budget] executions: {!exec} of
    {!spec} with [obs] as the trial's observer. [obs] is shared by every
    phase of a multi-phase strategy (cull rounds, the two opportunistic
    halves), so counters and snapshots accumulate over the whole
    campaign; fuzzing behaviour is identical without it. [engine] runs
    every phase and is trajectory-invisible (test-enforced
    differentially). *)
val run :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?engine:Tracer.engine ->
  ?map_size_log2:int ->
  budget:int ->
  trial_seed:int ->
  fuzzer ->
  Minic.Ir.program ->
  seeds:string list ->
  run_result
