(** The fuzzer configurations of the evaluation (§V) as strategy drivers
    over {!Campaign}: the plain feedbacks, the culling driver (with
    edge-preserving, path-preserving and random criteria), and the
    opportunistic two-phase driver. *)

type spec =
  | Plain of Pathcov.Feedback.mode
  | Cull of { rounds : int; criterion : [ `Edges | `Paths | `Random ] }
  | Opportunistic

type fuzzer = { name : string; spec : spec; cmplog : bool }

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

(** Wrap one finished campaign in the run-level report shape (the
    sharded CLI path reports a {!Shard.result.campaign} through this). *)
val of_campaign : string -> Campaign.result -> run_result

(** Run [fuzzer] on a program for [budget] executions. [plans] shares the
    Ball–Larus artifact across configurations of a trial. [obs] is shared
    across every phase of a multi-phase strategy (cull rounds, the two
    opportunistic halves), so counters and snapshots accumulate over the
    whole campaign; fuzzing behaviour is identical without it. [engine]
    (default {!Tracer.matrix_engine}, i.e. [Fused]: the staged closure
    artifact; [Interp] the reference interpreter, [Native] the
    generated unit) picks the execution engine for every phase — it is
    trajectory-invisible (test-enforced differentially), and every VM
    run of every phase goes through the batched [Tracer.run_full_batch]
    entry whatever the engine. [map_size_log2] (default
    {!Campaign.default_config}'s) sizes every phase's coverage maps. *)
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
