(** The campaign observer: one counter block, one metrics registry, one
    snapshot log, one event sink, an optional wall clock and an optional
    span trace, threaded through [Fuzz.Campaign], [Fuzz.Shard],
    [Fuzz.Triage], [Fuzz.Measure] and [Exec.Pool].

    The contract (the zero-perturbation rule, DESIGN.md §7/§14):

    - observers never consume RNG draws;
    - fuzzing decisions never branch on observer state;
    - hot-path cost is limited to unconditional int/float stores into
      preallocated records.

    A campaign observed through a null sink, a memory ring, a JSONL
    writer, a metrics registry or a span trace therefore runs the exact
    same trajectory as an unobserved one — test-enforced byte-for-byte
    over final queues, triage, snapshots and stdout. *)

type t = {
  counters : Counters.t;
  metrics : Metrics.t;
      (** engine-metrics registry (compile cache, rollbacks, barrier
          waits, checkpoint costs); always present — an unused registry
          is a few empty arrays *)
  sink : Sink.t;
  clock : (unit -> float) option;
      (** enables the vm/mutator wall split; [None] costs nothing *)
  trace : Trace.t option;
      (** span flight recorder; [None] (the default) costs nothing *)
  mutable snapshots : Snapshot.row array;  (** slots [0, n_snapshots) *)
  mutable n_snapshots : int;
}

val create :
  ?clock:(unit -> float) ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?sink:Sink.t ->
  unit ->
  t

(** A fresh counters-only observer — what [Campaign.run] uses when the
    caller passes none. *)
val null : unit -> t

(** Emit one event (cold paths only). *)
val event : t -> Event.t -> unit

(** Append a snapshot row and emit it as an event. *)
val snapshot : t -> Snapshot.row -> unit

(** Append already-recorded rows without emitting sink events — the
    checkpoint-restore half of {!snapshot}. *)
val preload_snapshots : t -> Snapshot.row list -> unit

(** Snapshot rows recorded so far, oldest first. *)
val snapshots : t -> Snapshot.row list

(** Rows recorded at positions [>= from] — a campaign's own slice when
    the observer is shared across phases. *)
val snapshots_from : t -> from:int -> Snapshot.row list
