(** Pluggable event sinks.

    A sink is just an [emit] function in a record, concrete so callers can wrap
    and compose them without this module's help. The stock sinks:
    {!null} (drop everything), {!ring} (last-N in memory), {!jsonl}
    (one JSON object per line), {!status} (human snapshot lines),
    {!tee} (fan-out), {!locked} (mutex-wrap for cross-domain use). *)

type t = { emit : Event.t -> unit }

(** Drops everything — the default observer sink. *)
val null : t

val make : (Event.t -> unit) -> t

(** {2 Ring buffer} *)

type ring

(** A preallocated ring retaining the last [capacity] (default 4096)
    events in memory ([pathfuzz stats]). *)
val create_ring : ?capacity:int -> unit -> ring

(** The sink face of a ring. *)
val ring : ring -> t

(** Retained events, oldest first. *)
val ring_events : ring -> Event.t list

(** Events emitted over the ring's lifetime (retained or overwritten). *)
val ring_total : ring -> int

(** Events lost to capacity. *)
val ring_dropped : ring -> int

(** {2 Writers and combinators} *)

(** JSONL writer. The channel is the caller's to flush and close. *)
val jsonl : out_channel -> t

(** Status-line writer: renders snapshot events through the callback
    (e.g. [prerr_endline]) and ignores everything else. *)
val status : (string -> unit) -> t

(** Fan one event stream out to two sinks. *)
val tee : t -> t -> t

(** Serialize a sink shared across domains. *)
val locked : t -> t
