(** Preallocated per-track span rings — the campaign's flight recorder.

    A trace owns a fixed set of tracks (track 0 = the coordinator /
    sequential campaign, track [s + 1] = shard [s]); each track carries
    a preallocated ring of completed spans, a fixed-depth open-span
    stack, and per-kind aggregate totals. Recording a span is two clock
    reads and a handful of int/float stores — zero steady-state
    allocation (DESIGN.md §14). Each track must only ever be touched
    from one domain; no locking is done here.

    The clock is passed in by the caller (obs is stdlib-only). Spans
    export as Chrome trace-event JSON via {!to_chrome}. *)

type kind =
  | Plan  (** coordinator: epoch planning *)
  | Mutate  (** candidate generation (mutator) *)
  | Exec  (** VM execution of a candidate cohort *)
  | Calibrate  (** calibration / cmplog colorization runs *)
  | Triage  (** crash triage *)
  | Merge  (** coordinator: shard sync-barrier merge *)
  | Compile  (** staged subject compilation *)
  | Checkpoint  (** campaign snapshot serialization + write *)
  | Epoch  (** one shard's whole epoch slice (shard tracks) *)

val kind_name : kind -> string

(** A finished span, as read back from the ring. [t0] is seconds since
    the trace's creation; [arg] is a caller payload (batch size, bytes
    written, ...). *)
type span = { kind : kind; t0 : float; dur : float; arg : int }

type t

(** [create ~clock ~tracks ()] preallocates [tracks] tracks of
    [capacity] (default 8192) span slots each. *)
val create : ?capacity:int -> clock:(unit -> float) -> tracks:int -> unit -> t

val n_tracks : t -> int

(** Open a span on a track. Spans nest; frames beyond the fixed stack
    depth are counted but not recorded, keeping begin/end pairing. *)
val begin_span : t -> track:int -> kind -> unit

(** Close the innermost open span on a track and record it. *)
val end_span : ?arg:int -> t -> track:int -> unit -> unit

(** Time a thunk as one span (exception-safe). *)
val span : ?arg:int -> t -> track:int -> kind -> (unit -> 'a) -> 'a

(** Retained spans of one track, oldest first. *)
val spans : t -> track:int -> span list

(** Spans ever completed on a track (retained or overwritten). *)
val total : t -> track:int -> int

(** Spans lost to ring capacity on a track. *)
val dropped : t -> track:int -> int

(** [(count, total seconds)] for one kind on one track, over every
    completed span including overwritten ones. *)
val agg : t -> track:int -> kind -> int * float

(** [(count, total seconds)] for one kind summed across all tracks. *)
val agg_all : t -> kind -> int * float

(** Write the whole trace as Chrome trace-event JSON (the
    [{"traceEvents": [...]}] object form) — loadable in
    [chrome://tracing] / Perfetto. One [tid] per track; [track_names]
    labels tracks with thread-name metadata events. *)
val to_chrome : ?track_names:(int -> string option) -> t -> out_channel -> unit
