(** Packed index sets: the coverage-map indices one retained input
    touched, stored as a string of fixed-width little-endian integers
    behind a one-byte width tag.

    A set whose largest index fits in 16 bits (every set of a map of up
    to 2^16 entries) costs two bytes per index; any other set costs four.
    An [int array] costs eight, and the index sets of a retention-heavy
    campaign are most of its live data, so the queue, the sharded
    retention and crash captures, and the checkpoint format all hold
    sets in this form. Sets are immutable and safe to share across
    domains. *)

type t

(** The empty set. *)
val empty : t

(** Pack [a.(pos)] .. [a.(pos + len - 1)] in order. Raises
    [Invalid_argument] if an element is negative or needs more than 32
    bits. Order is kept as given: callers pack ascending sets. *)
val of_sub : int array -> pos:int -> len:int -> t

(** [of_sub a ~pos:0 ~len:(Array.length a)]. *)
val of_array : int array -> t

val length : t -> int

(** Bytes per index: 2 or 4. *)
val width : t -> int

(** The [k]-th index; raises [Invalid_argument] when out of range. *)
val get : t -> int -> int

val iter : (int -> unit) -> t -> unit

(** [iteri f s] calls [f k (get s k)] for every position [k]. *)
val iteri : (int -> int -> unit) -> t -> unit

(** A fresh [int array] with the set's indices, in order. *)
val to_array : t -> int array

(** Are the indices strictly ascending and all below [bound]? The
    validation a decoded checkpoint must pass before its sets reach a
    table indexed by map slot. *)
val ascending_below : bound:int -> t -> bool

(** The packed bytes, width tag first — what a checkpoint stores. Index
    [k] of a set of {!width} [w] is the unsigned little-endian [w]-byte
    integer at byte [1 + w * k]: a loop that reads a set per element
    (the merge barrier's) reads it there, with no call per index. *)
val encoding : t -> string

(** Inverse of {!encoding}: [None] unless the string is a width tag (2
    or 4) followed by a whole number of indices of that width. *)
val of_encoding : string -> t option
