(** AFL-style fixed-size coverage bitmap with hit-count bucketing and a
    touched-index journal (clear/classify/merge cost is proportional to
    the indices actually hit, not to the map size). *)

(** The map's representation is exposed so that generated native code
    can inline {!hit} instead of calling it across a module boundary
    (DESIGN §15, "No opaque calls on the per-block path"). Only this
    module and the hit code [Vm.Emit] emits write these fields; every
    other client treats [t] as abstract. *)
type t = {
  bits : Bytes.t;  (** one saturating count (or virgin byte) per index *)
  mask : int;  (** [size - 1] *)
  mutable touched : int array;
      (** journal: indices with a non-zero count, in first-hit order *)
  mutable ntouched : int;  (** live prefix of [touched] *)
  passes : int;  (** 8-bit radix digits per index: ceil(size_log2 / 8) *)
  counts : int array;  (** [passes] digit histograms of 256 slots each *)
  mutable sort_a : int array;  (** radix ping-pong scratch, journal-sized *)
  mutable sort_b : int array;
  mutable ff : int;
      (** virgin maps: bytes still 0xFF, kept by every writer of [bits]
          ([0] on trace maps) *)
}

(** Novelty verdict of {!merge_into}. *)
type novelty =
  | Nothing  (** nothing new *)
  | New_bucket  (** a known tuple reached a new hit-count bucket *)
  | New_tuple  (** a never-seen map index was hit *)

val default_size_log2 : int

(** Create an all-zero trace map of [2^size_log2] entries (4 ≤ n ≤ 24). *)
val create : ?size_log2:int -> unit -> t

(** Create an all-0xFF virgin map, written only through {!merge_into},
    {!merge_sparse_into}, {!copy_into} and {!restore_raw}. *)
val create_virgin : ?size_log2:int -> unit -> t

val size : t -> int

(** Reset all touched counts to zero. *)
val clear : t -> unit

(** Record one hit at an index (wrapped into range, saturating at 255);
    a 0 -> 1 transition appends the index to the journal, growing it
    when full. *)
val hit : t -> int -> unit

(** AFL's power-of-two count classification (1,2,3,4-7,8-15,...). *)
val bucket_of_count : int -> int

(** Replace raw counts by their bucket representative, in place. *)
val classify : t -> unit

(** Compare a classified trace against the virgin map, folding any novelty
    into the virgin map. Virgin semantics follow AFL: novelty means
    [trace land virgin <> 0] at some index. *)
val merge_into : virgin:t -> t -> novelty

(** Overwrite [dst]'s bytes with [src]'s (same size required) — the
    per-work-item virgin snapshot primitive of sharded campaigns: one
    blit re-seeds a shard's scratch virgin map from the epoch-start
    global map. *)
val copy_into : dst:t -> t -> unit

(** A detached copy of the raw map payload (checkpoint capture); pairs
    with {!restore_raw}. *)
val raw_bytes : t -> bytes

(** Overwrite the map with a captured {!raw_bytes} image (same size
    required) and reset the journal — the checkpoint restore half. *)
val restore_raw : t -> bytes -> unit

(** The merge half of {!merge_into} over a sparse capture instead of a
    live trace: index [Index_set.get idxs k] carries classified byte
    [vals.[k]]. Sharded campaigns replay their shards' recorded
    discoveries against the shared virgin map in deterministic order at
    the sync barrier. *)
val merge_sparse_into : virgin:t -> idxs:Index_set.t -> vals:string -> novelty

(** Classified bytes of a trace at the indices of a set, one byte each
    (pairs with {!sorted_set} to form the sparse capture above). *)
val values_of : t -> Index_set.t -> string

(** Byte-for-byte map equality (determinism checks). *)
val equal : t -> t -> bool

(** FNV-1a over the raw map bytes; unlike {!hash} it fingerprints virgin
    maps (whose journals are unused) as well as traces. *)
val bytes_hash : t -> int

(** Number of indices hit (AFL's [count_bytes]). *)
val count_set : t -> int

(** Indices hit, ascending, as a fresh array: an LSD radix sort of the
    journal (8-bit digits, [ceil(size_log2 / 8)] passes) through scratch
    owned by the map, so maps on different domains sort independently. *)
val sorted_indices : t -> int array

(** Indices hit, ascending, packed straight from the sort scratch — the
    form the retention path stores. *)
val sorted_set : t -> Index_set.t

(** Indices hit, ascending (list wrapper over {!sorted_indices}, kept
    for renderers and tests). *)
val set_indices : t -> int list

(** [iteri_set f t] calls [f idx byte] for every touched index. *)
val iteri_set : (int -> int -> unit) -> t -> unit

val copy : t -> t

(** Raw byte at a (wrapped) map index — tests and diagnostics. *)
val get : t -> int -> int

(** Number of virgin-map indices still fully untouched (byte = 0xFF) —
    the "virgin bits residual" sampled into stats snapshots. O(1): the
    count is kept by every writer of a virgin map ({!create_virgin},
    {!merge_into}, {!merge_sparse_into}, {!copy_into}; {!restore_raw}
    recounts once). [0] on trace maps. *)
val residual : t -> int

(** The byte scan {!residual} replaces — tests only. *)
val residual_scan : t -> int

(** Order-independent FNV-1a hash of the trace contents. *)
val hash : t -> int
