(** AFL-style fixed-size coverage bitmap with hit-count bucketing and a
    touched-index journal (clear/classify/merge cost is proportional to
    the indices actually hit, not to the map size).

    A campaign makes one pass over a live trace's journal per run:
    {!settle} classifies each touched byte, merges it into a virgin map,
    notes what changed and zeroes the byte, and the next {!clear} only
    rewinds the journal. {!classify} followed by {!merge_noting} or
    {!merge_into} is the same verdict in two passes (plus a third to
    {!clear}); only the benchmark, the tests and post-campaign
    measurement still take that route. *)

(** The map's representation is exposed so that generated native code
    can inline {!hit} instead of calling it across a module boundary
    (DESIGN §15, "No opaque calls on the per-block path"). Only this
    module and the hit code [Vm.Emit] emits write these fields; every
    other client treats [t] as abstract. *)
type t = {
  bits : Bytes.t;  (** one saturating count (or virgin byte) per index *)
  mask : int;  (** [size - 1] *)
  mutable touched : int array;
      (** journal: indices hit since the last {!clear}, in first-hit order *)
  mutable ntouched : int;  (** live prefix of [touched] *)
  mutable ff : int;
      (** virgin maps: bytes still 0xFF, kept by every writer of [bits]
          ([0] on trace maps) *)
  mutable settled : bool;
      (** trace maps: {!settle} zeroed the journal's bytes since the last
          {!clear} *)
}

(** Novelty verdict of {!merge_into}. *)
type novelty =
  | Nothing  (** nothing new *)
  | New_bucket  (** a known tuple reached a new hit-count bucket *)
  | New_tuple  (** a never-seen map index was hit *)

(** Create an all-zero trace map of [2^size_log2] entries (4 ≤ n ≤ 24,
    default 16). *)
val create : ?size_log2:int -> unit -> t

(** Create an all-0xFF virgin map, written only through {!merge_into},
    {!merge_noting}, {!merge_sparse_into}, {!copy_into}, {!restore_at}
    and {!restore_raw}. *)
val create_virgin : ?size_log2:int -> unit -> t

val size : t -> int

(** Reset all touched counts to zero and empty the journal. After
    {!settle} the counts are zero already, so this only rewinds the
    journal. *)
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

(** {!merge_into} that also notes where it wrote: each index whose
    virgin byte changes ([trace land virgin <> 0] there) is written to
    [note] from position [at] on, in journal order. Allocates nothing:
    the verdict and the number of noted indices come back packed in one
    int, read with {!noted_novelty} and {!noted_count}. Raises
    [Invalid_argument] unless [note] has room for {!count_set}[ trace]
    indices past [at]. The verdict is [Nothing] iff the count is 0. *)
val merge_noting : virgin:t -> t -> int array -> at:int -> int

val noted_novelty : int -> novelty
val noted_count : int -> int

(** The one pass over a raw (unclassified) trace a campaign makes per
    run: for each journal index, in journal order, classify the count,
    merge it into [virgin] as {!merge_noting} does, and where the virgin
    byte changes write the index to [note] and the classified byte to
    [vals], both from position [at] on; then zero the trace byte. The
    packed result reads like {!merge_noting}'s, and equals
    {!classify} + {!merge_noting} + {!clear} on the same maps. The
    journal ({!journal}, {!count_set}) stays readable until the next
    {!clear}, which then only rewinds it; the trace's bytes read 0.
    Allocates nothing. Raises [Invalid_argument] on a trace settled
    since its last {!clear} (classification is not idempotent: 4 goes
    to 8, and 8 to 16), on a size mismatch, or unless [note] and [vals]
    have room for {!count_set}[ trace] entries past [at]. *)
val settle : virgin:t -> t -> int array -> Bytes.t -> at:int -> int

(** Overwrite [dst]'s bytes with [src]'s (same size required) — the
    per-epoch virgin snapshot primitive of sharded campaigns: one blit
    seeds a lane's virgin map from the epoch-start global map. *)
val copy_into : dst:t -> t -> unit

(** [restore_at ~dst src idxs n] puts [src]'s bytes back into [dst] at
    the first [n] indices of [idxs] (repeats allowed; same size
    required), keeping [dst]'s {!residual}. Over the indices
    {!merge_noting} noted since [dst] was a copy of [src], it gives
    back that copy: a lane undoes one work item's merges this way. *)
val restore_at : dst:t -> t -> int array -> int -> unit

(** A detached copy of the raw map payload (checkpoint capture); pairs
    with {!restore_raw}. *)
val raw_bytes : t -> bytes

(** Overwrite the map with a captured {!raw_bytes} image (same size
    required) and reset the journal — the checkpoint restore half. *)
val restore_raw : t -> bytes -> unit

(** The merge half of {!merge_into} over a sparse capture instead of a
    live trace: index [Index_set.get idxs k] carries classified byte
    [vals.[k]] (any order). Sharded campaigns replay their lanes'
    recorded discoveries — the indices and bytes each one's {!settle}
    noted — against the shared virgin map in deterministic order at the
    sync barrier. *)
val merge_sparse_into : virgin:t -> idxs:Index_set.t -> vals:string -> novelty

(** Classified bytes of a trace at the indices of a set, one byte each
    (tests; campaigns take a capture's bytes from {!settle}'s notes). *)
val values_of : t -> Index_set.t -> string

(** Byte-for-byte map equality (determinism checks). *)
val equal : t -> t -> bool

(** FNV-1a over the raw map bytes; unlike {!hash} it fingerprints virgin
    maps (whose journals are unused) as well as traces. *)
val bytes_hash : t -> int

(** Number of indices hit (AFL's [count_bytes]). *)
val count_set : t -> int

(** The touched-index journal, not a copy: its first {!count_set}
    slots are the indices hit, each once, in first-hit order. Valid
    until the next {!hit} or {!clear}. Readers whose result does not
    depend on order (the top-rated claim, coverage unions) use it in
    place of {!sorted_indices}. *)
val journal : t -> int array

(** Indices hit, ascending, as a fresh array (a sorted copy of the
    journal). No campaign sorts: tests, {!hash} and {!set_indices}
    do. *)
val sorted_indices : t -> int array

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
    the merges, {!copy_into}, {!restore_at}; {!restore_raw} recounts
    once). [0] on trace maps. *)
val residual : t -> int

(** The byte scan {!residual} replaces — tests only. *)
val residual_scan : t -> int

(** Order-independent FNV-1a hash of the trace contents. *)
val hash : t -> int
