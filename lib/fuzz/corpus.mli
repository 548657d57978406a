(** The fuzzer queue and AFL's favored-corpus machinery
    ([update_bitmap_score]/[cull_queue]): for every coverage-map index the
    cheapest entry covering it is top-rated, and an entry is *favored* if
    it is top-rated somewhere. The paper's culling strategy (§III-B1) and
    opportunistic queue trim (§III-B2) reuse this machinery, as does the
    scheduler's favored-skip logic.

    The queue is a growable array in discovery order: entries are never
    removed, so an index is a stable identity and {!get} is O(1) — the
    scheduler snapshots a cycle by remembering the queue length and the
    splice stage picks random peers without list walks.

    Retention costs time in the indices an entry touches and keeps no
    word per index: the top-rated table is a flat array indexed by map
    slot, an entry claims its slots from the indices its run touched, in
    any order, and then only counts the slots it holds. {b Contract:}
    every entry is claimed ({!claim_slots} over the indices it covers,
    {!claim_top_rated} after {!add}, or {!claim_top_rated_at} over a
    superset of the slots it can claim, such as its {!dearer_slots} at
    any earlier point) in discovery order, right after it is appended;
    the incremental table then equals a from-scratch rebuild, and
    {!recompute_favored} only refreshes flags from the slot counts.

    The table holds no pointers: each slot is one 64-bit word with the
    holder's cost above its queue position, in a [Bytes.t] the major GC
    does not scan (8 bytes per slot, as a pointer array would take). A
    claim compares one integer per slot and touches a holder's record
    only to move its slot count when it is displaced. Costs and
    positions share the word's 62 usable bits, so an entry must cost at
    most {!max_cost} and the queue hold fewer than {!max_entries}
    entries; {!append} refuses anything past either bound. *)

type entry = {
  id : int;
  data : string;
  exec_blocks : int;  (** work proxy standing in for execution time *)
  depth : int;  (** mutation chain length from the seed *)
  found_at : int;  (** global execution counter at discovery *)
  fav : int;  (** cached fav_factor: exec_blocks x (length + 16) *)
  mutable favored : bool;
  mutable times_fuzzed : int;
  mutable slots : int;  (** top-rated slots this entry holds *)
}

type t = {
  mutable arr : entry array;  (** slots [0, size), discovery order *)
  mutable size : int;
  mutable next_id : int;
  mutable top_rated : Bytes.t;
      (** map index -> the cheapest entry's cost and queue position,
          packed in one native-endian 64-bit word per slot (all ones
          where no entry covers the slot); read it through
          {!top_rated_pairs} *)
  mutable pending_favored : int;
  mutable staged : int array;
      (** the indices {!add} was given, until {!claim_top_rated} claims
          them ([[||]] otherwise) *)
  mutable staged_for : entry;  (** their entry (the sentinel otherwise) *)
}

(** A fresh, empty corpus. [map_size_log2] allocates the top-rated
    table once, covering every index of a map that size; without it
    the table grows on demand. *)
val create : ?map_size_log2:int -> unit -> t

(** afl's fav_factor: the [fav] an entry of [exec_blocks] work and a
    [len]-byte input gets at admission: [exec_blocks * (len + 16)]. *)
val fav_of : exec_blocks:int -> len:int -> int

(** The largest [fav] the table stores: [2^38 - 2] (about 2.7e11). A
    campaign's entries cost at most its fuel times the longest input
    plus 16, so {!Campaign} refuses a fuel that could exceed it. *)
val max_cost : int

(** The queue holds fewer entries than this: [2^24]. *)
val max_entries : int

(** Favored refresh at a cycle start (afl's cull_queue): [favored] is set
    iff the entry holds a top-rated slot, and [pending_favored] is
    recounted. Time in the queue length. *)
val recompute_favored : t -> unit

(** Append an entry holding no slot yet; the caller claims it at once
    ({!claim_slots}, {!claim_top_rated_at}), unless it covers nothing.
    Raises [Invalid_argument] if its [fav] would exceed {!max_cost} or
    the queue already holds {!max_entries} entries. *)
val append :
  t -> data:string -> exec_blocks:int -> depth:int -> found_at:int -> entry

(** {!append}, keeping [indices] (not copied) for the next
    {!claim_top_rated} of this entry, which consumes them: the entry
    itself never holds them. *)
val add :
  t ->
  data:string ->
  indices:int array ->
  exec_blocks:int ->
  depth:int ->
  found_at:int ->
  entry

(** The [i]-th entry in discovery order, O(1); raises on out-of-range. *)
val get : t -> int -> entry

(** Iterate entries in discovery order. *)
val iter : (entry -> unit) -> t -> unit

(** Entries in discovery order. *)
val to_list : t -> entry list

val size : t -> int

(** Incremental update_bitmap_score: the (just-appended) entry claims
    every slot among [slots.(0 .. len - 1)] (distinct map indices, any
    order — a trace map's journal) that it covers more cheaply than its
    holder — one array load and compare per slot — bumping
    [pending_favored] for newly-favored never-fuzzed entries. Raises
    [Invalid_argument] on a negative slot. *)
val claim_slots : t -> entry -> int array -> len:int -> unit

(** {!claim_slots} over the indices {!add} was given for this entry,
    which it then drops. Raises [Invalid_argument] for any entry but the
    one the last {!add} returned, unclaimed. *)
val claim_top_rated : t -> entry -> unit

(** {!claim_slots} over packed slots, which must be among the indices
    the entry covers. When [slots] holds every one of them whose holder
    is dearer now, the result equals the claim over all of them — so it
    obeys the same contract. *)
val claim_top_rated_at : t -> entry -> Pathcov.Index_set.t -> unit

(** Claim candidates: the slots among [slots.(0 .. len - 1)] whose
    current holder is dearer than [fav] (an unrated slot counts as
    [max_int]), in the order given, written to [into] (which must hold
    [len] ints); returns how many. A holder's fav only ever falls, so
    for an entry of cost [fav] covering those indices, these are a
    superset of the slots it would claim at any later point: a sharded
    lane computes them from its trace journal against the epoch-start
    table, and the merge barrier claims with {!claim_top_rated_at}.
    Reads the table only; raises [Invalid_argument] on a negative slot,
    a short [into] or a [fav] above {!max_cost}. *)
val dearer_slots :
  t -> fav:int -> int array -> len:int -> into:int array -> int

(** Seat an entry in one top-rated slot, displacing the holder (the
    checkpoint restore primitive). *)
val rate : t -> slot:int -> entry -> unit

(** Rated slots, ascending, with their holders' ids. *)
val top_rated_pairs : t -> (int * int) array

(** Empty the corpus back to its {!create} state (the top-rated table
    keeps its size). *)
val clear : t -> unit

(** {2 Shard views}

    Fixed-length prefix snapshots of the queue, safe to read from worker
    domains while the coordinator is quiescent: the backing array is
    captured at creation so coordinator-side growth between sync epochs
    never moves a live view. Entries are shared, not copied — shards
    must treat them as read-only. *)

type view

(** Snapshot the first [limit] entries (clamped to the current size). *)
val view : t -> limit:int -> view

val view_size : view -> int

(** The [i]-th entry of the snapshot, O(1); raises on out-of-range. *)
val view_get : view -> int -> entry

(** Entries whose union of indices equals the whole queue's union, chosen
    greedily by [fav] — the "minimal coverage-preserving queue"
    the culling strategy retains. *)
val favored_subset : t -> entry list
