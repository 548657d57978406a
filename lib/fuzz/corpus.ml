(** The fuzzer queue and AFL's favored-corpus machinery.

    Each interesting test case is retained as an [entry]: the input, its
    cost and its scheduling state. The top-rated table maps every map
    index to the cheapest entry covering it (afl-fuzz's
    [update_bitmap_score]), and an entry is *favored* if it is top-rated
    for at least one index ([cull_queue]'s greedy set-cover
    approximation). The paper's culling strategy (§III-B1) and the
    opportunistic queue trim (§III-B2) both reuse exactly this machinery,
    as does the scheduler's favored-skip logic.

    The queue is a growable array in discovery order rather than a list:
    entries are never removed, so an index is a stable identity, random
    peers are O(1) lookups instead of [List.nth] walks (quadratic over a
    campaign as the queue grows), and the cycle scheduler snapshots the
    queue by remembering its length. [fav_factor] is cached per entry at
    admission — data and cost never change.

    Retention costs time in the indices an entry touches, nothing more,
    and keeps no word per index: the top-rated table is a flat array
    indexed by map slot, an entry claims its slots straight from the
    indices its run touched (the trace map's journal, in any order: each
    slot's claim is independent of the others) and then only counts the
    slots it holds. Entries are claimed in discovery order as they are
    retained, under the same [best.fav <= e.fav] tie rule a from-scratch
    rebuild uses, so the incremental table always equals the rebuilt one
    and the cycle-start refresh only re-reads the slot counts.

    The table holds no pointers. Each slot is one 64-bit word packing
    its holder's cost above the holder's queue position, so a claim
    decides with one integer compare per slot and touches a holder's
    record only to move its slot count when it is displaced. The words
    live in a [Bytes.t]: the same 8 bytes per slot as a pointer array,
    in a block the major GC never scans (a pointer array of 65,536 slots
    is 65,536 fields to mark on every major cycle). *)

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
      (** map index -> the cheapest entry's {!rank}, 8 bytes per slot,
          {!unrated} where none covers it; allocated once at the map
          size when {!create} is given one, else grown on demand to
          cover the largest index claimed *)
  mutable pending_favored : int;
  mutable staged : int array;  (** {!add}'s indices, until claimed *)
  mutable staged_for : entry;  (** their entry, or {!nobody} *)
}

(* A slot's word: the holder's cost in the high bits, its queue position
   in the low [pos_bits], so words order by cost first. Both fit a
   non-negative OCaml int (62 bits): positions below [max_entries],
   costs up to [max_cost]. The all-ones word [unrated] marks an empty
   slot and compares above every holder. *)
let pos_bits = 24
let max_entries = 1 lsl pos_bits
let pos_mask = max_entries - 1
let max_cost = (1 lsl (62 - pos_bits)) - 2
let unrated = max_int

let rank ~(fav : int) ~(pos : int) = (fav lsl pos_bits) lor pos

(* The least word of any holder dearer than [fav]: slot [i] is claimable
   by an entry of cost [fav] iff its word exceeds [bar fav]. *)
let bar (fav : int) = (fav lsl pos_bits) lor pos_mask

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] word tbl i = Int64.to_int (get64u tbl (i lsl 3))
let[@inline] set_word tbl i w = set64u tbl (i lsl 3) (Int64.of_int w)

let slots_in (tbl : Bytes.t) = Bytes.length tbl lsr 3

let fill_unrated (tbl : Bytes.t) =
  for i = 0 to slots_in tbl - 1 do
    set_word tbl i unrated
  done

(* A table of [n] empty slots. *)
let table (n : int) : Bytes.t =
  let tbl = Bytes.create (n lsl 3) in
  fill_unrated tbl;
  tbl

(* The [staged_for] of a corpus with nothing staged. *)
let nobody =
  {
    id = -1;
    data = "";
    exec_blocks = 0;
    depth = 0;
    found_at = 0;
    fav = max_int;
    favored = false;
    times_fuzzed = 0;
    slots = 0;
  }

(* With [map_size_log2] the table covers the whole map from the start: a
   campaign's first claims would otherwise grow it through a chain of
   doublings (1024 -> ... -> 65,536 slots, an allocation and a blit at
   each step) that cost more than a short campaign's retention. *)
let create ?map_size_log2 () =
  let top_rated =
    match map_size_log2 with
    | Some n -> table (1 lsl n)
    | None -> Bytes.empty
  in
  {
    arr = [||];
    size = 0;
    next_id = 0;
    top_rated;
    pending_favored = 0;
    staged = [||];
    staged_for = nobody;
  }

let fav_of ~exec_blocks ~len = exec_blocks * (len + 16)

let size t = t.size

(** The [i]-th entry in discovery order, O(1). *)
let get t i =
  if i < 0 || i >= t.size then invalid_arg "Corpus.get";
  Array.unsafe_get t.arr i

(** Iterate entries in discovery order. *)
let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.arr i)
  done

(** afl's cull_queue at a cycle start: an entry is favored iff it holds
    a top-rated slot. The table is already exact (every retained entry
    claimed its slots in discovery order), so this pass only refreshes
    the flags and recounts [pending_favored] — time in the queue length,
    not in the indices it covers. *)
let recompute_favored (t : t) : unit =
  let pending = ref 0 in
  iter
    (fun e ->
      e.favored <- e.slots > 0;
      if e.favored && e.times_fuzzed = 0 then incr pending)
    t;
  t.pending_favored <- !pending

let append (t : t) ~data ~exec_blocks ~depth ~found_at : entry =
  if t.size >= max_entries then invalid_arg "Corpus.append: queue full";
  if exec_blocks < 0 || exec_blocks > max_cost / (String.length data + 16)
  then invalid_arg "Corpus.append: cost above Corpus.max_cost";
  let e =
    {
      id = t.next_id;
      data;
      exec_blocks;
      depth;
      found_at;
      fav = fav_of ~exec_blocks ~len:(String.length data);
      favored = false;
      times_fuzzed = 0;
      slots = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  if t.size = Array.length t.arr then begin
    let bigger = Array.make (max 16 (2 * t.size)) e in
    Array.blit t.arr 0 bigger 0 t.size;
    t.arr <- bigger
  end;
  t.arr.(t.size) <- e;
  t.size <- t.size + 1;
  e

let add (t : t) ~data ~(indices : int array) ~exec_blocks ~depth ~found_at :
    entry =
  let e = append t ~data ~exec_blocks ~depth ~found_at in
  t.staged <- indices;
  t.staged_for <- e;
  e

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.arr.(i) :: acc) in
  go (t.size - 1) []

(* Grow the flat table to cover slot [i]: the next power of two, at
   least 1024 slots. *)
let cover (t : t) i =
  let n = ref (max 1024 (slots_in t.top_rated)) in
  while !n <= i do
    n := 2 * !n
  done;
  let bigger = table !n in
  Bytes.blit t.top_rated 0 bigger 0 (Bytes.length t.top_rated);
  t.top_rated <- bigger

(* The queue position of [e]: its id when ids are positions (always,
   but after a restore of a queue whose ids skip), else found from the
   newest entry back — the entry a claim names is the newest. *)
let position (t : t) (e : entry) : int =
  if e.id >= 0 && e.id < t.size && Array.unsafe_get t.arr e.id == e then e.id
  else
    let rec find k =
      if k < 0 then invalid_arg "Corpus: entry not in this queue"
      else if Array.unsafe_get t.arr k == e then k
      else find (k - 1)
    in
    find (t.size - 1)

(** Incremental update_bitmap_score (afl's on-retention half of the
    favored machinery), for one slot: the entry of word [w] claims it if
    it covers it more cheaply — one load and one integer compare —
    moving the slot count from the old holder to it. Favored flags are
    refreshed at cycle boundaries by {!recompute_favored}; until then a
    claim only raises flags: newly-favored never-fuzzed entries bump
    [pending_favored], exactly as the cycle refresh would. A slot's
    claim reads and writes that slot and the entry's own state only, so
    an entry's slots may be claimed in any order. *)
let claim_slot (t : t) (e : entry) ~(w : int) (i : int) : unit =
  if i < 0 then invalid_arg "Corpus: negative slot";
  if i >= slots_in t.top_rated then cover t i;
  let tbl = t.top_rated in
  let best = word tbl i in
  if best > w lor pos_mask then begin
    if best <> unrated then begin
      let holder = Array.unsafe_get t.arr (best land pos_mask) in
      holder.slots <- holder.slots - 1
    end;
    set_word tbl i w;
    e.slots <- e.slots + 1;
    if not e.favored then begin
      e.favored <- true;
      if e.times_fuzzed = 0 then t.pending_favored <- t.pending_favored + 1
    end
  end

let claim_slots (t : t) (e : entry) (slots : int array) ~(len : int) : unit =
  if len < 0 || len > Array.length slots then invalid_arg "Corpus.claim_slots";
  let w = rank ~fav:e.fav ~pos:(position t e) in
  for k = 0 to len - 1 do
    claim_slot t e ~w (Array.unsafe_get slots k)
  done

(* Read straight from the set's encoding (see {!Pathcov.Index_set.encoding}):
   one load per slot, no call. *)
let claim_top_rated_at (t : t) (e : entry) (slots : Pathcov.Index_set.t) :
    unit =
  let w = rank ~fav:e.fav ~pos:(position t e) in
  let enc = Pathcov.Index_set.encoding slots
  and width = Pathcov.Index_set.width slots in
  for k = 0 to Pathcov.Index_set.length slots - 1 do
    let i =
      if width = 2 then String.get_uint16_le enc (1 + (2 * k))
      else Int32.to_int (String.get_int32_le enc (1 + (4 * k))) land 0xFFFF_FFFF
    in
    claim_slot t e ~w i
  done

let claim_top_rated (t : t) (e : entry) : unit =
  if t.staged_for != e then
    invalid_arg "Corpus.claim_top_rated: not the entry Corpus.add last staged";
  let slots = t.staged in
  t.staged <- [||];
  t.staged_for <- nobody;
  claim_slots t e slots ~len:(Array.length slots)

(** The slots among [slots.(0 .. len - 1)] whose holder is dearer than
    [fav] (an empty slot counting as dearer than any cost), in the order
    given, written to [into]; returns how many. Holders only ever get
    cheaper, so the slots an entry of cost [fav] covering those indices
    would claim at any later time are among these. *)
let dearer_slots (t : t) ~(fav : int) (slots : int array) ~(len : int)
    ~(into : int array) : int =
  if len < 0 || len > Array.length slots || Array.length into < len then
    invalid_arg "Corpus.dearer_slots";
  if fav < 0 || fav > max_cost then invalid_arg "Corpus.dearer_slots: cost";
  let n = ref 0 in
  let tbl = t.top_rated in
  let rated = slots_in tbl and bar = bar fav in
  for k = 0 to len - 1 do
    let i = Array.unsafe_get slots k in
    if i < 0 then invalid_arg "Corpus.dearer_slots";
    if i >= rated || word tbl i > bar then begin
      Array.unsafe_set into !n i;
      incr n
    end
  done;
  !n

(** Seat [e] in slot [i] of the top-rated table, displacing the current
    holder — the checkpoint restore primitive. *)
let rate (t : t) ~(slot : int) (e : entry) : unit =
  if slot < 0 then invalid_arg "Corpus.rate";
  if slot >= slots_in t.top_rated then cover t slot;
  let best = word t.top_rated slot in
  if best <> unrated then begin
    let holder = t.arr.(best land pos_mask) in
    holder.slots <- holder.slots - 1
  end;
  set_word t.top_rated slot (rank ~fav:e.fav ~pos:(position t e));
  e.slots <- e.slots + 1

(** Top-rated slots in ascending order with their holders' ids. *)
let top_rated_pairs (t : t) : (int * int) array =
  let out = ref [] in
  for i = slots_in t.top_rated - 1 downto 0 do
    let w = word t.top_rated i in
    if w <> unrated then out := (i, t.arr.(w land pos_mask).id) :: !out
  done;
  Array.of_list !out

(** Empty the corpus back to its {!create} state; the table keeps its
    size. *)
let clear (t : t) : unit =
  t.arr <- [||];
  t.size <- 0;
  t.next_id <- 0;
  fill_unrated t.top_rated;
  t.pending_favored <- 0;
  t.staged <- [||];
  t.staged_for <- nobody

(* ------------------------------------------------------------------ *)
(* Shard views *)

(** A fixed-length prefix snapshot of the queue, safe to read from worker
    domains while the coordinator is quiescent: the backing array is
    captured at creation, so growth (and array reallocation) on the
    coordinator side between epochs never moves a live view. Entries are
    shared, not copied — shards treat them as read-only. *)
type view = { varr : entry array; vsize : int }

(** Snapshot the first [limit] entries (clamped to the current size). *)
let view (t : t) ~(limit : int) : view =
  { varr = t.arr; vsize = min (max 0 limit) t.size }

let view_size (v : view) = v.vsize

let view_get (v : view) i =
  if i < 0 || i >= v.vsize then invalid_arg "Corpus.view_get";
  Array.unsafe_get v.varr i

(** Entries whose union of indices equals the whole queue's union, chosen
    greedily by fav_factor — the "minimal coverage-preserving queue" the
    culling strategy retains. *)
let favored_subset (t : t) : entry list =
  recompute_favored t;
  List.filter (fun e -> e.favored) (to_list t)
