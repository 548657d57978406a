(** AFL-style fixed-size coverage bitmap with hit-count bucketing.

    A trace map records hit counts per index during one execution; counts
    are then classified into AFL's power-of-two buckets and compared
    against the campaign-wide virgin map. [merge_into] answers the
    fuzzer's novelty question: did this execution hit a new tuple, or a
    known tuple in a new bucket? The default size is 2^16 (the paper uses
    2^18 to match L2 caches; ours is configurable and smaller because
    MiniC subjects have far fewer tuples than UNIFUZZ binaries).

    Unlike AFL's memset-and-scan loops (which vectorise in C), the map
    keeps a journal of touched indices so that clearing, classifying and
    merging cost O(indices actually hit) — the OCaml-appropriate way to
    keep per-execution overhead proportional to the program's work.
    Campaigns go further and walk the journal once per run: {!settle}
    classifies, merges, notes and zeroes in one pass, and the next
    {!clear} only rewinds the journal. *)

type t = {
  bits : Bytes.t;
  mask : int;
  mutable touched : int array;  (** indices with non-zero count, first-hit order *)
  mutable ntouched : int;
  passes : int;  (** 8-bit radix digits per index: ceil(size_log2 / 8) *)
  counts : int array;  (** the radix sort's 256-slot digit histogram *)
  mutable sort_a : int array;  (** radix ping-pong scratch, journal-sized *)
  mutable sort_b : int array;
  mutable ff : int;
      (** virgin maps: bytes still 0xFF, kept by every writer of [bits]
          ([0] on trace maps) *)
  mutable settled : bool;
      (** trace maps: {!settle} zeroed the journal's bytes, so {!clear}
          only rewinds the journal *)
}

type novelty =
  | Nothing  (** nothing new *)
  | New_bucket  (** a known tuple reached a new hit-count bucket *)
  | New_tuple  (** a never-seen map index was hit *)

let default_size_log2 = 16

let create ?(size_log2 = default_size_log2) () =
  if size_log2 < 4 || size_log2 > 24 then invalid_arg "Coverage_map.create";
  let size = 1 lsl size_log2 in
  let passes = (size_log2 + 7) / 8 in
  {
    bits = Bytes.make size '\000';
    mask = size - 1;
    touched = Array.make 256 0;
    ntouched = 0;
    passes;
    counts = Array.make 256 0;
    sort_a = [||];
    sort_b = [||];
    ff = 0;
    settled = false;
  }

let size t = Bytes.length t.bits

let clear t =
  if t.settled then t.settled <- false
  else
    for k = 0 to t.ntouched - 1 do
      Bytes.unsafe_set t.bits (Array.unsafe_get t.touched k) '\000'
    done;
  t.ntouched <- 0

let record_touch t i =
  if t.ntouched = Array.length t.touched then begin
    let bigger = Array.make (2 * t.ntouched) 0 in
    Array.blit t.touched 0 bigger 0 t.ntouched;
    t.touched <- bigger
  end;
  t.touched.(t.ntouched) <- i;
  t.ntouched <- t.ntouched + 1

(** Record one hit at [idx] (wrapped into range, saturating at 255). *)
let hit t idx =
  let i = idx land t.mask in
  let c = Char.code (Bytes.unsafe_get t.bits i) in
  if c = 0 then record_touch t i;
  if c < 255 then Bytes.unsafe_set t.bits i (Char.unsafe_chr (c + 1))

(* AFL's count classification: 1,2,3,4-7,8-15,16-31,32-127,128-255 map to
   distinct bits so bucket transitions show up as new bits. *)
let bucket_of_count = function
  | 0 -> 0
  | 1 -> 1
  | 2 -> 2
  | 3 -> 4
  | n when n < 8 -> 8
  | n when n < 16 -> 16
  | n when n < 32 -> 32
  | n when n < 128 -> 64
  | _ -> 128

let classify_lookup = String.init 256 (fun c -> Char.chr (bucket_of_count c))

(** Replace raw counts by their bucket representative, in place. *)
let classify t =
  for k = 0 to t.ntouched - 1 do
    let i = Array.unsafe_get t.touched k in
    let c = Char.code (Bytes.unsafe_get t.bits i) in
    Bytes.unsafe_set t.bits i (String.unsafe_get classify_lookup c)
  done

(** Compare a classified trace against the virgin map, folding any novelty
    into the virgin map. Virgin semantics follow AFL: virgin starts
    all-0xFF and novelty means [trace land virgin <> 0] at some index. *)
let merge_into ~(virgin : t) (trace : t) : novelty =
  if Bytes.length virgin.bits <> Bytes.length trace.bits then
    invalid_arg "Coverage_map.merge_into";
  let res = ref Nothing in
  for k = 0 to trace.ntouched - 1 do
    let i = Array.unsafe_get trace.touched k in
    let tr = Char.code (Bytes.unsafe_get trace.bits i) in
    if tr <> 0 then begin
      let vg = Char.code (Bytes.unsafe_get virgin.bits i) in
      if tr land vg <> 0 then begin
        if vg = 255 then begin
          res := New_tuple;
          virgin.ff <- virgin.ff - 1
        end
        else if !res = Nothing then res := New_bucket;
        Bytes.unsafe_set virgin.bits i (Char.unsafe_chr (vg land lnot tr land 255))
      end
    end
  done;
  !res

(* Verdict and count of {!merge_noting}, packed into one immediate int
   so the merge allocates nothing: the verdict in the low two bits. *)
let noted_novelty (v : int) : novelty =
  match v land 3 with 0 -> Nothing | 1 -> New_bucket | _ -> New_tuple

let noted_count (v : int) : int = v lsr 2

(** {!merge_into} that also notes where it wrote: every index whose
    virgin byte it changes ([trace land virgin <> 0]) goes to [note],
    from position [at] on, in journal order. Sharded lanes keep these
    indices as a capture's novelty delta and as their undo log. [note]
    must have room for {!count_set}[ trace] indices past [at]. *)
let merge_noting ~(virgin : t) (trace : t) (note : int array) ~(at : int) :
    int =
  if Bytes.length virgin.bits <> Bytes.length trace.bits then
    invalid_arg "Coverage_map.merge_noting";
  if at < 0 || at + trace.ntouched > Array.length note then
    invalid_arg "Coverage_map.merge_noting: note too small";
  let code = ref 0 and n = ref 0 in
  for k = 0 to trace.ntouched - 1 do
    let i = Array.unsafe_get trace.touched k in
    let tr = Char.code (Bytes.unsafe_get trace.bits i) in
    let vg = Char.code (Bytes.unsafe_get virgin.bits i) in
    if tr land vg <> 0 then begin
      if vg = 255 then begin
        code := 2;
        virgin.ff <- virgin.ff - 1
      end
      else if !code = 0 then code := 1;
      Bytes.unsafe_set virgin.bits i (Char.unsafe_chr (vg land lnot tr land 255));
      Array.unsafe_set note (at + !n) i;
      incr n
    end
  done;
  (!n lsl 2) lor !code

(** The one pass a campaign makes over a live trace's journal: per
    touched index, classify the raw count, merge it into [virgin] as
    {!merge_noting} does (noting the index in [note] and its classified
    byte in [vals], both from [at] on, where the merge changed the virgin
    byte), and zero the trace byte. The journal stays readable until the
    next {!clear}, which then only rewinds it. Classification is not
    idempotent (a count of 4 buckets to 8, and 8 to 16), so a trace is
    settled at most once per run. *)
let settle ~(virgin : t) (trace : t) (note : int array) (vals : Bytes.t)
    ~(at : int) : int =
  if Bytes.length virgin.bits <> Bytes.length trace.bits then
    invalid_arg "Coverage_map.settle";
  if trace.settled then invalid_arg "Coverage_map.settle: trace already settled";
  if
    at < 0
    || at + trace.ntouched > Array.length note
    || at + trace.ntouched > Bytes.length vals
  then invalid_arg "Coverage_map.settle: note too small";
  let code = ref 0 and n = ref 0 in
  for k = 0 to trace.ntouched - 1 do
    let i = Array.unsafe_get trace.touched k in
    let tr =
      String.unsafe_get classify_lookup (Char.code (Bytes.unsafe_get trace.bits i))
    in
    Bytes.unsafe_set trace.bits i '\000';
    let tr = Char.code tr in
    let vg = Char.code (Bytes.unsafe_get virgin.bits i) in
    if tr land vg <> 0 then begin
      if vg = 255 then begin
        code := 2;
        virgin.ff <- virgin.ff - 1
      end
      else if !code = 0 then code := 1;
      Bytes.unsafe_set virgin.bits i (Char.unsafe_chr (vg land lnot tr land 255));
      Array.unsafe_set note (at + !n) i;
      Bytes.unsafe_set vals (at + !n) (Char.unsafe_chr tr);
      incr n
    end
  done;
  trace.settled <- true;
  (!n lsl 2) lor !code

(* A virgin map is all-0xFF and is only ever written through the merges,
   [copy_into], [restore_at] and [restore_raw], each of which keeps the
   0xFF count [ff]; its journal is unused. *)
let create_virgin ?size_log2 () =
  let t = create ?size_log2 () in
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\255';
  t.ff <- Bytes.length t.bits;
  t

(** Overwrite [dst]'s bytes with [src]'s — the per-epoch virgin
    snapshot primitive of sharded campaigns: one blit seeds a lane's
    virgin map from the epoch-start global map. Journals are not copied
    (virgin maps never use theirs); [dst]'s is reset so the map behaves
    like a fresh virgin map. Sizes must match. *)
let copy_into ~(dst : t) (src : t) : unit =
  if Bytes.length dst.bits <> Bytes.length src.bits then
    invalid_arg "Coverage_map.copy_into";
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits);
  dst.ff <- src.ff;
  dst.ntouched <- 0

(** Put [src]'s bytes back into [dst] at [idxs.(0)] .. [idxs.(n - 1)]
    (repeats allowed), keeping [dst]'s 0xFF count: the undo half of
    {!merge_noting}, which returns a lane's map to the epoch-start
    image in time proportional to what the lane wrote. *)
let restore_at ~(dst : t) (src : t) (idxs : int array) (n : int) : unit =
  if Bytes.length dst.bits <> Bytes.length src.bits then
    invalid_arg "Coverage_map.restore_at";
  if n < 0 || n > Array.length idxs then invalid_arg "Coverage_map.restore_at";
  for k = 0 to n - 1 do
    let i = Array.unsafe_get idxs k land dst.mask in
    let was = Bytes.unsafe_get dst.bits i and now = Bytes.unsafe_get src.bits i in
    if was <> now then begin
      if was = '\255' then dst.ff <- dst.ff - 1
      else if now = '\255' then dst.ff <- dst.ff + 1;
      Bytes.unsafe_set dst.bits i now
    end
  done

(** A detached copy of the raw map payload — what a campaign snapshot
    records for its virgin/crash-virgin maps. Pairs with {!restore_raw}. *)
let raw_bytes (t : t) : bytes = Bytes.copy t.bits

(* Bytes equal to 0xFF, by a word-wise scan (one 64-bit compare per 8
   indices: virgin maps stay almost entirely 0xFF). *)
let count_ff (bits : Bytes.t) : int =
  let n = Bytes.length bits in
  let count = ref 0 in
  let k = ref 0 in
  while !k + 8 <= n do
    if Bytes.get_int64_ne bits !k = -1L then count := !count + 8
    else
      for j = !k to !k + 7 do
        if Bytes.unsafe_get bits j = '\255' then incr count
      done;
    k := !k + 8
  done;
  while !k < n do
    if Bytes.unsafe_get bits !k = '\255' then incr count;
    incr k
  done;
  !count

(** Overwrite the map's payload with a previously captured {!raw_bytes}
    image (sizes must match) and reset the journal — the checkpoint
    restore half of the blit pair. Virgin maps never use their journal,
    so a restored map behaves exactly like the captured one. *)
let restore_raw (t : t) (payload : bytes) : unit =
  if Bytes.length payload <> Bytes.length t.bits then
    invalid_arg "Coverage_map.restore_raw";
  Bytes.blit payload 0 t.bits 0 (Bytes.length payload);
  t.ff <- count_ff t.bits;
  t.ntouched <- 0

(** The merge half of {!merge_into} over a sparse capture instead of a
    live trace: index [Index_set.get idxs k] carries classified byte
    [vals.[k]]. Sharded lanes record each discovery's novelty delta
    (the indices and bytes {!settle} noted) in the parallel phase and
    the barrier replays the merges against the shared virgin map, in
    deterministic order. The set is read straight from its encoding,
    one load per index and no call. *)
let merge_sparse_into ~(virgin : t) ~(idxs : Index_set.t) ~(vals : string) :
    novelty =
  let n = Index_set.length idxs in
  if n <> String.length vals then invalid_arg "Coverage_map.merge_sparse_into";
  let enc = Index_set.encoding idxs and w = Index_set.width idxs in
  let res = ref Nothing in
  for k = 0 to n - 1 do
    let idx =
      if w = 2 then String.get_uint16_le enc (1 + (2 * k))
      else Int32.to_int (String.get_int32_le enc (1 + (4 * k))) land 0xFFFF_FFFF
    in
    let i = idx land virgin.mask in
    let tr = Char.code (String.unsafe_get vals k) in
    if tr <> 0 then begin
      let vg = Char.code (Bytes.unsafe_get virgin.bits i) in
      if tr land vg <> 0 then begin
        if vg = 255 then begin
          res := New_tuple;
          virgin.ff <- virgin.ff - 1
        end
        else if !res = Nothing then res := New_bucket;
        Bytes.unsafe_set virgin.bits i (Char.unsafe_chr (vg land lnot tr land 255))
      end
    end
  done;
  !res

(** Classified bytes of a trace at the indices of [idxs], one byte each
    (the sparse capture of the sharded merge path). *)
let values_of (t : t) (idxs : Index_set.t) : string =
  let b = Bytes.create (Index_set.length idxs) in
  Index_set.iteri
    (fun k i -> Bytes.unsafe_set b k (Bytes.unsafe_get t.bits (i land t.mask)))
    idxs;
  Bytes.unsafe_to_string b

(** Byte-for-byte map equality — the determinism check of the sharded
    differential suite ([merge_into] only ever writes [bits], so
    comparing the payload compares the maps). *)
let equal (a : t) (b : t) : bool = Bytes.equal a.bits b.bits

(** FNV-1a over the raw map bytes. Unlike {!hash} this does not consult
    the journal, so it fingerprints virgin maps (whose journals are
    unused) as well as traces. *)
let bytes_hash (t : t) : int =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Bytes.length t.bits - 1 do
    h := !h lxor Char.code (Bytes.unsafe_get t.bits i);
    h := !h * 0x100000001b3
  done;
  !h land max_int

(** Number of indices hit in a trace (AFL's [count_bytes]). *)
let count_set t = t.ntouched

(** The journal itself: [journal t].(k) for [k < count_set t] are the
    indices hit, in first-hit order. No copy — valid until the next
    {!hit} or {!clear}. *)
let journal t = t.touched

(* LSD radix sort of the journal into the map's scratch, returning the
   buffer that holds the ascending result (valid until the next sort).
   Each pass counts its own digit into one 256-slot histogram, then
   prefix-sums and scatters; a pass whose digit is the same for every
   index is skipped. The journal itself is never reordered. *)
let radix_sorted t : int array =
  let n = t.ntouched in
  if Array.length t.sort_a < n then begin
    t.sort_a <- Array.make (Array.length t.touched) 0;
    t.sort_b <- Array.make (Array.length t.touched) 0
  end;
  let counts = t.counts in
  let src = ref t.touched in
  for p = 0 to t.passes - 1 do
    let s = !src and shift = p lsl 3 in
    Array.fill counts 0 256 0;
    for k = 0 to n - 1 do
      let d = (Array.unsafe_get s k lsr shift) land 255 in
      Array.unsafe_set counts d (Array.unsafe_get counts d + 1)
    done;
    (* exclusive prefix sums, noting a digit every index shares *)
    let sum = ref 0 and trivial = ref false in
    for d = 0 to 255 do
      let c = Array.unsafe_get counts d in
      if c = n then trivial := true;
      Array.unsafe_set counts d !sum;
      sum := !sum + c
    done;
    if not !trivial then begin
      let dst = if s == t.sort_a then t.sort_b else t.sort_a in
      for k = 0 to n - 1 do
        let v = Array.unsafe_get s k in
        let d = (v lsr shift) land 255 in
        let at = Array.unsafe_get counts d in
        Array.unsafe_set dst at v;
        Array.unsafe_set counts d (at + 1)
      done;
      src := dst
    end
  done;
  !src

(** Indices hit in a trace, ascending, as a fresh array: an LSD radix
    sort of the journal (8-bit digits, [ceil(size_log2 / 8)] passes)
    through scratch owned by the map, so maps on different domains sort
    independently. *)
let sorted_indices t = Array.sub (radix_sorted t) 0 t.ntouched

(** Indices hit in a trace, ascending (list wrapper over
    {!sorted_indices}, kept for renderers and tests). *)
let set_indices t = Array.to_list (sorted_indices t)

(** [iteri_set f t] calls [f idx count] for every touched index. *)
let iteri_set f t =
  for k = 0 to t.ntouched - 1 do
    let i = t.touched.(k) in
    f i (Char.code (Bytes.get t.bits i))
  done

let copy t =
  {
    t with
    bits = Bytes.copy t.bits;
    touched = Array.copy t.touched;
    counts = Array.copy t.counts;
    sort_a = [||];
    sort_b = [||];
  }

(** Read the raw byte at a map index (tests and diagnostics). *)
let get t idx = Char.code (Bytes.get t.bits (idx land t.mask))

(** Number of virgin-map indices still fully untouched (byte = 0xFF) —
    the "virgin bits residual" sampled into stats snapshots. O(1): the
    count is kept by the writers of a virgin map's bytes (creation,
    the merges, {!copy_into}, {!restore_at}; {!restore_raw} recounts
    once), because a 64 KB scan per snapshot row is a visible share of
    a short campaign. *)
let residual t = t.ff

(** {!residual} recounted by scanning the bytes (tests check the kept
    count against it). *)
let residual_scan t = count_ff t.bits

(** FNV-1a hash of the trace contents (order-independent via sorting). *)
let hash t =
  let idxs = sorted_indices t in
  let h = ref 0x3bf29ce484222325 in
  Array.iter
    (fun i ->
      let c = Char.code (Bytes.unsafe_get t.bits i) in
      h := !h lxor ((i lsl 8) lor c);
      h := !h * 0x100000001b3)
    idxs;
  !h land max_int
