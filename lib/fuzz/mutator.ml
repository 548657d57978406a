(** Input mutation engine: the AFL havoc stack, splicing, and an
    input-to-state substitution stage fed by comparison operands captured
    by the VM (the stand-in for AFL++'s cmplog/Redqueen, which the paper
    enables for all fuzzer configurations). The mutators are byte-oriented
    and deliberately mirror afl-fuzz's repertoire so that the feedback
    mechanisms — not the mutators — differentiate the configurations.

    The havoc stack mutates a pooled {!scratch} buffer in place — one
    growable [Bytes.t] plus a length cursor per campaign, mirroring the
    VM's [exec_ctx] design; the campaign runs the child straight out of
    the buffer and materialises a string only for a child it retains.
    Every operator draws from the
    RNG in the same order, with the same bounds, as the historical
    string-round-trip implementation (kept as the differential oracle in
    [test/mutator_ref.ml]), so campaign trajectories are byte-identical
    to the allocating engine. *)

let interesting8 = [| -128; -1; 0; 1; 16; 32; 64; 100; 127 |]

let interesting16 =
  [| -32768; -129; 128; 255; 256; 512; 1000; 1024; 4096; 32767 |]

let max_len = 4096

(* --- input-to-state substitution (cmplog) --- *)

(** A comparison observed at run time: the program compared [observed]
    (an input-derived value, hopefully) against [wanted]. *)
type cmp_pair = { observed : int; wanted : int }

(* --- the pooled mutation buffer --- *)

(** Reusable per-campaign mutation state: the child under construction
    ([buf] up to [len]) and a staging area for chunk duplication. Both
    grow on demand and are retained across candidates. *)
type scratch = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable tmp : Bytes.t;  (** staging for duplicate-chunk sources *)
}

(* Capacity head-room: lengths stay <= max_len + 8 between operators
   (insert does not clamp, matching the historical engine), and the
   worst transient during duplicate-chunk is len * 3/2; double max_len
   covers both without reallocation in steady state. *)
let create_scratch () =
  { buf = Bytes.create (2 * max_len); len = 0; tmp = Bytes.create max_len }

let ensure_buf (sc : scratch) n =
  if Bytes.length sc.buf < n then begin
    let bigger = Bytes.create (max n (2 * Bytes.length sc.buf)) in
    Bytes.blit sc.buf 0 bigger 0 sc.len;
    sc.buf <- bigger
  end

let ensure_tmp (sc : scratch) n =
  if Bytes.length sc.tmp < n then sc.tmp <- Bytes.create (max n (2 * Bytes.length sc.tmp))

(* --- individual havoc operations, in place on the scratch buffer ---
   Each draws from the RNG in exactly the order and with exactly the
   bounds of the string-round-trip engine (see test/mutator_ref.ml). *)

let flip_bit sc rng =
  if sc.len > 0 then begin
    let i = Rng.int rng sc.len in
    let bit = Rng.int rng 8 in
    Bytes.set sc.buf i (Char.chr (Char.code (Bytes.get sc.buf i) lxor (1 lsl bit)))
  end

let set_random_byte sc rng =
  if sc.len > 0 then Bytes.set sc.buf (Rng.int rng sc.len) (Rng.byte rng)

let add_sub_byte sc rng =
  if sc.len > 0 then begin
    let i = Rng.int rng sc.len in
    let delta = Rng.range rng 1 35 in
    let delta = if Rng.bool rng then delta else -delta in
    Bytes.set sc.buf i (Char.chr ((Char.code (Bytes.get sc.buf i) + delta) land 255))
  end

let set_interesting8 sc rng =
  if sc.len > 0 then begin
    let i = Rng.int rng sc.len in
    Bytes.set sc.buf i (Char.chr (Rng.choose rng interesting8 land 255))
  end

let set_interesting16 sc rng =
  if sc.len >= 2 then begin
    let i = Rng.int rng (sc.len - 1) in
    let v = Rng.choose rng interesting16 land 0xffff in
    Bytes.set sc.buf i (Char.chr (v land 255));
    Bytes.set sc.buf (i + 1) (Char.chr ((v lsr 8) land 255))
  end

let copy_chunk sc rng =
  let n = sc.len in
  if n >= 2 then begin
    let len = Rng.range rng 1 (max 1 (n / 2)) in
    let src = Rng.int rng (n - len + 1) in
    let dst = Rng.int rng (n - len + 1) in
    Bytes.blit sc.buf src sc.buf dst len
  end

(* Length-changing operations shift the tail in place. *)

let insert_random sc rng =
  let n = sc.len in
  if n < max_len then begin
    let pos = Rng.int rng (n + 1) in
    let len = Rng.range rng 1 8 in
    ensure_buf sc (n + len);
    Bytes.blit sc.buf pos sc.buf (pos + len) (n - pos);
    for i = pos to pos + len - 1 do
      Bytes.set sc.buf i (Rng.byte rng)
    done;
    sc.len <- n + len
  end

let duplicate_chunk sc rng =
  let n = sc.len in
  if n > 0 && n < max_len then begin
    let len = Rng.range rng 1 (max 1 (n / 2)) in
    let src = Rng.int rng (n - len + 1) in
    let pos = Rng.int rng (n + 1) in
    ensure_buf sc (n + len);
    ensure_tmp sc len;
    Bytes.blit sc.buf src sc.tmp 0 len;
    Bytes.blit sc.buf pos sc.buf (pos + len) (n - pos);
    Bytes.blit sc.tmp 0 sc.buf pos len;
    sc.len <- min (n + len) max_len
  end

let delete_chunk sc rng =
  let n = sc.len in
  if n > 1 then begin
    let len = Rng.range rng 1 (max 1 (n / 2)) in
    let pos = Rng.int rng (n - len + 1) in
    Bytes.blit sc.buf (pos + len) sc.buf pos (n - pos - len);
    sc.len <- n - len
  end

let splice sc rng (other : string) =
  if String.length other > 1 && sc.len > 1 then begin
    let cut_a = Rng.int rng sc.len in
    let cut_b = Rng.int rng (String.length other) in
    let total = min (cut_a + String.length other - cut_b) max_len in
    ensure_buf sc total;
    (* total < cut_a is possible when len transiently exceeds max_len
       (insert does not clamp): the child is then just our clamped
       prefix, which is already in place. *)
    if total > cut_a then
      Bytes.blit_string other cut_b sc.buf cut_a (total - cut_a);
    sc.len <- total
  end

(* --- input-to-state, in place --- *)

let rec bytes_eq buf pos pat poff m j =
  j = m
  || Bytes.unsafe_get buf (pos + j) = Bytes.unsafe_get pat (poff + j)
     && bytes_eq buf pos pat poff m (j + 1)

let write_le b pos width v =
  for j = 0 to width - 1 do
    Bytes.set b (pos + j) (Char.unsafe_chr ((v asr (8 * j)) land 255))
  done

(* Decimal rendering into a staging buffer, byte-for-byte what
   [string_of_int] produces — hand-rolled because string_of_int's format
   machinery allocates per call. Digits iterate on the negated
   (non-positive) value so [min_int] renders exactly. *)
let rec dec_ndigits n acc = if n = 0 then acc else dec_ndigits (n / 10) (acc + 1)

let rec dec_fill b base n i =
  if n <> 0 then begin
    Bytes.set b (base + i) (Char.unsafe_chr (48 - (n mod 10)));
    dec_fill b base (n / 10) (i - 1)
  end

(* Returns the length written at [off]. *)
let write_decimal (b : Bytes.t) off (v : int) : int =
  if v = 0 then begin
    Bytes.set b off '0';
    1
  end
  else begin
    let neg = v < 0 in
    let n = if neg then v else -v in
    let nd = dec_ndigits n 0 in
    let sign = if neg then 1 else 0 in
    dec_fill b (off + sign) n (nd - 1);
    if neg then Bytes.set b off '-';
    sign + nd
  end

(* Finds the lowest position of each candidate encoding of [observed] —
   little-endian at widths 1, 2 and 4 (width w only when observed <
   2^(8w)) and the ASCII decimal — in one left-to-right pass that stops
   once every valid candidate is found. Every little-endian encoding
   starts with the low byte, and the decimal with its first digit, so
   only positions holding one of those two bytes are probed further.
   Then one draw picks among the hits in the order 1, 2, 4, ASCII (the
   draw [Rng.choose_list] made over the string engine's candidate list)
   and rewrites the pick with the same-width encoding of [wanted]: a
   negative [wanted] becomes truncated two's-complement bytes or its
   signed decimal. Negative [observed] has no candidates. *)
let i2s_in_place sc rng (p : cmp_pair) =
  let v = p.observed in
  if v >= 0 then begin
    let n = sc.len and b = sc.buf in
    (* decimal pattern of [observed] staged at tmp[0, m); tmp is never
       live across operators, so sharing it with duplicate-chunk is fine *)
    ensure_tmp sc 64;
    let m = write_decimal sc.tmp 0 v in
    let lo = Char.unsafe_chr (v land 255)
    and b1 = Char.unsafe_chr ((v lsr 8) land 255)
    and b2 = Char.unsafe_chr ((v lsr 16) land 255)
    and b3 = Char.unsafe_chr ((v lsr 24) land 255)
    and d0 = Bytes.unsafe_get sc.tmp 0 in
    let w1 = v < 0x100 and w2 = v < 0x10000 and w4 = v < 0x1_0000_0000 in
    let c1 = ref (-1) and c2 = ref (-1) and c4 = ref (-1) and ca = ref (-1) in
    let todo =
      ref (1 + Bool.to_int w1 + Bool.to_int w2 + Bool.to_int w4)
    in
    let i = ref 0 in
    while !todo > 0 && !i < n do
      let pos = !i in
      let c = Bytes.unsafe_get b pos in
      if c = lo then begin
        if w1 && !c1 < 0 then begin
          c1 := pos;
          decr todo
        end;
        if w2 && !c2 < 0 && pos + 2 <= n
           && Bytes.unsafe_get b (pos + 1) = b1
        then begin
          c2 := pos;
          decr todo
        end;
        if w4 && !c4 < 0 && pos + 4 <= n
           && Bytes.unsafe_get b (pos + 1) = b1
           && Bytes.unsafe_get b (pos + 2) = b2
           && Bytes.unsafe_get b (pos + 3) = b3
        then begin
          c4 := pos;
          decr todo
        end
      end;
      if c = d0 && !ca < 0 && pos + m <= n && bytes_eq b pos sc.tmp 0 m 0
      then begin
        ca := pos;
        decr todo
      end;
      incr i
    done;
    let c1 = !c1 and c2 = !c2 and c4 = !c4 and ca = !ca in
    let ncand =
      Bool.to_int (c1 >= 0) + Bool.to_int (c2 >= 0) + Bool.to_int (c4 >= 0)
      + Bool.to_int (ca >= 0)
    in
    if ncand > 0 then begin
      (* skip the draw past each earlier hit *)
      let k = Rng.int rng ncand in
      let k2 = if c1 >= 0 then k - 1 else k in
      let k4 = if c2 >= 0 then k2 - 1 else k2 in
      if c1 >= 0 && k = 0 then write_le b c1 1 p.wanted
      else if c2 >= 0 && k2 = 0 then write_le b c2 2 p.wanted
      else if c4 >= 0 && k4 = 0 then write_le b c4 4 p.wanted
      else begin
        (* replace the pattern at [ca] by the decimal of [wanted], staged
           at tmp[32, 32 + r) *)
        let r = write_decimal sc.tmp 32 p.wanted in
        let new_n = n - m + r in
        ensure_buf sc new_n;
        Bytes.blit sc.buf (ca + m) sc.buf (ca + r) (n - ca - m);
        Bytes.blit sc.tmp 32 sc.buf ca r;
        sc.len <- min new_n max_len
      end
    end
  end

(** Test seam over {!i2s_in_place}: loads [s] into a fresh scratch,
    applies one input-to-state substitution and returns the child. *)
let i2s_apply rng (p : cmp_pair) (s : string) : string =
  let sc = create_scratch () in
  let n = String.length s in
  ensure_buf sc n;
  Bytes.blit_string s 0 sc.buf 0 n;
  sc.len <- n;
  i2s_in_place sc rng p;
  Bytes.sub_string sc.buf 0 sc.len

(* --- havoc --- *)

(** One havoc-mutated child of [s], built in place in [scratch] (read it
    from [sc.buf] up to [sc.len]): a random stack of 1–8 operations.
    [cmps] supplies captured comparison operands for the input-to-state
    operator; [splice_with] (when provided) allows the crossover operator
    into a second corpus entry. Allocates nothing in steady state — the
    campaign executes the child straight out of the buffer
    ({!Vm.Interp.run_batch}) and materialises a string only on
    retention. *)
let havoc_in_place (sc : scratch) ?(cmps = [||]) ?splice_with rng (s : string)
    : unit =
  let slen = String.length s in
  if slen = 0 then begin
    ensure_buf sc 1;
    Bytes.set sc.buf 0 (Rng.byte rng);
    sc.len <- 1
  end
  else begin
    ensure_buf sc slen;
    Bytes.blit_string s 0 sc.buf 0 slen;
    sc.len <- slen
  end;
  let stack = 1 lsl Rng.range rng 0 3 in
  let ncmps = Array.length cmps in
  let n_ops = 10 in
  let bound =
    n_ops
    + (if ncmps = 0 then 0 else 3)
    + (match splice_with with None -> 0 | Some _ -> 1)
  in
  for _ = 1 to stack do
    let op = Rng.int rng bound in
    match op with
    | 0 | 1 -> flip_bit sc rng
    | 2 -> set_random_byte sc rng
    | 3 | 4 -> add_sub_byte sc rng
    | 5 -> set_interesting8 sc rng
    | 6 -> set_interesting16 sc rng
    | 7 -> copy_chunk sc rng
    | 8 -> insert_random sc rng
    | 9 ->
        if Rng.bool rng then duplicate_chunk sc rng else delete_chunk sc rng
    | (10 | 11 | 12) when ncmps > 0 ->
        (* input-to-state: solve an observed comparison *)
        i2s_in_place sc rng cmps.(Rng.int rng ncmps)
    | _ -> begin
        (* splice: take a prefix of us and a suffix of the other entry *)
        match splice_with with
        | Some other -> splice sc rng other
        | None -> ()
      end
  done
