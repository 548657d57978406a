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

let clamp_len s = if String.length s > max_len then String.sub s 0 max_len else s

(* --- input-to-state substitution (cmplog) --- *)

(** A comparison observed at run time: the program compared [observed]
    (an input-derived value, hopefully) against [wanted]. *)
type cmp_pair = { observed : int; wanted : int }

let encode_le width v = String.init width (fun i -> Char.chr ((v asr (8 * i)) land 255))

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go 0

let replace_at s pos repl =
  let n = String.length s and m = String.length repl in
  if pos + m > n then s
  else String.sub s 0 pos ^ repl ^ String.sub s (pos + m) (n - pos - m)

(** Try to rewrite [s] so that the observed operand becomes the wanted
    one: search for little-endian (1/2/4-byte) and ASCII-decimal encodings
    of [observed] and substitute the encoding of [wanted]. Negative
    [wanted] values are emitted too — as truncated two's-complement bytes
    on the little-endian paths and as the signed decimal form on the
    ASCII path — so comparisons against negative constants stay solvable.
    Returns [s] unchanged when no encoding is found. *)
let i2s_apply rng (p : cmp_pair) (s : string) : string =
  let try_width w =
    if p.observed < 0 || (w < 8 && p.observed >= 1 lsl (8 * w)) then None
    else
      let pat = encode_le w p.observed in
      match find_sub s pat with
      | Some pos -> Some (replace_at s pos (encode_le w p.wanted))
      | None -> None
  in
  let try_ascii () =
    if p.observed < 0 then None
    else
      let pat = string_of_int p.observed in
      if String.length pat = 0 then None
      else
        match find_sub s pat with
        | Some pos ->
            let n = String.length s in
            let repl = string_of_int p.wanted in
            Some
              (clamp_len
                 (String.sub s 0 pos ^ repl
                 ^ String.sub s (pos + String.length pat)
                     (n - pos - String.length pat)))
        | None -> None
  in
  let candidates = List.filter_map (fun f -> f ()) [
    (fun () -> try_width 1);
    (fun () -> try_width 2);
    (fun () -> try_width 4);
    try_ascii;
  ]
  in
  match candidates with
  | [] -> s
  | l -> Rng.choose_list rng l

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

(* In-place input-to-state: locate candidate encodings of [observed]
   (little-endian w=1/2/4, then ASCII decimal — the same fixed probe
   order as the string engine), draw among the hits, rewrite in place. *)

(* The search loops carry all state as parameters: inner [let rec]
   helpers would capture their environment and allocate a closure per
   probe, which dominated the i2s hot path. *)
let rec le_eq b pos v width j =
  j = width
  || Char.code (Bytes.unsafe_get b (pos + j)) = (v asr (8 * j)) land 255
     && le_eq b pos v width (j + 1)

let rec find_le_from b n v width pos =
  if pos + width > n then -1
  else if le_eq b pos v width 0 then pos
  else find_le_from b n v width (pos + 1)

let find_le b n ~width v = find_le_from b n v width 0

let rec bytes_eq buf pos pat poff m j =
  j = m
  || Bytes.unsafe_get buf (pos + j) = Bytes.unsafe_get pat (poff + j)
     && bytes_eq buf pos pat poff m (j + 1)

let rec find_bytes_from buf n pat poff m pos =
  if pos + m > n then -1
  else if bytes_eq buf pos pat poff m 0 then pos
  else find_bytes_from buf n pat poff m (pos + 1)

let find_bytes buf n pat poff m =
  if m = 0 then -1 else find_bytes_from buf n pat poff m 0

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

let le_candidate buf n observed w =
  if observed < 0 || (w < 8 && observed >= 1 lsl (8 * w)) then -1
  else find_le buf n ~width:w observed

let i2s_in_place sc rng (p : cmp_pair) =
  let n = sc.len in
  let c1 = le_candidate sc.buf n p.observed 1 in
  let c2 = le_candidate sc.buf n p.observed 2 in
  let c4 = le_candidate sc.buf n p.observed 4 in
  (* decimal pattern of [observed] staged at tmp[0, m); tmp is never
     live across operators, so sharing it with duplicate-chunk is fine *)
  ensure_tmp sc 64;
  let m = if p.observed < 0 then 0 else write_decimal sc.tmp 0 p.observed in
  let ca = find_bytes sc.buf n sc.tmp 0 m in
  let ncand =
    (if c1 >= 0 then 1 else 0)
    + (if c2 >= 0 then 1 else 0)
    + (if c4 >= 0 then 1 else 0)
    + if ca >= 0 then 1 else 0
  in
  if ncand > 0 then begin
    (* the single draw Rng.choose_list made over the candidate list,
       which was built in this width-then-ascii order *)
    let k = Rng.int rng ncand in
    let k =
      if c1 >= 0 then
        if k = 0 then begin
          write_le sc.buf c1 1 p.wanted;
          -1
        end
        else k - 1
      else k
    in
    let k =
      if k >= 0 && c2 >= 0 then
        if k = 0 then begin
          write_le sc.buf c2 2 p.wanted;
          -1
        end
        else k - 1
      else k
    in
    let k =
      if k >= 0 && c4 >= 0 then
        if k = 0 then begin
          write_le sc.buf c4 4 p.wanted;
          -1
        end
        else k - 1
      else k
    in
    if k >= 0 && ca >= 0 then begin
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

(** The deterministic stage (walking bit flips and interesting bytes) used
    by tests and the classic-AFL profile; returns all children. *)
let deterministic (s : string) : string list =
  let out = ref [] in
  let n = String.length s in
  for i = 0 to n - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
      out := Bytes.to_string b :: !out
    done;
    Array.iter
      (fun v ->
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (v land 255));
        out := Bytes.to_string b :: !out)
      interesting8
  done;
  List.rev !out
