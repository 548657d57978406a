(* The retention path at touched-index cost (DESIGN.md §6, "Retention
   path"): the incremental flat top-rated table, claimed in any index
   order, equals a from-scratch cull_queue rebuild, and packed index sets
   round-trip at both widths. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

module Cm = Pathcov.Coverage_map
module Iset = Pathcov.Index_set
module Corpus = Fuzz.Corpus

(* ------------------------------------------------------------------ *)
(* The from-scratch oracle                                             *)
(* ------------------------------------------------------------------ *)

(* A corpus and the indices each of its entries was added with, by
   entry id: entries keep no index sets, so the oracle rebuilds from
   these. *)
type tracked = { c : Corpus.t; sets : (int, int array) Hashtbl.t }

let tracked () = { c = Corpus.create (); sets = Hashtbl.create 64 }

(* afl's cull_queue as the corpus ran it before the table became
   incremental: rebuild top_rated over the queue in discovery order under
   the [best.fav <= e.fav] tie rule, favor every holder, count the
   never-fuzzed favored. Returns the table as ascending (index, entry
   id) pairs, each entry's favored flag in discovery order, and the
   pending count. *)
let oracle { c; sets } =
  let tbl = Hashtbl.create 1024 in
  Corpus.iter
    (fun e ->
      Array.iter
        (fun idx ->
          match Hashtbl.find_opt tbl idx with
          | Some (best : Corpus.entry) when best.fav <= e.fav -> ()
          | _ -> Hashtbl.replace tbl idx e)
        (Hashtbl.find sets e.id))
    c;
  let holders = Hashtbl.create 64 in
  Hashtbl.iter (fun _ (e : Corpus.entry) -> Hashtbl.replace holders e.id ()) tbl;
  let pairs =
    Hashtbl.fold (fun idx (e : Corpus.entry) acc -> (idx, e.id) :: acc) tbl []
    |> List.sort compare
  in
  let flags =
    List.map (fun (e : Corpus.entry) -> Hashtbl.mem holders e.id) (Corpus.to_list c)
  in
  let pending =
    List.length
      (List.filter
         (fun (e : Corpus.entry) -> Hashtbl.mem holders e.id && e.times_fuzzed = 0)
         (Corpus.to_list c))
  in
  (pairs, flags, pending)

let pairs_t = Alcotest.(list (pair int int))

(* The incremental state must match the oracle: the table at any time,
   and the flags, pending count and slot counts after a cycle-start
   refresh. *)
let check_against_oracle label (t : tracked) =
  let c = t.c in
  let pairs, flags, pending = oracle t in
  check pairs_t (label ^ ": top-rated table") pairs
    (Array.to_list (Corpus.top_rated_pairs c));
  Corpus.recompute_favored c;
  check Alcotest.(list bool) (label ^ ": favored flags") flags
    (List.map (fun (e : Corpus.entry) -> e.favored) (Corpus.to_list c));
  check Alcotest.int (label ^ ": pending_favored") pending c.pending_favored;
  Corpus.iter
    (fun e ->
      check Alcotest.int
        (Printf.sprintf "%s: slot count of entry %d" label e.id)
        (List.length (List.filter (fun (_, id) -> id = e.id) pairs))
        e.slots)
    c;
  check Alcotest.(list int)
    (label ^ ": favored_subset")
    (List.filteri (fun i _ -> List.nth flags i) (Corpus.to_list c)
    |> List.map (fun (e : Corpus.entry) -> e.id))
    (List.map (fun (e : Corpus.entry) -> e.id) (Corpus.favored_subset c))

(* A random retention: few distinct costs so fav ties are common, index
   sets drawn from a small universe so entries contend for slots. Every
   other entry claims its indices in descending order straight from an
   array, as the retention path claims from a trace journal in
   first-hit order; the rest go through [add] and [claim_top_rated]. *)
let random_add rng { c; sets } ~universe =
  let n = Fuzz.Rng.int rng 12 in
  let idxs =
    Array.of_list
      (List.sort_uniq compare (List.init n (fun _ -> Fuzz.Rng.int rng universe)))
  in
  let data = String.make (Fuzz.Rng.int rng 3) 'x' in
  let exec_blocks = 1 + Fuzz.Rng.int rng 3 in
  let found_at = Corpus.size c in
  let e =
    if found_at land 1 = 0 then begin
      let e = Corpus.add c ~data ~indices:idxs ~exec_blocks ~depth:0 ~found_at in
      Corpus.claim_top_rated c e;
      e
    end
    else begin
      let e = Corpus.append c ~data ~exec_blocks ~depth:0 ~found_at in
      let journal = Array.of_list (List.rev (Array.to_list idxs)) in
      Corpus.claim_slots c e journal ~len:(Array.length journal);
      e
    end
  in
  Hashtbl.replace sets e.id idxs

(* The scheduler's side: fuzz a random entry, as a cycle would. *)
let random_fuzz rng (c : Corpus.t) =
  if Corpus.size c > 0 then begin
    let e = Corpus.get c (Fuzz.Rng.int rng (Corpus.size c)) in
    e.times_fuzzed <- e.times_fuzzed + 1;
    if e.favored && e.times_fuzzed = 1 then
      c.pending_favored <- max 0 (c.pending_favored - 1)
  end

let test_incremental_equals_oracle () =
  for seed = 1 to 40 do
    let rng = Fuzz.Rng.create seed in
    let c = tracked () in
    let universe = if seed mod 2 = 0 then 64 else 70_000 in
    for step = 1 to 60 do
      random_add rng c ~universe;
      if Fuzz.Rng.chance rng ~num:1 ~den:3 then random_fuzz rng c.c;
      if step mod 15 = 0 then
        check_against_oracle (Printf.sprintf "seed %d step %d" seed step) c
    done
  done

let dummy_id =
  {
    Fuzz.Checkpoint.subject = "oracle";
    fuzzer = "test";
    mode = "edge";
    cmplog = false;
    rng_seed = 0;
    budget = 0;
    fuel = 0;
    max_depth = 0;
    map_size_log2 = 17;
    max_queue = 0;
    sync_interval = 0;
  }

let dummy_progress =
  {
    Fuzz.Checkpoint.execs = 0;
    blocks = 0;
    havocs = 0;
    rng_state = 0;
    items_total = 0;
    cycle_len = 0;
    next_qi = 0;
    epochs = 0;
    dup_dropped = 0;
  }

(* A restored corpus carries the same table, slot counts and flags, and
   keeps matching the oracle as retention continues on both copies. *)
let test_restore_equals_oracle () =
  for seed = 1 to 10 do
    let rng = Fuzz.Rng.create (100 + seed) in
    let t = tracked () in
    for _ = 1 to 40 do
      random_add rng t ~universe:100_000;
      if Fuzz.Rng.chance rng ~num:1 ~den:3 then random_fuzz rng t.c
    done;
    let c = t.c in
    let ck =
      Fuzz.Checkpoint.capture ~id:dummy_id ~progress:dummy_progress
        ~virgin:(Cm.create_virgin ~size_log2:17 ())
        ~crash_virgin:(Cm.create_virgin ~size_log2:17 ())
        ~corpus:c ~triage:(Fuzz.Triage.create ())
        ~counters:(Obs.Counters.create ()) ~snapshots:[]
    in
    let ck =
      match Fuzz.Checkpoint.of_string (Fuzz.Checkpoint.to_string ck) with
      | Ok ck -> ck
      | Error e -> Alcotest.fail e
    in
    let rt = { c = Corpus.create (); sets = Hashtbl.copy t.sets } in
    let r = rt.c in
    Fuzz.Checkpoint.restore_corpus_into ck r;
    let label = Printf.sprintf "restore seed %d" seed in
    check pairs_t (label ^ ": table")
      (Array.to_list (Corpus.top_rated_pairs c))
      (Array.to_list (Corpus.top_rated_pairs r));
    check Alcotest.int (label ^ ": pending") c.pending_favored r.pending_favored;
    List.iter2
      (fun (a : Corpus.entry) (b : Corpus.entry) ->
        check Alcotest.int (label ^ ": id") a.id b.id;
        check Alcotest.int (label ^ ": slots") a.slots b.slots;
        check_bool (label ^ ": favored") a.favored b.favored)
      (Corpus.to_list c) (Corpus.to_list r);
    (* continue both with the same retention stream *)
    let rng_a = Fuzz.Rng.create seed and rng_b = Fuzz.Rng.create seed in
    for _ = 1 to 20 do
      random_add rng_a t ~universe:100_000;
      random_add rng_b rt ~universe:100_000
    done;
    check_against_oracle (label ^ " + 20 (original)") t;
    check_against_oracle (label ^ " + 20 (restored)") rt
  done

(* A claim over the slots that were dearer at some earlier point equals
   the full claim: holders only get cheaper, so the later claim can only
   win among those slots. Two corpora share one random history; the new
   entry's candidates are taken from one of them mid-history, from its
   indices in descending order (a journal's order is not ascending),
   then more entries are retained in both before the new entry is
   claimed, by [claim_top_rated_at] over the candidates in one and by
   [claim_top_rated] in the other. *)
let prop_claim_at_candidates =
  QCheck.Test.make ~count:200 ~name:"claim over earlier dearer slots equals full claim"
    QCheck.(pair small_nat bool)
    (fun (seed, small) ->
      let universe = if small then 64 else 70_000 in
      let history c =
        let rng = Fuzz.Rng.create seed in
        for _ = 1 to 30 do
          random_add rng c ~universe;
          if Fuzz.Rng.chance rng ~num:1 ~den:3 then random_fuzz rng c.c
        done;
        rng
      in
      let part = tracked () and full = tracked () in
      let rng_p = history part and rng_f = history full in
      (* the would-be entry, and its candidates against the snapshot *)
      let pick = Fuzz.Rng.create (1000 + seed) in
      let idxs =
        Array.of_list
          (List.sort_uniq compare
             (List.init (1 + Fuzz.Rng.int pick 16) (fun _ -> Fuzz.Rng.int pick universe)))
      in
      let data = String.make (Fuzz.Rng.int pick 3) 'y' in
      let exec_blocks = 1 + Fuzz.Rng.int pick 3 in
      let journal = Array.of_list (List.rev (Array.to_list idxs)) in
      let into = Array.make (Array.length idxs) 0 in
      let fav = Corpus.fav_of ~exec_blocks ~len:(String.length data) in
      let n =
        Corpus.dearer_slots part.c ~fav journal ~len:(Array.length journal)
          ~into
      in
      let cands = Iset.of_sub into ~pos:0 ~len:n in
      for _ = 1 to 10 do
        random_add rng_p part ~universe;
        random_add rng_f full ~universe
      done;
      let e_p =
        Corpus.append part.c ~data ~exec_blocks ~depth:0
          ~found_at:(Corpus.size part.c)
      and e_f =
        Corpus.add full.c ~data ~indices:idxs ~exec_blocks ~depth:0
          ~found_at:(Corpus.size full.c)
      in
      Corpus.claim_top_rated_at part.c e_p cands;
      Corpus.claim_top_rated full.c e_f;
      let state c =
        ( Corpus.top_rated_pairs c,
          List.map (fun (e : Corpus.entry) -> (e.slots, e.favored)) (Corpus.to_list c),
          c.pending_favored )
      in
      e_p.fav = fav && state part.c = state full.c)

(* ------------------------------------------------------------------ *)
(* Packed index sets                                                   *)
(* ------------------------------------------------------------------ *)

let test_packed_roundtrip () =
  let rng = Fuzz.Rng.create 7 in
  List.iter
    (fun (bound, width) ->
      for n = 0 to 300 do
        let a =
          Array.of_list
            (List.sort_uniq compare (List.init n (fun _ -> Fuzz.Rng.int rng bound)))
        in
        (* pin the width: one index at the top of the range *)
        let a = if n > 0 then Array.append a [| bound |] else a in
        let s = Iset.of_array a in
        let label = Printf.sprintf "bound %d, n %d" bound n in
        check Alcotest.(array int) (label ^ ": round trip") a (Iset.to_array s);
        check Alcotest.int (label ^ ": length") (Array.length a) (Iset.length s);
        if n > 0 then check Alcotest.int (label ^ ": width") width (Iset.width s);
        Array.iteri (fun k v -> check Alcotest.int (label ^ ": get") v (Iset.get s k)) a;
        check_bool (label ^ ": encoding round trip") true
          (match Iset.of_encoding (Iset.encoding s) with
          | Some s' -> Iset.to_array s' = a
          | None -> false);
        check_bool (label ^ ": ascending below bound + 1") true
          (Iset.ascending_below ~bound:(bound + 1) s)
      done)
    [ (0xFFFF, 2); (0xFFFF_FFFF, 4) ];
  check Alcotest.int "empty" 0 (Iset.length Iset.empty);
  check_bool "index beyond the bound" false
    (Iset.ascending_below ~bound:10 (Iset.of_array [| 3; 10 |]));
  check_bool "repeated index" false
    (Iset.ascending_below ~bound:10 (Iset.of_array [| 3; 3 |]));
  check_bool "descending" false
    (Iset.ascending_below ~bound:100_000 (Iset.of_array [| 70_000; 3 |]));
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "of_encoding rejects %S" bad) true
        (Iset.of_encoding bad = None))
    [ ""; "\003"; "\002\001"; "\004\001\002\003"; "\000" ];
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "of_array rejects %d" v) true
        (match Iset.of_array [| v |] with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ -1; 0x1_0000_0000 ];
  check_bool "get out of range raises" true
    (match Iset.get (Iset.of_array [| 1; 2 |]) 2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* The unboxed table against a table of entries                        *)
(* ------------------------------------------------------------------ *)

(* The reference the packed table replaced: one [entry] per slot, with
   claims, displacements, seats and clears applied to a slot-count
   array of its own. *)
type reference = {
  mutable holders : Corpus.entry option array;
  slots : (int, int) Hashtbl.t;  (** entry id -> slots it holds *)
  mutable pending : int;
}

let ref_slots r (e : Corpus.entry) =
  Option.value ~default:0 (Hashtbl.find_opt r.slots e.id)

let ref_move r (e : Corpus.entry) d =
  Hashtbl.replace r.slots e.id (ref_slots r e + d)

let ref_cover r i =
  if i >= Array.length r.holders then begin
    let bigger = Array.make (2 * (i + 1)) None in
    Array.blit r.holders 0 bigger 0 (Array.length r.holders);
    r.holders <- bigger
  end

let ref_claim r ~favored (e : Corpus.entry) i =
  ref_cover r i;
  match r.holders.(i) with
  | Some best when best.fav <= e.fav -> ()
  | prev ->
      Option.iter (fun b -> ref_move r b (-1)) prev;
      r.holders.(i) <- Some e;
      ref_move r e 1;
      if not (Hashtbl.mem favored e.id) then begin
        Hashtbl.replace favored e.id ();
        if e.times_fuzzed = 0 then r.pending <- r.pending + 1
      end

let ref_rate r (e : Corpus.entry) i =
  ref_cover r i;
  Option.iter (fun b -> ref_move r b (-1)) r.holders.(i);
  r.holders.(i) <- Some e;
  ref_move r e 1

let ref_pairs r =
  List.filter_map Fun.id
    (List.mapi
       (fun i h -> Option.map (fun (e : Corpus.entry) -> (i, e.id)) h)
       (Array.to_list r.holders))

type table_op =
  | Claim of int * int * int list * int  (** blocks, length, slots, how *)
  | Seat of int * int  (** slot, entry pick *)
  | Clear

let gen_table_op ~universe =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun (b, l, s, how) -> Claim (b, l, s, how))
            (quad (int_range 1 3) (int_bound 2)
               (list_size (int_bound 10) (int_bound (universe - 1)))
               (int_bound 2)) );
        (2, map2 (fun s p -> Seat (s, p)) (int_bound (universe - 1)) nat);
        (1, return Clear);
      ])

(* Random claims with few distinct costs (so ties are common), each
   entry claiming its slots through one of the three claim calls,
   displacements, checkpoint-style seats and clears, on a table sized
   from the start (64 slots) or grown on demand (up to 3,000 slots);
   after every step the table, every entry's slot count and favored
   flag, and the pending count match the reference. *)
let prop_table_equals_reference =
  QCheck.Test.make ~count:200 ~name:"unboxed top-rated table equals an entry table"
    (QCheck.make
       QCheck.Gen.(
         bool >>= fun sized ->
         let universe = if sized then 64 else 3_000 in
         map
           (fun ops -> (sized, ops))
           (list_size (int_range 1 40) (gen_table_op ~universe))))
    (fun (sized, ops) ->
      let c =
        if sized then Corpus.create ~map_size_log2:6 () else Corpus.create ()
      in
      let fresh () =
        { holders = [||]; slots = Hashtbl.create 16; pending = 0 }
      in
      let r = ref (fresh ()) and favored = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Claim (exec_blocks, len, slots, how) ->
              let data = String.make len 'x' in
              let slots = List.sort_uniq compare slots in
              let found_at = Corpus.size c in
              let e =
                match how with
                | 0 ->
                    let e =
                      Corpus.add c ~data ~indices:(Array.of_list slots)
                        ~exec_blocks ~depth:0 ~found_at
                    in
                    Corpus.claim_top_rated c e;
                    e
                | 1 ->
                    let e = Corpus.append c ~data ~exec_blocks ~depth:0 ~found_at in
                    let journal = Array.of_list (List.rev slots) in
                    Corpus.claim_slots c e journal ~len:(Array.length journal);
                    e
                | _ ->
                    let e = Corpus.append c ~data ~exec_blocks ~depth:0 ~found_at in
                    Corpus.claim_top_rated_at c e (Iset.of_array (Array.of_list slots));
                    e
              in
              (* claimed in any order, so the reference in its own *)
              List.iter (ref_claim !r ~favored e) slots
          | Seat (slot, pick) ->
              if Corpus.size c > 0 then begin
                let e = Corpus.get c (pick mod Corpus.size c) in
                Corpus.rate c ~slot e;
                ref_rate !r e slot
              end
          | Clear ->
              Corpus.clear c;
              Hashtbl.reset favored;
              r := fresh ());
          let pairs = ref_pairs !r in
          if Array.to_list (Corpus.top_rated_pairs c) <> pairs then ok := false;
          if c.pending_favored <> !r.pending then ok := false;
          Corpus.iter
            (fun e ->
              if e.slots <> ref_slots !r e then ok := false;
              if e.favored <> Hashtbl.mem favored e.id then ok := false)
            c)
        ops;
      !ok)

let suite =
  [
    ( "retention",
      [
        Alcotest.test_case "incremental top-rated equals rebuild" `Quick
          test_incremental_equals_oracle;
        Alcotest.test_case "restored top-rated equals rebuild" `Quick
          test_restore_equals_oracle;
        Alcotest.test_case "packed index sets round trip" `Quick
          test_packed_roundtrip;
        QCheck_alcotest.to_alcotest prop_claim_at_candidates;
        QCheck_alcotest.to_alcotest prop_table_equals_reference;
      ] );
  ]
