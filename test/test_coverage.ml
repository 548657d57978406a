(** Coverage map and feedback listener tests, including the paper's core
    discrimination claim as a unit test: the path listener distinguishes
    executions that the edge listener cannot. *)

let check = Alcotest.check
let fail = Alcotest.fail

module Cm = Pathcov.Coverage_map

let test_bucketing () =
  let expect = [ (0, 0); (1, 1); (2, 2); (3, 4); (4, 8); (7, 8); (8, 16);
                 (15, 16); (16, 32); (31, 32); (32, 64); (127, 64); (128, 128);
                 (255, 128) ] in
  List.iter
    (fun (count, bucket) ->
      check Alcotest.int (Printf.sprintf "bucket of %d" count) bucket
        (Cm.bucket_of_count count))
    expect

let test_hit_and_clear () =
  let m = Cm.create ~size_log2:8 () in
  Cm.hit m 5;
  Cm.hit m 5;
  Cm.hit m 300 (* wraps to 300 land 255 = 44 *);
  check Alcotest.int "two set" 2 (Cm.count_set m);
  check (Alcotest.list Alcotest.int) "indices" [ 5; 44 ] (Cm.set_indices m);
  check (Alcotest.array Alcotest.int) "indices array" [| 5; 44 |]
    (Cm.sorted_indices m);
  check Alcotest.int "raw count" 2 (Cm.get m 5);
  Cm.clear m;
  check Alcotest.int "cleared" 0 (Cm.count_set m);
  check Alcotest.int "byte zeroed" 0 (Cm.get m 5)

let test_saturation () =
  let m = Cm.create ~size_log2:8 () in
  for _ = 1 to 1000 do
    Cm.hit m 3
  done;
  check Alcotest.int "saturates at 255" 255 (Cm.get m 3)

let test_classify () =
  let m = Cm.create ~size_log2:8 () in
  for _ = 1 to 5 do
    Cm.hit m 9
  done;
  Cm.classify m;
  check Alcotest.int "5 -> bucket 8" 8 (Cm.get m 9)

let test_novelty_transitions () =
  let virgin = Cm.create_virgin ~size_log2:8 () in
  let trace = Cm.create ~size_log2:8 () in
  Cm.hit trace 7;
  Cm.classify trace;
  check Alcotest.bool "first hit is new tuple" true
    (Cm.merge_into ~virgin trace = Cm.New_tuple);
  check Alcotest.bool "same trace no longer novel" true
    (Cm.merge_into ~virgin trace = Cm.Nothing);
  (* same tuple, higher bucket: New_bucket *)
  let trace2 = Cm.create ~size_log2:8 () in
  for _ = 1 to 4 do
    Cm.hit trace2 7
  done;
  Cm.classify trace2;
  check Alcotest.bool "bucket change" true
    (Cm.merge_into ~virgin trace2 = Cm.New_bucket);
  (* a different index: New_tuple again *)
  let trace3 = Cm.create ~size_log2:8 () in
  Cm.hit trace3 8;
  Cm.classify trace3;
  check Alcotest.bool "new index" true (Cm.merge_into ~virgin trace3 = Cm.New_tuple)

let test_copy_and_hash () =
  let m = Cm.create ~size_log2:8 () in
  Cm.hit m 1;
  Cm.hit m 200;
  let m2 = Cm.copy m in
  check Alcotest.int "hash equal" (Cm.hash m) (Cm.hash m2);
  Cm.hit m2 3;
  check Alcotest.bool "hash differs" true (Cm.hash m <> Cm.hash m2)

let prop_merge_idempotent =
  QCheck.Test.make ~count:200 ~name:"merging a trace twice yields Nothing"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000))
    (fun idxs ->
      let virgin = Cm.create_virgin ~size_log2:12 () in
      let trace = Cm.create ~size_log2:12 () in
      List.iter (Cm.hit trace) idxs;
      Cm.classify trace;
      ignore (Cm.merge_into ~virgin trace);
      Cm.merge_into ~virgin trace = Cm.Nothing)

let prop_journal_matches_bytes =
  QCheck.Test.make ~count:200 ~name:"journal agrees with raw bytes"
    QCheck.(list_of_size Gen.(int_range 0 100) (int_bound 4095))
    (fun idxs ->
      let m = Cm.create ~size_log2:12 () in
      List.iter (Cm.hit m) idxs;
      let expected = List.sort_uniq compare idxs in
      Cm.set_indices m = expected
      && Array.to_list (Cm.sorted_indices m) = expected
      && Cm.count_set m = List.length expected)

(* [sorted_indices] against [List.sort] at 2^16 and 2^18 maps: empty,
   single and random journals, and journals whose indices share a byte,
   each sorted after a stale journal, which sorting leaves in discovery
   order. *)
let prop_sorted_indices =
  let open QCheck.Gen in
  let journal log2 =
    let idx = int_bound ((1 lsl log2) - 1) and byte = int_bound 255 in
    let high = int_bound ((1 lsl (log2 - 8)) - 1) in
    let sharing digit rest =
      digit >>= fun d -> list_size (int_range 2 400) (map (rest d) byte)
    in
    frequency
      [
        (1, return []);
        (1, map (fun i -> [ i ]) idx);
        (3, list_size (int_range 2 2_000) idx);
        (2, sharing high (fun hi lo -> (hi lsl 8) lor lo));
        (1, sharing byte (fun lo b -> (b lsl 8) lor lo));
      ]
  in
  QCheck.Test.make ~count:300 ~name:"sorted_indices equals List.sort"
    (QCheck.make
       ~print:QCheck.Print.(pair int (list int))
       (oneofl [ 16; 18 ] >>= fun log2 -> pair (return log2) (journal log2)))
    (fun (log2, idxs) ->
      let m = Cm.create ~size_log2:log2 () in
      List.iter (Cm.hit m) [ 3; (1 lsl log2) - 1; 0x1234 ];
      ignore (Cm.sorted_indices m);
      Cm.clear m;
      List.iter (Cm.hit m) idxs;
      let journal () =
        let acc = ref [] in
        Cm.iteri_set (fun i _ -> acc := i :: !acc) m;
        !acc
      in
      let before = journal () in
      Array.to_list (Cm.sorted_indices m) = List.sort compare before
      (* the journal itself stays in discovery order *)
      && journal () = before)

(* The virgin residual is a count kept by the map's writers; after any
   sequence of writes it must equal a scan of the bytes. Two small maps
   (64 slots) so merges saturate bytes and copies/restores cross. *)
type virgin_op =
  | Merge of int * (int * int) list  (** target, (index, hits) *)
  | Sparse of int * (int * int) list  (** target, (index, byte) *)
  | Copy of int  (** the other map into this one *)
  | Restore of int * int list  (** target, bytes not left 0xFF *)

let gen_virgin_op =
  let open QCheck.Gen in
  let target = int_bound 1 and idx = int_bound 127 in
  frequency
    [
      (4, map2 (fun t l -> Merge (t, l)) target
            (list_size (int_range 0 12) (pair idx (int_range 1 300))));
      (3, map2 (fun t l -> Sparse (t, l)) target
            (list_size (int_range 0 12) (pair idx (int_bound 255))));
      (1, map (fun t -> Copy t) target);
      (1, map2 (fun t l -> Restore (t, l)) target (list_size (int_range 0 20) idx));
    ]

let prop_residual_matches_scan =
  QCheck.Test.make ~count:300 ~name:"virgin residual count equals a byte scan"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_virgin_op))
    (fun ops ->
      let maps = Array.init 2 (fun _ -> Cm.create_virgin ~size_log2:6 ()) in
      let agree () =
        Array.for_all (fun m -> Cm.residual m = Cm.residual_scan m) maps
      in
      agree ()
      && List.for_all
           (fun op ->
             (match op with
             | Merge (t, hits) ->
                 let trace = Cm.create ~size_log2:6 () in
                 List.iter (fun (i, n) -> for _ = 1 to n do Cm.hit trace i done) hits;
                 Cm.classify trace;
                 ignore (Cm.merge_into ~virgin:maps.(t) trace)
             | Sparse (t, pairs) ->
                 let pairs =
                   List.sort_uniq (fun (a, _) (b, _) -> compare a b)
                     (List.map (fun (i, v) -> (i land 63, v)) pairs)
                 in
                 let idxs =
                   Pathcov.Index_set.of_array (Array.of_list (List.map fst pairs))
                 in
                 let vals =
                   String.concat "" (List.map (fun (_, v) -> String.make 1 (Char.chr v)) pairs)
                 in
                 ignore (Cm.merge_sparse_into ~virgin:maps.(t) ~idxs ~vals)
             | Copy t -> Cm.copy_into ~dst:maps.(t) maps.(1 - t)
             | Restore (t, touched) ->
                 let img = Bytes.make 64 '\255' in
                 List.iter (fun i -> Bytes.set img (i land 63) (Char.chr (i land 0x7f))) touched;
                 Cm.restore_raw maps.(t) img);
             agree ())
           ops)

(* [merge_noting] is [merge_into] plus a note of every index it wrote,
   and [restore_at] over those notes undoes it. Virgin maps are aged by
   a few random merges first (64 slots, so bytes are partly cleared and
   traces overlap them), then one classified trace merges both ways.
   Then the pattern a shard lane's work item follows: several traces
   merged into one note log at increasing [~at], each appending its
   notes after the last, and one [restore_at] over the whole log gives
   back the original map and residual. *)
let prop_merge_noting_undo =
  let hits = QCheck.Gen.(list_size (int_range 0 24) (pair (int_bound 63) (int_range 1 300))) in
  QCheck.Test.make ~count:300
    ~name:"merge_noting equals merge_into; restore_at undoes it"
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (int_range 0 6) hits) hits
           (list_size (int_range 0 4) hits)))
    (fun (history, fresh, more) ->
      let trace_of hs =
        let tr = Cm.create ~size_log2:6 () in
        List.iter (fun (i, n) -> for _ = 1 to n do Cm.hit tr i done) hs;
        Cm.classify tr;
        tr
      in
      let orig = Cm.create_virgin ~size_log2:6 () in
      List.iter (fun hs -> ignore (Cm.merge_into ~virgin:orig (trace_of hs))) history;
      let tr = trace_of fresh in
      let plain = Cm.copy orig and noted = Cm.copy orig in
      let verdict = Cm.merge_into ~virgin:plain tr in
      let note = Array.make (Cm.count_set tr) (-1) in
      let v = Cm.merge_noting ~virgin:noted tr note ~at:0 in
      let n = Cm.noted_count v in
      let changed =
        List.filter (fun i -> Cm.get orig i <> Cm.get noted i) (List.init 64 Fun.id)
      in
      let same_verdict = Cm.noted_novelty v = verdict in
      let same_map =
        Cm.equal plain noted && Cm.residual plain = Cm.residual noted
      in
      let exact_notes =
        List.sort compare (Array.to_list (Array.sub note 0 n)) = changed
      in
      let restored dst =
        Cm.equal dst orig && Cm.residual dst = Cm.residual orig
        && Cm.residual dst = Cm.residual_scan dst
      in
      Cm.restore_at ~dst:noted orig note n;
      let undone = restored noted in
      let traces = List.map trace_of (fresh :: more) in
      let item = Cm.copy orig and plain = Cm.copy orig in
      let log =
        Array.make (List.fold_left (fun a t -> a + Cm.count_set t) 0 traces) (-1)
      in
      let same_verdicts = ref true in
      let at =
        List.fold_left
          (fun at t ->
            let verdict = Cm.merge_into ~virgin:plain t in
            let v = Cm.merge_noting ~virgin:item t log ~at in
            if Cm.noted_novelty v <> verdict then same_verdicts := false;
            at + Cm.noted_count v)
          0 traces
      in
      let logged = !same_verdicts && Cm.equal item plain in
      Cm.restore_at ~dst:item orig log at;
      same_verdict && same_map && exact_notes && undone
      && (n = 0) = (verdict = Cm.Nothing)
      && logged && restored item)

(* [settle], the one journal pass campaigns make per run, equals the
   three passes it replaces: [classify], [merge_noting] and [clear].
   Virgin maps are aged by a few random merges first (64 slots, so bytes
   are partly cleared and traces overlap them); the trace is raw, with
   counts up to 300 (saturating at 255) so every bucket shows up. The
   notes go past a random offset [at], as a lane's do. Checked: the
   packed verdict and count, the noted indices in journal order, the
   noted bytes (equal to [values_of] of the classified trace), the
   virgin bytes and residual, the zeroed trace with its journal still
   readable, the rewind, and the refusal to settle twice. *)
let prop_settle_equals_three_passes =
  let hits = QCheck.Gen.(list_size (int_range 0 24) (pair (int_bound 63) (int_range 1 300))) in
  QCheck.Test.make ~count:300
    ~name:"settle equals classify + merge_noting + clear"
    (QCheck.make
       QCheck.Gen.(triple (list_size (int_range 0 6) hits) hits (int_bound 5)))
    (fun (history, fresh, at) ->
      let raw_trace hs =
        let tr = Cm.create ~size_log2:6 () in
        List.iter (fun (i, n) -> for _ = 1 to n do Cm.hit tr i done) hs;
        tr
      in
      let orig = Cm.create_virgin ~size_log2:6 () in
      List.iter
        (fun hs ->
          let tr = raw_trace hs in
          Cm.classify tr;
          ignore (Cm.merge_into ~virgin:orig tr))
        history;
      let three = raw_trace fresh and one = raw_trace fresh in
      let journal = Array.sub (Cm.journal one) 0 (Cm.count_set one) in
      let room = at + Cm.count_set one in
      (* the three passes *)
      let v3 = Cm.copy orig in
      Cm.classify three;
      let note3 = Array.make room (-1) in
      let p3 = Cm.merge_noting ~virgin:v3 three note3 ~at in
      let n3 = Cm.noted_count p3 in
      let bytes3 =
        Cm.values_of three (Pathcov.Index_set.of_sub note3 ~pos:at ~len:n3)
      in
      Cm.clear three;
      (* the one pass *)
      let v1 = Cm.copy orig in
      let note1 = Array.make room (-1) and vals1 = Bytes.make room '\000' in
      let p1 = Cm.settle ~virgin:v1 one note1 vals1 ~at in
      let n1 = Cm.noted_count p1 in
      let journal_kept =
        Cm.count_set one = Array.length journal
        && Array.sub (Cm.journal one) 0 (Cm.count_set one) = journal
      in
      let twice =
        match Cm.settle ~virgin:(Cm.copy orig) one note1 vals1 ~at with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Cm.clear one;
      let rewound = Cm.count_set one = 0 && Cm.equal one three in
      (* a rewound trace runs like a fresh one *)
      List.iter (fun (i, n) -> for _ = 1 to n do Cm.hit one i done) fresh;
      let reused = Cm.equal one (raw_trace fresh) in
      p1 = p3
      && Cm.noted_novelty p1 = Cm.noted_novelty p3
      && Array.sub note1 at n1 = Array.sub note3 at n3
      && Bytes.sub_string vals1 at n1 = bytes3
      && Cm.equal v1 v3
      && Cm.residual v1 = Cm.residual v3
      && Cm.residual v1 = Cm.residual_scan v1
      && journal_kept && twice && rewound && reused)

(* --- feedback listeners --- *)

let run_with_feedback fb prog input =
  fb.Pathcov.Feedback.reset ();
  Cm.clear fb.trace;
  ignore (Vm.Interp.run ~hooks:(Vm.Interp.hooks_of fb) prog ~input);
  Cm.classify fb.trace;
  List.map (fun i -> (i, Cm.get fb.trace i)) (Cm.set_indices fb.trace)

(* Two inputs that traverse the same edge set along different paths:
   in the two-diamond function, inputs 10 (T,F) and 03 (F,T) jointly cover
   all four arms; then 13 (T,T) adds no new edge but is a new path. *)
let two_diamond_src =
  "fn f(a, c) { var y = 0; if (a) { y = 1; } else { y = 2; } if (c) { y = y + \
   10; } else { y = y + 20; } return y; }\n\
   fn main() { return f(in(0) - 48, in(1) - 48); }"

let test_path_discriminates_edge_does_not () =
  let prog = Minic.Lower.compile two_diamond_src in
  let check_mode mode expect_novel =
    let fb = Pathcov.Feedback.make mode prog in
    let virgin = Cm.create_virgin () in
    let merge input =
      ignore (run_with_feedback fb prog input);
      Cm.merge_into ~virgin fb.trace
    in
    ignore (merge "10");
    ignore (merge "03");
    let n = merge "13" in
    check Alcotest.bool
      (Pathcov.Feedback.mode_name mode ^ " novelty for third input")
      expect_novel
      (n <> Cm.Nothing)
  in
  (* edge coverage: all edges already seen -> no novelty *)
  check_mode Pathcov.Feedback.Edge false;
  (* path coverage: the (T,T) combination is a brand-new acyclic path *)
  check_mode Pathcov.Feedback.Path true

let test_edge_feedback_orders () =
  (* edge coverage distinguishes A->B from B->A *)
  let src =
    "fn a() { return 1; } fn b() { return 2; } fn main() { if (in(0) == 104) { \
     a(); b(); } else { b(); a(); } return 0; }"
  in
  let prog = Minic.Lower.compile src in
  let fb = Pathcov.Feedback.make Pathcov.Feedback.Edge prog in
  let t1 = run_with_feedback fb prog "h" in
  let t2 = run_with_feedback fb prog "x" in
  check Alcotest.bool "different maps" true (t1 <> t2)

let test_block_coarser_than_edge () =
  let prog = Minic.Lower.compile two_diamond_src in
  let fb_block = Pathcov.Feedback.make Pathcov.Feedback.Block prog in
  let fb_path = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
  let count fb input = List.length (run_with_feedback fb prog input) in
  (* block count is bounded by total blocks; path adds per-activation ids *)
  check Alcotest.bool "block <= path+blocks sanity" true
    (count fb_block "13" > 0 && count fb_path "13" > 0)

let test_ngram_and_pathafl_smoke () =
  let prog = Minic.Lower.compile two_diamond_src in
  List.iter
    (fun mode ->
      let fb = Pathcov.Feedback.make mode prog in
      let t = run_with_feedback fb prog "13" in
      check Alcotest.bool (Pathcov.Feedback.mode_name mode ^ " produces coverage")
        true (t <> []))
    [ Pathcov.Feedback.Ngram 2; Pathcov.Feedback.Ngram 4; Pathcov.Feedback.Pathafl ]

let test_path_feedback_survives_crash () =
  (* a crash unwinds mid-path; reset must clear leftover registers *)
  let src = "fn main() { var a = array(2); if (in(0) == 104) { a[9] = 1; } return 0; }" in
  let prog = Minic.Lower.compile src in
  let fb = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
  ignore (run_with_feedback fb prog "h");
  (* crashing run *)
  let t = run_with_feedback fb prog "x" in
  check Alcotest.bool "clean run commits" true (t <> [])

let prop_feedback_deterministic =
  QCheck.Test.make ~count:60 ~name:"listeners are deterministic"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      List.for_all
        (fun mode ->
          let fb = Pathcov.Feedback.make mode prog in
          let a = run_with_feedback fb prog input in
          let b = run_with_feedback fb prog input in
          a = b)
        [ Pathcov.Feedback.Edge; Pathcov.Feedback.Path; Pathcov.Feedback.Ngram 2 ])

let suite =
  [
    ( "coverage-map",
      [
        Alcotest.test_case "bucketing" `Quick test_bucketing;
        Alcotest.test_case "hit and clear" `Quick test_hit_and_clear;
        Alcotest.test_case "saturation" `Quick test_saturation;
        Alcotest.test_case "classify" `Quick test_classify;
        Alcotest.test_case "novelty transitions" `Quick test_novelty_transitions;
        Alcotest.test_case "copy and hash" `Quick test_copy_and_hash;
      ] );
    ( "feedback",
      [
        Alcotest.test_case "path discriminates where edge cannot" `Quick
          test_path_discriminates_edge_does_not;
        Alcotest.test_case "edge feedback sees orders" `Quick test_edge_feedback_orders;
        Alcotest.test_case "block vs path sanity" `Quick test_block_coarser_than_edge;
        Alcotest.test_case "ngram and pathafl smoke" `Quick test_ngram_and_pathafl_smoke;
        Alcotest.test_case "path feedback survives crash" `Quick
          test_path_feedback_survives_crash;
      ] );
    ( "coverage-properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_merge_idempotent;
          prop_journal_matches_bytes;
          prop_sorted_indices;
          prop_feedback_deterministic;
          prop_residual_matches_scan;
          prop_merge_noting_undo;
          prop_settle_equals_three_passes;
        ] );
  ]
