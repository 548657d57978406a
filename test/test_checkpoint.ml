(* Checkpoint guarantees (DESIGN.md §9) besides resume identity (which
   the contract suite checks from every sampled snapshot): the
   serialized format round-trips exactly, wide maps' top-rated slots
   included, format-v2 files still read, and every damaged input is
   rejected with a clean [Error]. Also pins the RNG stream (the
   checkpoint format records raw stream positions, so the stream itself
   is part of the on-disk contract). *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* RNG stream pins                                                     *)
(* ------------------------------------------------------------------ *)

(* The raw stream is frozen: any change to the generator invalidates
   every recorded trajectory and every checkpoint's [rng_state]. These
   draws were recorded from the current implementation. *)
let test_rng_pins () =
  let r = Fuzz.Rng.create 1 in
  let next8 = List.init 8 (fun _ -> Fuzz.Rng.next r) in
  check
    (Alcotest.list Alcotest.int)
    "Rng.next, seed 1, first 8"
    [
      2301179995845785463;
      737513604162040260;
      2715498065152891471;
      3776362331709563659;
      2499084914300579375;
      505749053440136933;
      626836860205017594;
      2723450598084135843;
    ]
    next8;
  (* [Rng.int] is next mod bound — modulo-biased, deliberately kept (see
     rng.mli): these pins also freeze the bias. *)
  let r = Fuzz.Rng.create 42 in
  let mod8 = List.init 8 (fun _ -> Fuzz.Rng.int r 1000) in
  check
    (Alcotest.list Alcotest.int)
    "Rng.int _ 1000, seed 42, first 8"
    [ 971; 319; 939; 312; 779; 465; 586; 619 ]
    mod8;
  let sub = Fuzz.Rng.substream ~seed:7 3 in
  let sub4 = List.init 4 (fun _ -> Fuzz.Rng.next sub) in
  check
    (Alcotest.list Alcotest.int)
    "Rng.substream ~seed:7 3, first 4"
    [
      2219306520149622348;
      146489169204054088;
      1601720339431690807;
      2444856828765668800;
    ]
    sub4

(* state/of_state/set_state continue the stream draw for draw. *)
let test_rng_state_roundtrip () =
  let r = Fuzz.Rng.create 123 in
  for _ = 1 to 5 do
    ignore (Fuzz.Rng.next r)
  done;
  let s = Fuzz.Rng.state r in
  let expect = List.init 6 (fun _ -> Fuzz.Rng.next r) in
  let r2 = Fuzz.Rng.of_state s in
  check
    (Alcotest.list Alcotest.int)
    "of_state continues the stream" expect
    (List.init 6 (fun _ -> Fuzz.Rng.next r2));
  let r3 = Fuzz.Rng.create 0 in
  ignore (Fuzz.Rng.next r3);
  Fuzz.Rng.set_state r3 s;
  check
    (Alcotest.list Alcotest.int)
    "set_state repositions in place" expect
    (List.init 6 (fun _ -> Fuzz.Rng.next r3))

(* ------------------------------------------------------------------ *)
(* Helpers: runs with an in-memory checkpoint sink                     *)
(* ------------------------------------------------------------------ *)

(* Collect every snapshot a run writes; [every = 1] fires at each
   deterministic boundary that advanced the exec clock. *)
let mem_sink acc =
  {
    Fuzz.Checkpoint.every = 1;
    subject = "easy";
    fuzzer = "test";
    save = (fun ck -> acc := ck :: !acc);
  }

(* A sharded pathafl campaign over a 2^18 map rates slots above 65,535:
   the last snapshot's table survives the bytes, restores into a corpus
   slot for slot, and the run resumed from the decoded snapshot ends on
   the straight run's queue and table. *)
let test_wide_map_slots () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config =
    {
      Fuzz.Shard.base =
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Pathafl;
          budget = 3_000;
          rng_seed = 5;
          map_size_log2 = 18;
        };
      shards = 2;
      sync_interval = 512;
    }
  in
  let acc = ref [] in
  let straight =
    Fuzz.Shard.run ~checkpoint:(mem_sink acc) config prog ~seeds:s.seeds
  in
  let ck = List.hd !acc in
  check_bool "some top-rated slot is above 65,535" true
    (Array.exists (fun (i, _) -> i > 0xFFFF) ck.top_rated);
  let ck2 =
    match Fuzz.Checkpoint.(of_string (to_string ck)) with
    | Ok ck2 -> ck2
    | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  in
  let pairs_t = Alcotest.(array (pair int int)) in
  check pairs_t "top-rated pairs survive the bytes" ck.top_rated ck2.top_rated;
  let c = Fuzz.Corpus.create () in
  Fuzz.Checkpoint.restore_corpus_into ck2 c;
  check pairs_t "restored table" ck.top_rated (Fuzz.Corpus.top_rated_pairs c);
  let resumed = Fuzz.Shard.run ~resume:ck2 config prog ~seeds:s.seeds in
  check
    Alcotest.(list string)
    "resumed queue"
    (Fuzz.Campaign.queue_inputs straight.campaign)
    (Fuzz.Campaign.queue_inputs resumed.campaign);
  check pairs_t "resumed table"
    (Fuzz.Corpus.top_rated_pairs straight.campaign.corpus)
    (Fuzz.Corpus.top_rated_pairs resumed.campaign.corpus)

(* ------------------------------------------------------------------ *)
(* Serialization round trip and robustness                             *)
(* ------------------------------------------------------------------ *)

(* A representative snapshot: mid-run, non-empty queue, crashes triaged. *)
let some_checkpoint () =
  let prog = Minic.Lower.compile Contract.easy_bug_src in
  let acc = ref [] in
  let config =
    {
      Fuzz.Shard.base =
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Edge;
          budget = 2_000;
          rng_seed = 11;
        };
      shards = 2;
      sync_interval = 256;
    }
  in
  ignore (Fuzz.Shard.run ~checkpoint:(mem_sink acc) config prog ~seeds:[ "aa" ]);
  match !acc with
  | [] -> Alcotest.fail "expected at least one snapshot"
  | last :: _ -> last

let test_roundtrip () =
  let ck = some_checkpoint () in
  let s = Fuzz.Checkpoint.to_string ck in
  match Fuzz.Checkpoint.of_string s with
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  | Ok ck2 ->
      check Alcotest.string "re-serialization is byte-identical" s
        (Fuzz.Checkpoint.to_string ck2);
      check Alcotest.int "fingerprints agree"
        (Fuzz.Checkpoint.fingerprint ck)
        (Fuzz.Checkpoint.fingerprint ck2);
      check Alcotest.int "exec clock survives" ck.progress.execs
        ck2.progress.execs;
      check Alcotest.int "queue survives"
        (Array.length ck.entries)
        (Array.length ck2.entries)

(* FNV-1a folded into 63 bits: the checkpoint checksum. *)
let fnv (s : string) : int =
  let h = ref 0x3bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h land max_int

(* The format-v2 file of a snapshot: its v3 bytes with the packed index
   set [set k] after entry [k]'s data, under a v2 header and a
   recomputed checksum. *)
let v2_of (ck : Fuzz.Checkpoint.t) ~(set : int -> int array) : string =
  let s = Fuzz.Checkpoint.to_string ck in
  let out = Buffer.create (String.length s) in
  Buffer.add_string out "pathfuzz-checkpoint/v2\n";
  let pos = ref (String.index s '\n' + 1) in
  let copy n =
    Buffer.add_string out (String.sub s !pos n);
    pos := !pos + n
  in
  let copy_int () =
    let v = Int64.to_int (String.get_int64_le s !pos) in
    copy 8;
    v
  in
  let copy_str () = copy (copy_int ()) in
  (* identity: three strings and eight ints; progress: nine ints; the
     two maps *)
  for _ = 1 to 3 do
    copy_str ()
  done;
  copy (8 * (8 + 9));
  copy_str ();
  copy_str ();
  for k = 0 to copy_int () - 1 do
    ignore (copy_int ());
    copy_str ();
    let enc = Pathcov.Index_set.(encoding (of_array (set k))) in
    Buffer.add_int64_le out (Int64.of_int (String.length enc));
    Buffer.add_string out enc;
    (* exec_blocks, depth, found_at, favored, times_fuzzed *)
    copy (8 * 5)
  done;
  copy (String.length s - 8 - !pos);
  let body = Buffer.contents out in
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (Int64.of_int (fnv body));
  body ^ Bytes.to_string sum

let expect_error label = function
  | Ok (_ : Fuzz.Checkpoint.t) ->
      Alcotest.fail (label ^ ": damaged snapshot was accepted")
  | Error msg ->
      check_bool (label ^ ": diagnostic is not empty") true
        (String.length msg > 0)

let test_rejects_damage () =
  let ck = some_checkpoint () in
  let s = Fuzz.Checkpoint.to_string ck in
  let len = String.length s in
  (* truncation at every interesting depth: inside the magic, inside the
     payload, one byte short of the checksum *)
  List.iter
    (fun n ->
      expect_error
        (Printf.sprintf "truncated to %d/%d bytes" n len)
        (Fuzz.Checkpoint.of_string (String.sub s 0 n)))
    [ 0; 5; len / 3; len / 2; len - 1 ];
  (* a single flipped payload byte must fail the whole-file checksum *)
  let flipped = Bytes.of_string s in
  let pos = len / 2 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
  expect_error "flipped payload byte"
    (Fuzz.Checkpoint.of_string (Bytes.to_string flipped));
  (* future version: same magic, version we do not understand *)
  let future = Bytes.of_string s in
  let vpos = String.length "pathfuzz-checkpoint/v" in
  Bytes.set future vpos '9';
  expect_error "future version"
    (Fuzz.Checkpoint.of_string (Bytes.to_string future));
  (* foreign files *)
  expect_error "empty string" (Fuzz.Checkpoint.of_string "");
  expect_error "foreign bytes"
    (Fuzz.Checkpoint.of_string "not a checkpoint at all\n\x00\x01\x02")

(* A payload can carry a valid checksum and still not fit the map it
   records: every index set and top-rated pair must be strictly
   ascending, inside [2^map_size_log2], and name a real entry, or the
   flat top-rated table of the restore path would fault. *)
let test_rejects_inconsistent_payload () =
  let ck = some_checkpoint () in
  let map_len = 1 lsl ck.id.map_size_log2 in
  let reencoded label (ck' : Fuzz.Checkpoint.t) =
    expect_error label
      (Fuzz.Checkpoint.of_string (Fuzz.Checkpoint.to_string ck'))
  in
  check_bool "snapshot has entries and top-rated slots" true
    (Array.length ck.entries > 0 && Array.length ck.top_rated > 1);
  (* a format-v2 file's entry sets are checked before they are dropped *)
  let v2_entry0 label a =
    expect_error label
      (Fuzz.Checkpoint.of_string
         (v2_of ck ~set:(fun k -> if k = 0 then a else [||])))
  in
  v2_entry0 "v2 entry index at the map size" [| 1; map_len |];
  v2_entry0 "v2 entry index set not ascending" [| 5; 3 |];
  v2_entry0 "v2 entry index set with a repeat" [| 3; 3 |];
  let with_top_rated f = { ck with top_rated = f (Array.copy ck.top_rated) } in
  reencoded "top-rated index at the map size"
    (with_top_rated (fun a ->
         let n = Array.length a in
         a.(n - 1) <- (map_len, snd a.(n - 1));
         a));
  reencoded "top-rated index negative"
    (with_top_rated (fun a ->
         a.(0) <- (-1, snd a.(0));
         a));
  reencoded "top-rated indices out of order"
    (with_top_rated (fun a ->
         let t = a.(0) in
         a.(0) <- a.(1);
         a.(1) <- t;
         a));
  reencoded "top-rated dangling entry id"
    (with_top_rated (fun a ->
         a.(0) <- (fst a.(0), ck.next_entry_id + 7);
         a));
  let n = Array.length ck.entries in
  reencoded "queue cursor past the queue"
    { ck with progress = { ck.progress with cycle_len = n + 1; next_qi = 1 } };
  reencoded "queue cursor past its cycle"
    { ck with progress = { ck.progress with cycle_len = n; next_qi = n + 1 } };
  (* the unmodified snapshot still decodes *)
  match Fuzz.Checkpoint.of_string (Fuzz.Checkpoint.to_string ck) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("pristine snapshot rejected: " ^ e)

(* Format v1 stored every index as an int64; this build reads only v2
   and v3, and says so. *)
let test_rejects_v1 () =
  let s = Fuzz.Checkpoint.to_string (some_checkpoint ()) in
  let vpos = String.length "pathfuzz-checkpoint/v" in
  check Alcotest.char "this build writes v3" '3' s.[vpos];
  let v1 = Bytes.of_string s in
  Bytes.set v1 vpos '1';
  match Fuzz.Checkpoint.of_string (Bytes.to_string v1) with
  | Ok _ -> Alcotest.fail "v1 snapshot accepted"
  | Error msg ->
      check_bool
        (Printf.sprintf "diagnostic names the version (%s)" msg)
        true
        (String.starts_with ~prefix:"unsupported checkpoint format version \"v1\""
           msg)

(* A format-v2 file reads as the v3 snapshot it carries: each entry's
   set (here the slots the entry holds, a subset of a real set) is
   checked and dropped. *)
let test_reads_v2 () =
  let ck = some_checkpoint () in
  let held k =
    let id = ck.entries.(k).e_id in
    Array.of_list
      (List.filter_map
         (fun (i, eid) -> if eid = id then Some i else None)
         (Array.to_list ck.top_rated))
  in
  match Fuzz.Checkpoint.of_string (v2_of ck ~set:held) with
  | Error e -> Alcotest.fail ("v2 snapshot rejected: " ^ e)
  | Ok ck2 ->
      check Alcotest.string "v2 decodes to the v3 snapshot"
        (Fuzz.Checkpoint.to_string ck)
        (Fuzz.Checkpoint.to_string ck2)

let test_compat_check () =
  let ck = some_checkpoint () in
  (match Fuzz.Checkpoint.check_compat ~expected:ck.id ck with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("identical config rejected: " ^ e));
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (match
     Fuzz.Checkpoint.check_compat
       ~expected:{ ck.id with rng_seed = ck.id.rng_seed + 1 }
       ck
   with
  | Ok () -> Alcotest.fail "seed mismatch accepted"
  | Error e ->
      check_bool "diagnostic names the field" true (contains e "seed"));
  match
    Fuzz.Checkpoint.check_compat
      ~expected:{ ck.id with subject = "other"; cmplog = not ck.id.cmplog }
      ck
  with
  | Ok () -> Alcotest.fail "multi-field mismatch accepted"
  | Error e ->
      check_bool "diagnostic lists every mismatch" true
        (contains e "subject" && contains e "cmplog")

let test_file_io () =
  let ck = some_checkpoint () in
  let path = Filename.temp_file "pathfuzz-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let bytes_written = Fuzz.Checkpoint.write_file ~path ck in
      check Alcotest.int "write_file reports the serialized size"
        (String.length (Fuzz.Checkpoint.to_string ck))
        bytes_written;
      (match Fuzz.Checkpoint.read_file path with
      | Error e -> Alcotest.fail ("read back failed: " ^ e)
      | Ok ck2 ->
          check Alcotest.string "file round trip is byte-identical"
            (Fuzz.Checkpoint.to_string ck)
            (Fuzz.Checkpoint.to_string ck2));
      check_bool "no .tmp residue left behind" false
        (Sys.file_exists (path ^ ".tmp")));
  match Fuzz.Checkpoint.read_file "/nonexistent/pathfuzz.ckpt" with
  | Ok _ -> Alcotest.fail "read of a missing file succeeded"
  | Error msg -> check_bool "missing file is a clean Error" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Steady state with a live sink                                       *)
(* ------------------------------------------------------------------ *)

(* Periodic checkpointing must not leak allocation into the mutator's
   steady state: same bound as the shard-loop allocation guarantee, with
   a sink capturing real snapshots at every barrier. *)
let test_allocation_with_checkpointing () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let obs = Obs.Observer.create ~clock:(fun () -> 0.) () in
  let saved = ref 0 in
  let sink =
    {
      Fuzz.Checkpoint.every = 1_024;
      subject = "cflow";
      fuzzer = "afl";
      save = (fun (_ : Fuzz.Checkpoint.t) -> incr saved);
    }
  in
  let cfg =
    {
      Fuzz.Shard.base =
        { Fuzz.Campaign.default_config with budget = 6_000; rng_seed = 3 };
      shards = 2;
      sync_interval = 512;
    }
  in
  let r = Fuzz.Shard.run ~obs ~checkpoint:sink cfg prog ~seeds:s.seeds in
  check_bool "snapshots were captured" true (!saved >= 2);
  check_bool "campaign generated candidates" true (r.campaign.havocs > 1_000);
  let per_cand =
    r.campaign.mut_minor_words /. float_of_int r.campaign.havocs
  in
  check_bool
    (Printf.sprintf
       "mutator minor words per candidate bounded with sink active (got %.1f)"
       per_cand)
    true
    (per_cand >= 0. && per_cand < 20.)

let suite =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "rng stream pinned" `Quick test_rng_pins;
        Alcotest.test_case "rng state round trip" `Quick
          test_rng_state_roundtrip;
        Contract.claim "sequential resume byte-identical" Contract.easy_bug;
        Contract.claim "sharded resume byte-identical" Contract.easy_bug;
        Alcotest.test_case "serialization round trip" `Quick test_roundtrip;
        Contract.claim "sharded pathafl resume at map 2^18"
          [ Contract.wide_map ];
        Alcotest.test_case "map 2^18 top-rated slots round-trip and resume"
          `Quick test_wide_map_slots;
        Alcotest.test_case "damaged snapshots rejected" `Quick
          test_rejects_damage;
        Alcotest.test_case "inconsistent payloads rejected" `Quick
          test_rejects_inconsistent_payload;
        Alcotest.test_case "v1 snapshots rejected" `Quick test_rejects_v1;
        Alcotest.test_case "v2 snapshots read without their sets" `Quick
          test_reads_v2;
        Alcotest.test_case "config compatibility check" `Quick
          test_compat_check;
        Alcotest.test_case "atomic file round trip" `Quick test_file_io;
        Alcotest.test_case "steady-state allocation with sink" `Quick
          test_allocation_with_checkpointing;
      ] );
  ]
