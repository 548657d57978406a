(* Fuzzer hot-path guarantees: (1) the pooled scratch-buffer havoc engine
   is byte-identical to the historical string-round-trip engine kept in
   [Mutator_ref] — same children AND the same number of RNG draws, which
   is what makes whole campaigns byte-identical; (2) the mutation layer,
   the campaign loop and cmplog campaigns stay allocation-lean in
   steady state. *)

open Alcotest

let check_bool = check Alcotest.bool

(* --- differential: scratch havoc vs the reference engine --- *)

let diff_inputs =
  [
    "";
    "A";
    "hello world";
    "width=80;height=24;";
    "12345 67890 0";
    String.make 64 '\x00';
    String.init 40 (fun i -> Char.chr (i * 7 land 255));
    (* contains LE encodings of 65 (1-byte) and 12345 (2-byte) *)
    "\x41\x00\x00\x00 magic \x39\x30";
    String.make Fuzz.Mutator.max_len 'z';
    String.make (Fuzz.Mutator.max_len - 3) 'q';
    String.init 200 (fun i -> Char.chr (i land 255));
    "neg -5 and 305419896 end";
  ]

let diff_cmps =
  [
    [];
    [ { Fuzz.Mutator.observed = 65; wanted = 90 } ];
    [
      { Fuzz.Mutator.observed = 12345; wanted = 513 };
      { observed = 305419896; wanted = 1 };
      { observed = 80; wanted = -5 };
    ];
    [
      { Fuzz.Mutator.observed = 0; wanted = 255 };
      { observed = 122; wanted = 0 };
      { observed = 7; wanted = 1 lsl 30 };
      { observed = 1 lsl 20; wanted = 42 };
    ];
  ]

let diff_splices =
  [ None; Some "xy"; Some (String.init 300 (fun i -> Char.chr (i * 3 land 255))) ]

(* Every (input x cmps x splice x seed) case chains three havocs — children
   feed back as inputs, exercising transiently-over-max_len lengths — and
   then compares one extra draw from each stream, pinning that both engines
   consumed exactly the same number of RNG draws. One scratch is reused
   across all cases, as a campaign does. *)
let test_differential () =
  let sc = Fuzz.Mutator.create_scratch () in
  let cases = ref 0 in
  List.iteri
    (fun ii input ->
      List.iteri
        (fun ci cmps ->
          let cmps_arr = Array.of_list cmps in
          List.iteri
            (fun si splice_with ->
              for seed = 1 to 10 do
                incr cases;
                let r_ref = Fuzz.Rng.create (seed * 7919) in
                let r_new = Fuzz.Rng.create (seed * 7919) in
                let s_ref = ref input and s_new = ref input in
                for round = 1 to 3 do
                  s_ref := Mutator_ref.havoc ~cmps ?splice_with r_ref !s_ref;
                  Fuzz.Mutator.havoc_in_place sc ~cmps:cmps_arr ?splice_with
                    r_new !s_new;
                  s_new := Bytes.sub_string sc.buf 0 sc.len;
                  if !s_ref <> !s_new then
                    failf
                      "child mismatch: input %d, cmps %d, splice %d, seed %d, \
                       round %d (ref %d bytes, scratch %d bytes)"
                      ii ci si seed round (String.length !s_ref)
                      (String.length !s_new)
                done;
                check Alcotest.int "rng draw-count parity"
                  (Fuzz.Rng.int r_ref 1_000_003)
                  (Fuzz.Rng.int r_new 1_000_003)
              done)
            diff_splices)
        diff_cmps)
    diff_inputs;
  check_bool ">= 1000 differential cases" true (!cases >= 1000)

(* --- steady-state allocation: the mutation engine alone --- *)

let test_mutator_allocation () =
  let sc = Fuzz.Mutator.create_scratch () in
  let rng = Fuzz.Rng.create 42 in
  let input = String.init 256 (fun i -> Char.chr (i land 255)) in
  let cmps = [| { Fuzz.Mutator.observed = 65; wanted = 90 } |] in
  let one () =
    Fuzz.Mutator.havoc_in_place sc ~cmps ~splice_with:"peer data" rng input;
    ignore (Bytes.sub_string sc.buf 0 sc.len)
  in
  for _ = 1 to 64 do
    one ()
  done;
  let n = 2048 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    one ()
  done;
  let per_child = (Gc.minor_words () -. w0) /. float_of_int n in
  (* each child is materialised as a string, as a retained child is; a
     256-byte input yields children of at most ~320 bytes (insert adds
     <= 8 bytes per op, stacks are <= 8 deep), i.e. <= ~41 words for the
     one child string the engine is allowed to allocate *)
  check_bool
    (Printf.sprintf "mutator minor words per child bounded (got %.1f)"
       per_child)
    true (per_child < 96.)

(* --- steady-state allocation: the full campaign loop --- *)

let test_campaign_allocation () =
  (* The observer clock brackets [Mutator.havoc_in_place] in the real
     loop; a null clock keeps the measurement allocation-free itself. The
     old string-round-trip engine measured 150-310 minor words per
     candidate on this path; the in-place engine allocates nothing per
     candidate (children execute straight out of the scratch buffer and
     are only materialised on retention, outside this bracket). *)
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config =
    { Fuzz.Campaign.default_config with budget = 6_000; rng_seed = 3 }
  in
  let obs = Obs.Observer.create ~clock:(fun () -> 0.) () in
  let r = Fuzz.Campaign.run ~obs ~config prog ~seeds:s.seeds in
  check_bool "campaign generated candidates" true (r.havocs > 1_000);
  let per_cand = r.mut_minor_words /. float_of_int r.havocs in
  check_bool
    (Printf.sprintf "campaign minor words per candidate bounded (got %.1f)"
       per_cand)
    true
    (per_cand >= 0. && per_cand < 20.)

(* --- steady-state allocation: cmplog campaigns --- *)

(* Comparison operands are captured on calibration runs only, so a
   cmplog campaign's bulk candidates pay one flag test per comparison.
   Capturing on every execution (a dedupe scan plus a closure per
   executed comparison) measured ~760 minor words per exec here under
   path; path and edge both measure ~19 now. The sharded loop is held to
   the same bound: two shards on one worker, so every lane runs on the
   calling domain and [Gc.minor_words] sees all of its allocation (~21-26
   words per exec, merge barriers and planning included). A warm-up run
   keeps artifact compilation out of the measurement. *)
let test_cmplog_campaign_allocation () =
  let s = Subjects.Registry.find_exn "sqlite3" in
  let prog = Subjects.Subject.compile_fresh s in
  let plans = Pathcov.Ball_larus.of_program prog in
  let run ~sharded (config : Fuzz.Campaign.config) =
    if sharded then
      (Fuzz.Shard.run ~plans ~workers:1
         { Fuzz.Shard.base = config; shards = 2;
           sync_interval = Fuzz.Shard.default_sync_interval }
         prog ~seeds:s.seeds)
        .campaign
    else Fuzz.Campaign.run ~plans ~config prog ~seeds:s.seeds
  in
  List.iter
    (fun ((mode, engine), sharded) ->
      let config =
        {
          Fuzz.Campaign.default_config with
          mode;
          budget = 20_000;
          rng_seed = 3;
          cmplog = true;
          engine;
        }
      in
      ignore (run ~sharded { config with budget = 500 });
      let w0 = Gc.minor_words () in
      let r = run ~sharded config in
      let per_exec = (Gc.minor_words () -. w0) /. float_of_int r.execs in
      check_bool
        (Printf.sprintf
           "%s %s%s cmplog campaign minor words per exec bounded (got %.1f)"
           (Pathcov.Feedback.mode_name mode)
           (Fuzz.Tracer.engine_name engine)
           (if sharded then " sharded" else "")
           per_exec)
        true (per_exec < 32.))
    (List.concat_map
       (fun cell -> [ (cell, false); (cell, true) ])
       (List.concat_map
          (fun mode -> [ (mode, Fuzz.Tracer.Fused); (mode, Fuzz.Tracer.Native) ])
          [ Pathcov.Feedback.Path; Pathcov.Feedback.Edge ]))

(* The sharded capture path under retention-heavy feedback: pathafl on
   sqlite3 keeps thousands of entries, so most of the allocation is
   captures (the input, its novelty delta and claim candidates) and the
   entries the barrier admits. Deltas and candidates are packed, never a
   word per index, and no capture keeps a set of every index its run
   touched; a lane's undo log and candidate scratch grow to the largest
   journal once. Two shards on one worker, so [Gc.minor_words] sees
   every lane; the 500-exec warm-up keeps artifact compilation out.

   The queue that run leaves holds no index words at all: each entry
   reaches only its own record and its input string. *)
let test_pathafl_shard_allocation () =
  let s = Subjects.Registry.find_exn "sqlite3" in
  let prog = Subjects.Subject.compile_fresh s in
  let run (config : Fuzz.Campaign.config) =
    (Fuzz.Shard.run ~workers:1
       { Fuzz.Shard.base = config; shards = 2;
         sync_interval = Fuzz.Shard.default_sync_interval }
       prog ~seeds:s.seeds)
      .campaign
  in
  List.iter
    (fun engine ->
      let config =
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Pathafl;
          budget = 20_000;
          rng_seed = 3;
          engine;
        }
      in
      ignore (run { config with budget = 500 });
      let w0 = Gc.minor_words () in
      let r = run config in
      let per_exec = (Gc.minor_words () -. w0) /. float_of_int r.execs in
      check_bool
        (Printf.sprintf
           "pathafl %s sharded minor words per exec bounded (got %.1f)"
           (Fuzz.Tracer.engine_name engine) per_exec)
        true (per_exec < 66.);
      let reached = ref 0 and own = ref 0 in
      Fuzz.Corpus.iter
        (fun e ->
          let words v = Obj.reachable_words (Obj.repr v) in
          reached := !reached + words e;
          own := !own + 1 + Obj.size (Obj.repr e) + words e.data)
        r.corpus;
      let n = float_of_int (Fuzz.Corpus.size r.corpus) in
      check_bool
        (Printf.sprintf
           "pathafl %s queue entries reach only record and input (%.1f words \
            per entry, %.1f of them their own)"
           (Fuzz.Tracer.engine_name engine)
           (float_of_int !reached /. n) (float_of_int !own /. n))
        true
        (Fuzz.Corpus.size r.corpus > 1_000 && !reached <= !own))
    [ Fuzz.Tracer.Fused; Fuzz.Tracer.Native ]

(* --- steady-state allocation: retention under pathafl --- *)

(* Words a closure allocates, minor and major (large arrays skip the
   minor heap, so minor words alone would miss them). *)
let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* Replaying a pathafl campaign's queue into a fresh campaign retains
   most of it, so nearly every evaluation takes the retention path: the
   entry itself and the top-rated claims straight from the trace
   journal. The subject's own allocations are measured by executing the
   same inputs again and subtracted. Per retained entry the rest may
   allocate the input string and a few fixed-size records — nothing per
   index: no sort, no index set. *)
let test_retention_allocation () =
  let s = Subjects.Registry.find_exn "sqlite3" in
  let prog = Subjects.Subject.compile_fresh s in
  let config =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Pathafl;
      budget = 4_000;
      rng_seed = 3;
    }
  in
  let queue = Fuzz.Campaign.queue_inputs (Fuzz.Campaign.run ~config prog ~seeds:s.seeds) in
  let st = Fuzz.Campaign.make_state ~config prog in
  (* warm-up: the first retentions grow the journal scratch, the queue
     array and the top-rated table *)
  let warm, steady = List.partition (fun q -> Hashtbl.hash q land 1 = 0) queue in
  List.iter (Fuzz.Campaign.process st ~depth:1) warm;
  let c = st.obs.counters in
  let r0 = c.retained in
  let data = ref 0 in
  let words =
    allocated_words (fun () ->
        List.iter (Fuzz.Campaign.process st ~depth:1) steady)
  in
  let vm_words =
    allocated_words (fun () ->
        List.iter (fun q -> ignore (Fuzz.Campaign.execute st q)) steady)
  in
  let retained = c.retained - r0 in
  for i = Fuzz.Corpus.size st.corpus - retained to Fuzz.Corpus.size st.corpus - 1 do
    data := !data + Obj.reachable_words (Obj.repr (Fuzz.Corpus.get st.corpus i).data)
  done;
  check_bool "steady phase retained entries" true (retained > 200);
  let per_entry = (words -. vm_words) /. float_of_int retained in
  let data_words = float_of_int !data /. float_of_int retained in
  (* the input string's heap words; entry, event and headers: a few
     dozen words. A packed set would add a quarter word per index, an
     [int array] set a word per index. *)
  let bound = 64. +. data_words in
  check_bool
    (Printf.sprintf "words per retained entry bounded (got %.1f, bound %.1f)"
       per_entry bound)
    true (per_entry < bound)

(* --- per-campaign fixed cost: one top-rated table --- *)

(* Words allocated straight into the major heap (blocks too large for
   the minor heap) while [f] runs. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let _, promoted1, major1 = Gc.counters () in
  (r, major1 -. major0 -. (promoted1 -. promoted0))

(* A short campaign's large blocks are its maps and one top-rated table
   sized to the map. Growing the table through doublings from 1024
   slots, as the first claims used to, allocated another half table or
   more on top (131k words here against 99k). *)
let test_campaign_fixed_allocation () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config =
    {
      Fuzz.Campaign.default_config with
      mode = Pathcov.Feedback.Path;
      budget = 1_400;
      rng_seed = 3;
    }
  in
  ignore (Fuzz.Campaign.run ~config prog ~seeds:s.seeds);
  let r, words =
    direct_major_words (fun () -> Fuzz.Campaign.run ~config prog ~seeds:s.seeds)
  in
  check_bool "campaign retained entries" true (Fuzz.Corpus.size r.corpus > 10);
  let slots = float_of_int (1 lsl config.map_size_log2) in
  (* one table word per slot; five byte maps' worth of other buffers *)
  let bound = slots +. (5. *. slots /. 8.) in
  check_bool
    (Printf.sprintf "direct major words per campaign bounded (got %.0f, bound %.0f)"
       words bound)
    true (words < bound)

(* --- indexed corpus invariants --- *)

let test_corpus_indexing () =
  let c = Fuzz.Corpus.create () in
  for i = 0 to 40 do
    let e =
      Fuzz.Corpus.add c
        ~data:(String.make (1 + (i mod 5)) 'a')
        ~indices:[| i; i + 100 |]
        ~exec_blocks:(1 + i) ~depth:0 ~found_at:i
    in
    Fuzz.Corpus.claim_top_rated c e
  done;
  check Alcotest.int "size" 41 (Fuzz.Corpus.size c);
  List.iteri
    (fun i (e : Fuzz.Corpus.entry) ->
      check Alcotest.int "get agrees with discovery order" e.id
        (Fuzz.Corpus.get c i).id)
    (Fuzz.Corpus.to_list c);
  let seen = ref 0 in
  Fuzz.Corpus.iter (fun _ -> incr seen) c;
  check Alcotest.int "iter visits all" 41 !seen;
  let arr = Array.map fst (Fuzz.Corpus.top_rated_pairs c) in
  check Alcotest.int "covered union" 82 (Array.length arr);
  Array.iteri
    (fun i v -> if i > 0 then check_bool "ascending" true (arr.(i - 1) < v))
    arr;
  check_bool "a claim consumes the staged indices" true
    (match Fuzz.Corpus.claim_top_rated c (Fuzz.Corpus.get c 40) with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "a negative slot is refused" true
    (match Fuzz.Corpus.claim_slots c (Fuzz.Corpus.get c 40) [| 3; -1 |] ~len:2 with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "out-of-range get raises" true
    (match Fuzz.Corpus.get c 41 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    ( "hotpath",
      [
        test_case "scratch havoc matches reference engine" `Quick
          test_differential;
        test_case "indexed corpus invariants" `Quick test_corpus_indexing;
        test_case "mutator steady-state allocation" `Quick
          test_mutator_allocation;
        test_case "campaign steady-state allocation" `Quick
          test_campaign_allocation;
        test_case "cmplog campaign steady-state allocation" `Quick
          test_cmplog_campaign_allocation;
        test_case "pathafl sharded capture allocation" `Quick
          test_pathafl_shard_allocation;
        test_case "retention steady-state allocation" `Quick
          test_retention_allocation;
        test_case "campaign allocates one top-rated table" `Quick
          test_campaign_fixed_allocation;
      ] );
  ]

