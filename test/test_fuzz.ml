(** Fuzzer component tests: RNG, mutators, corpus, triage, campaign and
    the strategy drivers. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Fuzz.Rng.create 42 and b = Fuzz.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Fuzz.Rng.int a 1000) (Fuzz.Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Fuzz.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Fuzz.Rng.int rng 17 in
    check Alcotest.bool "in bounds" true (v >= 0 && v < 17);
    let r = Fuzz.Rng.range rng 3 9 in
    check Alcotest.bool "range" true (r >= 3 && r <= 9)
  done

let test_rng_chance () =
  let rng = Fuzz.Rng.create 1 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Fuzz.Rng.chance rng ~num:1 ~den:4 then incr hits
  done;
  check Alcotest.bool "roughly a quarter" true (!hits > 2000 && !hits < 3000)

let test_rng_split_independent () =
  let rng = Fuzz.Rng.create 5 in
  let c1 = Fuzz.Rng.split rng in
  let c2 = Fuzz.Rng.split rng in
  check Alcotest.bool "children differ" true
    (List.init 10 (fun _ -> Fuzz.Rng.int c1 1000)
    <> List.init 10 (fun _ -> Fuzz.Rng.int c2 1000))

(* --- mutators --- *)

(* One havoc child as a string, through a throwaway scratch. *)
let havoc ?cmps ?splice_with rng s =
  let sc = Fuzz.Mutator.create_scratch () in
  Fuzz.Mutator.havoc_in_place sc ?cmps ?splice_with rng s;
  Bytes.sub_string sc.buf 0 sc.len

let test_havoc_bounds () =
  let rng = Fuzz.Rng.create 3 in
  for _ = 1 to 500 do
    let child = havoc rng (String.make 10 'a') in
    check Alcotest.bool "non-empty" true (String.length child > 0);
    check Alcotest.bool "bounded" true (String.length child <= Fuzz.Mutator.max_len)
  done

let test_havoc_deterministic () =
  let run seed =
    let rng = Fuzz.Rng.create seed in
    List.init 20 (fun _ -> havoc rng "hello world")
  in
  check (Alcotest.list Alcotest.string) "same seed same children" (run 9) (run 9);
  check Alcotest.bool "different seed different children" true (run 9 <> run 10)

let test_havoc_empty_input () =
  let rng = Fuzz.Rng.create 4 in
  let child = havoc rng "" in
  check Alcotest.bool "synthesises a byte" true (String.length child >= 1)

let test_i2s_le_substitution () =
  let rng = Fuzz.Rng.create 1 in
  (* 1-byte encoding *)
  let s = Fuzz.Mutator.i2s_apply rng { observed = 65; wanted = 90 } "xAx" in
  check Alcotest.string "byte replaced" "xZx" s;
  (* 2-byte little-endian *)
  let input = "ab\x39\x30cd" (* 0x3039 = 12345 *) in
  let s2 = Fuzz.Mutator.i2s_apply rng { observed = 12345; wanted = 513 } input in
  check Alcotest.string "u16 replaced" "ab\x01\x02cd" s2

let test_i2s_ascii_substitution () =
  let rng = Fuzz.Rng.create 1 in
  let candidates =
    List.init 20 (fun _ ->
        Fuzz.Mutator.i2s_apply rng { observed = 80; wanted = 9999 } "width=80;")
  in
  check Alcotest.bool "some rewrite mentions 9999" true
    (List.exists (fun s -> s = "width=9999;" || s <> "width=80;") candidates)

let test_i2s_negative_wanted () =
  let rng = Fuzz.Rng.create 1 in
  (* ASCII: a comparison against a negative constant must emit the signed
     decimal form, not clamp to zero ("width=80;" has exactly one
     candidate rewrite, so the result is deterministic) *)
  check Alcotest.string "signed decimal" "width=-5;"
    (Fuzz.Mutator.i2s_apply rng { observed = 80; wanted = -5 } "width=80;");
  (* little-endian: negative wanted truncates to two's-complement bytes *)
  check Alcotest.string "two's-complement byte" "x\254x"
    (Fuzz.Mutator.i2s_apply rng { observed = 65; wanted = -2 } "xAx")

let test_i2s_no_match () =
  let rng = Fuzz.Rng.create 1 in
  let s = Fuzz.Mutator.i2s_apply rng { observed = 123456; wanted = 1 } "zz" in
  check Alcotest.string "unchanged" "zz" s

(* --- corpus --- *)

let mk_entry corpus data indices blocks =
  let e =
    Fuzz.Corpus.add corpus ~data ~indices:(Array.of_list indices)
      ~exec_blocks:blocks ~depth:0 ~found_at:0
  in
  Fuzz.Corpus.claim_top_rated corpus e;
  e

let test_favored_covers_union () =
  let c = Fuzz.Corpus.create () in
  (* entries keep no index sets: the union is rebuilt from the indices
     each one was added with *)
  let added = [ ("a", [ 1; 2; 3 ], 10); ("b", [ 3; 4 ], 5); ("c", [ 1; 2; 3; 4 ], 100) ] in
  List.iter (fun (data, idxs, blocks) -> ignore (mk_entry c data idxs blocks)) added;
  let favored = Fuzz.Corpus.favored_subset c in
  let covered =
    List.sort_uniq compare
      (List.concat_map
         (fun (e : Fuzz.Corpus.entry) ->
           List.concat_map
             (fun (data, idxs, _) -> if data = e.data then idxs else [])
             added)
         favored)
  in
  check (Alcotest.list Alcotest.int) "union preserved" [ 1; 2; 3; 4 ] covered;
  (* expensive entry "c" is redundant: a+b already cover everything cheaper *)
  check Alcotest.bool "redundant entry trimmed" true
    (not (List.exists (fun (e : Fuzz.Corpus.entry) -> e.data = "c") favored))

let test_fav_factor_prefers_cheap () =
  let c = Fuzz.Corpus.create () in
  ignore (mk_entry c "slow" [ 7 ] 1000);
  ignore (mk_entry c "fast" [ 7 ] 1);
  let favored = Fuzz.Corpus.favored_subset c in
  check Alcotest.int "single favored" 1 (List.length favored);
  check Alcotest.string "the fast one" "fast" (List.hd favored).data

(* --- triage --- *)

let crash_on src input =
  match (Vm.Interp.run (Minic.Lower.compile src) ~input).status with
  | Vm.Interp.Crashed c -> c
  | Finished _ | Hung -> fail "expected crash"

let test_triage_dedup () =
  let t = Fuzz.Triage.create () in
  let c1 = crash_on "fn main() { bug(1); }" "" in
  Fuzz.Triage.record_crash t ~crash:c1 ~input:"a" ~at_exec:1 ~coverage_novel:true;
  Fuzz.Triage.record_crash t ~crash:c1 ~input:"b" ~at_exec:2 ~coverage_novel:false;
  check Alcotest.int "total" 2 t.total_crashes;
  check Alcotest.int "unique stacks" 1 (Fuzz.Triage.unique_crashes t);
  check Alcotest.int "unique bugs" 1 (Fuzz.Triage.unique_bugs t);
  check Alcotest.int "afl-unique" 1 (Fuzz.Triage.afl_unique_crashes t);
  check
    (Alcotest.option Alcotest.string)
    "witness is first" (Some "a")
    (Fuzz.Triage.bug_witness t (Vm.Crash.Id 1))

let test_triage_merge () =
  let a = Fuzz.Triage.create () and b = Fuzz.Triage.create () in
  Fuzz.Triage.record_crash a
    ~crash:(crash_on "fn main() { bug(1); }" "")
    ~input:"x" ~at_exec:1 ~coverage_novel:true;
  Fuzz.Triage.record_crash b
    ~crash:(crash_on "fn main() { bug(2); }" "")
    ~input:"y" ~at_exec:1 ~coverage_novel:true;
  Fuzz.Triage.merge ~into:a b;
  check Alcotest.int "merged bugs" 2 (Fuzz.Triage.unique_bugs a);
  check Alcotest.int "merged totals" 2 a.total_crashes

(* --- campaign --- *)

let run_campaign ?(budget = 3000) ?(seed = 1) ?(mode = Pathcov.Feedback.Edge) src seeds =
  let prog = Minic.Lower.compile src in
  let config =
    { Fuzz.Campaign.default_config with mode; budget; rng_seed = seed }
  in
  Fuzz.Campaign.run ~config prog ~seeds

let test_campaign_finds_easy_bug () =
  let r = run_campaign Contract.easy_bug_src [ "aa" ] in
  check Alcotest.bool "bug 5 found" true
    (List.mem (Vm.Crash.Id 5) (Fuzz.Triage.bugs r.triage))

let test_campaign_budget_respected () =
  let r = run_campaign ~budget:500 Contract.easy_bug_src [ "aa" ] in
  check Alcotest.bool "execs close to budget" true
    (r.execs >= 500 && r.execs < 600)

let test_campaign_seeds_always_retained () =
  let r = run_campaign ~budget:50 "fn main() { return in(0); }" [ "x"; "yy" ] in
  check Alcotest.bool "at least the seeds" true (Fuzz.Corpus.size r.corpus >= 1)

let test_campaign_queue_series_monotonic () =
  let r = run_campaign Contract.easy_bug_src [ "aa" ] in
  let rec mono = function
    | (x1, q1) :: ((x2, q2) :: _ as rest) ->
        x1 <= x2 && q1 <= q2 && mono rest
    | _ -> true
  in
  check Alcotest.bool "series monotonic" true (mono r.queue_series)

let test_campaign_survives_crashing_seed () =
  let r = run_campaign ~budget:200 "fn main() { bug(1); }" [ "a" ] in
  check Alcotest.bool "ran" true (r.execs > 0);
  check Alcotest.int "bug found from seed" 1 (Fuzz.Triage.unique_bugs r.triage)

let test_calibration_crash_triaged () =
  (* A queue entry whose data crashes was parked without triage (the
     synthetic-fallback scenario: retained with no clean execution). Its
     first re-execution is the cmplog calibration run, whose outcome used
     to be discarded — the crash must reach Triage with a witness. *)
  let prog =
    Minic.Lower.compile "fn main() { if (len() == 0) { return 0; } bug(9); }"
  in
  let st = Fuzz.Campaign.make_state prog in
  let e =
    Fuzz.Corpus.add st.corpus ~data:"X" ~indices:[||] ~exec_blocks:1 ~depth:0
      ~found_at:0
  in
  check Alcotest.int "nothing triaged yet" 0 (Fuzz.Triage.unique_bugs st.triage);
  ignore (Fuzz.Campaign.calibrate st e);
  check Alcotest.int "calibration crash triaged" 1
    (Fuzz.Triage.unique_bugs st.triage);
  check
    (Alcotest.option Alcotest.string)
    "witness recorded" (Some "X")
    (Fuzz.Triage.bug_witness st.triage (Vm.Crash.Id 9))

let test_calibration_crashes_counted () =
  (* Every input crashes, so the fallback entry crashes on each
     calibration run too: every execution of the campaign must show up in
     total_crashes, not only the mutated candidates. *)
  let prog = Minic.Lower.compile "fn main() { bug(3); }" in
  let config = { Fuzz.Campaign.default_config with budget = 300; rng_seed = 1 } in
  let r = Fuzz.Campaign.run ~config prog ~seeds:[] in
  check Alcotest.int "every execution crashed and was counted" r.execs
    r.triage.total_crashes;
  check Alcotest.bool "bug recorded" true
    (List.mem (Vm.Crash.Id 3) (Fuzz.Triage.bugs r.triage))

let test_campaign_max_depth () =
  (* max_depth flows from the campaign config into the VM: a recursive
     subject bounded at depth 8 crashes with a stack overflow. *)
  let prog =
    Minic.Lower.compile
      "fn f(n) { if (n == 0) { return 0; } return f(n - 1); } fn main() { \
       return f(64); }"
  in
  let config = { Fuzz.Campaign.default_config with max_depth = 8 } in
  let st = Fuzz.Campaign.make_state ~config prog in
  (match (Fuzz.Campaign.execute st "x").status with
  | Vm.Interp.Crashed { kind = Vm.Crash.Stack_overflow; _ } -> ()
  | _ -> Alcotest.fail "expected stack overflow under max_depth 8");
  let deep = { Fuzz.Campaign.default_config with max_depth = 100 } in
  let st2 = Fuzz.Campaign.make_state ~config:deep prog in
  match (Fuzz.Campaign.execute st2 "x").status with
  | Vm.Interp.Finished (Some 0) -> ()
  | _ -> Alcotest.fail "expected clean finish under max_depth 100"

let test_full_queue_preserves_virgin () =
  (* With the queue at max_queue, a novel trace must not be folded into
     the virgin map: that would mark its coverage as seen forever without
     retaining any input that reaches it. *)
  let prog =
    Minic.Lower.compile "fn main() { if (in(0) == 104) { return 1; } return 0; }"
  in
  let config = { Fuzz.Campaign.default_config with max_queue = 1 } in
  let st = Fuzz.Campaign.make_state ~config prog in
  Fuzz.Campaign.add_seed st "a";
  check Alcotest.int "queue at capacity" 1 (Fuzz.Corpus.size st.corpus);
  Fuzz.Campaign.process st ~depth:1 "h";
  check Alcotest.int "not retained over capacity" 1 (Fuzz.Corpus.size st.corpus);
  ignore (Fuzz.Campaign.execute st "h");
  check Alcotest.bool "its coverage is still virgin" true
    (Pathcov.Coverage_map.merge_into ~virgin:st.virgin st.feedback.trace
    <> Pathcov.Coverage_map.Nothing)

let test_unsettled_trace_cleared () =
  (* Runs the merge never reads (a hang) leave their trace unsettled,
     and the next run must zero it, not just rewind its journal: one
     state alternating hung and finished runs sees the same traces as
     fresh states, and the same virgin map as a state that only ran the
     finished ones. [execute] leaves its trace raw too, so it checks
     both kinds of leftover. *)
  let prog =
    Minic.Lower.compile
      "fn main() { var i = 0; if (in(0) == 104) { while (1) { i = i + 1; } } \
       if (in(1) == 105) { return 1; } while (i < in(2)) { i = i + 1; } \
       return 0; }"
  in
  let config = { Fuzz.Campaign.default_config with fuel = 4_000 } in
  let inputs = [ "ab"; "h"; "ai\010"; "hx"; "zz\003"; "h"; "ai\200"; "ab" ] in
  let trace_of (st : Fuzz.Campaign.state) =
    let tr = st.feedback.trace in
    List.map (fun i -> (i, Pathcov.Coverage_map.get tr i)) (Pathcov.Coverage_map.set_indices tr)
  in
  let st = Fuzz.Campaign.make_state ~config prog in
  let only_finished = Fuzz.Campaign.make_state ~config prog in
  let hangs = ref 0 in
  List.iter
    (fun input ->
      Fuzz.Campaign.process st ~depth:1 input;
      let out = Fuzz.Campaign.execute st input in
      let fresh = Fuzz.Campaign.make_state ~config prog in
      ignore (Fuzz.Campaign.execute fresh input);
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "trace of %S after a reused state's runs" input)
        (trace_of fresh) (trace_of st);
      match out.status with
      | Vm.Interp.Hung -> incr hangs
      | _ -> Fuzz.Campaign.process only_finished ~depth:1 input)
    inputs;
  check Alcotest.int "three hangs" 3 !hangs;
  check Alcotest.bool "virgin map as without the hangs" true
    (Pathcov.Coverage_map.equal st.virgin only_finished.virgin)

let test_cost_bound_refused () =
  (* The top-rated table packs costs into 38 bits: a fuel whose costliest
     entry could exceed that is refused before anything runs, and an
     entry past the bound is refused at admission. *)
  let prog = Minic.Lower.compile Contract.easy_bug_src in
  let max_fuel = Fuzz.Corpus.max_cost / (Fuzz.Mutator.max_len + 16) in
  let refused config =
    match Fuzz.Campaign.make_state ~config prog with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let base = Fuzz.Campaign.default_config in
  check Alcotest.bool "fuel at the bound runs" false
    (refused { base with fuel = max_fuel });
  check Alcotest.bool "fuel past the bound refused" true
    (refused { base with fuel = max_fuel + 1 });
  check Alcotest.bool "queue cap past the positions refused" true
    (refused { base with max_queue = Fuzz.Corpus.max_entries });
  let s =
    Fuzz.Strategy.spec ~engine:Fuzz.Tracer.Interp ~budget:100 ~trial_seed:1
      Fuzz.Strategy.path
  in
  (match
     Fuzz.Strategy.exec
       { s with config = { s.config with fuel = max_fuel + 1 } }
       prog ~seeds:[ "a" ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Strategy.exec ran a fuel past the bound");
  let c = Fuzz.Corpus.create () in
  (match
     Fuzz.Corpus.append c ~data:"" ~exec_blocks:(Fuzz.Corpus.max_cost / 16 + 1)
       ~depth:0 ~found_at:0
   with
  | _ -> Alcotest.fail "an entry past max_cost was admitted"
  | exception Invalid_argument _ -> ());
  let e =
    Fuzz.Corpus.append c ~data:"" ~exec_blocks:(Fuzz.Corpus.max_cost / 16)
      ~depth:0 ~found_at:0
  in
  Fuzz.Corpus.claim_slots c e [| 3 |] ~len:1;
  check
    Alcotest.(array (pair int int))
    "an entry at the bound is rated" [| (3, e.id) |]
    (Fuzz.Corpus.top_rated_pairs c)

(* --- measure & strategies --- *)

let test_edge_union_and_cull () =
  let prog = Minic.Lower.compile Contract.easy_bug_src in
  let inputs = [ "aa"; "ha"; "hi"; "aa" ] in
  let union = Fuzz.Measure.edge_union prog inputs in
  let culled = Fuzz.Measure.edge_preserving_cull prog inputs in
  check Alcotest.bool "culled is subset" true
    (List.for_all (fun i -> List.mem i inputs) culled);
  let union2 = Fuzz.Measure.edge_union prog culled in
  check Alcotest.bool "edge coverage preserved" true
    (Fuzz.Measure.Int_set.equal union union2);
  check Alcotest.bool "culled is smaller or equal" true
    (List.length culled <= List.length (List.sort_uniq compare inputs))

let test_path_preserving_cull () =
  let prog = Minic.Lower.compile Contract.easy_bug_src in
  let inputs = [ "aa"; "ha"; "hi" ] in
  let culled = Fuzz.Measure.path_preserving_cull prog inputs in
  check Alcotest.bool "non-empty" true (culled <> [])

let subject_src = Subjects.Motivating.subject.Subjects.Subject.source

let test_strategy_plain_runs () =
  let prog = Minic.Lower.compile subject_src in
  let r =
    Fuzz.Strategy.run ~budget:2000 ~trial_seed:1 Fuzz.Strategy.pcguard prog
      ~seeds:[ "hello" ]
  in
  check Alcotest.bool "executed" true (r.execs >= 2000);
  check Alcotest.string "name" "pcguard" r.fuzzer

let test_strategy_cull_rounds () =
  let prog = Minic.Lower.compile subject_src in
  let r =
    Fuzz.Strategy.run ~budget:2000 ~trial_seed:1
      (Fuzz.Strategy.cull ~rounds:4 ())
      prog ~seeds:[ "hello" ]
  in
  (* four rounds of ~500 each *)
  check Alcotest.bool "budget spread over rounds" true
    (r.execs >= 2000 && r.execs <= 2600)

let test_strategy_opp_phases () =
  let prog = Minic.Lower.compile subject_src in
  let r =
    Fuzz.Strategy.run ~budget:2000 ~trial_seed:1 Fuzz.Strategy.opp prog
      ~seeds:[ "hello" ]
  in
  check Alcotest.bool "both phases ran" true (r.execs >= 2000)

let test_strategy_deterministic () =
  let prog = Minic.Lower.compile subject_src in
  let run () =
    let r =
      Fuzz.Strategy.run ~budget:1500 ~trial_seed:7
        (Fuzz.Strategy.cull_r ~rounds:3 ())
        prog ~seeds:[ "hello" ]
    in
    (r.execs, r.queue_size, Fuzz.Triage.unique_bugs r.triage)
  in
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "identical runs" (run ()) (run ())

(* --- stats --- *)

let test_stats_median () =
  check (Alcotest.float 1e-9) "odd" 3. (Fuzz.Stats.median_int [ 1; 5; 3 ]);
  check (Alcotest.float 1e-9) "even" 2.5 (Fuzz.Stats.median_int [ 1; 2; 3; 4 ]);
  check Alcotest.bool "empty is nan" true (Float.is_nan (Fuzz.Stats.median_int []))

let test_stats_median_ignores_nan () =
  (* nan entries used to sort arbitrarily under polymorphic compare and
     could be picked as the median; they are filtered instead *)
  check (Alcotest.float 1e-9) "nan leading" 2.
    (Fuzz.Stats.median_float [ nan; 1.; 2.; 3. ]);
  check (Alcotest.float 1e-9) "nan in the middle" 1.5
    (Fuzz.Stats.median_float [ 1.; nan; 2. ]);
  check Alcotest.bool "all nan is nan" true
    (Float.is_nan (Fuzz.Stats.median_float [ nan; nan ]))

let test_stats_geomean () =
  check (Alcotest.float 1e-9) "geomean" 2. (Fuzz.Stats.geomean [ 1.; 4. ]);
  check (Alcotest.float 1e-6) "triple" 2.2894284851 (Fuzz.Stats.geomean [ 1.; 2.; 6. ])

let test_stats_venn () =
  let s l = Fuzz.Stats.bug_set (List.map (fun i -> Vm.Crash.Id i) l) in
  let a = s [ 1; 2; 3 ] and b = s [ 2; 3; 4 ] and c = s [ 3; 4; 5 ] in
  check Alcotest.int "inter" 2 (Fuzz.Stats.inter a b);
  check Alcotest.int "diff" 1 (Fuzz.Stats.diff a b);
  let only_a, only_b, both = Fuzz.Stats.venn2 a b in
  check (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int) "venn2" (1, 1, 2)
    (only_a, only_b, both);
  let oa, ob, oc, ab, ac, bc, abc = Fuzz.Stats.venn3 a b c in
  check Alcotest.int "only a" 1 oa;
  check Alcotest.int "only b" 0 ob;
  check Alcotest.int "only c" 1 oc;
  check Alcotest.int "ab" 1 ab;
  check Alcotest.int "ac" 0 ac;
  check Alcotest.int "bc" 1 bc;
  check Alcotest.int "abc" 1 abc

let prop_havoc_valid =
  QCheck.Test.make ~count:300 ~long_factor:10 ~name:"havoc outputs stay in bounds"
    QCheck.(pair small_int (string_of_size Gen.(int_range 0 100)))
    (fun (seed, input) ->
      let rng = Fuzz.Rng.create seed in
      let child =
        havoc
          ~cmps:[| { observed = 65; wanted = 66 } |]
          ~splice_with:"other input" rng input
      in
      String.length child >= 1 && String.length child <= Fuzz.Mutator.max_len)

(* The production input-to-state search (through the [i2s_apply] seam)
   against the string engine's, on inputs of 0–64 bytes with encodings
   of [observed] planted at random offsets: at the last position each
   fits, adjacent to or overlapping the previous plant, and (one case in
   eight) behind a filler that brings the input within 20 bytes of
   [max_len], so a lengthening decimal hits the cap. [observed] is drawn
   around the width edges and negative. Equal children and one equal
   draw after them pin the single candidate draw. *)
let prop_i2s_matches_reference =
  let open QCheck.Gen in
  let edges = [ 0; 1; 9; 10; 255; 256; 65535; 65536; 0xffff_ffff; 0x1_0000_0000;
                -1; -256; min_int; max_int ] in
  let observed =
    frequency
      [ (3, oneofl edges); (2, int_range 0 70_000); (1, int_range (-70_000) (-1));
        (1, map (fun x -> x land 0x1_ffff_ffff) int) ]
  in
  let wanted =
    frequency
      [ (2, oneofl [ 0; -1; -5; min_int; max_int; 1 lsl 40; 99_999_999_999 ]);
        (2, int_range (-300) 70_000); (1, int) ]
  in
  let byte =
    frequency [ (2, oneofl [ '\x00'; '\x01'; '\xff'; '0'; '1'; '5'; '6'; '9' ]); (1, char) ]
  in
  (* (encoding: 0..2 = LE width 1/2/4, 3 = decimal; where: 0 = last fit,
     1 = adjacent to the previous plant, 2 = one byte into it, else a
     random offset) *)
  let plant =
    pair (int_bound 3)
      (frequency [ (2, return 0); (1, return 1); (1, return 2); (3, int_range 3 1000) ])
  in
  let case =
    map
      (fun ((seed, v, w), (base, plants, pad)) ->
        let enc = function
          | 3 -> string_of_int v
          | k -> String.init (1 lsl k) (fun i -> Char.chr ((v asr (8 * i)) land 255))
        in
        let filler =
          match pad with
          | Some j -> String.make (max 0 (Fuzz.Mutator.max_len - j - String.length base)) 'z'
          | None -> ""
        in
        let b = Bytes.of_string (filler ^ base) in
        let n = Bytes.length b in
        ignore
          (List.fold_left
            (fun prev (k, where) ->
              let e = enc k in
              let m = String.length e in
              if m > n then prev
              else
                let pos =
                  match where with
                  | 0 -> n - m
                  | 1 -> prev
                  | 2 -> max 0 (prev - 1)
                  | r -> (r * 7919 + prev) mod (n - m + 1)
                in
                let pos = min pos (n - m) in
                Bytes.blit_string e 0 b pos m;
                pos + m)
            0 plants);
        (seed, { Fuzz.Mutator.observed = v; wanted = w }, Bytes.to_string b))
      (pair (triple small_int observed wanted)
         (triple (string_size ~gen:byte (int_range 0 64)) (list_size (int_range 0 3) plant)
            (opt ~ratio:0.125 (int_range 0 20))))
  in
  QCheck.Test.make ~count:1000 ~long_factor:20
    ~name:"i2s equals the string engine"
    (QCheck.make
       ~print:(fun (seed, (p : Fuzz.Mutator.cmp_pair), s) ->
         Printf.sprintf "seed %d, observed %d, wanted %d, %d bytes %S" seed p.observed
           p.wanted (String.length s) s)
       case)
    (fun (seed, p, input) ->
      let r_ref = Fuzz.Rng.create seed and r_new = Fuzz.Rng.create seed in
      let expected = Mutator_ref.i2s_apply r_ref p input in
      Fuzz.Mutator.i2s_apply r_new p input = expected
      && Fuzz.Rng.int r_ref 1_000_003 = Fuzz.Rng.int r_new 1_000_003)

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "chance" `Quick test_rng_chance;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
      ] );
    ( "mutator",
      [
        Alcotest.test_case "havoc bounds" `Quick test_havoc_bounds;
        Alcotest.test_case "havoc deterministic" `Quick test_havoc_deterministic;
        Alcotest.test_case "havoc empty input" `Quick test_havoc_empty_input;
        Alcotest.test_case "i2s little-endian" `Quick test_i2s_le_substitution;
        Alcotest.test_case "i2s ascii" `Quick test_i2s_ascii_substitution;
        Alcotest.test_case "i2s negative wanted" `Quick test_i2s_negative_wanted;
        Alcotest.test_case "i2s no match" `Quick test_i2s_no_match;
      ] );
    ( "corpus",
      [
        Alcotest.test_case "favored covers union" `Quick test_favored_covers_union;
        Alcotest.test_case "fav factor prefers cheap" `Quick test_fav_factor_prefers_cheap;
      ] );
    ( "triage",
      [
        Alcotest.test_case "dedup" `Quick test_triage_dedup;
        Alcotest.test_case "merge" `Quick test_triage_merge;
      ] );
    ( "campaign",
      [
        Alcotest.test_case "finds easy bug" `Quick test_campaign_finds_easy_bug;
        Alcotest.test_case "budget respected" `Quick test_campaign_budget_respected;
        Contract.claim "deterministic" Contract.easy_bug;
        Alcotest.test_case "seeds retained" `Quick test_campaign_seeds_always_retained;
        Alcotest.test_case "queue series monotonic" `Quick
          test_campaign_queue_series_monotonic;
        Alcotest.test_case "survives crashing seed" `Quick
          test_campaign_survives_crashing_seed;
        Alcotest.test_case "calibration crash triaged" `Quick
          test_calibration_crash_triaged;
        Alcotest.test_case "calibration crashes counted" `Quick
          test_calibration_crashes_counted;
        Alcotest.test_case "full queue preserves virgin" `Quick
          test_full_queue_preserves_virgin;
        Alcotest.test_case "max_depth plumbed through config" `Quick
          test_campaign_max_depth;
        Alcotest.test_case "unsettled trace cleared" `Quick
          test_unsettled_trace_cleared;
        Alcotest.test_case "cost bound refused" `Quick test_cost_bound_refused;
      ] );
    ( "measure-strategy",
      [
        Alcotest.test_case "edge union and cull" `Quick test_edge_union_and_cull;
        Alcotest.test_case "path-preserving cull" `Quick test_path_preserving_cull;
        Alcotest.test_case "plain strategy" `Quick test_strategy_plain_runs;
        Alcotest.test_case "cull rounds" `Quick test_strategy_cull_rounds;
        Alcotest.test_case "opp phases" `Quick test_strategy_opp_phases;
        Alcotest.test_case "strategies deterministic" `Quick test_strategy_deterministic;
      ] );
    ( "stats",
      [
        Alcotest.test_case "median" `Quick test_stats_median;
        Alcotest.test_case "median ignores nan" `Quick test_stats_median_ignores_nan;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "venn" `Quick test_stats_venn;
      ] );
    ( "fuzz-properties",
      List.map QCheck_alcotest.to_alcotest [ prop_havoc_valid; prop_i2s_matches_reference ] );
  ]
