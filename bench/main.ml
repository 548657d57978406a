(** Benchmark + evaluation harness.

    Part 1 (Bechamel): one micro-benchmark per table/figure of the paper,
    measuring the dominant runtime cost behind that artefact (see the
    per-experiment index in DESIGN.md §3). Part 2: a matrix-scaling
    measurement (the same small matrix at 1 and N worker domains), then
    the full evaluation matrix, printing every table and figure. Scale
    knobs: PATHCOV_FAST=1, PATHCOV_BUDGET, PATHCOV_TRIALS, PATHCOV_ROUNDS,
    PATHFUZZ_JOBS (worker domains for the matrix);
    PATHCOV_SKIP_TABLES=1 runs only the micro-benchmarks. *)

open Bechamel

(* --- shared fixtures --- *)

let gdk = Subjects.Registry.find_exn "gdk"
let jq = Subjects.Registry.find_exn "jq"
let prog_gdk = Subjects.Subject.program gdk
let prog_jq = Subjects.Subject.program jq
let plans_gdk = Pathcov.Ball_larus.of_program prog_gdk
let prepared_gdk = Vm.Interp.prepare prog_gdk

(* Replay benches reuse one pooled execution context per fixture, like a
   campaign does, so they measure the steady-state hot path. *)
let replay_input mode prog prepared input =
  let fb = Pathcov.Feedback.make mode prog in
  let hooks =
    {
      Vm.Interp.no_hooks with
      h_call = fb.Pathcov.Feedback.on_call;
      h_block = fb.Pathcov.Feedback.on_block;
      h_edge = fb.Pathcov.Feedback.on_edge;
      h_ret = fb.Pathcov.Feedback.on_ret;
    }
  in
  let ctx = Vm.Interp.create_ctx ~hooks prepared in
  fun () ->
    fb.Pathcov.Feedback.reset ();
    Pathcov.Coverage_map.clear fb.trace;
    ignore (Vm.Interp.run_ctx ctx ~input);
    Pathcov.Coverage_map.classify fb.trace

let seed_gdk = List.hd gdk.seeds

let tiny_campaign mode () =
  let config =
    {
      Fuzz.Campaign.default_config with
      mode;
      budget = 400;
      rng_seed = 1;
      cmplog = true;
    }
  in
  ignore (Fuzz.Campaign.run ~plans:plans_gdk ~config prog_gdk ~seeds:gdk.seeds)

(* a queue of havoc children for culling/set-ops benches *)
let sample_queue =
  let rng = Fuzz.Rng.create 11 in
  gdk.seeds @ List.init 60 (fun _ -> Fuzz.Mutator.havoc rng seed_gdk)

let bug_sets =
  let mk offset = Fuzz.Stats.bug_set (List.init 40 (fun i -> Vm.Crash.Id (i + offset))) in
  (mk 0, mk 15, mk 30)

let tests =
  [
    (* F1: the compile-time cost of the Ball-Larus pass itself *)
    Test.make ~name:"fig1-ball-larus-pass"
      (Staged.stage (fun () -> ignore (Pathcov.Ball_larus.of_program prog_jq)));
    (* T1/T3: queue bookkeeping — favored-corpus recomputation over a
       queue whose entries claimed their top-rated slots on admission,
       as a campaign's do *)
    Test.make ~name:"table1-table3-favored-corpus"
      (Staged.stage
         (let corpus = Fuzz.Corpus.create () in
          let rng = Fuzz.Rng.create 3 in
          for i = 0 to 199 do
            let indices = Array.init 20 (fun _ -> Fuzz.Rng.int rng 4096) in
            Array.sort compare indices;
            let e =
              Fuzz.Corpus.add corpus ~data:(string_of_int i) ~indices
                ~exec_blocks:(1 + Fuzz.Rng.int rng 500)
                ~depth:0 ~found_at:i
            in
            Fuzz.Corpus.claim_top_rated corpus e
          done;
          fun () -> Fuzz.Corpus.recompute_favored corpus));
    (* T1/T3: the retention path's sort of a trace's touched indices *)
    Test.make ~name:"table1-table3-sorted-indices"
      (Staged.stage
         (let m = Pathcov.Coverage_map.create () in
          let rng = Fuzz.Rng.create 4 in
          for _ = 1 to 1000 do
            Pathcov.Coverage_map.hit m (Fuzz.Rng.int rng 65536)
          done;
          fun () -> ignore (Pathcov.Coverage_map.sorted_indices m)));
    (* T2/T6/T7/T8/T10: the campaign loop under each feedback *)
    Test.make ~name:"table2-campaign-path"
      (Staged.stage (tiny_campaign Pathcov.Feedback.Path));
    Test.make ~name:"table2-campaign-edge"
      (Staged.stage (tiny_campaign Pathcov.Feedback.Edge));
    Test.make ~name:"table7-campaign-pathafl"
      (Staged.stage (tiny_campaign Pathcov.Feedback.Pathafl));
    (* F2: queue-size sampling is free; bench the underlying exec+novelty *)
    Test.make ~name:"fig2-exec-novelty-check"
      (Staged.stage
         (let virgin = Pathcov.Coverage_map.create_virgin () in
          let replay = replay_input Pathcov.Feedback.Path prog_gdk prepared_gdk seed_gdk in
          fun () ->
            replay ();
            ignore virgin));
    (* F3: bug-set algebra *)
    Test.make ~name:"fig3-venn-setops"
      (Staged.stage (fun () ->
           let a, b, c = bug_sets in
           ignore (Fuzz.Stats.venn3 a b c)));
    (* T4: afl-showmap-style edge union over a corpus *)
    Test.make ~name:"table4-showmap-edge-union"
      (Staged.stage (fun () -> ignore (Fuzz.Measure.edge_union prog_gdk sample_queue)));
    (* T5: one seed execution under each instrumentation (the paper's
       Appendix A overhead experiment, measured precisely here) *)
    Test.make ~name:"table5-replay-pcguard"
      (Staged.stage (replay_input Pathcov.Feedback.Edge prog_gdk prepared_gdk seed_gdk));
    Test.make ~name:"table5-replay-path"
      (Staged.stage (replay_input Pathcov.Feedback.Path prog_gdk prepared_gdk seed_gdk));
    Test.make ~name:"table5-replay-uninstrumented"
      (Staged.stage
         (let ctx = Vm.Interp.create_ctx prepared_gdk in
          fun () -> ignore (Vm.Interp.run_ctx ctx ~input:seed_gdk)));
    (* T9: crash dedup — stack hashing *)
    Test.make ~name:"table9-crash-top5-hash"
      (Staged.stage
         (let witness =
            match gdk.bugs with
            | (b : Subjects.Subject.bug) :: _ -> b.witness
            | [] -> assert false
          in
          let crash =
            match Vm.Interp.crash_of prog_gdk ~input:witness with
            | Some c -> c
            | None -> assert false
          in
          fun () -> ignore (Vm.Crash.top5_hash crash)));
    (* T10 ablation partner: the culling procedures themselves *)
    Test.make ~name:"table10-edge-preserving-cull"
      (Staged.stage (fun () ->
           ignore (Fuzz.Measure.edge_preserving_cull prog_gdk sample_queue)));
    Test.make ~name:"table10-path-preserving-cull"
      (Staged.stage (fun () ->
           ignore
             (Fuzz.Measure.path_preserving_cull ~plans:plans_gdk prog_gdk sample_queue)));
    (* ablation: probe placement (DESIGN.md section 4.1) *)
    Test.make ~name:"ablation-bl-naive-placement"
      (Staged.stage (fun () ->
           ignore (Pathcov.Ball_larus.of_program ~optimize:false prog_jq)));
    (* ablation: mutation engine throughput (pooled scratch, as in the
       campaign hot loop — [havoc] proper allocates a scratch per call) *)
    Test.make ~name:"ablation-havoc-throughput"
      (Staged.stage
         (let rng = Fuzz.Rng.create 5 in
          let sc = Fuzz.Mutator.create_scratch () in
          fun () -> ignore (Fuzz.Mutator.havoc_into sc rng seed_gdk)));
  ]

let run_benchmarks () =
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Fmt.pr "== Bechamel micro-benchmarks (one per table/figure) ==@.";
  Fmt.pr "%-36s %14s@." "benchmark" "ns/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Fmt.pr "%-36s %14.1f@." (Test.Elt.name elt) ns)
        (Test.elements test))
    tests;
  Fmt.pr "@."

(* Parallel-runner scaling: wall-clock for the same small matrix at one
   worker domain versus one per core. (The matrix content is identical by
   construction; the determinism test in test_experiments.ml asserts it.) *)
let run_matrix_scaling () =
  let cfg = { Experiments.Config.fast with budget = 1_500; trials = 2 } in
  let subjects =
    List.filter_map Subjects.Registry.find [ "flvmeta"; "imginfo"; "gdk" ]
  in
  let time jobs =
    let t0 = Unix.gettimeofday () in
    ignore (Experiments.Runner.run ~quiet:true ~jobs ~subjects cfg);
    Unix.gettimeofday () -. t0
  in
  let t1 = time 1 in
  let n = Exec.Pool.default_jobs () in
  let tn = time n in
  Fmt.pr "== Matrix scaling (%d tasks) ==@."
    (List.length subjects * 7 * cfg.trials);
  Fmt.pr "jobs=1: %6.2fs    jobs=%d: %6.2fs    speedup: %.2fx@.@." t1 n tn
    (t1 /. tn)

let () =
  run_benchmarks ();
  if Sys.getenv_opt "PATHCOV_SKIP_TABLES" <> Some "1" then begin
    run_matrix_scaling ();
    let cfg = Experiments.Config.of_env () in
    Fmt.pr "== Evaluation matrix (%a) ==@." Experiments.Config.pp cfg;
    let m = Experiments.Runner.run ~jobs:cfg.jobs cfg in
    Fmt.epr "[matrix] %.1fs of fuzzing wall-clock across all cells@."
      (Experiments.Runner.total_wall_s m);
    print_string (Experiments.Tables.all m);
    Fmt.pr "@.== Ablations (DESIGN.md section 4) ==@.";
    print_string (Experiments.Ablations.all cfg)
  end
