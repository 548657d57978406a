(** Experiment harness tests: a miniature matrix runs deterministically and
    every table/figure generator renders the expected rows. *)

let check = Alcotest.check

let tiny_config =
  { Experiments.Config.default with budget = 800; trials = 2; cull_rounds = 2 }

let tiny_subjects () =
  List.filter_map Subjects.Registry.find [ "flvmeta"; "imginfo" ]

let matrix =
  lazy (Experiments.Runner.run ~quiet:true ~subjects:(tiny_subjects ()) tiny_config)

let test_matrix_shape () =
  let m = Lazy.force matrix in
  check Alcotest.int "cells" (2 * 7) (Hashtbl.length m.cells);
  let c = Experiments.Runner.cell m ~subject:"flvmeta" ~fuzzer:"path" in
  check Alcotest.int "trials" 2 (List.length c.runs)

let test_parallel_matrix_identical () =
  (* The whole point of the domain-pool runner: every rendered table is
     byte-identical at any worker count. *)
  let m1 = Lazy.force matrix in
  let m4 =
    Experiments.Runner.run ~quiet:true ~jobs:4 ~subjects:(tiny_subjects ())
      tiny_config
  in
  check Alcotest.string "tables byte-identical at jobs=1 and jobs=4"
    (Experiments.Tables.all m1) (Experiments.Tables.all m4);
  let c = Experiments.Runner.cell m4 ~subject:"flvmeta" ~fuzzer:"path" in
  check Alcotest.bool "wall clock recorded" true (c.wall_s > 0.);
  check Alcotest.bool "matrix wall clock aggregates" true
    (Experiments.Runner.total_wall_s m4 >= c.wall_s)

(* [Config.map_size_log2] reaches every campaign of every strategy
   (cull rounds and both opportunistic phases included): no snapshot
   row can count more untouched virgin indices than a 2^10 map has. *)
let test_map_size_threaded () =
  let s = Subjects.Registry.find_exn "flvmeta" in
  let prog = Subjects.Subject.program s in
  List.iter
    (fun (fz : Fuzz.Strategy.fuzzer) ->
      let obs = Obs.Observer.create () in
      ignore
        (Fuzz.Strategy.run ~obs ~map_size_log2:10 ~budget:900 ~trial_seed:1 fz
           prog ~seeds:s.seeds);
      let rows = Obs.Observer.snapshots obs in
      check Alcotest.bool (fz.name ^ ": rows recorded") true (rows <> []);
      List.iter
        (fun (r : Obs.Snapshot.row) ->
          check Alcotest.bool
            (Printf.sprintf "%s: residual %d within a 2^10 map" fz.name
               r.virgin_residual)
            true (r.virgin_residual <= 1024))
        rows)
    Fuzz.Strategy.[ path; cull ~rounds:3 (); opp ]

let test_matrix_deterministic () =
  let m1 = Lazy.force matrix in
  let m2 = Experiments.Runner.run ~quiet:true ~subjects:(tiny_subjects ()) tiny_config in
  List.iter
    (fun fuzzer ->
      let a = Experiments.Runner.cell m1 ~subject:"imginfo" ~fuzzer in
      let b = Experiments.Runner.cell m2 ~subject:"imginfo" ~fuzzer in
      check Alcotest.int (fuzzer ^ " same queue")
        (List.hd a.runs).queue_size (List.hd b.runs).queue_size;
      check Alcotest.int (fuzzer ^ " same bugs")
        (Fuzz.Stats.Bug_set.cardinal (Experiments.Runner.cumulative_bugs a))
        (Fuzz.Stats.Bug_set.cardinal (Experiments.Runner.cumulative_bugs b)))
    [ "path"; "pcguard"; "cull"; "opp" ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_tables_render () =
  let m = Lazy.force matrix in
  let checks =
    [
      ("table1", Experiments.Tables.table1 m, "Queue (path)");
      ("table2", Experiments.Tables.table2 m, "TOTAL");
      ("table3", Experiments.Tables.table3 m, "GEOMEAN");
      ("table4", Experiments.Tables.table4 m, "pcguard");
      ("table6", Experiments.Tables.table6 m, "median");
      ("table7", Experiments.Tables.table7 m, "pathafl");
      ("table8", Experiments.Tables.table8 m, "afl");
      ("table9", Experiments.Tables.table9 m, "stack5");
      ("table10", Experiments.Tables.table10 m, "cull_r");
      ("fig3", Experiments.Tables.fig3_venn m, "Venn");
      ("fig2", Experiments.Tables.fig2_series ~subject:"flvmeta" m, "queue size");
    ]
  in
  List.iter
    (fun (name, rendered, expected) ->
      check Alcotest.bool (name ^ " mentions subjects") true
        (contains rendered "flvmeta" || contains rendered "Figure");
      check Alcotest.bool (name ^ " has marker") true (contains rendered expected))
    checks

let test_fig1_renders () =
  let s = Experiments.Tables.fig1 () in
  check Alcotest.bool "mentions paths" true (contains s "acyclic paths");
  check Alcotest.bool "lists ids" true (contains s "path id")

let test_config_env () =
  let c = Experiments.Config.of_env () in
  check Alcotest.bool "positive budget" true (c.budget > 0);
  check Alcotest.bool "positive trials" true (c.trials > 0)

let test_aggregations () =
  let m = Lazy.force matrix in
  let c = Experiments.Runner.cell m ~subject:"imginfo" ~fuzzer:"pcguard" in
  let bugs = Experiments.Runner.cumulative_bugs c in
  check Alcotest.bool "bug union >= per-trial max" true
    (Fuzz.Stats.Bug_set.cardinal bugs
    >= List.fold_left
         (fun acc (r : Fuzz.Strategy.run_result) ->
           max acc (Fuzz.Triage.unique_bugs r.triage))
         0 c.runs);
  check Alcotest.bool "median queue positive" true (Experiments.Runner.median_queue c > 0.);
  check Alcotest.bool "edges non-empty" true
    (not (Fuzz.Measure.Int_set.is_empty (Experiments.Runner.cumulative_edges c)))

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
        Alcotest.test_case "matrix deterministic" `Quick test_matrix_deterministic;
        Alcotest.test_case "parallel matrix identical" `Quick
          test_parallel_matrix_identical;
        Alcotest.test_case "tables render" `Quick test_tables_render;
        Alcotest.test_case "figure 1 renders" `Quick test_fig1_renders;
        Alcotest.test_case "config from env" `Quick test_config_env;
        Alcotest.test_case "aggregations" `Quick test_aggregations;
        Contract.claim ~tables:true "engine default renders identical tables"
          [];
        Alcotest.test_case "map size reaches every campaign" `Quick
          test_map_size_threaded;
      ] );
  ]
