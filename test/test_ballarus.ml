(** Ball–Larus pass tests: path numbering, uniqueness, regeneration,
    spanning-tree probe minimisation, and the runtime-equivalence property
    between naive and optimised placements. *)

let check = Alcotest.check
let fail = Alcotest.fail

let compile = Minic.Lower.compile

let plan_of ?optimize src fname =
  let p = compile src in
  Pathcov.Ball_larus.of_func ?optimize (Minic.Ir.func_exn p fname)

let diamond_src =
  "fn main() { var x = in(0); if (x) { x = 1; } else { x = 2; } return x; }"

let seq_diamonds_src =
  "fn main() { var x = in(0); var y = 0; if (x > 1) { y = 1; } if (x > 2) { y = \
   y + 2; } if (x > 3) { y = y + 4; } return y; }"

let loop_src = "fn main() { var i = 0; while (i < in(0)) { i = i + 1; } return i; }"

let test_diamond_paths () =
  let plan = plan_of diamond_src "main" in
  check Alcotest.int "two paths" 2 plan.num_paths;
  check Alcotest.int "no back edges" 0 (List.length plan.back_edges)

let test_sequential_diamonds () =
  let plan = plan_of seq_diamonds_src "main" in
  (* three independent diamonds: 2^3 = 8 acyclic paths *)
  check Alcotest.int "eight paths" 8 plan.num_paths

let test_loop_paths () =
  let plan = plan_of loop_src "main" in
  (* entry->head->exit, entry->head->body(->EXIT dummy), dummy-entry->head->exit,
     dummy-entry->head->body: 4 acyclic paths *)
  check Alcotest.int "loop paths" 4 plan.num_paths;
  check Alcotest.int "one back edge" 1 (List.length plan.back_edges)

let test_straightline () =
  let plan = plan_of "fn main() { var x = 1; return x; }" "main" in
  check Alcotest.int "single path" 1 plan.num_paths;
  check Alcotest.int "no probes needed" 0 plan.probes

let test_path_ids_unique_and_regenerable () =
  let plan = plan_of seq_diamonds_src "main" in
  let paths = Pathcov.Ball_larus.enumerate plan in
  check Alcotest.int "count matches" plan.num_paths (List.length paths);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (id, nodes) ->
      if Hashtbl.mem seen nodes then fail "duplicate node sequence";
      Hashtbl.add seen nodes ();
      check Alcotest.bool "id in range" true (id >= 0 && id < plan.num_paths))
    paths

let test_regenerate_bounds () =
  let plan = plan_of diamond_src "main" in
  (match Pathcov.Ball_larus.regenerate plan (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument");
  match Pathcov.Ball_larus.regenerate plan plan.num_paths with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

let test_probe_reduction () =
  (* the spanning tree must never need more probes than the naive scheme *)
  let naive = plan_of ~optimize:false loop_src "main" in
  let opt = plan_of ~optimize:true loop_src "main" in
  check Alcotest.bool "probes reduced or equal" true (opt.probes <= naive.probes);
  check Alcotest.int "same path count" naive.num_paths opt.num_paths

(* Run a program under the Path feedback twice (naive and optimised
   placement) and compare the classified trace maps: the committed path
   IDs must be identical. *)
let committed_paths ~optimize prog input =
  let plans = Pathcov.Ball_larus.of_program ~optimize prog in
  let fb = Pathcov.Feedback.make ~plans Pathcov.Feedback.Path prog in
  fb.reset ();
  ignore (Vm.Interp.run ~hooks:(Vm.Interp.hooks_of fb) prog ~input);
  Pathcov.Coverage_map.classify fb.trace;
  List.map (fun i -> (i, Pathcov.Coverage_map.get fb.trace i))
    (Pathcov.Coverage_map.set_indices fb.trace)

let test_placement_equivalence_concrete () =
  let prog = compile seq_diamonds_src in
  List.iter
    (fun input ->
      check
        Alcotest.(list (pair int int))
        ("same commits for " ^ String.escaped input)
        (committed_paths ~optimize:false prog input)
        (committed_paths ~optimize:true prog input))
    [ ""; "\x00"; "\x02"; "\x03"; "\x04"; "hello" ]

let prop_placement_equivalence =
  QCheck.Test.make ~count:100 ~name:"naive and optimised placements commit equal paths"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      committed_paths ~optimize:false prog input
      = committed_paths ~optimize:true prog input)

let prop_enumeration_bijective =
  QCheck.Test.make ~count:100 ~name:"path id <-> edge sequence is a bijection"
    Gen.arbitrary_ir (fun prog ->
      Array.for_all
        (fun f ->
          let plan = Pathcov.Ball_larus.of_func f in
          plan.num_paths > 2000
          ||
          let tbl = Hashtbl.create 64 in
          for id = 0 to plan.num_paths - 1 do
            let edge_ids =
              List.map
                (fun (e : Pathcov.Ball_larus.edge) -> e.id)
                (Pathcov.Ball_larus.regenerate_edges plan id)
            in
            Hashtbl.replace tbl edge_ids ()
          done;
          Hashtbl.length tbl = plan.num_paths)
        prog.funcs)

let prop_num_paths_positive =
  QCheck.Test.make ~count:100 ~name:"every function has at least one acyclic path"
    Gen.arbitrary_ir (fun prog ->
      let plans = Pathcov.Ball_larus.of_program prog in
      Array.for_all (fun (pl : Pathcov.Ball_larus.t) -> pl.num_paths >= 1) plans.plans)

(* Executed paths observed at run time must regenerate to real block walks:
   the first node of every committed path is a block of the function. *)
let test_runtime_commits_are_valid_ids () =
  let prog = compile loop_src in
  let plan = (Pathcov.Ball_larus.of_program prog).plans.(0) in
  let commits = ref [] in
  let fb = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
  ignore fb;
  (* reconstruct commits by instrumenting manually *)
  let reg = ref 0 in
  let hooks =
    {
      Vm.Interp.no_hooks with
      h_call = (fun _ -> reg := 0);
      h_edge =
        (fun _ src dst ->
          match Pathcov.Ball_larus.on_edge plan ~src ~dst with
          | None -> ()
          | Some (Pathcov.Ball_larus.Add k) -> reg := !reg + k
          | Some (Pathcov.Ball_larus.Commit_back { add; reset }) ->
              commits := (!reg + add) :: !commits;
              reg := reset);
      h_ret =
        (fun _ block ->
          commits := (!reg + Pathcov.Ball_larus.on_ret plan ~block) :: !commits);
    }
  in
  ignore (Vm.Interp.run ~hooks prog ~input:"\x03");
  check Alcotest.bool "some paths committed" true (!commits <> []);
  List.iter
    (fun id ->
      check Alcotest.bool "id in range" true (id >= 0 && id < plan.num_paths);
      match Pathcov.Ball_larus.regenerate plan id with
      | [] -> fail "empty regenerated path"
      | first :: _ -> check Alcotest.bool "starts at a block" true (first >= 0))
    !commits

let test_motivating_example_plan () =
  let prog = Subjects.Subject.program Subjects.Motivating.subject in
  let plan = Pathcov.Ball_larus.of_func (Minic.Ir.func_exn prog "foo") in
  (* foo has the early return plus 2x2 diamond combinations plus the
     short-circuit split: enumeration must be stable and small *)
  check Alcotest.bool "paths between 4 and 12" true
    (plan.num_paths >= 4 && plan.num_paths <= 12);
  let ids = List.map fst (Pathcov.Ball_larus.enumerate plan) in
  check (Alcotest.list Alcotest.int) "dense ids"
    (List.init plan.num_paths Fun.id) ids

let suite =
  [
    ( "ball-larus",
      [
        Alcotest.test_case "diamond has two paths" `Quick test_diamond_paths;
        Alcotest.test_case "sequential diamonds multiply" `Quick test_sequential_diamonds;
        Alcotest.test_case "loop paths via dummy edges" `Quick test_loop_paths;
        Alcotest.test_case "straight line" `Quick test_straightline;
        Alcotest.test_case "ids unique and regenerable" `Quick
          test_path_ids_unique_and_regenerable;
        Alcotest.test_case "regenerate bounds" `Quick test_regenerate_bounds;
        Alcotest.test_case "spanning tree reduces probes" `Quick test_probe_reduction;
        Alcotest.test_case "placement equivalence (concrete)" `Quick
          test_placement_equivalence_concrete;
        Alcotest.test_case "runtime commits are valid ids" `Quick
          test_runtime_commits_are_valid_ids;
        Alcotest.test_case "motivating example plan" `Quick test_motivating_example_plan;
      ] );
    ( "ball-larus-properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_placement_equivalence;
          prop_enumeration_bijective;
          prop_num_paths_positive;
        ] );
  ]
