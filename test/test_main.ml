(* Aggregates all suites into one alcotest binary: `dune runtest`. Every
   test case is timed, and the ten slowest are listed after the run's
   summary, so a test log shows where the suite's wall goes. *)

let walls : (string * float) list ref = ref []

let timed ((suite, cases) : unit Alcotest.test) : unit Alcotest.test =
  ( suite,
    List.map
      (fun (case, speed, f) ->
        ( case,
          speed,
          fun () ->
            let t0 = Unix.gettimeofday () in
            Fun.protect f ~finally:(fun () ->
                walls :=
                  (suite ^ " / " ^ case, Unix.gettimeofday () -. t0) :: !walls) ))
      cases )

let print_slowest n =
  let by_wall = List.stable_sort (fun (_, a) (_, b) -> compare b a) !walls in
  if by_wall <> [] then begin
    Printf.printf "\nSlowest %d of %d test cases:\n"
      (min n (List.length by_wall)) (List.length by_wall);
    List.iteri
      (fun i (name, s) -> if i < n then Printf.printf "  %7.2f s  %s\n" s name)
      by_wall;
    flush stdout
  end

let () =
  let suites =
    Test_frontend.suite @ Test_ballarus.suite @ Test_vm.suite
    @ Test_differential.suite @ Test_compile.suite @ Test_plan.suite
    @ Test_fused.suite
    @ Test_native.suite
    @ Test_coverage.suite
    @ Test_exec.suite
    @ Test_fuzz.suite @ Test_hotpath.suite @ Test_retention.suite
    @ Test_tracer.suite
    @ Test_shard.suite
    @ Test_checkpoint.suite @ Test_subjects.suite
    @ Test_experiments.suite @ Test_obs.suite @ Test_introspect.suite
    @ Test_misc.suite @ Contract.suite
  in
  (* the runner exits the process itself *)
  at_exit (fun () -> print_slowest 10);
  Alcotest.run "pathcov" (List.map timed suites)
