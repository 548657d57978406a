(* Aggregates all suites into one alcotest binary: `dune runtest`. *)
let () =
  Alcotest.run "pathcov"
    (Test_frontend.suite @ Test_ballarus.suite @ Test_vm.suite
   @ Test_differential.suite @ Test_compile.suite @ Test_fused.suite
   @ Test_native.suite
   @ Test_coverage.suite
   @ Test_exec.suite
   @ Test_fuzz.suite @ Test_hotpath.suite @ Test_retention.suite
   @ Test_tracer.suite
   @ Test_shard.suite
   @ Test_checkpoint.suite @ Test_subjects.suite
   @ Test_experiments.suite @ Test_obs.suite @ Test_introspect.suite
   @ Test_misc.suite @ Contract.suite)
