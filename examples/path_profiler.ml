(** Ball–Larus as a classic path profiler (the encoding's original use,
    §III-A cites its value in performance measurement and debugging): run
    a workload through the jq-like JSON parser and report the hottest
    acyclic paths per function, regenerated from their IDs.
    Run with: dune exec examples/path_profiler.exe *)

let workload =
  [
    {_|{"name": "pathcov", "tags": [1, 2, 3], "ok": true}|_};
    {_|[[1,2],[3,4],[5,6],[7,8]]|_};
    {_|{"a": {"b": {"c": [null, false, 12.5]}}}|_};
    "-3.25";
  ]

let () =
  let subject = Subjects.Registry.find_exn "jq" in
  let prog = Subjects.Subject.program subject in
  let plans = Pathcov.Ball_larus.of_program prog in
  let _, counts = Fuzz.Measure.path_counts plans prog workload in
  Fmt.pr "path profile over %d documents:@.@." (List.length workload);
  Array.iteri
    (fun fid (f : Minic.Ir.func) ->
      let plan = plans.plans.(fid) in
      let here = counts.(fid) in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 here in
      if total > 0 then begin
        Fmt.pr "@[<v 2>%s: %d activations over %d distinct paths (of %d possible)@,"
          f.name total (List.length here) plan.num_paths;
        List.iteri
          (fun i (pid, n) ->
            if i < 3 then
              Fmt.pr "%5.1f%%  path %-4d %s@,"
                (100. *. float_of_int n /. float_of_int total)
                pid
                (String.concat "->"
                   (List.map string_of_int (Pathcov.Ball_larus.regenerate plan pid))))
          here;
        Fmt.pr "@]@."
      end)
    prog.funcs;
  Fmt.pr "total probes placed: %d (spanning-tree minimised)@." plans.total_probes
