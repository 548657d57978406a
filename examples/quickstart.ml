(** Quickstart: the paper's Figure 1 walkthrough.

    Compiles the motivating example, prints the Ball–Larus machinery for
    [foo] (edge increments, path table), demonstrates that the path-aware
    feedback flags as novel a test case that edge coverage cannot
    distinguish, and finishes by letting the path-aware fuzzer find the
    heap overflow. Run with: dune exec examples/quickstart.exe *)

let () =
  let subject = Subjects.Motivating.subject in
  let prog = Subjects.Subject.program subject in
  let foo = Minic.Ir.func_exn prog "foo" in

  Fmt.pr "=== CFG of foo (Figure 1) ===@.%a@.@." Minic.Pretty.pp_func foo;

  let plan = Pathcov.Ball_larus.of_func foo in
  Fmt.pr "acyclic paths: %d  instrumented transitions: %d@.@." plan.num_paths
    plan.probes;
  Fmt.pr "=== path table (id -> blocks) ===@.";
  List.iter
    (fun (id, nodes) ->
      Fmt.pr "  %2d: %s@." id
        (String.concat " -> "
           (List.map
              (fun n -> if n = plan.nblocks then "EXIT" else "L" ^ string_of_int n)
              nodes)))
    (Pathcov.Ball_larus.enumerate plan);

  (* The paper's §II-B scenario: after inputs covering every edge
     separately, a new combination of already-covered edges appears. *)
  let replay mode virgin input =
    let fb = Pathcov.Feedback.make mode prog in
    fb.reset ();
    Pathcov.Coverage_map.clear fb.trace;
    ignore (Vm.Interp.run ~hooks:(Vm.Interp.hooks_of fb) prog ~input);
    Pathcov.Coverage_map.classify fb.trace;
    Pathcov.Coverage_map.merge_into ~virgin fb.trace
  in
  (* len=52 takes the rare block; leading 'h' takes the dangerous branch.
     The two warm-up inputs cover all four arms on separate runs. *)
  let rare_no_h = String.make 52 'x' in
  let h_not_rare = "h" ^ String.make 40 'x' in
  let rare_with_h_short = "h" ^ String.make 43 'x' in
  (* 44 bytes: rare block (44%4=0, >39) via 'h', but no overflow: index 47 *)
  Fmt.pr "@.=== novelty of the crucial intermediate test case ===@.";
  List.iter
    (fun mode ->
      let virgin = Pathcov.Coverage_map.create_virgin () in
      ignore (replay mode virgin rare_no_h);
      ignore (replay mode virgin h_not_rare);
      let novelty = replay mode virgin rare_with_h_short in
      Fmt.pr "  %-5s feedback: crucial input %s@."
        (Pathcov.Feedback.mode_name mode)
        (if novelty = Pathcov.Coverage_map.Nothing then
           "DISCARDED (no new edges)"
         else "RETAINED (new path)"))
    [ Pathcov.Feedback.Edge; Pathcov.Feedback.Path ];

  Fmt.pr "@.=== fuzzing with the path-aware feedback ===@.";
  let r =
    Fuzz.Strategy.run ~budget:12_000 ~trial_seed:1 Fuzz.Strategy.path prog
      ~seeds:subject.seeds
  in
  Fmt.pr "execs=%d queue=%d crashes=%d unique bugs=%d@." r.execs r.queue_size
    r.triage.total_crashes
    (Fuzz.Triage.unique_bugs r.triage);
  List.iter
    (fun id ->
      match Fuzz.Triage.bug_witness r.triage id with
      | Some w ->
          Fmt.pr "  found %a with input %S@." Vm.Crash.pp_identity id
            (if String.length w > 16 then String.sub w 0 16 ^ "..." else w)
      | None -> ())
    (Fuzz.Triage.bugs r.triage)
