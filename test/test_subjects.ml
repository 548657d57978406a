(** Benchmark-subject oracle tests: every subject compiles, every seed is
    crash-free, every witness triggers exactly its ground-truth bug, and
    random inputs never crash outside the ground-truth set (so the bug
    tables really are exhaustive oracles for the evaluation). *)

let check = Alcotest.check
let fail = Alcotest.fail

let subject_case (s : Subjects.Subject.t) =
  Alcotest.test_case s.name `Quick (fun () ->
      let prog = Subjects.Subject.program s in
      let ctx = Vm.Interp.create_ctx (Vm.Interp.prepare prog) in
      (* structural sanity *)
      check Alcotest.bool "has functions" true (Array.length prog.funcs >= 3);
      Array.iter
        (fun f ->
          let cfg = Minic.Cfg.of_func f in
          check Alcotest.bool ("reducible " ^ f.Minic.Ir.name) true
            (Minic.Loops.reducible cfg))
        prog.funcs;
      (* the Ball-Larus pass must succeed on every function *)
      let plans = Pathcov.Ball_larus.of_program prog in
      check Alcotest.bool "paths enumerable" true (plans.total_paths > 0);
      (* seeds run clean *)
      List.iter
        (fun seed ->
          match (Vm.Interp.run_one ctx ~input:seed).status with
          | Vm.Interp.Finished _ -> ()
          | Vm.Interp.Crashed c ->
              fail (Fmt.str "seed crashes: %a" Vm.Crash.pp c)
          | Vm.Interp.Hung -> fail "seed hangs")
        s.seeds;
      (* each witness triggers exactly its bug *)
      List.iter
        (fun (bug : Subjects.Subject.bug) ->
          match (Vm.Interp.run_one ctx ~input:bug.witness).status with
          | Vm.Interp.Crashed c
            when Vm.Crash.bug_identity c = Vm.Crash.Id bug.id ->
              ()
          | Vm.Interp.Crashed c ->
              fail
                (Fmt.str "witness for %d triggered %a instead" bug.id Vm.Crash.pp c)
          | Vm.Interp.Finished _ -> fail (Fmt.str "witness for %d does not crash" bug.id)
          | Vm.Interp.Hung -> fail (Fmt.str "witness for %d hangs" bug.id))
        s.bugs;
      (* bug ids are unique within the subject *)
      let ids = Subjects.Subject.bug_ids s in
      check Alcotest.int "unique ids" (List.length ids)
        (List.length (List.sort_uniq compare ids)))

(* Fuzz-ish oracle: random byte strings and mutated seeds may only crash
   with identities listed in the ground-truth table. *)
let random_input_oracle (s : Subjects.Subject.t) =
  Alcotest.test_case (s.name ^ " oracle") `Quick (fun () ->
      let prog = Subjects.Subject.program s in
      let ctx = Vm.Interp.create_ctx (Vm.Interp.prepare prog) in
      let known = Subjects.Subject.bug_ids s in
      let rng = Fuzz.Rng.create 1234 in
      let try_input input =
        match (Vm.Interp.run_one ctx ~input).status with
        | Vm.Interp.Crashed c -> begin
            match Vm.Crash.bug_identity c with
            | Vm.Crash.Id id ->
                if not (List.mem id known) then
                  fail (Fmt.str "unknown seeded bug %d on %S" id input)
            | Vm.Crash.At_site _ ->
                fail (Fmt.str "organic crash outside ground truth: %a on %S"
                        Vm.Crash.pp c input)
          end
        | Vm.Interp.Finished _ | Vm.Interp.Hung -> ()
      in
      for _ = 1 to 150 do
        let len = Fuzz.Rng.int rng 48 in
        try_input (String.init len (fun _ -> Fuzz.Rng.byte rng))
      done;
      List.iter
        (fun seed ->
          for _ = 1 to 50 do
            try_input (Test_fuzz.havoc rng seed)
          done)
        s.seeds)

let test_registry_complete () =
  check Alcotest.int "18 subjects" 18 (List.length Subjects.Registry.all);
  let names = Subjects.Registry.names () in
  check Alcotest.int "names unique" 18 (List.length (List.sort_uniq compare names));
  check Alcotest.bool "total bugs in range" true (Subjects.Registry.total_bugs () >= 60)

let test_registry_lookup () =
  check Alcotest.bool "find hits" true (Subjects.Registry.find "cflow" <> None);
  check Alcotest.bool "find misses" true (Subjects.Registry.find "nope" = None);
  match Subjects.Registry.find_exn "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

let test_bug_classes_represented () =
  (* the suite must exercise every bug class the paper discusses *)
  let classes =
    List.concat_map
      (fun (s : Subjects.Subject.t) ->
        List.map (fun (b : Subjects.Subject.bug) -> b.bug_class) s.bugs)
      Subjects.Registry.all
    |> List.sort_uniq compare
  in
  check Alcotest.int "all five classes" 5 (List.length classes)

let test_motivating_example () =
  let s = Subjects.Motivating.subject in
  let prog = Subjects.Subject.program s in
  (* seeds clean *)
  List.iter
    (fun seed ->
      match (Vm.Interp.run prog ~input:seed).status with
      | Vm.Interp.Finished _ -> ()
      | _ -> fail "seed misbehaves")
    s.seeds;
  (* the witness triggers the organic overflow *)
  match Subjects.Motivating.overflow_identity () with
  | Vm.Crash.At_site _ -> ()
  | Vm.Crash.Id _ -> fail "expected an organic (site-identified) overflow"

let test_functions_column () =
  (* Table I's Functions column must be derivable for every subject *)
  List.iter
    (fun (s : Subjects.Subject.t) ->
      check Alcotest.bool (s.name ^ " functions") true
        (Subjects.Subject.num_functions s >= 3))
    Subjects.Registry.all

let suite =
  [
    ("subjects", List.map subject_case Subjects.Registry.all);
    ("subject-oracles", List.map random_input_oracle Subjects.Registry.all);
    ( "registry",
      [
        Alcotest.test_case "complete" `Quick test_registry_complete;
        Alcotest.test_case "lookup" `Quick test_registry_lookup;
        Alcotest.test_case "bug classes" `Quick test_bug_classes_represented;
        Alcotest.test_case "motivating example" `Quick test_motivating_example;
        Alcotest.test_case "functions column" `Quick test_functions_column;
      ] );
  ]
