(** Staged-compiler differential suite: [Vm.Compile] (closures, probes
    baked in) vs [Vm.Interp] driving the runtime [Pathcov.Feedback]
    listeners — same status (crash kinds, sites, stacks), same block
    counts (hence fuel behaviour), same cmplog event streams, identical
    classified traces under every feedback mode; plus a steady-state
    allocation bound for the compiled hot path. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool

let all_modes =
  [
    Pathcov.Feedback.Block;
    Pathcov.Feedback.Edge;
    Pathcov.Feedback.Ngram 4;
    Pathcov.Feedback.Path;
    Pathcov.Feedback.Pathafl;
  ]

let pp_status fmt (s : Vm.Interp.status) =
  match s with
  | Vm.Interp.Finished None -> Fmt.string fmt "finished(array)"
  | Vm.Interp.Finished (Some n) -> Fmt.pf fmt "finished(%d)" n
  | Vm.Interp.Hung -> Fmt.string fmt "hung"
  | Vm.Interp.Crashed c -> Fmt.pf fmt "crashed(%a)" Vm.Crash.pp c

let status_t : Vm.Interp.status Alcotest.testable =
  Alcotest.testable pp_status ( = )

let subject_inputs (s : Subjects.Subject.t) : string list =
  s.seeds @ List.map (fun (b : Subjects.Subject.bug) -> b.witness) s.bugs

let trace_contents (m : Pathcov.Coverage_map.t) : (int * int) list =
  let acc = ref [] in
  Pathcov.Coverage_map.iteri_set (fun i b -> acc := (i, b) :: !acc) m;
  List.rev !acc

(* --- instrumented agreement, every mode: status, blocks, classified
   trace, and the cmplog operand stream --- *)

let test_mode_agreement () =
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let prog = Subjects.Subject.compile_fresh s in
      let prepared = Vm.Interp.prepare prog in
      List.iter
        (fun mode ->
          let fb = Pathcov.Feedback.make mode prog in
          let icmps = ref [] and ccmps = ref [] in
          let ictx =
            Vm.Interp.create_ctx
              ~hooks:
                (Vm.Interp.hooks_of
                   ~h_cmp:(fun a b -> icmps := (a, b) :: !icmps)
                   fb)
              prepared
          in
          let cctx = Vm.Interp.create_ctx prepared in
          let art = Vm.Compile.compile prepared mode in
          let entry = Vm.Compile.entry art in
          let ctrace = Pathcov.Coverage_map.create () in
          Vm.Compile.bind art ~trace:ctrace ~h_cmp:(fun a b ->
              ccmps := (a, b) :: !ccmps);
          Vm.Compile.arm art true;
          List.iter
            (fun input ->
              fb.reset ();
              Pathcov.Coverage_map.clear fb.trace;
              Pathcov.Coverage_map.clear ctrace;
              icmps := [];
              ccmps := [];
              let i = Vm.Interp.run_one ictx ~input in
              let c = Vm.Interp.run_one ~entry cctx ~input in
              let where =
                Printf.sprintf "%s/%s %S" s.name
                  (Pathcov.Feedback.mode_name mode)
                  input
              in
              check status_t (where ^ " status") i.status c.status;
              check Alcotest.int (where ^ " blocks") i.blocks_executed
                c.blocks_executed;
              check
                Alcotest.(list (pair int int))
                (where ^ " cmp stream") (List.rev !icmps) (List.rev !ccmps);
              Pathcov.Coverage_map.classify fb.trace;
              Pathcov.Coverage_map.classify ctrace;
              check
                Alcotest.(list (pair int int))
                (where ^ " classified trace")
                (trace_contents fb.trace) (trace_contents ctrace))
            (subject_inputs s);
          (* disarmed, the artifact's comparisons never reach [h_cmp] *)
          Vm.Compile.arm art false;
          ccmps := [];
          List.iter
            (fun input -> ignore (Vm.Interp.run_one ~entry cctx ~input))
            (subject_inputs s);
          check
            Alcotest.(list (pair int int))
            (Printf.sprintf "%s/%s disarmed cmp stream" s.name
               (Pathcov.Feedback.mode_name mode))
            [] !ccmps)
        all_modes)
    Subjects.Registry.all

(* --- random programs x all modes: the compiled engine must agree with
   the interpreter-driven listeners beyond the curated subjects --- *)

let prop_compiled_differential =
  QCheck.Test.make ~count:300 ~name:"compiled and interpreted engines agree"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      let prepared = Vm.Interp.prepare prog in
      List.for_all
        (fun mode ->
          let fb = Pathcov.Feedback.make mode prog in
          let ictx =
            Vm.Interp.create_ctx ~hooks:(Vm.Interp.hooks_of fb) prepared
          in
          let cctx = Vm.Interp.create_ctx prepared in
          let art = Vm.Compile.compile prepared mode in
          let ctrace = Pathcov.Coverage_map.create () in
          Vm.Compile.bind art ~trace:ctrace ~h_cmp:(fun _ _ -> ());
          fb.reset ();
          Pathcov.Coverage_map.clear fb.trace;
          let i = Vm.Interp.run_one ~fuel:50_000 ictx ~input in
          let c =
            Vm.Interp.run_one ~fuel:50_000 ~entry:(Vm.Compile.entry art) cctx
              ~input
          in
          Pathcov.Coverage_map.classify fb.trace;
          Pathcov.Coverage_map.classify ctrace;
          i.status = c.status
          && i.blocks_executed = c.blocks_executed
          && trace_contents fb.trace = trace_contents ctrace)
        all_modes)

(* --- steady-state allocation: the compiled hot path ---

   Closure dispatch must not re-introduce per-exec allocation: beyond
   the program's own [array(n)] requests, a compiled run through the
   pooled context allocates nothing once warm. cflow allocates no
   arrays, so the bound is a few words (outcome record + status). *)

let test_compiled_allocation () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let prepared = Vm.Interp.prepare prog in
  let ctx = Vm.Interp.create_ctx prepared in
  let input = Bytes.of_string (List.hd s.seeds) in
  let view = (input, Bytes.length input) in
  List.iter
    (fun mode ->
      let art = Vm.Compile.compile prepared mode in
      let trace = Pathcov.Coverage_map.create () in
      Vm.Compile.bind art ~trace ~h_cmp:(fun _ _ -> ());
      let entry = Vm.Compile.entry art in
      let gen _ = view and sink _ (_ : Vm.Interp.outcome) = () in
      let one () = Vm.Interp.run_batch ~entry ctx ~n:1 ~gen ~sink in
      for _ = 1 to 64 do
        one ()
      done;
      let n = 2048 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        one ()
      done;
      let per_exec = (Gc.minor_words () -. w0) /. float_of_int n in
      check_bool
        (Printf.sprintf "%s: compiled minor words per exec bounded (got %.1f)"
           (Pathcov.Feedback.mode_name mode)
           per_exec)
        true
        (per_exec >= 0. && per_exec < 16.))
    all_modes

let suite =
  [
    ( "compile",
      [
        Alcotest.test_case "subjects: every mode agrees" `Quick
          test_mode_agreement;
        Alcotest.test_case "compiled hot path allocation-free" `Quick
          test_compiled_allocation;
      ] );
    ( "compile-properties",
      [
        QCheck_alcotest.to_alcotest prop_compiled_differential;
      ] );
  ]
