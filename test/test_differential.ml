(** Differential tests: the pooled allocation-free VM ([Vm.Interp]) vs
    the naive boxed reference interpreter ([Interp_ref]) — same status
    (crash kinds, sites, stacks), same block counts, and identical
    classified coverage traces under every feedback mode, for every
    registered subject's seeds and bug witnesses. *)

let check = Alcotest.check

let feedback_hooks (fb : Pathcov.Feedback.t) : Vm.Interp.hooks =
  {
    Vm.Interp.no_hooks with
    h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
  }

let pp_status fmt (s : Vm.Interp.status) =
  match s with
  | Vm.Interp.Finished None -> Fmt.string fmt "finished(array)"
  | Vm.Interp.Finished (Some n) -> Fmt.pf fmt "finished(%d)" n
  | Vm.Interp.Hung -> Fmt.string fmt "hung"
  | Vm.Interp.Crashed c -> Fmt.pf fmt "crashed(%a)" Vm.Crash.pp c

let status_t : Vm.Interp.status Alcotest.testable =
  Alcotest.testable pp_status ( = )

(* Every input an evaluation campaign is guaranteed to execute: the seed
   corpus plus each ground-truth bug's witness. *)
let subject_inputs (s : Subjects.Subject.t) : string list =
  s.seeds @ List.map (fun (b : Subjects.Subject.bug) -> b.witness) s.bugs

let trace_contents (m : Pathcov.Coverage_map.t) : (int * int) list =
  let acc = ref [] in
  Pathcov.Coverage_map.iteri_set (fun i b -> acc := (i, b) :: !acc) m;
  List.rev !acc

(* Uninstrumented agreement: status and block counts. *)
let test_plain_agreement () =
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let prog = Subjects.Subject.compile_fresh s in
      let ctx = Vm.Interp.create_ctx (Vm.Interp.prepare prog) in
      List.iter
        (fun input ->
          let fast = Vm.Interp.run_one ctx ~input in
          let ref_ = Interp_ref.run prog ~input in
          let where = Printf.sprintf "%s %S" s.name input in
          check status_t (where ^ " status") ref_.status fast.status;
          check Alcotest.int
            (where ^ " blocks")
            ref_.blocks_executed fast.blocks_executed)
        (subject_inputs s))
    Subjects.Registry.all

(* Instrumented agreement: both interpreters drive a fresh listener per
   mode; the classified traces must match index-for-index. *)
let test_trace_agreement () =
  let modes =
    [
      Pathcov.Feedback.Block;
      Pathcov.Feedback.Edge;
      Pathcov.Feedback.Ngram 4;
      Pathcov.Feedback.Path;
      Pathcov.Feedback.Pathafl;
    ]
  in
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let prog = Subjects.Subject.compile_fresh s in
      let prepared = Vm.Interp.prepare prog in
      List.iter
        (fun mode ->
          let fb_fast = Pathcov.Feedback.make mode prog in
          let fb_ref = Pathcov.Feedback.make mode prog in
          let ctx =
            Vm.Interp.create_ctx ~hooks:(feedback_hooks fb_fast) prepared
          in
          List.iter
            (fun input ->
              fb_fast.reset ();
              Pathcov.Coverage_map.clear fb_fast.trace;
              fb_ref.reset ();
              Pathcov.Coverage_map.clear fb_ref.trace;
              let fast = Vm.Interp.run_one ctx ~input in
              let ref_ =
                Interp_ref.run ~hooks:(feedback_hooks fb_ref) prog ~input
              in
              let where =
                Printf.sprintf "%s/%s %S" s.name
                  (Pathcov.Feedback.mode_name mode)
                  input
              in
              check status_t (where ^ " status") ref_.status fast.status;
              Pathcov.Coverage_map.classify fb_fast.trace;
              Pathcov.Coverage_map.classify fb_ref.trace;
              check
                Alcotest.(list (pair int int))
                (where ^ " classified trace")
                (trace_contents fb_ref.trace)
                (trace_contents fb_fast.trace))
            (subject_inputs s))
        modes)
    Subjects.Registry.all

(* Random programs: the oracle must agree beyond the curated subjects. *)
let prop_differential =
  QCheck.Test.make ~count:300 ~name:"fast and reference interpreters agree"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      let fast = Vm.Interp.run ~fuel:50_000 prog ~input in
      let ref_ = Interp_ref.run ~fuel:50_000 prog ~input in
      fast.status = ref_.status
      && fast.blocks_executed = ref_.blocks_executed)

let suite =
  [
    ( "differential",
      [
        Alcotest.test_case "subjects: status and blocks" `Quick
          test_plain_agreement;
        Alcotest.test_case "subjects: classified traces per mode" `Quick
          test_trace_agreement;
      ] );
    ("differential-properties", [ QCheck_alcotest.to_alcotest prop_differential ]);
  ]
