(** Superblock-fusion and batched-cohort suite: the fused staged
    artifact vs the interpreter-driven listeners — same status (crash
    kinds, sites, stacks), same block counts (hence fuel accounting),
    identical classified traces — on random CFGs biased toward exactly
    the shapes fusion rewrites (single-predecessor chains, rejoining
    diamonds, mid-chain division crashes); the curated subjects are
    covered per mode by the compile suite.
    A fuel ladder drives hang points into chain interiors, where the
    bulk-burn replay must reproduce the interpreter's exact accounting.
    The batch entries ([run_batch]) are checked against one-shot runs
    and for steady-state allocation. *)

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

let feedback_hooks (fb : Pathcov.Feedback.t) : Vm.Interp.hooks =
  {
    Vm.Interp.h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
    h_cmp = (fun _ _ -> ());
  }

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

(* --- chain-biased random CFGs x every mode: beyond the curated set --- *)

let prop_fused_differential =
  QCheck.Test.make ~count:300
    ~name:"fused engine agrees on chain/diamond CFGs"
    (QCheck.pair Gen.arbitrary_chain_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      let prepared = Vm.Interp.prepare prog in
      List.for_all
        (fun mode ->
          let fb = Pathcov.Feedback.make mode prog in
          let ictx =
            Vm.Interp.create_ctx ~hooks:(feedback_hooks fb) prepared
          in
          let cctx = Vm.Interp.create_ctx prepared in
          let art =
            Vm.Compile.compile prepared mode
          in
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

(* --- fuel ladder: hang points land mid-chain; bulk-burn replay must
   reproduce the interpreter's exact fuel accounting and crash sites --- *)

let prop_fused_fuel_ladder =
  QCheck.Test.make ~count:100
    ~name:"fused fuel accounting exact at every budget"
    (QCheck.pair Gen.arbitrary_chain_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      let prepared = Vm.Interp.prepare prog in
      let fb = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
      let ictx = Vm.Interp.create_ctx ~hooks:(feedback_hooks fb) prepared in
      let cctx = Vm.Interp.create_ctx prepared in
      let art =
        Vm.Compile.compile prepared
          Pathcov.Feedback.Path
      in
      let ctrace = Pathcov.Coverage_map.create () in
      Vm.Compile.bind art ~trace:ctrace ~h_cmp:(fun _ _ -> ());
      let entry = Vm.Compile.entry art in
      List.for_all
        (fun fuel ->
          fb.reset ();
          Pathcov.Coverage_map.clear fb.trace;
          Pathcov.Coverage_map.clear ctrace;
          let i = Vm.Interp.run_one ~fuel ictx ~input in
          let c = Vm.Interp.run_one ~fuel ~entry cctx ~input in
          Pathcov.Coverage_map.classify fb.trace;
          Pathcov.Coverage_map.classify ctrace;
          i.status = c.status
          && i.blocks_executed = c.blocks_executed
          && trace_contents fb.trace = trace_contents ctrace)
        [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 500; 5_000 ])

(* --- batch entries: one run_batch call over a subject's inputs must
   reproduce the one-shot runs candidate for candidate, including the
   post-crash context sweep between candidates; a context over another
   prepared program is refused --- *)

let test_batch_agreement () =
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let prog = Subjects.Subject.compile_fresh s in
      let prepared = Vm.Interp.prepare prog in
      let art =
        Vm.Compile.compile prepared Pathcov.Feedback.Path
      in
      let trace = Pathcov.Coverage_map.create () in
      Vm.Compile.bind art ~trace ~h_cmp:(fun _ _ -> ());
      let entry = Vm.Compile.entry art in
      let inputs = Array.of_list (subject_inputs s) in
      let n = Array.length inputs in
      (* one-shot reference results on a fresh context *)
      let ctx1 = Vm.Interp.create_ctx prepared in
      let expect =
        Array.map
          (fun input ->
            Pathcov.Coverage_map.clear trace;
            let out = Vm.Interp.run_one ~entry ctx1 ~input in
            Pathcov.Coverage_map.classify trace;
            (out.Vm.Interp.status, out.blocks_executed, trace_contents trace))
          inputs
      in
      let ctx2 = Vm.Interp.create_ctx prepared in
      let bufs = Array.map Bytes.of_string inputs in
      Vm.Interp.run_batch ~entry ctx2 ~n
        ~gen:(fun k ->
          Pathcov.Coverage_map.clear trace;
          (bufs.(k), Bytes.length bufs.(k)))
        ~sink:(fun k out ->
          Pathcov.Coverage_map.classify trace;
          let st, bl, tr = expect.(k) in
          let where = Printf.sprintf "%s[%d]" s.name k in
          check status_t (where ^ " status") st out.Vm.Interp.status;
          check Alcotest.int (where ^ " blocks") bl out.blocks_executed;
          check
            Alcotest.(list (pair int int))
            (where ^ " trace") tr (trace_contents trace));
      (* a context over another prepared program of the same source is
         refused before anything runs *)
      let foreign = Vm.Interp.create_ctx (Vm.Interp.prepare prog) in
      check_bool
        (s.name ^ ": foreign context refused")
        true
        (match
           Vm.Interp.run_batch ~entry foreign ~n
             ~gen:(fun _ -> assert false)
             ~sink:(fun _ _ -> ())
         with
        | () -> false
        | exception Invalid_argument _ -> true))
    Subjects.Registry.all

(* --- steady-state allocation: the batched cohort loop ---

   Batching must not re-introduce per-candidate allocation: beyond the
   gen closure's scratch-view pair, a warm cohort through the pooled
   context stays within the same few-words bound as the one-shot
   compiled hot path. *)

let test_batch_allocation () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let prepared = Vm.Interp.prepare prog in
  let ctx = Vm.Interp.create_ctx prepared in
  let art =
    Vm.Compile.compile prepared
      Pathcov.Feedback.Path
  in
  let trace = Pathcov.Coverage_map.create () in
  Vm.Compile.bind art ~trace ~h_cmp:(fun _ _ -> ());
  let buf = Bytes.of_string (List.hd s.seeds) in
  let len = Bytes.length buf in
  let gen _ = (buf, len) in
  let sink _ (_ : Vm.Interp.outcome) = () in
  let entry = Vm.Compile.entry art in
  Vm.Interp.run_batch ~entry ctx ~n:64 ~gen ~sink;
  let n = 2048 in
  let w0 = Gc.minor_words () in
  Vm.Interp.run_batch ~entry ctx ~n ~gen ~sink;
  let per_exec = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool
    (Printf.sprintf "batched minor words per exec bounded (got %.1f)"
       per_exec)
    true
    (per_exec >= 0. && per_exec < 16.)

let suite =
  [
    ( "fused",
      [
        Alcotest.test_case "batch agrees with one-shot runs" `Quick
          test_batch_agreement;
        Alcotest.test_case "batched cohort allocation-free" `Quick
          test_batch_allocation;
      ] );
    ( "fused-properties",
      [
        QCheck_alcotest.to_alcotest prop_fused_differential;
        QCheck_alcotest.to_alcotest prop_fused_fuel_ladder;
      ] );
  ]
