(** Remaining surface: printers, Graphviz output, table rendering, path
    registers across nested calls, and white-box resolution errors. *)

let check = Alcotest.check
let fail = Alcotest.fail

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_pretty_roundtrip_tokens () =
  let prog =
    Minic.Lower.compile
      "fn main() { var x = in(0); if (x > 2) { x = x * 3; } return x; }"
  in
  let s = Minic.Pretty.program_to_string prog in
  List.iter
    (fun needle ->
      check Alcotest.bool ("mentions " ^ needle) true (contains s needle))
    [ "fn main"; "in(0)"; "ret"; "goto"; "if" ]

let test_dot_output () =
  let prog =
    Minic.Lower.compile "fn main() { var i = 0; while (i < 3) { i = i + 1; } return i; }"
  in
  let f = Minic.Ir.func_exn prog "main" in
  let plan = Pathcov.Ball_larus.of_func f in
  let edge_label (src, dst) =
    match Pathcov.Ball_larus.on_edge plan ~src ~dst with
    | Some (Pathcov.Ball_larus.Add k) -> Some (Printf.sprintf "+%d" k)
    | Some (Pathcov.Ball_larus.Commit_back _) -> Some "commit"
    | None -> None
  in
  let dot = Minic.Dot.to_dot ~edge_label f in
  check Alcotest.bool "digraph" true (contains dot "digraph");
  check Alcotest.bool "has nodes" true (contains dot "n0 ");
  check Alcotest.bool "has edges" true (contains dot "->");
  check Alcotest.bool "back edge committed" true (contains dot "commit")

let test_dot_escaping () =
  let prog = Minic.Lower.compile {|fn main() { return in(0) == 34; }|} in
  let dot = Minic.Dot.to_dot (Minic.Ir.func_exn prog "main") in
  check Alcotest.bool "renders" true (String.length dot > 0)

let test_render_table_alignment () =
  let s =
    Experiments.Render.table ~title:"T" ~header:[ "a"; "bb" ]
      ~rows:[ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  let data_lines =
    List.filter (fun l -> contains l "x" || contains l "longer") lines
  in
  match data_lines with
  | [ l1; l2 ] -> check Alcotest.int "aligned widths" (String.length l1) (String.length l2)
  | _ -> fail "expected two data lines"

let test_render_floats () =
  check Alcotest.string "f1" "1.5" (Experiments.Render.f1 1.5);
  check Alcotest.string "f2 nan" "-" (Experiments.Render.f2 nan)

(* Path registers must nest correctly across recursive activations: each
   activation of [fact] commits exactly one acyclic path. *)
let test_path_register_nesting () =
  let src =
    "fn fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fn main() \
     { return fact(5); }"
  in
  let prog = Minic.Lower.compile src in
  let commits = ref 0 in
  let plans = Pathcov.Ball_larus.of_program prog in
  let regs = ref [] in
  let hooks =
    {
      Vm.Interp.no_hooks with
      h_call = (fun _ -> regs := 0 :: !regs);
      h_edge =
        (fun fid src dst ->
          match Pathcov.Ball_larus.on_edge plans.plans.(fid) ~src ~dst with
          | Some (Pathcov.Ball_larus.Add k) -> begin
              match !regs with [] -> () | r :: rest -> regs := (r + k) :: rest
            end
          | Some (Pathcov.Ball_larus.Commit_back _) -> incr commits
          | None -> ());
      h_ret =
        (fun _ _ ->
          incr commits;
          match !regs with [] -> () | _ :: rest -> regs := rest);
    }
  in
  ignore (Vm.Interp.run ~hooks prog ~input:"");
  (* 5 fact activations + main, each returning once, no loops *)
  check Alcotest.int "one commit per activation" 6 !commits;
  check Alcotest.int "stack drained" 0 (List.length !regs)

let test_prepare_rejects_unknown_name () =
  (* hand-built IR referencing an unbound name must be rejected at
     preparation time, not silently defaulted *)
  let f =
    {
      Minic.Ir.name = "main";
      params = [];
      locals = [];
      blocks =
        [|
          {
            Minic.Ir.label = 0;
            instrs = [ Minic.Ir.Assign { dst = "x"; e = Minic.Ir.Const 1; site = 0 } ];
            term = Minic.Ir.Ret { e = None; site = 1 };
          };
        |];
    }
  in
  let prog =
    {
      Minic.Ir.globals = [];
      funcs = [| f |];
      sites =
        Array.make 2
          { Minic.Ir.sfunc = "main"; spos = Minic.Ast.dummy_pos; skind = Minic.Ir.Sassign };
    }
  in
  match Vm.Interp.prepare prog with
  | exception Vm.Interp.Unknown_name "x" -> ()
  | exception e -> fail ("unexpected exception: " ^ Printexc.to_string e)
  | _ -> fail "expected Unknown_name"

let test_mutator_length_clamp () =
  let rng = Fuzz.Rng.create 2 in
  let big = String.make Fuzz.Mutator.max_len 'z' in
  for _ = 1 to 100 do
    let child = Test_fuzz.havoc rng big in
    check Alcotest.bool "never exceeds max_len" true
      (String.length child <= Fuzz.Mutator.max_len)
  done

let test_i2s_widths () =
  let rng = Fuzz.Rng.create 1 in
  (* 4-byte little-endian *)
  let input = "??" ^ Subjects.Subject.u32le 305419896 ^ "!!" in
  let out =
    Fuzz.Mutator.i2s_apply rng { observed = 305419896; wanted = 1 } input
  in
  check Alcotest.string "u32 rewritten" ("??" ^ Subjects.Subject.u32le 1 ^ "!!") out

let test_subject_helpers () =
  check Alcotest.string "b" "\x01\xff" (Subjects.Subject.b [ 1; 255 ]);
  check Alcotest.string "u16le" "\x34\x12" (Subjects.Subject.u16le 0x1234);
  check Alcotest.string "u32le" "\x78\x56\x34\x12" (Subjects.Subject.u32le 0x12345678)

let test_campaign_hang_counted () =
  let src =
    "fn main() { if (in(0) == 104) { while (1) { } } return 0; }"
  in
  let prog = Minic.Lower.compile src in
  let config =
    {
      Fuzz.Campaign.default_config with
      budget = 2000;
      fuel = 2000;
      rng_seed = 1;
    }
  in
  let r = Fuzz.Campaign.run ~config prog ~seeds:[ "aa" ] in
  check Alcotest.bool "hangs recorded" true (r.triage.total_hangs > 0)

let test_pathafl_differs_from_edge () =
  let subject = Subjects.Registry.find_exn "gdk" in
  let prog = Subjects.Subject.program subject in
  let run mode =
    let fb = Pathcov.Feedback.make mode prog in
    let hooks =
      {
        Vm.Interp.no_hooks with
        h_call = fb.Pathcov.Feedback.on_call;
        h_block = fb.Pathcov.Feedback.on_block;
        h_edge = fb.Pathcov.Feedback.on_edge;
        h_ret = fb.Pathcov.Feedback.on_ret;
      }
    in
    fb.Pathcov.Feedback.reset ();
    ignore (Vm.Interp.run ~hooks prog ~input:(List.hd subject.seeds));
    Pathcov.Coverage_map.count_set fb.trace
  in
  (* the PathAFL sketch layers key-edge hashes on top of edge coverage *)
  check Alcotest.bool "pathafl has strictly more tuples" true
    (run Pathcov.Feedback.Pathafl > run Pathcov.Feedback.Edge)

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "pretty printer" `Quick test_pretty_roundtrip_tokens;
        Alcotest.test_case "dot output" `Quick test_dot_output;
        Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
        Alcotest.test_case "table alignment" `Quick test_render_table_alignment;
        Alcotest.test_case "float rendering" `Quick test_render_floats;
        Alcotest.test_case "path registers nest across calls" `Quick
          test_path_register_nesting;
        Alcotest.test_case "prepare rejects unknown names" `Quick
          test_prepare_rejects_unknown_name;
        Alcotest.test_case "mutator length clamp" `Quick test_mutator_length_clamp;
        Alcotest.test_case "i2s u32 width" `Quick test_i2s_widths;
        Alcotest.test_case "subject byte helpers" `Quick test_subject_helpers;
        Alcotest.test_case "campaign counts hangs" `Quick test_campaign_hang_counted;
        Alcotest.test_case "pathafl layers over edge" `Quick
          test_pathafl_differs_from_edge;
      ] );
  ]
