(** VM tests: evaluation semantics, the crash model, limits, hooks. *)

let check = Alcotest.check
let fail = Alcotest.fail

let run ?fuel src input =
  (Vm.Interp.run ?fuel (Minic.Lower.compile src) ~input).status

let ret src input =
  match run src input with
  | Vm.Interp.Finished v -> Option.value ~default:min_int v
  | Vm.Interp.Crashed c -> fail (Fmt.str "unexpected crash: %a" Vm.Crash.pp c)
  | Vm.Interp.Hung -> fail "unexpected hang"

let crash src input =
  match run src input with
  | Vm.Interp.Crashed c -> c
  | Vm.Interp.Finished _ -> fail "expected crash"
  | Vm.Interp.Hung -> fail "expected crash, got hang"

let test_arithmetic () =
  check Alcotest.int "add" 7 (ret "fn main() { return 3 + 4; }" "");
  check Alcotest.int "mul before add" 11 (ret "fn main() { return 3 + 4 * 2; }" "");
  check Alcotest.int "division truncates" 3 (ret "fn main() { return 7 / 2; }" "");
  check Alcotest.int "negative" (-5) (ret "fn main() { return -5; }" "");
  check Alcotest.int "mod" 2 (ret "fn main() { return 17 % 5; }" "");
  check Alcotest.int "bitops" 6 (ret "fn main() { return (12 & 7) | 2; }" "");
  check Alcotest.int "xor" 5 (ret "fn main() { return 6 ^ 3; }" "");
  check Alcotest.int "shift" 24 (ret "fn main() { return 3 << 3; }" "");
  check Alcotest.int "bnot" (-1) (ret "fn main() { return ~0; }" "");
  check Alcotest.int "abs" 9 (ret "fn main() { return abs(0 - 9); }" "")

let test_comparisons_bool () =
  check Alcotest.int "lt true" 1 (ret "fn main() { return 1 < 2; }" "");
  check Alcotest.int "ge false" 0 (ret "fn main() { return 1 >= 2; }" "");
  check Alcotest.int "not" 1 (ret "fn main() { return !0; }" "");
  check Alcotest.int "and short" 0 (ret "fn main() { return 0 && 1 / 0; }" "");
  check Alcotest.int "or short" 1 (ret "fn main() { return 1 || 1 / 0; }" "")

let test_short_circuit_effects () =
  (* the right-hand call must not run when the left side decides *)
  let src =
    "global n; fn tick() { n = n + 1; return 1; } fn main() { var x = 0 && \
     tick(); var y = 1 || tick(); return n + x + y; }"
  in
  check Alcotest.int "no ticks" 1 (ret src "")

let test_input_builtins () =
  check Alcotest.int "in" 104 (ret "fn main() { return in(0); }" "h");
  check Alcotest.int "in OOB" (-1) (ret "fn main() { return in(9); }" "h");
  check Alcotest.int "in negative" (-1) (ret "fn main() { return in(0 - 1); }" "h");
  check Alcotest.int "len" 5 (ret "fn main() { return len(); }" "hello")

let test_arrays () =
  check Alcotest.int "store/load" 42
    (ret "fn main() { var a = array(4); a[2] = 42; return a[2]; }" "");
  check Alcotest.int "array_len" 7 (ret "fn main() { return array_len(array(7)); }" "");
  check Alcotest.int "zero init" 0 (ret "fn main() { var a = array(3); return a[1]; }" "");
  (* arrays are references: callee mutation visible to caller *)
  let src =
    "fn set(a) { a[0] = 9; return 0; } fn main() { var a = array(2); set(a); \
     return a[0]; }"
  in
  check Alcotest.int "by reference" 9 (ret src "")

let test_globals () =
  let src =
    "global g; global arr[4]; fn bump() { g = g + 1; arr[g] = g * 10; return g; } \
     fn main() { bump(); bump(); return arr[2] + g; }"
  in
  check Alcotest.int "global state" 22 (ret src "");
  (* globals reset between runs *)
  let prog = Minic.Lower.compile src in
  let ctx = Vm.Interp.create_ctx (Vm.Interp.prepare prog) in
  let r1 = Vm.Interp.run_one ctx ~input:"" in
  let r2 = Vm.Interp.run_one ctx ~input:"" in
  (match (r1.status, r2.status) with
  | Vm.Interp.Finished (Some a), Vm.Interp.Finished (Some b) ->
      check Alcotest.int "deterministic across runs" a b
  | _ -> fail "expected finishes");
  ()

let test_recursion () =
  let src =
    "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } fn \
     main() { return fib(10); }"
  in
  check Alcotest.int "fib" 55 (ret src "")

let test_crash_oob_read () =
  let c = crash "fn main() { var a = array(2); return a[5]; }" "" in
  match c.kind with
  | Vm.Crash.Out_of_bounds { len = 2; idx = 5 } -> ()
  | _ -> fail "wrong crash kind"

let test_crash_oob_write () =
  let c = crash "fn main() { var a = array(2); a[0 - 1] = 3; return 0; }" "" in
  match c.kind with
  | Vm.Crash.Out_of_bounds { idx = -1; _ } -> ()
  | _ -> fail "wrong crash kind"

let test_crash_div_rem () =
  (match (crash "fn main() { return 1 / in(0); }" "\x00").kind with
  | Vm.Crash.Div_by_zero -> ()
  | _ -> fail "expected div by zero");
  match (crash "fn main() { return 1 % in(0); }" "\x00").kind with
  | Vm.Crash.Div_by_zero -> ()
  | _ -> fail "expected rem by zero"

let test_crash_seeded_and_check () =
  (match Vm.Crash.bug_identity (crash "fn main() { bug(42); }" "") with
  | Vm.Crash.Id 42 -> ()
  | _ -> fail "expected bug 42");
  (match Vm.Crash.bug_identity (crash "fn main() { check(0, 9); }" "") with
  | Vm.Crash.Id 9 -> ()
  | _ -> fail "expected check 9");
  (* check passes when non-zero *)
  check Alcotest.int "check passes" 0 (ret "fn main() { check(5, 9); return 0; }" "")

let test_crash_bad_alloc () =
  match (crash "fn main() { var a = array(0 - 3); return 0; }" "").kind with
  | Vm.Crash.Bad_alloc (-3) -> ()
  | _ -> fail "expected bad alloc"

let test_crash_stack_overflow () =
  let src = "fn f(n) { return f(n + 1); } fn main() { return f(0); }" in
  match (crash src "").kind with
  | Vm.Crash.Stack_overflow -> ()
  | _ -> fail "expected stack overflow"

let test_hang () =
  let src = "fn main() { var i = 0; while (1) { i = i + 1; } return i; }" in
  match run ~fuel:1000 src "" with
  | Vm.Interp.Hung -> ()
  | _ -> fail "expected hang"

let test_crash_stack_trace () =
  let src =
    "fn inner() { bug(1); } fn outer() { inner(); return 0; } fn main() { \
     outer(); return 0; }"
  in
  let c = crash src "" in
  let fns = List.map (fun (f : Vm.Crash.frame) -> f.fn) c.stack in
  check (Alcotest.list Alcotest.string) "stack" [ "inner"; "outer"; "main" ] fns

let test_top5_hash_stability () =
  let src = "fn main() { bug(1); }" in
  let a = Vm.Crash.top5_hash (crash src "") in
  let b = Vm.Crash.top5_hash (crash src "xyz") in
  check Alcotest.int "same crash, same hash" a b;
  let src2 = "fn g() { bug(1); } fn main() { g(); return 0; }" in
  let c = Vm.Crash.top5_hash (crash src2 "") in
  check Alcotest.bool "different stack, different hash" true (a <> c)

let test_type_confusion_site () =
  (* Regression: [Rload] used to report site -1 on array-used-as-int type
     confusion, so the crash blamed function "?" with an unstable dedup
     frame. The real faulting site (and thus function) must be reported. *)
  let src =
    "fn f() { var a = array(2); return a + 1; } fn main() { f(); return 0; }"
  in
  let c = crash src "" in
  (match c.kind with
  | Vm.Crash.Type_error _ -> ()
  | _ -> fail "expected type confusion");
  match c.stack with
  | top :: rest ->
      check Alcotest.string "faulting function" "f" top.fn;
      check Alcotest.bool "real site" true (top.site >= 0);
      check
        (Alcotest.list Alcotest.string)
        "callers" [ "main" ]
        (List.map (fun (f : Vm.Crash.frame) -> f.fn) rest)
  | [] -> fail "empty crash stack"

let test_max_depth_configurable () =
  let src =
    "fn f(n) { if (n == 0) { return 0; } return f(n - 1); } fn main() { \
     return f(50); }"
  in
  let prog = Minic.Lower.compile src in
  (match (Vm.Interp.run prog ~input:"").status with
  | Vm.Interp.Finished (Some 0) -> ()
  | _ -> fail "default depth should accommodate 50 frames");
  match (Vm.Interp.run ~max_depth:10 prog ~input:"").status with
  | Vm.Interp.Crashed { kind = Vm.Crash.Stack_overflow; _ } -> ()
  | _ -> fail "expected stack overflow at max_depth 10"

let test_steady_state_allocation () =
  (* Guards the pooled execution context against future re-boxing: after
     warmup, a loop-heavy subject and a call-heavy one (sqlite3 makes
     over a hundred MiniC calls per seed) must run with only the outcome
     record allocated per execution, under every feedback mode. *)
  List.iter
    (fun name ->
      let s = Subjects.Registry.find_exn name in
      let prog = Subjects.Subject.compile_fresh s in
      List.iter
        (fun mode ->
          let fb = Pathcov.Feedback.make mode prog in
          let ctx =
            Vm.Interp.create_ctx ~hooks:(Vm.Interp.hooks_of fb)
              (Vm.Interp.prepare prog)
          in
          let input = Bytes.of_string (List.hd s.seeds) in
          let view = (input, Bytes.length input) in
          let gen _ =
            fb.reset ();
            Pathcov.Coverage_map.clear fb.trace;
            view
          in
          let sink _ (_ : Vm.Interp.outcome) =
            Pathcov.Coverage_map.classify fb.trace
          in
          let one () = Vm.Interp.run_batch ctx ~n:1 ~gen ~sink in
          for _ = 1 to 64 do
            one ()
          done;
          let n = 512 in
          let w0 = Gc.minor_words () in
          for _ = 1 to n do
            one ()
          done;
          let per_exec = (Gc.minor_words () -. w0) /. float_of_int n in
          check Alcotest.bool
            (Printf.sprintf "%s/%s: minor words per exec bounded (got %.1f)"
               name
               (Pathcov.Feedback.mode_name mode)
               per_exec)
            true (per_exec < 16.))
        Pathcov.Feedback.[ Block; Edge; Ngram 4; Path; Pathafl ])
    [ "cflow"; "sqlite3" ]

let test_hooks_fire () =
  let src = "fn main() { var i = 0; while (i < 3) { i = i + 1; } return i; }" in
  let calls = ref 0 and blocks = ref 0 and edges = ref 0 and rets = ref 0 in
  let hooks =
    {
      Vm.Interp.h_call = (fun _ -> incr calls);
      h_block = (fun _ _ -> incr blocks);
      h_edge = (fun _ _ _ -> incr edges);
      h_ret = (fun _ _ -> incr rets);
      h_cmp = (fun _ _ -> ());
    }
  in
  ignore (Vm.Interp.run ~hooks (Minic.Lower.compile src) ~input:"");
  check Alcotest.int "one call" 1 !calls;
  check Alcotest.int "one ret" 1 !rets;
  check Alcotest.bool "blocks = edges + 1 per activation" true (!blocks = !edges + 1)

let test_cmp_hook () =
  let pairs = ref [] in
  let hooks =
    { Vm.Interp.no_hooks with h_cmp = (fun a b -> pairs := (a, b) :: !pairs) }
  in
  ignore
    (Vm.Interp.run ~hooks
       (Minic.Lower.compile "fn main() { if (in(0) == 77) { return 1; } return 0; }")
       ~input:"A");
  check
    Alcotest.(list (pair int int))
    "captured comparison" [ (65, 77) ] !pairs

let test_blocks_counted () =
  let out = Vm.Interp.run (Minic.Lower.compile "fn main() { return 0; }") ~input:"" in
  check Alcotest.int "single block" 1 out.blocks_executed

let prop_vm_total =
  QCheck.Test.make ~count:300 ~name:"VM is total on generated programs"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      match (Vm.Interp.run ~fuel:50_000 prog ~input).status with
      | Vm.Interp.Finished _ | Vm.Interp.Crashed _ | Vm.Interp.Hung -> true)

let prop_vm_deterministic =
  QCheck.Test.make ~count:100 ~name:"VM runs are deterministic"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      let ctx = Vm.Interp.create_ctx (Vm.Interp.prepare prog) in
      let a = Vm.Interp.run_one ctx ~input in
      let b = Vm.Interp.run_one ctx ~input in
      a.status = b.status && a.blocks_executed = b.blocks_executed)

let suite =
  [
    ( "vm",
      [
        Alcotest.test_case "arithmetic" `Quick test_arithmetic;
        Alcotest.test_case "comparisons and booleans" `Quick test_comparisons_bool;
        Alcotest.test_case "short-circuit effects" `Quick test_short_circuit_effects;
        Alcotest.test_case "input builtins" `Quick test_input_builtins;
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "globals" `Quick test_globals;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "crash: OOB read" `Quick test_crash_oob_read;
        Alcotest.test_case "crash: OOB write" `Quick test_crash_oob_write;
        Alcotest.test_case "crash: div/rem by zero" `Quick test_crash_div_rem;
        Alcotest.test_case "crash: seeded and check" `Quick test_crash_seeded_and_check;
        Alcotest.test_case "crash: bad alloc" `Quick test_crash_bad_alloc;
        Alcotest.test_case "crash: stack overflow" `Quick test_crash_stack_overflow;
        Alcotest.test_case "hang on fuel" `Quick test_hang;
        Alcotest.test_case "crash stack trace" `Quick test_crash_stack_trace;
        Alcotest.test_case "type confusion reports real site" `Quick
          test_type_confusion_site;
        Alcotest.test_case "max_depth is configurable" `Quick
          test_max_depth_configurable;
        Alcotest.test_case "steady-state allocation bounded" `Quick
          test_steady_state_allocation;
        Alcotest.test_case "top-5 hash stability" `Quick test_top5_hash_stability;
        Alcotest.test_case "hooks fire" `Quick test_hooks_fire;
        Alcotest.test_case "cmp hook" `Quick test_cmp_hook;
        Alcotest.test_case "blocks counted" `Quick test_blocks_counted;
      ] );
    ( "vm-properties",
      List.map QCheck_alcotest.to_alcotest [ prop_vm_total; prop_vm_deterministic ] );
  ]
