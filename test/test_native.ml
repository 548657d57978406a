(** Native-emission differential suite: the {!Vm.Emit} engine (generated
    OCaml source, out-of-process compile, Dynlink load) vs the
    interpreter-driven listeners — same status (crash kinds, sites,
    stacks), same block counts (hence fuel accounting), identical cmp
    streams and classified traces — on the curated subjects and on 300
    fixed-seed chain/diamond CFGs batch-compiled through
    {!Vm.Emit.preload}. A fuel ladder drives hang points into chain
    interiors where the emitted bulk-burn replay must reproduce the
    interpreter's exact accounting; [run_batch] is checked against
    one-shot runs.

    The whole suite degrades to a skip (with a stderr note) when the
    emitter reports unavailable — no OCaml compiler on PATH, no Dynlink
    — so [dune runtest] stays green on toolchain-less machines. *)

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

let feedback_hooks ?(h_cmp = fun _ _ -> ()) (fb : Pathcov.Feedback.t) :
    Vm.Interp.hooks =
  {
    Vm.Interp.h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
    h_cmp;
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

(* One availability probe for the whole suite: emit + compile + load a
   trivial subject. On failure every test below becomes a no-op pass
   (with one stderr note), keeping CI green without a toolchain. *)
let available =
  lazy
    (let prog = Minic.Lower.compile "fn main() { return 0; }" in
     let prepared = Vm.Interp.prepare prog in
     match Vm.Emit.instance prepared Pathcov.Feedback.Block with
     | Ok _ -> true
     | Error reason ->
         Printf.eprintf
           "[test_native] emitter unavailable (%s); suite skipped\n%!" reason;
         false)

let instance_exn ?plans ?cmplog prepared mode =
  match Vm.Emit.instance ?plans ?cmplog prepared mode with
  | Ok t -> t
  | Error reason -> Alcotest.failf "Emit.instance failed: %s" reason

(* Batch-compile every (curated subject, mode) pair the tests below
   need into a few grouped compilation units up front — ~6x fewer
   compiler spawns than letting each [instance] call build its own. *)
let curated_preloaded =
  lazy
    (let subs =
       List.map
         (fun s -> Vm.Interp.prepare (Subjects.Subject.compile_fresh s))
         Subjects.Registry.all
     in
     let triples =
       List.concat_map
         (fun prepared ->
           List.map (fun m -> (prepared, m, true)) all_modes)
         subs
     in
     ignore (Vm.Emit.preload triples))

(* --- curated subjects, every mode: native agrees with the
   interpreter-driven listeners (status, blocks, cmp stream, trace) --- *)

let test_native_mode_agreement () =
  if not (Lazy.force available) then ()
  else begin
    Lazy.force curated_preloaded;
    List.iter
      (fun (s : Subjects.Subject.t) ->
        let prog = Subjects.Subject.compile_fresh s in
        let prepared = Vm.Interp.prepare prog in
        List.iter
          (fun mode ->
            let fb = Pathcov.Feedback.make mode prog in
            let icmps = ref [] and ncmps = ref [] in
            let ictx =
              Vm.Interp.create_ctx
                ~hooks:
                  (feedback_hooks
                     ~h_cmp:(fun a b -> icmps := (a, b) :: !icmps)
                     fb)
                prepared
            in
            let nctx = Vm.Interp.create_ctx prepared in
            let art = instance_exn prepared mode in
            let entry = Vm.Emit.entry art in
            let ntrace = Pathcov.Coverage_map.create () in
            Vm.Emit.bind art ~trace:ntrace ~h_cmp:(fun a b ->
                ncmps := (a, b) :: !ncmps);
            Vm.Emit.arm art true;
            List.iter
              (fun input ->
                fb.reset ();
                Pathcov.Coverage_map.clear fb.trace;
                Pathcov.Coverage_map.clear ntrace;
                icmps := [];
                ncmps := [];
                let i = Vm.Interp.run_one ictx ~input in
                let n = Vm.Interp.run_one ~entry nctx ~input in
                let where =
                  Printf.sprintf "%s/%s %S" s.name
                    (Pathcov.Feedback.mode_name mode)
                    input
                in
                check status_t (where ^ " status") i.status n.status;
                check Alcotest.int (where ^ " blocks") i.blocks_executed
                  n.blocks_executed;
                check
                  Alcotest.(list (pair int int))
                  (where ^ " cmp stream") (List.rev !icmps) (List.rev !ncmps);
                Pathcov.Coverage_map.classify fb.trace;
                Pathcov.Coverage_map.classify ntrace;
                check
                  Alcotest.(list (pair int int))
                  (where ^ " classified trace")
                  (trace_contents fb.trace) (trace_contents ntrace))
              (subject_inputs s);
            (* disarmed, the unit's comparisons never reach [h_cmp] *)
            Vm.Emit.arm art false;
            ncmps := [];
            List.iter
              (fun input -> ignore (Vm.Interp.run_one ~entry nctx ~input))
              (subject_inputs s);
            check
              Alcotest.(list (pair int int))
              (Printf.sprintf "%s/%s disarmed cmp stream" s.name
                 (Pathcov.Feedback.mode_name mode))
              [] !ncmps)
          all_modes)
      Subjects.Registry.all
  end

(* --- 300 fixed-seed chain/diamond CFGs, modes rotated, artifacts
   batch-compiled up front through preload so the whole corpus costs a
   handful of compiler invocations (and zero on a warm cache) --- *)

let differential_corpus =
  lazy
    (let rand = Random.State.make [| 0xA11CE; 300 |] in
     let progs =
       QCheck.Gen.generate ~rand ~n:300 (QCheck.gen Gen.arbitrary_chain_ir)
     in
     let inputs =
       QCheck.Gen.generate ~rand ~n:300 (QCheck.gen Gen.arbitrary_input)
     in
     List.map2
       (fun prog input -> (prog, Vm.Interp.prepare prog, input))
       progs inputs)

let rotation_mode i = List.nth all_modes (i mod List.length all_modes)

let test_native_differential () =
  if not (Lazy.force available) then ()
  else begin
    let corpus = Lazy.force differential_corpus in
    let triples =
      List.mapi
        (fun i (_, prepared, _) ->
          (prepared, rotation_mode i, true))
        corpus
    in
    let served = Vm.Emit.preload triples in
    check Alcotest.int "preload serves the whole corpus"
      (List.length triples) served;
    List.iteri
      (fun i (prog, prepared, input) ->
        let mode = rotation_mode i in
        let fb = Pathcov.Feedback.make mode prog in
        let icmps = ref [] and ncmps = ref [] in
        let ictx =
          Vm.Interp.create_ctx
            ~hooks:
              (feedback_hooks ~h_cmp:(fun a b -> icmps := (a, b) :: !icmps) fb)
            prepared
        in
        let nctx = Vm.Interp.create_ctx prepared in
        let art = instance_exn prepared mode in
        let entry = Vm.Emit.entry art in
        let ntrace = Pathcov.Coverage_map.create () in
        Vm.Emit.bind art ~trace:ntrace ~h_cmp:(fun a b ->
            ncmps := (a, b) :: !ncmps);
        Vm.Emit.arm art true;
        fb.reset ();
        Pathcov.Coverage_map.clear fb.trace;
        let i_out = Vm.Interp.run_one ~fuel:50_000 ictx ~input in
        let n_out = Vm.Interp.run_one ~fuel:50_000 ~entry nctx ~input in
        let where =
          Printf.sprintf "cfg[%d]/%s" i (Pathcov.Feedback.mode_name mode)
        in
        check status_t (where ^ " status") i_out.status n_out.status;
        check Alcotest.int (where ^ " blocks") i_out.blocks_executed
          n_out.blocks_executed;
        check
          Alcotest.(list (pair int int))
          (where ^ " cmp stream") (List.rev !icmps) (List.rev !ncmps);
        Pathcov.Coverage_map.classify fb.trace;
        Pathcov.Coverage_map.classify ntrace;
        check
          Alcotest.(list (pair int int))
          (where ^ " classified trace")
          (trace_contents fb.trace) (trace_contents ntrace))
      corpus
  end

(* --- fuel ladder over the Path-mode slice of the corpus: hang points
   land mid-chain; the emitted bulk-burn dispatcher must give them back
   and replay carefully with the interpreter's exact accounting --- *)

let test_native_fuel_ladder () =
  if not (Lazy.force available) then ()
  else
    List.iteri
      (fun i (prog, prepared, input) ->
        if i mod List.length all_modes = 3 (* the Path rotation slots *)
        then begin
          let fb = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
          let ictx = Vm.Interp.create_ctx ~hooks:(feedback_hooks fb) prepared in
          let nctx = Vm.Interp.create_ctx prepared in
          let art =
            instance_exn prepared Pathcov.Feedback.Path
          in
          let entry = Vm.Emit.entry art in
          let ntrace = Pathcov.Coverage_map.create () in
          Vm.Emit.bind art ~trace:ntrace ~h_cmp:(fun _ _ -> ());
          List.iter
            (fun fuel ->
              fb.reset ();
              Pathcov.Coverage_map.clear fb.trace;
              Pathcov.Coverage_map.clear ntrace;
              let i_out = Vm.Interp.run_one ~fuel ictx ~input in
              let n_out = Vm.Interp.run_one ~fuel ~entry nctx ~input in
              let where = Printf.sprintf "cfg[%d] fuel=%d" i fuel in
              check status_t (where ^ " status") i_out.status n_out.status;
              check Alcotest.int (where ^ " blocks") i_out.blocks_executed
                n_out.blocks_executed;
              Pathcov.Coverage_map.classify fb.trace;
              Pathcov.Coverage_map.classify ntrace;
              check
                Alcotest.(list (pair int int))
                (where ^ " trace")
                (trace_contents fb.trace) (trace_contents ntrace))
            [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 500; 5_000 ]
        end)
      (Lazy.force differential_corpus)

(* --- batch entry: one run_batch call over a subject's inputs must
   reproduce the one-shot runs candidate for candidate; a context over
   another prepared program is refused --- *)

let test_native_batch_agreement () =
  if not (Lazy.force available) then ()
  else begin
    Lazy.force curated_preloaded;
    List.iter
      (fun (s : Subjects.Subject.t) ->
        let prog = Subjects.Subject.compile_fresh s in
        let prepared = Vm.Interp.prepare prog in
        let art =
          instance_exn prepared Pathcov.Feedback.Path
        in
        let entry = Vm.Emit.entry art in
        let trace = Pathcov.Coverage_map.create () in
        Vm.Emit.bind art ~trace ~h_cmp:(fun _ _ -> ());
        let inputs = Array.of_list (subject_inputs s) in
        let n = Array.length inputs in
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
  end

(* --- cache hygiene: a second instantiation of an already-served triple
   must be a registry hit, never a recompile --- *)

let test_native_cache_hit () =
  if not (Lazy.force available) then ()
  else begin
    let s = Subjects.Registry.find_exn "cflow" in
    let prog = Subjects.Subject.compile_fresh s in
    let prepared = Vm.Interp.prepare prog in
    let _ =
      instance_exn prepared Pathcov.Feedback.Path
    in
    let before = Vm.Emit.stats () in
    let _ =
      instance_exn prepared Pathcov.Feedback.Path
    in
    let after = Vm.Emit.stats () in
    check Alcotest.int "second instance is a cache hit"
      (before.cache_hits + 1) after.cache_hits;
    check Alcotest.int "second instance compiles nothing"
      before.cache_misses after.cache_misses
  end

(* --- forced failure: PATHFUZZ_EMIT_FAIL=1 must turn every
   instantiation into a clean Error (the campaign fallback hook) --- *)

let test_native_forced_fail () =
  let prog = Minic.Lower.compile "fn main() { return 0; }" in
  let prepared = Vm.Interp.prepare prog in
  Unix.putenv "PATHFUZZ_EMIT_FAIL" "1";
  let r = Vm.Emit.instance prepared Pathcov.Feedback.Block in
  Unix.putenv "PATHFUZZ_EMIT_FAIL" "";
  check_bool "forced failure yields Error" true (Result.is_error r)

(* --- journal boundary: one execution touches more than twice the
   trace map's 256-entry initial journal (so the emitted hit's inline
   append falls back to the host's growth, twice) and hits some index
   more than 255 times (saturation). [wide] is a chain of 300 taken
   branches (distinct blocks and edges); [main]'s first loop takes one
   of 1,024 acyclic paths per iteration and its second loop repeats
   one path 300 times. A second run reuses the grown journal. --- *)

let journal_src =
  let b = Buffer.create 16384 in
  Buffer.add_string b "global g;\nfn wide() {\n";
  for k = 0 to 299 do
    Printf.bprintf b "  if (in(0) != %d) { g = g + %d; }\n" k (k + 1)
  done;
  Buffer.add_string b
    "  return g;\n}\nfn main() {\n  var i = 0;\n  var acc = 0;\n  while (i < 700) {\n";
  for bit = 0 to 9 do
    Printf.bprintf b
      "    if ((i >> %d) & 1) { acc = acc + %d; } else { acc = acc - 1; }\n"
      bit (bit + 1)
  done;
  Buffer.add_string b
    "    i = i + 1;\n  }\n  var j = 0;\n  while (j < 300) { j = j + 1; }\n  return acc + wide();\n}\n";
  Buffer.contents b

let test_native_journal_boundary () =
  if not (Lazy.force available) then ()
  else begin
    let prog = Minic.Lower.compile journal_src in
    let prepared = Vm.Interp.prepare prog in
    let module M = Pathcov.Coverage_map in
    List.iter
      (fun mode ->
        let fb = Pathcov.Feedback.make mode prog in
        let ictx = Vm.Interp.create_ctx ~hooks:(feedback_hooks fb) prepared in
        let nctx = Vm.Interp.create_ctx prepared in
        let art = instance_exn prepared mode in
        let entry = Vm.Emit.entry art in
        let ntrace = M.create () in
        Vm.Emit.bind art ~trace:ntrace ~h_cmp:(fun _ _ -> ());
        List.iteri
          (fun run input ->
            fb.reset ();
            M.clear fb.trace;
            M.clear ntrace;
            let i = Vm.Interp.run_one ictx ~input in
            let n = Vm.Interp.run_one ~entry nctx ~input in
            let where =
              Printf.sprintf "%s run %d" (Pathcov.Feedback.mode_name mode) run
            in
            check status_t (where ^ " status") i.status n.status;
            check Alcotest.int (where ^ " blocks") i.blocks_executed
              n.blocks_executed;
            check_bool (where ^ " touches > 2x the initial journal") true
              (M.count_set fb.trace > 512);
            let saturated = ref false in
            M.iteri_set (fun _ c -> if c = 255 then saturated := true) fb.trace;
            check_bool (where ^ " saturates an index") true !saturated;
            check Alcotest.int (where ^ " raw bytes_hash") (M.bytes_hash fb.trace)
              (M.bytes_hash ntrace);
            check Alcotest.int (where ^ " count_set") (M.count_set fb.trace)
              (M.count_set ntrace);
            check
              Alcotest.(array int)
              (where ^ " sorted_indices") (M.sorted_indices fb.trace)
              (M.sorted_indices ntrace);
            M.classify fb.trace;
            M.classify ntrace;
            check Alcotest.int (where ^ " classified bytes_hash")
              (M.bytes_hash fb.trace) (M.bytes_hash ntrace);
            check
              Alcotest.(list (pair int int))
              (where ^ " classified trace, journal order")
              (trace_contents fb.trace) (trace_contents ntrace))
          [ ""; "A" ])
      [
        Pathcov.Feedback.Block;
        Pathcov.Feedback.Edge;
        Pathcov.Feedback.Path;
        Pathcov.Feedback.Pathafl;
      ]
  end

(* --- the path register across activations: [down] recurses 100 deep
   (past the 64 registers a heap register stack would start with),
   commits a loop's back edges in every activation before and after its
   recursive call, and commits its return after each callee returns.
   Byte 0 picks the depth whose store indexes out of bounds; a small
   fuel budget runs out mid-descent. Each abort is followed by clean
   runs on the same instance and contexts, which must agree with the
   interpreter as if nothing had happened. Path mode, cmplog on and
   off. --- *)

let recursion_src =
  {|
fn down(n) {
  var acc = 0;
  var a = array(2);
  var i = 0;
  while (i < 3) {
    if (in(i + 1) > 64) { acc = acc + 1; } else { acc = acc - 1; }
    i = i + 1;
  }
  if (n == in(0)) { a[n] = acc; }
  if (n > 0) { acc = acc + down(n - 1); }
  var j = 0;
  while (j < 2) {
    if ((in(4) >> j) & 1) { acc = acc + 3; }
    j = j + 1;
  }
  return acc;
}
fn main() { return down(100); }
|}

let test_native_deep_recursion () =
  if not (Lazy.force available) then ()
  else begin
    let prog = Minic.Lower.compile recursion_src in
    let prepared = Vm.Interp.prepare prog in
    let clean1 = "\200\010\100\070\005"
    and clean2 = "\255\090\003\066\002"
    and crash = "\050\010\100\070\005" in
    let runs =
      [
        ("clean", clean1, None, `Finished);
        ("crash at n = 50", crash, None, `Crashed);
        ("clean after crash", clean2, None, `Finished);
        ("clean after crash, again", clean1, None, `Finished);
        ("fuel out mid-descent", clean1, Some 1_500, `Hung);
        ("clean after hang", clean2, None, `Finished);
        ("clean after hang, again", clean1, None, `Finished);
      ]
    in
    List.iter
      (fun cmplog ->
        let fb = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
        let icmps = ref [] and ncmps = ref [] in
        let ictx =
          Vm.Interp.create_ctx
            ~hooks:
              (feedback_hooks ~h_cmp:(fun a b -> icmps := (a, b) :: !icmps) fb)
            prepared
        in
        let nctx = Vm.Interp.create_ctx prepared in
        let art = instance_exn ~cmplog prepared Pathcov.Feedback.Path in
        let entry = Vm.Emit.entry art in
        let ntrace = Pathcov.Coverage_map.create () in
        Vm.Emit.bind art ~trace:ntrace ~h_cmp:(fun a b ->
            ncmps := (a, b) :: !ncmps);
        Vm.Emit.arm art true;
        List.iter
          (fun (name, input, fuel, ends) ->
            fb.reset ();
            Pathcov.Coverage_map.clear fb.trace;
            Pathcov.Coverage_map.clear ntrace;
            icmps := [];
            ncmps := [];
            let i = Vm.Interp.run_one ?fuel ictx ~input in
            let n = Vm.Interp.run_one ?fuel ~entry nctx ~input in
            let where =
              Printf.sprintf "%s %s" (if cmplog then "cmplog" else "plain") name
            in
            check_bool (where ^ " ends as intended") true
              (match (i.status, ends) with
              | Vm.Interp.Crashed _, `Crashed
              | Vm.Interp.Hung, `Hung
              | Vm.Interp.Finished (Some _), `Finished ->
                  true
              | _ -> false);
            check status_t (where ^ " status") i.status n.status;
            check Alcotest.int (where ^ " blocks") i.blocks_executed
              n.blocks_executed;
            check
              Alcotest.(list (pair int int))
              (where ^ " cmp stream")
              (if cmplog then List.rev !icmps else [])
              (List.rev !ncmps);
            Pathcov.Coverage_map.classify fb.trace;
            Pathcov.Coverage_map.classify ntrace;
            check
              Alcotest.(list (pair int int))
              (where ^ " classified trace")
              (trace_contents fb.trace) (trace_contents ntrace))
          runs)
      [ true; false ]
  end

(* --- fail-safe cache key: changing any interface a generated unit
   links against changes the key, so a stale plugin is never loaded ---
   (no compiler needed: the toolchain's digests are read from a scratch
   include directory) *)

let test_native_key_tracks_interfaces () =
  let prepared = Vm.Interp.prepare (Minic.Lower.compile "fn main() { return 0; }") in
  let dir = Filename.temp_dir "pf_emit_key" "" in
  let write name body =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc body)
  in
  List.iter (fun name -> write name "v1") Vm.Emit.linked_interfaces;
  let key () =
    match Vm.Emit.toolchain [ dir ] with
    | Ok tc -> Vm.Emit.key_of tc prepared Pathcov.Feedback.Path true
    | Error e -> Alcotest.failf "scratch toolchain refused: %s" e
  in
  let k0 = key () in
  check Alcotest.string "key is stable" k0 (key ());
  List.iter
    (fun name ->
      write name "v2";
      check_bool (name ^ " change invalidates the key") true (key () <> k0);
      write name "v1")
    Vm.Emit.linked_interfaces;
  check Alcotest.string "restored interfaces restore the key" k0 (key ());
  let missing = List.hd Vm.Emit.linked_interfaces in
  Sys.remove (Filename.concat dir missing);
  check_bool "a missing interface is no toolchain" true
    (Result.is_error (Vm.Emit.toolchain [ dir ]));
  List.iter
    (fun name -> Sys.remove (Filename.concat dir name))
    (List.tl Vm.Emit.linked_interfaces);
  Sys.rmdir dir

(* --- bounded children: a child still running at the bound is killed
   and reaped, and the caller gets an Error well before the child would
   have exited --- *)

let test_native_spawn_bounded () =
  let dir = Filename.temp_dir "pf_emit_spawn" "" in
  let log = Filename.concat dir "sleep.log" in
  let t0 = Unix.gettimeofday () in
  (* the shell prints its PID, then becomes [sleep 5] under it *)
  let r =
    Vm.Emit.spawn ~bound:0.2 ~log [ "sh"; "-c"; "echo $$; exec sleep 5" ]
  in
  let dt = Unix.gettimeofday () -. t0 in
  (match r with
  | Ok _ -> Alcotest.fail "a 5 s child finished under a 0.2 s bound"
  | Error e ->
      check_bool ("timed out: " ^ e) true
        (String.ends_with ~suffix:"timed out after 0.2 s" e));
  check_bool (Printf.sprintf "returned within 1 s (%.3f s)" dt) true (dt < 1.);
  let pid = int_of_string (String.trim (In_channel.with_open_bin log In_channel.input_all)) in
  check_bool "the child is reaped" true
    (match Unix.kill pid 0 with
    | () -> false
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true);
  check_bool "a finished child's output comes back" true
    (Vm.Emit.spawn ~log [ "echo"; "hi" ] = Ok "hi\n");
  check_bool "an unknown program is an Error" true
    (Result.is_error (Vm.Emit.spawn ~log [ "pf-no-such-program" ]));
  Sys.remove log;
  Sys.rmdir dir

(* --- fail-safe cache directory: scratch directories left by builds
   whose process died are collected; a live process's are kept --- *)

let test_native_collects_stale_tmp () =
  let dir = Filename.temp_dir "pf_emit_tmp" "" in
  (* a reaped child's PID names no live process *)
  let dead =
    let pid =
      Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
        Unix.stderr
    in
    ignore (Unix.waitpid [] pid);
    pid
  in
  let mk name =
    let d = Filename.concat dir name in
    Unix.mkdir d 0o755;
    Out_channel.with_open_bin (Filename.concat d "unit.ml") (fun oc ->
        output_string oc "let x = 1\n");
    d
  in
  let stale = mk (Printf.sprintf "tmp-%d-x" dead) in
  let live = mk (Printf.sprintf "tmp-%d-x" (Unix.getpid ())) in
  check Alcotest.int "one directory collected" 1
    (Vm.Emit.collect_stale_tmp dir);
  check_bool "dead PID's directory removed" false (Sys.file_exists stale);
  check_bool "live PID's directory kept" true (Sys.file_exists live);
  Sys.remove (Filename.concat live "unit.ml");
  Sys.rmdir live;
  Sys.rmdir dir

(* --- fail-safe build: a unit that cannot be built (here: its cache
   directory cannot be created) is tried once per process, and every
   later instantiation returns the same error without a rebuild --- *)

let test_native_failed_build_remembered () =
  let file = Filename.temp_file "pf_emit_nodir" "" in
  let before = Sys.getenv_opt "PATHFUZZ_EMIT_CACHE" in
  Unix.putenv "PATHFUZZ_EMIT_CACHE" (Filename.concat file "cache");
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PATHFUZZ_EMIT_CACHE" (Option.value before ~default:"");
      Sys.remove file)
    (fun () ->
      let prepared =
        Vm.Interp.prepare
          (Minic.Lower.compile "fn main() { return in(0) + 4711; }")
      in
      let misses () = (Vm.Emit.stats ()).cache_misses in
      let m0 = misses () in
      let attempt () =
        match Vm.Emit.instance prepared Pathcov.Feedback.Edge with
        | Ok _ -> Alcotest.fail "built a unit in an uncreatable cache dir"
        | Error e -> e
      in
      let first = attempt () in
      check Alcotest.string "the same error again" first (attempt ());
      check Alcotest.int "one build attempted" 1 (misses () - m0))

let suite =
  [
    ( "native",
      [
        Alcotest.test_case "subjects: every mode agrees" `Quick
          test_native_mode_agreement;
        Alcotest.test_case "300 chain/diamond CFGs agree" `Slow
          test_native_differential;
        Alcotest.test_case "fuel accounting exact at every budget" `Slow
          test_native_fuel_ladder;
        Alcotest.test_case "batch agrees with one-shot runs" `Quick
          test_native_batch_agreement;
        Alcotest.test_case "repeat instantiation hits the cache" `Quick
          test_native_cache_hit;
        Alcotest.test_case "PATHFUZZ_EMIT_FAIL forces clean failure" `Quick
          test_native_forced_fail;
        Alcotest.test_case "journal growth and saturation agree" `Quick
          test_native_journal_boundary;
        Alcotest.test_case "path register across deep recursion and aborts"
          `Quick test_native_deep_recursion;
        Alcotest.test_case "cache key tracks linked interfaces" `Quick
          test_native_key_tracks_interfaces;
        Alcotest.test_case "stale build directories collected" `Quick
          test_native_collects_stale_tmp;
        Alcotest.test_case "failed build tried once per process" `Quick
          test_native_failed_build_remembered;
        Alcotest.test_case "child processes are bounded" `Quick
          test_native_spawn_bounded;
      ] );
  ]
