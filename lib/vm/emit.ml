(* Per-subject native code emission: print a prepared subject as
   straight-line OCaml over the pooled [Interp.exec_ctx] API, compile
   it out-of-process, Dynlink the artifact, and hand back a runnable
   instance. The generated code renders the same [Plan] as the closure
   engine, op for op — same evaluation order, same crash sites, same
   fuel discipline (bulk burn + careful replay over the same segments),
   the same probe ops ([Pathcov.Feedback.table], printed by [op_text])
   — so the differential suite can hold it to the boxed reference
   interpreter bit for bit (DESIGN §15).

   Each block group the plan reaches is one function: its segments run
   in line, their calls in between, and only the terminator jumps (a
   tail call). A label that heads no reached group gets no function.
   A unit whose table uses the Ball–Larus register passes it to every
   block function as an [int] argument held in a local [ref], which
   ocamlopt keeps in a machine register; an int return writes [ret_a]
   only when it holds an array, skipping [caml_modify]. *)

open Interp

let emitter_version = 8

(* ------------------------------------------------------------------ *)
(* Plugin side-channel *)

type raw = {
  r_set_trace : Pathcov.Coverage_map.t -> unit;
  r_set_cmp : (int -> int -> unit) -> unit;
  r_armed : bool ref;
  r_reset : unit -> unit;
  r_enter : exec_ctx -> unit;
}

let lock = Mutex.create ()

(* Filled by generated module initialisers during [Dynlink.loadfile],
   which only ever runs under [lock]; drained into [makers] right
   after the load returns. *)
let pending : (string * (unit -> raw)) list ref = ref []
let register ~key make = pending := (key, make) :: !pending

let makers : (string, unit -> raw) Hashtbl.t = Hashtbl.create 64
let loaded_paths : (string, unit) Hashtbl.t = Hashtbl.create 16

(* ------------------------------------------------------------------ *)
(* Introspection *)

type stats = {
  cache_hits : int;
  cache_misses : int;
  fallbacks : int;
  compile_s : float;
}

let hits = Atomic.make 0
let misses = Atomic.make 0
let fallback_count = Atomic.make 0
let compile_us = Atomic.make 0

let stats () =
  {
    cache_hits = Atomic.get hits;
    cache_misses = Atomic.get misses;
    fallbacks = Atomic.get fallback_count;
    compile_s = float_of_int (Atomic.get compile_us) /. 1e6;
  }

let note_fallback () = Atomic.incr fallback_count

let add_compile_s dt =
  ignore (Atomic.fetch_and_add compile_us (int_of_float (dt *. 1e6)))

let forced_fail () =
  match Sys.getenv_opt "PATHFUZZ_EMIT_FAIL" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* ------------------------------------------------------------------ *)
(* Artifact cache location *)

let forced_dir : string option ref = ref None
let set_cache_dir d = forced_dir := Some d

let cache_dir () =
  match !forced_dir with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "PATHFUZZ_EMIT_CACHE" with
      | Some d when d <> "" -> d
      | _ -> (
          match Sys.getenv_opt "XDG_CACHE_HOME" with
          | Some d when d <> "" -> Filename.concat d "pathfuzz-emit"
          | _ -> (
              match Sys.getenv_opt "HOME" with
              | Some h when h <> "" ->
                  Filename.concat h (Filename.concat ".cache" "pathfuzz-emit")
              | _ ->
                  Filename.concat
                    (Filename.get_temp_dir_name ())
                    "pathfuzz-emit")))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error _ -> ()
  end

let cleanup_dir d =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
       (Sys.readdir d)
   with _ -> ());
  try Unix.rmdir d with _ -> ()

(* A build's scratch directory is [tmp-PID-KEY]; a process killed
   mid-compile leaves its directory behind. Remove every one whose PID
   names no live process ([kill pid 0] fails with [ESRCH]); live PIDs
   (including our own) and other names are left alone. *)
let collect_stale_tmp (dir : string) : int =
  let removed = ref 0 in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.iter
    (fun f ->
      match Scanf.sscanf_opt f "tmp-%d-%_s" (fun pid -> pid) with
      | Some pid when pid > 0 -> (
          match Unix.kill pid 0 with
          | () -> ()
          | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
              let d = Filename.concat dir f in
              cleanup_dir d;
              if not (Sys.file_exists d) then incr removed
          | exception Unix.Unix_error _ -> ())
      | _ -> ())
    entries;
  !removed

let collected = Atomic.make false

let cache_dir_ensured () =
  let d = cache_dir () in
  mkdir_p d;
  if not (Atomic.exchange collected true) then ignore (collect_stale_tmp d);
  d

let artifact_ext = if Dynlink.is_native then ".cmxs" else ".cmo"

let artifact_path key =
  Filename.concat (cache_dir_ensured ()) ("pf_emit_" ^ key ^ artifact_ext)

(* ------------------------------------------------------------------ *)
(* Source generation: probe text *)

let lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

(* One probe op as a unit statement over the unit's registers ([trace],
   [prev], [hist]/[pos], [rolling]) and the block function's path
   register [pr]: the text form of [Pathcov.Feedback.closure]. [Push]
   prints nothing: a callee's register starts as the [0] its entry
   passes to block 0, and dies with the activation, so [Commit_ret] only
   hits the map. *)
let op_text (op : Pathcov.Feedback.op) : string option =
  match op with
  | Hit key -> Some (Printf.sprintf "hit !trace %s" (lit key))
  | Hit_edge cur ->
      Some
        (Printf.sprintf "hit !trace (%s lxor !prev); prev := %s" (lit cur)
           (lit (cur lsr 1)))
  | Hit_ngram { key; n } ->
      Some
        (Printf.sprintf
           "Array.unsafe_set hist (!pos mod %d) %s; pos := !pos + 1; let h = \
            ref 0 in for i = 0 to %d do h := !h lxor (Array.unsafe_get hist i \
            lsr (i land 15)) done; hit !trace !h"
           n (lit key) (n - 1))
  | Push -> None
  | Add k -> Some (Printf.sprintf "pr := !pr + %s" (lit k))
  | Commit_back { add; salt; reset } ->
      Some
        (Printf.sprintf
           "hit !trace (((!pr + %s) lxor %s) land max_int); pr := %s" (lit add)
           (lit salt) (lit reset))
  | Commit_ret { add; salt } ->
      Some
        (Printf.sprintf "hit !trace (((!pr + %s) lxor %s) land max_int)"
           (lit add) (lit salt))
  | Roll k ->
      Some
        (Printf.sprintf
           "rolling := (((!rolling lsl 13) lor (!rolling lsr 49)) lxor %s) \
            land max_int; hit !trace !rolling"
           (lit k))

(* A site's probe as a statement of a block function's sequence. *)
let probe_stmt (op : Pathcov.Feedback.op option) : string =
  match Option.bind op op_text with None -> "" | Some t -> "(" ^ t ^ ");\n"

(* Whether [tb] uses the Ball–Larus path register anywhere in [p]. If
   so, every block function takes it as an argument, which needs a
   fresh register per activation: every call site must [Push]. *)
let threads_register (tb : Pathcov.Feedback.table) (p : prepared) : bool =
  let reg = function
    | Some Pathcov.Feedback.(Push | Add _ | Commit_back _ | Commit_ret _) -> true
    | _ -> false
  in
  let term fid b = function
    | Rgoto l -> reg (tb.edge fid b l)
    | Rbranch (_, t, f, _) -> reg (tb.edge fid b t) || reg (tb.edge fid b f)
    | Rret _ -> reg (tb.ret fid b)
  in
  let fids = List.init (Array.length p.rfuncs) Fun.id in
  let used =
    List.exists
      (fun fid ->
        reg (tb.call fid)
        || Array.exists Fun.id
             (Array.mapi
                (fun b (blk : rblock) ->
                  reg (tb.block fid b) || term fid b blk.rterm)
                p.rfuncs.(fid).rblocks))
      fids
  in
  let pushes fid = tb.call fid = Some Pathcov.Feedback.Push in
  if used && not (List.for_all pushes fids) then
    invalid_arg "Emit: a mode using the path register must Push at every call";
  used

(* ------------------------------------------------------------------ *)
(* Source generation: one subject *)

let slot_lit = function
  | Local i -> Printf.sprintf "(I.Local %d)" i
  | Global g -> Printf.sprintf "(I.Global %d)" g

let rel_of = function
  | Ceq -> "="
  | Cne -> "<>"
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let gen_subject (buf : Buffer.t) ~(key : string) ?plans ~(cmplog : bool)
    (p : prepared) (mode : Pathcov.Feedback.mode) : unit =
  let tb = Pathcov.Feedback.table ?plans mode p.prog in
  let threaded = threads_register tb p in
  (* A jump to block [l] of function [fid], passing the path register
     when the unit threads it. *)
  let jump fid l =
    Printf.sprintf "b_%d_%d ctx fr%s" fid l (if threaded then " !pr" else "")
  in
  let typing = Plan.may_array_analysis p in
  let zeroes = Plan.zero_slots_analysis p in
  let gma = typing.Plan.gmay in
  let ngram_n = match mode with Pathcov.Feedback.Ngram n -> n | _ -> 0 in
  let nextv = ref 0 in
  let fresh () =
    incr nextv;
    Printf.sprintf "v%d" !nextv
  in
  let parts : (string * string) list ref = ref [] in
  let push head body = parts := (head, body) :: !parts in
  (* One function's bodies: expression/statement printers close over
     the function's may-array row. *)
  let gen_fn fid (f : rfunc) =
    let ma = typing.Plan.lmay.(fid) in
    let rec exp (e : rexpr) : string =
      match e with
      | Rconst n -> lit n
      | Rload (Local i, site) ->
          if ma.(i) then
            Printf.sprintf
              "(if fr.I.f_arrs_live && Array.unsafe_get fr.I.f_arrs %d != \
               I.no_arr then raise (I.Crash_exn (C.Type_error \"int \
               expected\", %s)) else Array.unsafe_get fr.I.f_ints %d)"
              i (lit site) i
          else Printf.sprintf "(Array.unsafe_get fr.I.f_ints %d)" i
      | Rload (Global g, site) ->
          if gma.(g) then
            Printf.sprintf
              "(if Array.unsafe_get ctx.I.garrs %d != I.no_arr then raise \
               (I.Crash_exn (C.Type_error \"int expected\", %s)) else \
               Array.unsafe_get ctx.I.gints %d)"
              g (lit site) g
          else Printf.sprintf "(Array.unsafe_get ctx.I.gints %d)" g
      | Rindex (b, i, site) ->
          let a = fresh () and iv = fresh () in
          Printf.sprintf
            "(let %s = %s in let %s = %s in if %s < 0 || %s >= Array.length \
             %s then raise (I.Crash_exn (C.Out_of_bounds { len = \
             Array.length %s; idx = %s }, %s)) else Array.unsafe_get %s %s)"
            a (aexp site b) iv (exp i) iv iv a a iv (lit site) a iv
      | Rarith (op, e1, e2, site) ->
          let a = fresh () and b = fresh () in
          let body =
            match op with
            | Aadd -> Printf.sprintf "%s + %s" a b
            | Asub -> Printf.sprintf "%s - %s" a b
            | Amul -> Printf.sprintf "%s * %s" a b
            | Adiv ->
                Printf.sprintf
                  "if %s = 0 then raise (I.Crash_exn (C.Div_by_zero, %s)) \
                   else %s / %s"
                  b (lit site) a b
            | Arem ->
                Printf.sprintf
                  "if %s = 0 then raise (I.Crash_exn (C.Div_by_zero, %s)) \
                   else %s mod %s"
                  b (lit site) a b
            | Aband -> Printf.sprintf "%s land %s" a b
            | Abor -> Printf.sprintf "%s lor %s" a b
            | Abxor -> Printf.sprintf "%s lxor %s" a b
            | Ashl -> Printf.sprintf "%s lsl min 62 (%s land 63)" a b
            | Ashr -> Printf.sprintf "%s asr min 62 (%s land 63)" a b
          in
          Printf.sprintf "(let %s = %s in let %s = %s in %s)" a (exp e1) b
            (exp e2) body
      | Rcmp (op, e1, e2) ->
          let a = fresh () and b = fresh () in
          Printf.sprintf "(let %s = %s in let %s = %s in %sif %s %s %s then \
                          1 else 0)"
            a (exp e1) b (exp e2)
            (if cmplog then
               Printf.sprintf "if !armed then (!hcmp) %s %s; " a b
             else "")
            a (rel_of op) b
      | Rneg e -> Printf.sprintf "(- %s)" (exp e)
      | Rnot e -> Printf.sprintf "(if %s = 0 then 1 else 0)" (exp e)
      | Rbnot e -> Printf.sprintf "(lnot %s)" (exp e)
      | Rin e ->
          let i = fresh () in
          Printf.sprintf
            "(let %s = %s in if %s < 0 || %s >= ctx.I.input_len then (-1) \
             else Char.code (String.unsafe_get ctx.I.input %s))"
            i (exp e) i i i
      | Rlen -> "ctx.I.input_len"
      | Rabs e -> Printf.sprintf "(abs %s)" (exp e)
      | Rarray_make (_, site) ->
          Printf.sprintf
            "(raise (I.Crash_exn (C.Type_error \"array in int context\", \
             %s)))"
            (lit site)
      | Rarray_len (e, site) ->
          Printf.sprintf "(Array.length %s)" (aexp site e)
    and aexp (site : int) (e : rexpr) : string =
      match e with
      | Rload (Local i, _) ->
          if ma.(i) then
            let a = fresh () in
            Printf.sprintf
              "(let %s = if fr.I.f_arrs_live then Array.unsafe_get \
               fr.I.f_arrs %d else I.no_arr in if %s == I.no_arr then raise \
               (I.Crash_exn (C.Type_error \"array expected\", %s)) else %s)"
              a i a (lit site) a
          else
            Printf.sprintf
              "(raise (I.Crash_exn (C.Type_error \"array expected\", %s)))"
              (lit site)
      | Rload (Global g, _) ->
          if gma.(g) then
            let a = fresh () in
            Printf.sprintf
              "(let %s = Array.unsafe_get ctx.I.garrs %d in if %s == \
               I.no_arr then raise (I.Crash_exn (C.Type_error \"array \
               expected\", %s)) else %s)"
              a g a (lit site) a
          else
            Printf.sprintf
              "(raise (I.Crash_exn (C.Type_error \"array expected\", %s)))"
              (lit site)
      | Rarray_make (n, site') ->
          let v = fresh () in
          Printf.sprintf
            "(let %s = %s in if %s < 0 || %s > I.max_alloc then raise \
             (I.Crash_exn (C.Bad_alloc %s, %s)) else Array.make %s 0)"
            v (exp n) v v v (lit site') v
      | _ ->
          Printf.sprintf
            "(raise (I.Crash_exn (C.Type_error \"array expected\", %s)))"
            (lit site)
    in
    let cond (e : rexpr) : string =
      match e with
      | Rcmp (op, e1, e2) ->
          let a = fresh () and b = fresh () in
          Printf.sprintf "(let %s = %s in let %s = %s in %s%s %s %s)" a
            (exp e1) b (exp e2)
            (if cmplog then
               Printf.sprintf "if !armed then (!hcmp) %s %s; " a b
             else "")
            a (rel_of op) b
      | Rnot e -> Printf.sprintf "(%s = 0)" (exp e)
      | _ -> Printf.sprintf "(%s <> 0)" (exp e)
    in
    (* [Interp.write_int] specialised by slot kind and the destination's
       typing row: store int [v] into [dstv]'s slot [dst]. *)
    let store_int ~(dstma : bool array) ~(dstv : string) (dst : slot)
        (v : string) : string =
      match dst with
      | Local i ->
          if dstma.(i) then
            let t = fresh () in
            Printf.sprintf
              "(let %s = %s in Array.unsafe_set %s.I.f_ints %d %s; if \
               %s.I.f_arrs_live && Array.unsafe_get %s.I.f_arrs %d != \
               I.no_arr then Array.unsafe_set %s.I.f_arrs %d I.no_arr)"
              t v dstv i t dstv dstv i dstv i
          else Printf.sprintf "(Array.unsafe_set %s.I.f_ints %d %s)" dstv i v
      | Global g ->
          if gma.(g) then
            let t = fresh () in
            Printf.sprintf
              "(let %s = %s in touch ctx %d; Array.unsafe_set ctx.I.gints %d \
               %s; if Array.unsafe_get ctx.I.garrs %d != I.no_arr then \
               Array.unsafe_set ctx.I.garrs %d I.no_arr)"
              t v g g t g g
          else
            let t = fresh () in
            Printf.sprintf
              "(let %s = %s in touch ctx %d; Array.unsafe_set ctx.I.gints %d \
               %s)"
              t v g g t
    in
    (* [Interp.eval_into]: evaluate in the caller frame [fr], store
       into [dstv]'s slot [dst] under the destination's typing row. *)
    let into ~(dstma : bool array) ~(dstv : string) (dst : slot) (e : rexpr)
        : string =
      let store_int = store_int ~dstma ~dstv dst in
      match e with
      | Rload ((Local i) as s, _) when ma.(i) ->
          Printf.sprintf "(I.copy_slot ctx fr %s %s %s)" (slot_lit s) dstv
            (slot_lit dst)
      | Rload ((Global g) as s, _) when gma.(g) ->
          Printf.sprintf "(I.copy_slot ctx fr %s %s %s)" (slot_lit s) dstv
            (slot_lit dst)
      | Rload (Local i, _) ->
          store_int (Printf.sprintf "(Array.unsafe_get fr.I.f_ints %d)" i)
      | Rload (Global g, _) ->
          store_int (Printf.sprintf "(Array.unsafe_get ctx.I.gints %d)" g)
      | Rarray_make (n, site) ->
          let v = fresh () in
          Printf.sprintf
            "(let %s = %s in if %s < 0 || %s > I.max_alloc then raise \
             (I.Crash_exn (C.Bad_alloc %s, %s)) else I.write_arr ctx %s %s \
             (Array.make %s 0))"
            v (exp n) v v v (lit site) dstv (slot_lit dst) v
      | _ -> store_int (exp e)
    in
    (* An int return stores [ret_a] only when it holds an array: the
       store is a [caml_modify], the test a load. *)
    let ret_int = "if ctx.I.ret_a != I.no_arr then ctx.I.ret_a <- I.no_arr" in
    let ret_stmt (e : rexpr option) : string =
      match e with
      | None -> Printf.sprintf "(%s; ctx.I.ret_i <- 0)" ret_int
      | Some (Rload (Local i, _)) ->
          if ma.(i) then
            let a = fresh () in
            Printf.sprintf
              "(let %s = if fr.I.f_arrs_live then Array.unsafe_get \
               fr.I.f_arrs %d else I.no_arr in if %s != I.no_arr then \
               ctx.I.ret_a <- %s else begin %s; ctx.I.ret_i <- \
               Array.unsafe_get fr.I.f_ints %d end)"
              a i a a ret_int i
          else
            Printf.sprintf "(%s; ctx.I.ret_i <- Array.unsafe_get fr.I.f_ints %d)"
              ret_int i
      | Some (Rload (Global g, _)) ->
          if gma.(g) then
            let a = fresh () in
            Printf.sprintf
              "(let %s = Array.unsafe_get ctx.I.garrs %d in if %s != \
               I.no_arr then ctx.I.ret_a <- %s else begin %s; ctx.I.ret_i \
               <- Array.unsafe_get ctx.I.gints %d end)"
              a g a a ret_int g
          else
            Printf.sprintf "(%s; ctx.I.ret_i <- Array.unsafe_get ctx.I.gints %d)"
              ret_int g
      | Some (Rarray_make (n, site)) ->
          let v = fresh () in
          Printf.sprintf
            "(let %s = %s in if %s < 0 || %s > I.max_alloc then raise \
             (I.Crash_exn (C.Bad_alloc %s, %s)) else ctx.I.ret_a <- \
             Array.make %s 0)"
            v (exp n) v v v (lit site) v
      | Some e -> Printf.sprintf "(%s; ctx.I.ret_i <- %s)" ret_int (exp e)
    in
    let instr_stmt (ins : rinstr) : string =
      match ins with
      | Rassign (dst, e) -> into ~dstma:ma ~dstv:"fr" dst e
      | Rstore (base, idx, v, site) ->
          let a = fresh () and i = fresh () and x = fresh () in
          Printf.sprintf
            "(let %s = %s in let %s = %s in let %s = %s in if %s < 0 || %s \
             >= Array.length %s then raise (I.Crash_exn (C.Out_of_bounds { \
             len = Array.length %s; idx = %s }, %s)) else Array.unsafe_set \
             %s %s %s)"
            a (aexp site base) i (exp idx) x (exp v) i i a a i (lit site) a i
            x
      | Rbug (bug, site) ->
          Printf.sprintf "(raise (I.Crash_exn (C.Seeded %s, %s)))" (lit bug)
            (lit site)
      | Rcheck (c, bug, site) ->
          Printf.sprintf
            "(if not %s then raise (I.Crash_exn (C.Check_failed %s, %s)))"
            (cond c) (lit bug) (lit site)
      | Rcall _ -> assert false
    in
    let call_text ~dst ~callee ~(args : rexpr array) ~site : string =
      let bb = Buffer.create 256 in
      let cf = fresh () in
      Printf.bprintf bb
        "ctx.I.fuel <- ctx.I.fuel - 1;\n\
         if ctx.I.fuel <= 0 then raise I.Out_of_fuel;\n\
         let %s = acquire ctx %d in\n"
        cf callee;
      Array.iter
        (fun sl -> Printf.bprintf bb "Array.unsafe_set %s.I.f_ints %d 0;\n" cf sl)
        zeroes.(callee);
      let params = p.rfuncs.(callee).param_slots in
      Array.iteri
        (fun k a ->
          Printf.bprintf bb "%s;\n"
            (into ~dstma:typing.Plan.lmay.(callee) ~dstv:cf params.(k) a))
        args;
      Printf.bprintf bb "push ctx %d %s;\n" fid (lit site);
      Printf.bprintf bb "depth := !depth + 1;\n";
      Printf.bprintf bb "f_%d ctx %s;\n" callee cf;
      Printf.bprintf bb "depth := !depth - 1;\n";
      Printf.bprintf bb "ctx.I.cs_top <- ctx.I.cs_top - 1;\n";
      let pv = fresh () in
      Printf.bprintf bb
        "let %s = Array.unsafe_get ctx.I.pools %d in\n%s.I.live <- %s.I.live - 1;\n"
        pv callee pv pv;
      (match dst with
      | None -> ()
      | Some d ->
          Printf.bprintf bb
            "(if ctx.I.ret_a != I.no_arr then I.write_arr ctx fr %s \
             ctx.I.ret_a else %s);\n"
            (slot_lit d)
            (store_int ~dstma:ma ~dstv:"fr" d "ctx.I.ret_i"));
      Buffer.contents bb
    in
    let term_code (label : int) (t : rterm) : string =
      let arm target = probe_stmt (tb.edge fid label target) ^ jump fid target in
      match t with
      | Rgoto l -> arm l
      | Rbranch (c, tl, fl, _site) ->
          Printf.sprintf "if %s then begin\n%s\nend\nelse begin\n%s\nend"
            (cond c) (arm tl) (arm fl)
      | Rret (e, _site) -> (
          ret_stmt e
          ^
          match Option.bind (tb.ret fid label) op_text with
          | None -> ""
          | Some t -> ";\n(" ^ t ^ ")")
    in
    (* A segment's steps: the fast run, or the careful replay with a
       burn per unit. *)
    let steps_text ~careful (steps : Plan.step list) =
      let bb = Buffer.create 256 in
      let burn =
        "ctx.I.fuel <- ctx.I.fuel - 1;\n\
         if ctx.I.fuel <= 0 then raise I.Out_of_fuel;\n"
      in
      List.iter
        (fun (st : Plan.step) ->
          match st with
          | Enter b ->
              if careful then Buffer.add_string bb burn;
              Buffer.add_string bb "ctx.I.blocks <- ctx.I.blocks + 1;\n";
              Buffer.add_string bb (probe_stmt (tb.block fid b))
          | Instr i ->
              if careful then Buffer.add_string bb burn;
              Buffer.add_string bb (instr_stmt i ^ ";\n")
          | Probe op -> Buffer.add_string bb (probe_stmt (Some op)))
        steps;
      Buffer.contents bb
    in
    (* One function per block group: each segment between calls burns
       its fuel in bulk and runs fast, or gives it back and replays
       carefully; then come its calls, in order, and the group ends in
       the terminator's tail jump. *)
    let gen_block_group (g : Plan.group) =
      let bb = Buffer.create 1024 in
      if threaded then Buffer.add_string bb "let pr = ref r in\n";
      List.iter
        (fun (pc : Plan.piece) ->
          match pc with
          | Call { dst; callee; args; site } ->
              Buffer.add_string bb (call_text ~dst ~callee ~args ~site)
          | Seg s ->
              let fast = steps_text ~careful:false s.fast in
              Printf.bprintf bb
                "ctx.I.fuel <- ctx.I.fuel - %d;\n\
                 if ctx.I.fuel > 0 then begin\n\
                 %send\n\
                 else begin\n\
                 ctx.I.fuel <- ctx.I.fuel + %d;\n\
                 %send;\n"
                s.burn fast s.burn
                (steps_text ~careful:true s.careful))
        g.pieces;
      Buffer.add_string bb (term_code g.last g.term);
      push
        (Printf.sprintf "b_%d_%d (ctx : I.exec_ctx) (fr : I.frame)%s" fid g.head
           (if threaded then " (r : int)" else ""))
        (Buffer.contents bb)
    in
    (* Entry: depth fence, call probe, jump to block 0 with a zero path
       register. *)
    push
      (Printf.sprintf "f_%d (ctx : I.exec_ctx) (fr : I.frame)" fid)
      (Printf.sprintf
         "if !depth > ctx.I.max_depth then raise (I.Crash_exn \
          (C.Stack_overflow, (-1)));\n\
          %sb_%d_0 ctx fr%s"
         (probe_stmt (tb.call fid)) fid
         (if threaded then " 0" else ""));
    List.iter gen_block_group (Plan.func tb fid f)
  in
  Array.iteri gen_fn p.rfuncs;
  (* Assemble the registration block. *)
  Printf.bprintf buf "let () =\n  Vm.Emit.register ~key:%S (fun () ->\n" key;
  Printf.bprintf buf "let trace = ref (M.create ~size_log2:6 ()) in\n";
  Printf.bprintf buf "let hcmp = ref (fun (_ : int) (_ : int) -> ()) in\n";
  Printf.bprintf buf "let armed = ref false in\n";
  Printf.bprintf buf "let depth = ref 0 in\n";
  Printf.bprintf buf "let prev = ref 0 in\n";
  Printf.bprintf buf "let hist = Array.make %d 0 in\n" ngram_n;
  Printf.bprintf buf "let pos = ref 0 in\n";
  Printf.bprintf buf "let rolling = ref 0 in\n";
  List.iteri
    (fun i (head, body) ->
      Printf.bprintf buf "%s %s =\n%s\n"
        (if i = 0 then "let rec" else "and")
        head body)
    (List.rev !parts);
  Printf.bprintf buf "in\n";
  let zero_main =
    Array.to_list zeroes.(p.main_id)
    |> List.map (fun sl -> Printf.sprintf "Array.unsafe_set fr.I.f_ints %d 0; " sl)
    |> String.concat ""
  in
  Printf.bprintf buf
    "{ Vm.Emit.r_set_trace = (fun m -> trace := m);\n\
    \  Vm.Emit.r_set_cmp = (fun f -> hcmp := f);\n\
    \  Vm.Emit.r_armed = armed;\n\
    \  Vm.Emit.r_reset = (fun () -> depth := 0; prev := 0; pos := 0; \
     %srolling := 0);\n\
    \  Vm.Emit.r_enter = (fun ctx -> let fr = I.acquire_raw ctx %d in \
     %sf_%d ctx fr) })\n\n"
    (if ngram_n > 0 then Printf.sprintf "Array.fill hist 0 %d 0; " ngram_n
     else "")
    p.main_id zero_main p.main_id

(* The unit prelude. The host libraries are built [-opaque] under dune's
   dev profile, so a call into [Coverage_map] or [Interp] from generated
   code is an unknown-function call that spills every live register.
   The per-block operations are therefore defined here, where ocamlopt
   inlines them: [hit] is [Coverage_map.hit] over the exposed record
   (mask, saturate at 255, journal append on 0 -> 1), [touch] is
   [Interp.touch_global], [push] is [Interp.push_call] and [acquire] is
   [Interp.acquire_raw] on a frame whose array table is clear. Each
   calls back into the host only on its slow path: journal, write-log,
   call-stack or pool growth, or an array table to reset. *)
let header =
  "(* generated by Vm.Emit — do not edit *)\n\
   module I = Vm.Interp\n\
   module C = Vm.Crash\n\
   module M = Pathcov.Coverage_map\n\n\
   let[@inline] hit (m : M.t) x =\n\
  \  let i = x land m.M.mask in\n\
  \  let c = Char.code (Bytes.unsafe_get m.M.bits i) in\n\
  \  if c = 0 then begin\n\
  \    let n = m.M.ntouched in\n\
  \    if n = Array.length m.M.touched then M.hit m i\n\
  \    else begin\n\
  \      Array.unsafe_set m.M.touched n i;\n\
  \      m.M.ntouched <- n + 1;\n\
  \      Bytes.unsafe_set m.M.bits i '\\001'\n\
  \    end\n\
  \  end\n\
  \  else if c < 255 then Bytes.unsafe_set m.M.bits i (Char.unsafe_chr (c + 1))\n\n\
   let[@inline] touch (ctx : I.exec_ctx) g =\n\
  \  if Bytes.unsafe_get ctx.I.gdirty g = '\\000' then begin\n\
  \    let n = ctx.I.ngtouched in\n\
  \    if n = Array.length ctx.I.gtouched then I.touch_global ctx g\n\
  \    else begin\n\
  \      Bytes.unsafe_set ctx.I.gdirty g '\\001';\n\
  \      Array.unsafe_set ctx.I.gtouched n g;\n\
  \      ctx.I.ngtouched <- n + 1\n\
  \    end\n\
  \  end\n\n\
   let[@inline] push (ctx : I.exec_ctx) fid site =\n\
  \  let n = ctx.I.cs_top in\n\
  \  if n = Array.length ctx.I.cs_fid then I.push_call ctx fid site\n\
  \  else begin\n\
  \    Array.unsafe_set ctx.I.cs_fid n fid;\n\
  \    Array.unsafe_set ctx.I.cs_site n site;\n\
  \    ctx.I.cs_top <- n + 1\n\
  \  end\n\n\
   let[@inline] acquire (ctx : I.exec_ctx) fid =\n\
  \  let pl = Array.unsafe_get ctx.I.pools fid in\n\
  \  let n = pl.I.live in\n\
  \  if n < Array.length pl.I.frames\n\
  \     && not (Array.unsafe_get pl.I.frames n).I.f_arrs_live\n\
  \  then begin\n\
  \    pl.I.live <- n + 1;\n\
  \    Array.unsafe_get pl.I.frames n\n\
  \  end\n\
  \  else I.acquire_raw ctx fid\n\n"

let source ?plans ~cmplog (p : prepared) (mode : Pathcov.Feedback.mode) :
    string =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf header;
  gen_subject buf ~key:"golden" ?plans ~cmplog p mode;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Child processes *)

(* The wall bound of every child process: the slowest build measured,
   a 48-unit [preload] group of the native tests, took 43 s on 2 vCPU. *)
let spawn_bound_s = 300.

let spawn ?(bound = spawn_bound_s) ~(log : string) (argv : string list) :
    (string, string) result =
  let prog = List.hd argv in
  match
    let fd =
      Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process prog (Array.of_list argv) Unix.stdin fd fd)
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" prog (Unix.error_message e))
  | pid -> (
      let deadline = Unix.gettimeofday () +. bound in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.002;
            wait ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            None
        | _, st -> Some st
      in
      let st = wait () in
      let out =
        try In_channel.with_open_bin log In_channel.input_all
        with Sys_error _ -> ""
      in
      let n = String.length out in
      match st with
      | Some (Unix.WEXITED 0) -> Ok out
      | None -> Error (Printf.sprintf "%s: timed out after %g s" prog bound)
      | Some _ ->
          Error (prog ^ " failed: " ^ String.trim (String.sub out (max 0 (n - 400)) (min n 400))))

(* ------------------------------------------------------------------ *)
(* The toolchain, resolved once per process, and the cache key *)

let linked_interfaces =
  [ "vm__Interp.cmi"; "vm__Crash.cmi"; "vm__Emit.cmi"; "pathcov__Coverage_map.cmi" ]

type toolchain = {
  incs : string list;
  interfaces : string;  (** the linked interfaces' digests *)
  mutable compiler : (string, string) result option;  (** by the first build *)
}

let toolchain (incs : string list) : (toolchain, string) result =
  let digest name =
    match
      List.find_opt (fun d -> Sys.file_exists (Filename.concat d name)) incs
    with
    | Some d -> Digest.to_hex (Digest.file (Filename.concat d name))
    | None ->
        failwith
          (Printf.sprintf "no %s on the include path [%s]" name
             (String.concat ":" incs))
  in
  match List.map digest linked_interfaces with
  | ds -> Ok { incs; interfaces = String.concat "," ds; compiler = None }
  | exception (Failure e | Sys_error e) -> Error e

(* [PATHFUZZ_EMIT_INC], else the dune build tree's library objects. *)
let include_path () : (string list, string) result =
  match Sys.getenv_opt "PATHFUZZ_EMIT_INC" with
  | Some s when s <> "" -> Ok (String.split_on_char ':' s)
  | _ -> (
      let rec up d n =
        if n > 16 then None
        else if Sys.file_exists (Filename.concat d "lib/vm/.vm.objs/byte/vm.cmi")
        then Some d
        else
          let parent = Filename.dirname d in
          if parent = d then None else up parent (n + 1)
      in
      let exe_dir = Filename.dirname Sys.executable_name in
      let cwd = Sys.getcwd () in
      match match up exe_dir 0 with None -> up cwd 0 | r -> r with
      | None ->
          Error
            (Printf.sprintf
               "no dune build tree above %s or %s; set PATHFUZZ_EMIT_INC"
               exe_dir cwd)
      | Some root ->
          Ok
            (List.concat_map
               (fun (sub, name) ->
                 let objs =
                   Filename.concat root (Printf.sprintf "lib/%s/.%s.objs" sub name)
                 in
                 [ Filename.concat objs "byte"; Filename.concat objs "native" ])
               [ ("vm", "vm"); ("core", "pathcov"); ("minic", "minic") ]
            |> List.filter Sys.file_exists))

(* Forced under [lock] only. *)
let process_toolchain = lazy (Result.bind (include_path ()) toolchain)

(* The first candidate whose [-version] is the running OCaml's, probed
   from the first unit's build directory [dir]. *)
let compiler (tc : toolchain) ~(dir : string) : (string, string) result =
  let rec probe found = function
    | [] ->
        Error
          (Printf.sprintf "no OCaml %s compiler (%s)" Sys.ocaml_version
             (String.concat "; " (List.rev found)))
    | c :: rest -> (
        match spawn ~log:(Filename.concat dir (c ^ ".version")) [ c; "-version" ] with
        | Ok v when String.trim v = Sys.ocaml_version -> Ok c
        | Ok v -> probe (Printf.sprintf "%s is %s" c (String.trim v) :: found) rest
        | Error e -> probe (e :: found) rest)
  in
  if tc.compiler = None then
    tc.compiler <-
      Some
        (probe []
           (if Dynlink.is_native then [ "ocamlopt.opt"; "ocamlopt" ]
            else [ "ocamlc.opt"; "ocamlc" ]));
  Option.get tc.compiler

let key_of (tc : toolchain) (p : prepared) (mode : Pathcov.Feedback.mode)
    (cmplog : bool) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Marshal.to_string p.prog []);
  Buffer.add_string b (Pathcov.Feedback.mode_name mode);
  (match mode with
  | Pathcov.Feedback.Ngram n -> Buffer.add_string b (string_of_int n)
  | _ -> ());
  Buffer.add_string b (if cmplog then "+cmp" else "-cmp");
  Buffer.add_string b Sys.ocaml_version;
  Buffer.add_string b (string_of_int emitter_version);
  Buffer.add_string b (if Dynlink.is_native then "n" else "b");
  Buffer.add_string b tc.interfaces;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Out-of-process compilation *)

let compile_source (tc : toolchain) ~(tmp : string) ~(modbase : string) :
    (string, string) result =
  let src = Filename.concat tmp (modbase ^ ".ml") in
  let out = Filename.concat tmp (modbase ^ artifact_ext) in
  Result.bind (compiler tc ~dir:tmp) (fun comp ->
      let argv =
        (comp :: List.concat_map (fun d -> [ "-I"; d ]) tc.incs)
        @ [ "-no-alias-deps"; "-w"; "-a" ]
        @ (if Dynlink.is_native then [ "-shared"; "-o"; out ] else [ "-c" ])
        @ [ src ]
      in
      spawn ~log:(Filename.concat tmp (modbase ^ ".log")) argv
      |> Result.map (fun _ -> out)
      |> Result.map_error (( ^ ) "emit compile failed: "))

(* Generate + compile one compilation unit holding [entries]; publish
   the artifact at [artifact_path gkey] with an atomic rename. Caller
   holds [lock]. *)
let build_unit (tc : toolchain) ~(gkey : string)
    (entries :
      (string * prepared * Pathcov.Feedback.mode * bool
      * Pathcov.Ball_larus.program_plans option)
      list) : (string, string) result =
  let dir = cache_dir_ensured () in
  let tmp =
    Filename.concat dir (Printf.sprintf "tmp-%d-%s" (Unix.getpid ()) gkey)
  in
  mkdir_p tmp;
  if not (Sys.file_exists tmp) then
    Error (Printf.sprintf "emit cache dir not writable: %s" dir)
  else begin
    let modbase = "pf_emit_" ^ gkey in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf header;
    List.iter
      (fun (key, p, mode, cmplog, plans) ->
        gen_subject buf ~key ?plans ~cmplog p mode)
      entries;
    let final = artifact_path gkey in
    let res =
      try
        Out_channel.with_open_bin (Filename.concat tmp (modbase ^ ".ml"))
          (fun oc -> Buffer.output_buffer oc buf);
        let t0 = Unix.gettimeofday () in
        let r = compile_source tc ~tmp ~modbase in
        add_compile_s (Unix.gettimeofday () -. t0);
        Result.map (fun art -> Sys.rename art final; final) r
      with Sys_error e -> Error e
    in
    cleanup_dir tmp;
    res
  end

(* ------------------------------------------------------------------ *)
(* Loading *)

let load_and_drain (path : string) : (unit, string) result =
  if Hashtbl.mem loaded_paths path then Ok ()
  else begin
    pending := [];
    match Dynlink.loadfile_private path with
    | () ->
        List.iter (fun (k, mk) -> Hashtbl.replace makers k mk) !pending;
        pending := [];
        Hashtbl.replace loaded_paths path ();
        Ok ()
    | exception Dynlink.Error e ->
        pending := [];
        Error ("dynlink: " ^ Dynlink.error_message e)
    | exception e ->
        pending := [];
        Error ("dynlink: " ^ Printexc.to_string e)
  end

(* ------------------------------------------------------------------ *)
(* Public instantiation *)

type t = { prepared : prepared; raw : raw }

let locked f = Mutex.protect lock f

(* Load unit [gkey] holding [entries] from the cache, or build and load
   it. A failure is remembered per (cache dir, unit key) for the life of
   the process and returned again, so a unit the toolchain cannot build
   is tried once, not once per campaign; once no compiler was found, no
   unit is built at all. Caller holds [lock]. *)
let failed : (string * string, string) Hashtbl.t = Hashtbl.create 8

let load_or_build (tc : toolchain) ~(gkey : string) entries :
    (unit, string) result =
  let k = (cache_dir (), gkey) in
  match Hashtbl.find_opt failed k with
  | Some e -> Error e
  | None ->
      let art = artifact_path gkey in
      let r =
        if Sys.file_exists art then begin
          let r = load_and_drain art in
          if Result.is_ok r then Atomic.incr hits;
          r
        end
        else
          match tc.compiler with
          | Some (Error e) -> Error e
          | _ ->
              Atomic.incr misses;
              Result.bind (build_unit tc ~gkey entries) load_and_drain
      in
      Result.iter_error (Hashtbl.replace failed k) r;
      r

let maker_for tc ?plans ~cmplog (p : prepared) (mode : Pathcov.Feedback.mode)
    : (unit -> raw, string) result =
  let key = key_of tc p mode cmplog in
  match Hashtbl.find_opt makers key with
  | Some mk ->
      Atomic.incr hits;
      Ok mk
  | None ->
      Result.bind
        (load_or_build tc ~gkey:key [ (key, p, mode, cmplog, plans) ])
        (fun () ->
          match Hashtbl.find_opt makers key with
          | Some mk -> Ok mk
          | None -> Error ("emit artifact did not register key " ^ key))

let instance ?plans ?(cmplog = true) (p : prepared)
    (mode : Pathcov.Feedback.mode) : (t, string) result =
  if forced_fail () then Error "disabled by PATHFUZZ_EMIT_FAIL"
  else
    locked (fun () ->
        Result.bind (Lazy.force process_toolchain) (fun tc ->
            Result.map
              (fun mk -> { prepared = p; raw = mk () })
              (maker_for tc ?plans ~cmplog p mode)))

(* Build the distinct keys not yet registered, 48 to a unit, in
   first-occurrence order. Caller holds [lock]. *)
let preload_with (tc : toolchain)
    (entries : (prepared * Pathcov.Feedback.mode * bool) list) : int =
  let keyed =
    List.map
      (fun (p, mode, cmplog) -> (key_of tc p mode cmplog, p, mode, cmplog, None))
      entries
  in
  let seen = Hashtbl.create 64 in
  let missing =
    List.filter
      (fun (k, _, _, _, _) ->
        (not (Hashtbl.mem makers k || Hashtbl.mem seen k))
        && (Hashtbl.add seen k (); true))
      keyed
  in
  let rec build = function
    | [] -> ()
    | l ->
        let chunk = List.filteri (fun i _ -> i < 48) l in
        let gkey =
          Digest.to_hex
            (Digest.string
               (String.concat "" (List.map (fun (k, _, _, _, _) -> k) chunk)))
        in
        ignore (load_or_build tc ~gkey chunk);
        build (List.filteri (fun i _ -> i >= 48) l)
  in
  build missing;
  List.length
    (List.filter (fun (k, _, _, _, _) -> Hashtbl.mem makers k) keyed)

let preload (entries : (prepared * Pathcov.Feedback.mode * bool) list) : int =
  if forced_fail () then 0
  else
    locked (fun () ->
        match Lazy.force process_toolchain with
        | Error _ -> 0
        | Ok tc -> preload_with tc entries)

(* ------------------------------------------------------------------ *)
(* Campaign binding + the entry into the run harness *)

let bind (t : t) ~(trace : Pathcov.Coverage_map.t)
    ~(h_cmp : int -> int -> unit) : unit =
  t.raw.r_set_trace trace;
  t.raw.r_set_cmp h_cmp

let arm (t : t) (on : bool) : unit = t.raw.r_armed := on
let armed (t : t) : bool = !(t.raw.r_armed)

let entry (t : t) : entry =
  let raw = t.raw in
  {
    e_prepared = t.prepared;
    e_enter =
      (fun ctx ->
        raw.r_reset ();
        raw.r_enter ctx);
  }
