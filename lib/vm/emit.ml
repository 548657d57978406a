(* Per-subject native code emission: print a prepared subject as
   straight-line OCaml over the pooled [Interp.exec_ctx] API, compile
   it out-of-process, Dynlink the artifact, and hand back a runnable
   instance. The generated code mirrors [Compile]'s observable
   semantics op for op — same evaluation order, same crash sites, same
   fuel discipline (bulk burn + careful replay over the same fusion
   plan), same probe formulas — so the differential suite can hold it
   to the boxed reference interpreter bit for bit (DESIGN §15). *)

open Interp

let emitter_version = 6

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
(* Source generation: probe templates *)

let lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

(* String-producing mirror of [Compile]'s probe sets: each generator
   returns the probe body as a parenthesisable unit statement (or
   [None] for no probe); [gpe_add]/[gpadd] carry the compile-time
   Ball–Larus add folding exactly as in the closure engine. *)
type gprobes = {
  gpc : int -> string option;
  gpb : int -> int -> string option;
  gpe : int -> int -> int -> string option;
  gpr : int -> int -> string option;
  gpe_add : int -> int -> int -> int option;
  gpadd : (int -> string) option;
  gemit_cmp : bool;
}

let gprobes_none =
  {
    gpc = (fun _ -> None);
    gpb = (fun _ _ -> None);
    gpe = (fun _ _ _ -> None);
    gpr = (fun _ _ -> None);
    gpe_add = (fun _ _ _ -> Some 0);
    gpadd = None;
    gemit_cmp = false;
  }

let edge_pb fid b =
  let cur = Pathcov.Feedback.block_key fid b in
  Some
    (Printf.sprintf "hit !trace (%s lxor !prev); prev := %s" (lit cur)
       (lit (cur lsr 1)))

let gprobes_of ?plans (p : prepared) (spec : Compile.spec) : gprobes =
  match spec with
  | Compile.Snone -> gprobes_none
  | Compile.Sfull Pathcov.Feedback.Block ->
      {
        gprobes_none with
        gemit_cmp = true;
        gpb =
          (fun fid b ->
            Some
              (Printf.sprintf "hit !trace %s"
                 (lit (Pathcov.Feedback.block_key fid b))));
      }
  | Compile.Sfull Pathcov.Feedback.Edge ->
      { gprobes_none with gemit_cmp = true; gpb = edge_pb }
  | Compile.Sfull (Pathcov.Feedback.Ngram n) ->
      {
        gprobes_none with
        gemit_cmp = true;
        gpb =
          (fun fid b ->
            let key = Pathcov.Feedback.block_key fid b in
            Some
              (Printf.sprintf
                 "Array.unsafe_set hist (!pos mod %d) %s; pos := !pos + 1; \
                  let h = ref 0 in for i = 0 to %d do h := !h lxor \
                  (Array.unsafe_get hist i lsr (i land 15)) done; hit !trace \
                  !h"
                 n (lit key) (n - 1)));
      }
  | Compile.Sfull Pathcov.Feedback.Path ->
      let plans =
        match plans with
        | Some pl -> pl
        | None -> Pathcov.Ball_larus.of_program p.prog
      in
      let salts = Array.map Compile.path_salt p.prog.funcs in
      let guard_add k =
        Printf.sprintf
          "if !top > 0 then begin let r = !regs in let i = !top - 1 in \
           Array.unsafe_set r i (Array.unsafe_get r i + %s) end"
          (lit k)
      in
      {
        gprobes_none with
        gemit_cmp = true;
        gpc =
          (fun _ ->
            Some
              "if !top = Array.length !regs then begin let bigger = \
               Array.make (2 * !top) 0 in Array.blit !regs 0 bigger 0 !top; \
               regs := bigger end; Array.unsafe_set !regs !top 0; top := \
               !top + 1");
        gpe =
          (fun fid src dst ->
            match
              Pathcov.Ball_larus.on_edge
                plans.Pathcov.Ball_larus.plans.(fid)
                ~src ~dst
            with
            | None -> None
            | Some (Pathcov.Ball_larus.Add k) -> Some (guard_add k)
            | Some (Pathcov.Ball_larus.Commit_back { add; reset }) ->
                Some
                  (Printf.sprintf
                     "if !top > 0 then begin let r = !regs in let i = !top \
                      - 1 in hit !trace (((Array.unsafe_get r i + %s) \
                      lxor %s) land max_int); Array.unsafe_set r i %s end"
                     (lit add)
                     (lit salts.(fid))
                     (lit reset)));
        gpe_add =
          (fun fid src dst ->
            match
              Pathcov.Ball_larus.on_edge
                plans.Pathcov.Ball_larus.plans.(fid)
                ~src ~dst
            with
            | None -> Some 0
            | Some (Pathcov.Ball_larus.Add k) -> Some k
            | Some (Pathcov.Ball_larus.Commit_back _) -> None);
        gpadd = Some guard_add;
        gpr =
          (fun fid block ->
            let ra =
              plans.Pathcov.Ball_larus.plans.(fid).Pathcov.Ball_larus.ret_add.(
                block)
            in
            Some
              (Printf.sprintf
                 "if !top > 0 then begin let i = !top - 1 in hit !trace \
                  (((Array.unsafe_get !regs i + %s) lxor %s) land max_int); \
                  top := i end"
                 (lit ra)
                 (lit salts.(fid))));
      }
  | Compile.Sfull Pathcov.Feedback.Pathafl ->
      let nsucc fid src =
        List.length
          (Minic.Ir.successors p.prog.funcs.(fid).blocks.(src).Minic.Ir.term)
      in
      let key_event k =
        Printf.sprintf
          "rolling := (((!rolling lsl 13) lor (!rolling lsr 49)) lxor %s) \
           land max_int; hit !trace !rolling"
          (lit k)
      in
      {
        gprobes_none with
        gemit_cmp = true;
        gpc =
          (fun fid -> Some (key_event (Pathcov.Feedback.block_key fid 0 + 1)));
        gpb = edge_pb;
        gpe =
          (fun fid src dst ->
            if nsucc fid src >= 2 then
              Some
                (key_event (Pathcov.Feedback.block_key fid src lxor (dst * 31)))
            else None);
        gpe_add =
          (fun fid src _dst -> if nsucc fid src >= 2 then None else Some 0);
      }

(* ------------------------------------------------------------------ *)
(* Source generation: one subject *)

type eop = Eentry of int | Einstr of rinstr | Ecall of rinstr | Eedge of int * int

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
    (p : prepared) (spec : Compile.spec) : unit =
  let gp = gprobes_of ?plans p spec in
  let gp = { gp with gemit_cmp = gp.gemit_cmp && cmplog } in
  let typing = Compile.may_array_analysis p in
  let zeroes = Compile.zero_slots_analysis p in
  let gma = typing.Compile.gmay in
  let ngram_n =
    match spec with Compile.Sfull (Pathcov.Feedback.Ngram n) -> n | _ -> 0
  in
  let nextv = ref 0 in
  let fresh () =
    incr nextv;
    Printf.sprintf "v%d" !nextv
  in
  let parts : (string * string) list ref = ref [] in
  let push name body = parts := (name, body) :: !parts in
  (* One function's bodies: expression/statement printers close over
     the function's may-array row. *)
  let gen_fn fid (f : rfunc) =
    let ma = typing.Compile.lmay.(fid) in
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
            (if gp.gemit_cmp then
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
            (if gp.gemit_cmp then
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
    let ret_stmt (e : rexpr option) : string =
      match e with
      | None -> "(ctx.I.ret_a <- I.no_arr; ctx.I.ret_i <- 0)"
      | Some (Rload (Local i, _)) ->
          if ma.(i) then
            let a = fresh () in
            Printf.sprintf
              "(let %s = if fr.I.f_arrs_live then Array.unsafe_get \
               fr.I.f_arrs %d else I.no_arr in if %s != I.no_arr then \
               ctx.I.ret_a <- %s else begin ctx.I.ret_a <- I.no_arr; \
               ctx.I.ret_i <- Array.unsafe_get fr.I.f_ints %d end)"
              a i a a i
          else
            Printf.sprintf
              "(ctx.I.ret_a <- I.no_arr; ctx.I.ret_i <- Array.unsafe_get \
               fr.I.f_ints %d)"
              i
      | Some (Rload (Global g, _)) ->
          if gma.(g) then
            let a = fresh () in
            Printf.sprintf
              "(let %s = Array.unsafe_get ctx.I.garrs %d in if %s != \
               I.no_arr then ctx.I.ret_a <- %s else begin ctx.I.ret_a <- \
               I.no_arr; ctx.I.ret_i <- Array.unsafe_get ctx.I.gints %d \
               end)"
              a g a a g
          else
            Printf.sprintf
              "(ctx.I.ret_a <- I.no_arr; ctx.I.ret_i <- Array.unsafe_get \
               ctx.I.gints %d)"
              g
      | Some (Rarray_make (n, site)) ->
          let v = fresh () in
          Printf.sprintf
            "(let %s = %s in if %s < 0 || %s > I.max_alloc then raise \
             (I.Crash_exn (C.Bad_alloc %s, %s)) else ctx.I.ret_a <- \
             Array.make %s 0)"
            v (exp n) v v v (lit site) v
      | Some e ->
          Printf.sprintf "(ctx.I.ret_a <- I.no_arr; ctx.I.ret_i <- %s)"
            (exp e)
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
            (into ~dstma:typing.Compile.lmay.(callee) ~dstv:cf params.(k) a))
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
      match t with
      | Rgoto l ->
          (match gp.gpe fid label l with
          | None -> ""
          | Some pr -> "(" ^ pr ^ ");\n")
          ^ Printf.sprintf "b_%d_%d ctx fr" fid l
      | Rbranch (c, tl, fl, _site) ->
          let arm target =
            (match gp.gpe fid label target with
            | None -> ""
            | Some pr -> "(" ^ pr ^ ");\n")
            ^ Printf.sprintf "b_%d_%d ctx fr" fid target
          in
          Printf.sprintf "if %s then begin\n%s\nend\nelse begin\n%s\nend"
            (cond c) (arm tl) (arm fl)
      | Rret (e, _site) -> (
          ret_stmt e
          ^
          match gp.gpr fid label with
          | None -> ""
          | Some pr -> ";\n(" ^ pr ^ ")")
    in
    let fast_text seg =
      let bb = Buffer.create 256 in
      let pending_add = ref 0 in
      let flush () =
        if !pending_add <> 0 then begin
          (match gp.gpadd with
          | Some fmt -> Buffer.add_string bb ("(" ^ fmt !pending_add ^ ");\n")
          | None -> assert false);
          pending_add := 0
        end
      in
      List.iter
        (function
          | Eentry b ->
              Buffer.add_string bb "ctx.I.blocks <- ctx.I.blocks + 1;\n";
              (match gp.gpb fid b with
              | None -> ()
              | Some pr -> Buffer.add_string bb ("(" ^ pr ^ ");\n"))
          | Einstr i -> Buffer.add_string bb (instr_stmt i ^ ";\n")
          | Eedge (s, d) -> (
              match gp.gpe_add fid s d with
              | Some k -> pending_add := !pending_add + k
              | None -> (
                  flush ();
                  match gp.gpe fid s d with
                  | None -> ()
                  | Some pr -> Buffer.add_string bb ("(" ^ pr ^ ");\n")))
          | Ecall _ -> assert false)
        seg;
      flush ();
      Buffer.contents bb
    in
    let careful_text seg =
      let bb = Buffer.create 256 in
      List.iter
        (function
          | Eentry b ->
              Buffer.add_string bb
                "ctx.I.fuel <- ctx.I.fuel - 1;\n\
                 if ctx.I.fuel <= 0 then raise I.Out_of_fuel;\n\
                 ctx.I.blocks <- ctx.I.blocks + 1;\n";
              (match gp.gpb fid b with
              | None -> ()
              | Some pr -> Buffer.add_string bb ("(" ^ pr ^ ");\n"))
          | Einstr i ->
              Buffer.add_string bb
                "ctx.I.fuel <- ctx.I.fuel - 1;\n\
                 if ctx.I.fuel <= 0 then raise I.Out_of_fuel;\n";
              Buffer.add_string bb (instr_stmt i ^ ";\n")
          | Eedge (s, d) -> (
              match gp.gpe fid s d with
              | None -> ()
              | Some pr -> Buffer.add_string bb ("(" ^ pr ^ ");\n"))
          | Ecall _ -> assert false)
        seg;
      Buffer.contents bb
    in
    let ops_of (chain : int list) : eop list * int * rterm =
      let instr_op i = match i with Rcall _ -> Ecall i | _ -> Einstr i in
      let rec go = function
        | [] -> assert false
        | [ last ] ->
            let b = f.rblocks.(last) in
            ( Eentry last :: List.map instr_op (Array.to_list b.rinstrs),
              last,
              b.rterm )
        | cur :: (next :: _ as rest) ->
            let b = f.rblocks.(cur) in
            let more, ll, tt = go rest in
            ( (Eentry cur :: List.map instr_op (Array.to_list b.rinstrs))
              @ (Eedge (cur, next) :: more),
              ll,
              tt )
      in
      go chain
    in
    let gen_block_group ~head ~chain =
      let ops, last_label, term = ops_of chain in
      let kcount = ref 0 in
      let base = Printf.sprintf "b_%d_%d" fid head in
      let rec build name ops =
        let bb = Buffer.create 256 in
        let rec eat = function
          | Ecall (Rcall { dst; callee; args; site }) :: rest ->
              Buffer.add_string bb (call_text ~dst ~callee ~args ~site);
              eat rest
          | ops -> ops
        in
        let ops = eat ops in
        if ops = [] then begin
          Buffer.add_string bb (term_code last_label term);
          push name (Buffer.contents bb)
        end
        else begin
          let rec split acc = function
            | (Ecall _ :: _ | []) as rest -> (List.rev acc, rest)
            | op :: more -> split (op :: acc) more
          in
          let seg, rest = split [] ops in
          incr kcount;
          let cont = Printf.sprintf "%s_k%d" base !kcount in
          let burn =
            List.fold_left
              (fun a op -> match op with Eentry _ | Einstr _ -> a + 1 | _ -> a)
              0 seg
          in
          let fast = fast_text seg in
          if burn = 0 then
            Buffer.add_string bb (fast ^ Printf.sprintf "%s ctx fr" cont)
          else
            Buffer.add_string bb
              (Printf.sprintf
                 "ctx.I.fuel <- ctx.I.fuel - %d;\n\
                  if ctx.I.fuel > 0 then begin\n\
                  %s%s ctx fr\n\
                  end\n\
                  else begin\n\
                  ctx.I.fuel <- ctx.I.fuel + %d;\n\
                  %s%s ctx fr\n\
                  end"
                 burn fast cont burn (careful_text seg) cont);
          push name (Buffer.contents bb);
          build cont rest
        end
      in
      build base ops
    in
    (* Entry: depth fence, call probe, jump to block 0. *)
    push
      (Printf.sprintf "f_%d" fid)
      (Printf.sprintf
         "if !depth > ctx.I.max_depth then raise (I.Crash_exn \
          (C.Stack_overflow, (-1)));\n\
          %sb_%d_0 ctx fr"
         (match gp.gpc fid with None -> "" | Some pr -> "(" ^ pr ^ ");\n")
         fid);
    let plan = Compile.fusion_plan f in
    Array.iteri
      (fun lb _ ->
        let chain = match plan.(lb) with Some c -> c | None -> [ lb ] in
        gen_block_group ~head:lb ~chain)
      f.rblocks
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
  Printf.bprintf buf "let regs = ref (Array.make 64 0) in\n";
  Printf.bprintf buf "let top = ref 0 in\n";
  Printf.bprintf buf "let rolling = ref 0 in\n";
  List.iteri
    (fun i (name, body) ->
      Printf.bprintf buf "%s %s (ctx : I.exec_ctx) (fr : I.frame) =\n%s\n"
        (if i = 0 then "let rec" else "and")
        name body)
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
    \  Vm.Emit.r_reset = (fun () -> depth := 0; prev := 0; pos := 0; %stop \
     := 0; rolling := 0);\n\
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

(* ------------------------------------------------------------------ *)
(* Out-of-process compilation *)

let read_tail path n =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let ofs = max 0 (len - n) in
    seek_in ic ofs;
    let s = really_input_string ic (len - ofs) in
    close_in ic;
    s
  with _ -> ""

(* The cmi search path: the dune build tree that produced the running
   executable (walk up to the [_build/default] ancestor), plus fmt's
   findlib dir (vm's interfaces may surface its types). Overridable
   with a colon-separated [PATHFUZZ_EMIT_INC]. [tree_incs] spawns no
   process, so computing a cache key stays cheap; the fmt query runs
   only when a unit is actually compiled. *)
let inc_override () =
  match Sys.getenv_opt "PATHFUZZ_EMIT_INC" with
  | Some s when s <> "" -> Some (String.split_on_char ':' s)
  | _ -> None

let tree_incs =
  lazy
    (match inc_override () with
    | Some incs -> incs
    | None ->
        let marker root =
          Sys.file_exists
            (Filename.concat root "lib/vm/.vm.objs/byte/vm.cmi")
        in
        let rec up d n =
          if n > 16 then None
          else if marker d then Some d
          else
            let parent = Filename.dirname d in
            if parent = d then None else up parent (n + 1)
        in
        let root =
          match up (Filename.dirname Sys.executable_name) 0 with
          | Some r -> Some r
          | None -> up (Sys.getcwd ()) 0
        in
        let tree =
          match root with
          | None -> []
          | Some root ->
              List.concat_map
                (fun (sub, name) ->
                  let objs =
                    Filename.concat root
                      (Printf.sprintf "lib/%s/.%s.objs" sub name)
                  in
                  [ Filename.concat objs "byte"; Filename.concat objs "native" ])
                [ ("vm", "vm"); ("core", "pathcov"); ("minic", "minic") ]
        in
        List.filter Sys.file_exists tree)

let discovered_incs =
  lazy
    (match inc_override () with
    | Some incs -> incs
    | None ->
        let fmt_dir =
          let tmp = Filename.temp_file "pfemit" ".out" in
          let rc =
            Sys.command
              (Printf.sprintf "ocamlfind query fmt > %s 2> /dev/null"
                 (Filename.quote tmp))
          in
          let r =
            if rc = 0 then (
              try
                let ic = open_in tmp in
                let line = input_line ic in
                close_in ic;
                if line <> "" then [ line ] else []
              with _ -> [])
            else []
          in
          (try Sys.remove tmp with _ -> ());
          r
        in
        Lazy.force tree_incs @ List.filter Sys.file_exists fmt_dir)

(* ------------------------------------------------------------------ *)
(* Cache key: resolved IR fingerprint × spec × cmplog × compiler
   version × emitter version × linking model × linked interfaces. *)

let linked_interfaces =
  [ "vm__Interp.cmi"; "vm__Crash.cmi"; "vm__Emit.cmi"; "pathcov__Coverage_map.cmi" ]

(* Each linked interface's digest as found first on [incs] ("-" when
   absent: such a unit cannot compile anyway). *)
let interfaces_digest (incs : string list) : string =
  String.concat ","
    (List.map
       (fun name ->
         match
           List.find_opt (fun d -> Sys.file_exists (Filename.concat d name)) incs
         with
         | Some d -> Digest.to_hex (Digest.file (Filename.concat d name))
         | None -> "-")
       linked_interfaces)

let linked_digest = lazy (interfaces_digest (Lazy.force tree_incs))

let key_of ?incs (p : prepared) (spec : Compile.spec) (cmplog : bool) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Marshal.to_string p.prog []);
  Buffer.add_string b (Compile.spec_name spec);
  (match spec with
  | Compile.Sfull (Pathcov.Feedback.Ngram n) ->
      Buffer.add_string b (string_of_int n)
  | _ -> ());
  Buffer.add_string b (if cmplog then "+cmp" else "-cmp");
  Buffer.add_string b Sys.ocaml_version;
  Buffer.add_string b (string_of_int emitter_version);
  Buffer.add_string b (if Dynlink.is_native then "n" else "b");
  Buffer.add_string b
    (match incs with
    | Some incs -> interfaces_digest incs
    | None -> Lazy.force linked_digest);
  Digest.to_hex (Digest.string (Buffer.contents b))

let compile_source ~(tmp : string) ~(modbase : string) : (string, string) result
    =
  let src = Filename.concat tmp (modbase ^ ".ml") in
  let logf = Filename.concat tmp (modbase ^ ".log") in
  let incs =
    String.concat " "
      (List.map
         (fun d -> "-I " ^ Filename.quote d)
         (Lazy.force discovered_incs))
  in
  let out = Filename.concat tmp (modbase ^ artifact_ext) in
  let attempts =
    if Dynlink.is_native then
      List.map
        (fun comp ->
          Printf.sprintf
            "%s %s -no-alias-deps -shared -w -a -o %s %s > %s 2>&1" comp incs
            (Filename.quote out) (Filename.quote src) (Filename.quote logf))
        [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ]
    else
      List.map
        (fun comp ->
          Printf.sprintf "%s %s -no-alias-deps -c -w -a %s > %s 2>&1" comp incs
            (Filename.quote src) (Filename.quote logf))
        [ "ocamlfind ocamlc"; "ocamlc" ]
  in
  let rec try_all = function
    | [] ->
        Error
          (Printf.sprintf "emit compile failed: %s"
             (String.trim (read_tail logf 400)))
    | cmd :: rest ->
        let rc = try Sys.command cmd with Sys_error e -> failwith e in
        if rc = 0 && Sys.file_exists out then Ok out else try_all rest
  in
  try try_all attempts with Failure e -> Error e

(* Generate + compile one compilation unit holding [entries]; publish
   the artifact at [artifact_path gkey] with an atomic rename. Caller
   holds [lock]. *)
let build_unit ~(gkey : string)
    (entries :
      (string * prepared * Compile.spec * bool
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
      (fun (key, p, spec, cmplog, plans) ->
        gen_subject buf ~key ?plans ~cmplog p spec)
      entries;
    let src = Filename.concat tmp (modbase ^ ".ml") in
    let res =
      try
        let oc = open_out_bin src in
        output_string oc (Buffer.contents buf);
        close_out oc;
        let t0 = Unix.gettimeofday () in
        let r = compile_source ~tmp ~modbase in
        add_compile_s (Unix.gettimeofday () -. t0);
        r
      with Sys_error e -> Error e
    in
    match res with
    | Ok art_tmp ->
        let final = artifact_path gkey in
        let ok = try Sys.rename art_tmp final; true with Sys_error _ -> false in
        cleanup_dir tmp;
        if ok && Sys.file_exists final then Ok final
        else Error "emit artifact publish failed"
    | Error e ->
        cleanup_dir tmp;
        Error e
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

let maker_for ?plans ~cmplog (p : prepared) (spec : Compile.spec) :
    ((unit -> raw), string) result =
  let key = key_of p spec cmplog in
  match Hashtbl.find_opt makers key with
  | Some mk ->
      Atomic.incr hits;
      Ok mk
  | None -> (
      let finish () =
        match Hashtbl.find_opt makers key with
        | Some mk -> Ok mk
        | None -> Error ("emit artifact did not register key " ^ key)
      in
      let art = artifact_path key in
      if Sys.file_exists art then begin
        match load_and_drain art with
        | Ok () ->
            Atomic.incr hits;
            finish ()
        | Error e -> Error e
      end
      else begin
        Atomic.incr misses;
        match build_unit ~gkey:key [ (key, p, spec, cmplog, plans) ] with
        | Ok art -> (
            match load_and_drain art with
            | Ok () -> finish ()
            | Error e -> Error e)
        | Error e -> Error e
      end)

let instance ?plans ?(cmplog = true) (p : prepared) (spec : Compile.spec) :
    (t, string) result =
  if forced_fail () then Error "disabled by PATHFUZZ_EMIT_FAIL"
  else
    locked (fun () ->
        match maker_for ?plans ~cmplog p spec with
        | Ok mk -> Ok { prepared = p; raw = mk () }
        | Error e -> Error e)

let preload (entries : (prepared * Compile.spec * bool) list) : int =
  if forced_fail () then 0
  else
    locked (fun () ->
        let keyed =
          List.map (fun (p, spec, cmplog) -> (key_of p spec cmplog, p, spec, cmplog)) entries
        in
        (* Dedup by key, keep first occurrence. *)
        let seen = Hashtbl.create 64 in
        let uniq =
          List.filter
            (fun (k, _, _, _) ->
              if Hashtbl.mem seen k then false
              else begin
                Hashtbl.add seen k ();
                true
              end)
            keyed
        in
        let missing =
          List.filter (fun (k, _, _, _) -> not (Hashtbl.mem makers k)) uniq
        in
        let rec chunks n = function
          | [] -> []
          | l ->
              let rec take acc k = function
                | x :: rest when k > 0 -> take (x :: acc) (k - 1) rest
                | rest -> (List.rev acc, rest)
              in
              let c, rest = take [] n l in
              c :: chunks n rest
        in
        List.iter
          (fun chunk ->
            let gkey =
              Digest.to_hex
                (Digest.string
                   (String.concat "" (List.map (fun (k, _, _, _) -> k) chunk)))
            in
            let art = artifact_path gkey in
            if Sys.file_exists art then (
              match load_and_drain art with
              | Ok () -> Atomic.incr hits
              | Error _ -> ())
            else begin
              Atomic.incr misses;
              match
                build_unit ~gkey
                  (List.map
                     (fun (k, p, spec, cmplog) -> (k, p, spec, cmplog, None))
                     chunk)
              with
              | Ok art -> ignore (load_and_drain art)
              | Error _ -> ()
            end)
          (chunks 48 missing);
        List.length
          (List.filter (fun (k, _, _, _) -> Hashtbl.mem makers k) keyed))

(* ------------------------------------------------------------------ *)
(* Campaign binding + execution (mirrors of the [Compile] runners) *)

let bind (t : t) ~(trace : Pathcov.Coverage_map.t)
    ~(h_cmp : int -> int -> unit) : unit =
  t.raw.r_set_trace trace;
  t.raw.r_set_cmp h_cmp

let arm (t : t) (on : bool) : unit = t.raw.r_armed := on
let armed (t : t) : bool = !(t.raw.r_armed)

let run_current (t : t) (ctx : exec_ctx) ~fuel ~max_depth : outcome =
  t.raw.r_reset ();
  reset_ctx ctx;
  ctx.fuel <- fuel;
  ctx.max_depth <- max_depth;
  let status =
    try
      t.raw.r_enter ctx;
      if ctx.ret_a != no_arr then Finished None else Finished (Some ctx.ret_i)
    with
    | Crash_exn (kind, site) ->
        ctx.unwound <- true;
        let top = { Crash.fn = site_function t.prepared.prog site; site } in
        Crashed { Crash.kind; stack = top :: materialize_stack ctx }
    | Out_of_fuel ->
        ctx.unwound <- true;
        Hung
    | Stack_overflow ->
        ctx.unwound <- true;
        Crashed
          { Crash.kind = Crash.Stack_overflow; stack = materialize_stack ctx }
  in
  { status; blocks_executed = ctx.blocks }

let run ?(fuel = default_fuel) ?(max_depth = default_max_depth) (t : t)
    (ctx : exec_ctx) ~(input : string) : outcome =
  if ctx.p != t.prepared then
    invalid_arg "Emit.run: context belongs to a different prepared program";
  ctx.input <- input;
  ctx.input_len <- String.length input;
  run_current t ctx ~fuel ~max_depth

let run_batch ?(fuel = default_fuel) ?(max_depth = default_max_depth) (t : t)
    (ctx : exec_ctx) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> outcome -> unit) : unit =
  if n > 0 && ctx.p != t.prepared then
    invalid_arg
      "Emit.run_batch: context belongs to a different prepared program";
  for k = 0 to n - 1 do
    let buf, len = gen k in
    if len < 0 || len > Bytes.length buf then invalid_arg "Emit.run_batch";
    ctx.input <- Bytes.unsafe_to_string buf;
    ctx.input_len <- len;
    sink k (run_current t ctx ~fuel ~max_depth)
  done
