(** CFG interpreter for MiniC IR programs.

    The interpreter is the stand-in for native execution of the
    instrumented target: it runs a program on an input byte string,
    emitting the events (calls, block entries, edge traversals, returns,
    comparisons) that the instrumentation hooks of [Pathcov.Feedback]
    consume, and converting memory-safety violations into [Crash.t]
    reports exactly where ASAN would. Execution is bounded by a fuel
    budget (the analogue of AFL's timeout) and a call-depth limit.

    Because a fuzzing campaign executes the same program millions of
    times, the hot path is allocation-free: [prepare] resolves variable
    names to frame slots and function names to indices once, and
    [create_ctx] builds a reusable execution context — per-function frame
    pools with unboxed [int array] locals plus a separate array-slot
    table, pooled global cells reset through a touched-slot journal, and
    a preallocated [(fid, site)] call stack that only materialises
    [Crash.frame] records when a crash actually happens. Steady-state
    execution through [run_batch] allocates nothing beyond the program's
    own [array(n)] requests and the small per-run [outcome] record.
    MiniC locals are zero-initialised at function entry (as if the
    target were built with [-ftrivial-auto-var-init=zero]). *)

type hooks = {
  h_call : int -> unit;  (** [fid]: entering a function *)
  h_block : int -> int -> unit;  (** [fid block]: control enters a block *)
  h_edge : int -> int -> int -> unit;  (** [fid src dst]: CFG transition *)
  h_ret : int -> int -> unit;  (** [fid block]: return executes *)
  h_cmp : int -> int -> unit;  (** comparison operands, for cmplog *)
}

let no_hooks =
  {
    h_call = (fun _ -> ());
    h_block = (fun _ _ -> ());
    h_edge = (fun _ _ _ -> ());
    h_ret = (fun _ _ -> ());
    h_cmp = (fun _ _ -> ());
  }

let hooks_of ?(h_cmp = no_hooks.h_cmp) (fb : Pathcov.Feedback.t) : hooks =
  {
    h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
    h_cmp;
  }

type status =
  | Finished of int option  (** [main] returned normally *)
  | Crashed of Crash.t
  | Hung  (** fuel exhausted: the analogue of an AFL timeout *)

type outcome = {
  status : status;
  blocks_executed : int;  (** work metric: blocks entered across the run *)
}

let default_fuel = 200_000
let default_max_depth = 128
let max_alloc = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Resolved (slot-addressed) representation *)

type slot = Local of int | Global of int

(* Comparison operators are split out so the evaluator can invoke the
   cmplog hook without re-dispatching on the operator. *)
type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type arith = Aadd | Asub | Amul | Adiv | Arem | Aband | Abor | Abxor | Ashl | Ashr

type rexpr =
  | Rconst of int
  | Rload of slot * int  (** slot, site of the enclosing instruction *)
  | Rindex of rexpr * rexpr * int  (** base, index, site *)
  | Rarith of arith * rexpr * rexpr * int  (** site for div-by-zero *)
  | Rcmp of cmp * rexpr * rexpr
  | Rneg of rexpr
  | Rnot of rexpr
  | Rbnot of rexpr
  | Rin of rexpr
  | Rlen
  | Rarray_make of rexpr * int
  | Rarray_len of rexpr * int
  | Rabs of rexpr

type rinstr =
  | Rassign of slot * rexpr
  | Rstore of rexpr * rexpr * rexpr * int
  | Rcall of { dst : slot option; callee : int; args : rexpr array; site : int }
  | Rbug of int * int  (** bug id, site *)
  | Rcheck of rexpr * int * int  (** cond, bug id, site *)

type rterm =
  | Rgoto of int
  | Rbranch of rexpr * int * int * int  (** cond, true, false, site *)
  | Rret of rexpr option * int

type rblock = { rinstrs : rinstr array; rterm : rterm }

type rfunc = {
  rname : string;
  nlocals : int;
  param_slots : slot array;  (** always [Local _]; prebuilt so argument
                                 passing allocates no constructor *)
  rblocks : rblock array;
}

type prepared = {
  prog : Minic.Ir.program;
  rfuncs : rfunc array;
  main_id : int;
  global_names : string array;
  global_sizes : int array;  (** 0 = int cell, n > 0 = array of n *)
}

(* ------------------------------------------------------------------ *)
(* Resolution *)

exception Unknown_name of string

let resolve_func (globals : (string, int) Hashtbl.t)
    (fidx : (string, int) Hashtbl.t) (f : Minic.Ir.func) : rfunc =
  let locals : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let nlocals = ref 0 in
  let local name =
    match Hashtbl.find_opt locals name with
    | Some i -> i
    | None ->
        let i = !nlocals in
        incr nlocals;
        Hashtbl.replace locals name i;
        i
  in
  (* Params first, then the function's declared locals and temporaries;
     loads and stores of anything else resolve to globals. *)
  let param_slots =
    Array.of_list (List.map (fun p -> Local (local p)) f.params)
  in
  List.iter (fun name -> ignore (local name)) f.locals;
  let slot name =
    match Hashtbl.find_opt locals name with
    | Some i -> Local i
    | None -> (
        match Hashtbl.find_opt globals name with
        | Some i -> Global i
        | None -> raise (Unknown_name name))
  in
  let arith_of : Minic.Ast.binop -> arith option = function
    | Add -> Some Aadd
    | Sub -> Some Asub
    | Mul -> Some Amul
    | Div -> Some Adiv
    | Rem -> Some Arem
    | Band -> Some Aband
    | Bor -> Some Abor
    | Bxor -> Some Abxor
    | Shl -> Some Ashl
    | Shr -> Some Ashr
    | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> None
  in
  let cmp_of : Minic.Ast.binop -> cmp = function
    | Eq -> Ceq
    | Ne -> Cne
    | Lt -> Clt
    | Le -> Cle
    | Gt -> Cgt
    | Ge -> Cge
    | _ -> assert false
  in
  let rec rexpr site (e : Minic.Ir.expr) : rexpr =
    match e with
    | Const n -> Rconst n
    | Load v -> Rload (slot v, site)
    | Index (b, i) -> Rindex (rexpr site b, rexpr site i, site)
    | Binop (op, a, b) -> begin
        match arith_of op with
        | Some a' -> Rarith (a', rexpr site a, rexpr site b, site)
        | None -> Rcmp (cmp_of op, rexpr site a, rexpr site b)
      end
    | Unop (Neg, a) -> Rneg (rexpr site a)
    | Unop (Not, a) -> Rnot (rexpr site a)
    | Unop (Bnot, a) -> Rbnot (rexpr site a)
    | InByte a -> Rin (rexpr site a)
    | InputLen -> Rlen
    | ArrayMake a -> Rarray_make (rexpr site a, site)
    | ArrayLen a -> Rarray_len (rexpr site a, site)
    | Abs a -> Rabs (rexpr site a)
  in
  let rinstr (i : Minic.Ir.instr) : rinstr =
    match i with
    | Assign { dst; e; site } -> Rassign (slot dst, rexpr site e)
    | Store { base; idx; v; site } ->
        Rstore (rexpr site base, rexpr site idx, rexpr site v, site)
    | CallI { dst; callee; args; site } ->
        let cid =
          match Hashtbl.find_opt fidx callee with
          | Some c -> c
          | None -> raise (Unknown_name callee)
        in
        Rcall
          {
            dst = Option.map (fun d -> slot d) dst;
            callee = cid;
            args = Array.of_list (List.map (rexpr site) args);
            site;
          }
    | BugI { bug; site } -> Rbug (bug, site)
    | CheckI { cond; bug; site } -> Rcheck (rexpr site cond, bug, site)
  in
  let rterm (t : Minic.Ir.term) : rterm =
    match t with
    | Goto l -> Rgoto l
    | Branch { cond; if_true; if_false; site } ->
        Rbranch (rexpr site cond, if_true, if_false, site)
    | Ret { e; site } -> Rret (Option.map (rexpr site) e, site)
  in
  let rblocks =
    Array.map
      (fun (b : Minic.Ir.block) ->
        { rinstrs = Array.of_list (List.map rinstr b.instrs); rterm = rterm b.term })
      f.blocks
  in
  { rname = f.name; nlocals = !nlocals; param_slots; rblocks }

(** Resolve a program once; reuse the result across executions. *)
let prepare (prog : Minic.Ir.program) : prepared =
  let globals = Hashtbl.create 16 in
  let names = ref [] and sizes = ref [] in
  List.iteri
    (fun i g ->
      let name, size =
        match g with
        | Minic.Ast.Gint n -> (n, 0)
        | Minic.Ast.Garr (n, s) -> (n, s)
      in
      Hashtbl.replace globals name i;
      names := name :: !names;
      sizes := size :: !sizes)
    prog.globals;
  let fidx = Hashtbl.create 16 in
  Array.iteri (fun i (f : Minic.Ir.func) -> Hashtbl.replace fidx f.name i) prog.funcs;
  let main_id =
    match Hashtbl.find_opt fidx "main" with
    | Some id -> id
    | None -> invalid_arg "Interp.prepare: program has no main"
  in
  {
    prog;
    rfuncs = Array.map (resolve_func globals fidx) prog.funcs;
    main_id;
    global_names = Array.of_list (List.rev !names);
    global_sizes = Array.of_list (List.rev !sizes);
  }

(* Memoised [prepare] keyed on physical program identity. Campaigns,
   measurement replays and throughput cells all resolve the same cached
   program; one shared [prepared] (immutable once built) saves the
   per-invocation resolution that used to run per cell/per replay. The
   list is short (one entry per live program) and mutex-guarded so
   worker domains can share it. *)
let prepare_cache : (Minic.Ir.program * prepared) list ref = ref []
let prepare_cache_lock = Mutex.create ()
let prepare_cache_cap = 16

let prepare_cached (prog : Minic.Ir.program) : prepared =
  Mutex.lock prepare_cache_lock;
  let hit =
    List.find_opt (fun (p, _) -> p == prog) !prepare_cache
  in
  match hit with
  | Some (_, prepared) ->
      Mutex.unlock prepare_cache_lock;
      prepared
  | None ->
      Mutex.unlock prepare_cache_lock;
      let prepared = prepare prog in
      Mutex.lock prepare_cache_lock;
      (* racing domains may both prepare; first insert wins *)
      let r =
        match List.find_opt (fun (p, _) -> p == prog) !prepare_cache with
        | Some (_, winner) -> winner
        | None ->
            let keep =
              if List.length !prepare_cache >= prepare_cache_cap then
                List.filteri (fun i _ -> i < prepare_cache_cap - 1) !prepare_cache
              else !prepare_cache
            in
            prepare_cache := (prog, prepared) :: keep;
            prepared
      in
      Mutex.unlock prepare_cache_lock;
      r

(* ------------------------------------------------------------------ *)
(* Execution context: pooled frames, globals and call stack *)

exception Crash_exn of Crash.kind * int
exception Out_of_fuel

(* Distinguished "this slot holds an int" marker for array-slot tables.
   Length 1 on purpose: zero-length OCaml arrays all share the atom (so a
   program-made [array(0)] would compare physically equal to a length-0
   sentinel), while every program array of length >= 1 is freshly
   allocated and therefore never physically equal to this private one. *)
let no_arr : int array = Array.make 1 0

(* A frame is an unboxed int-slot array plus a parallel array-slot table.
   [arrs_live] is false while every [arrs] entry is [no_arr], letting the
   (overwhelmingly common) int-only functions skip the pointer-array scan
   on both zeroing and reads. *)
type frame = {
  f_ints : int array;
  f_arrs : int array array;
  mutable f_arrs_live : bool;
}

(* Per-function frame pool: [live] frames are active activations (the
   function's recursion depth); frames above [live] are free. *)
type fpool = { mutable frames : frame array; mutable live : int }

type exec_ctx = {
  p : prepared;
  hooks : hooks;
  (* Globals: unboxed int cells, current array bindings, and the pooled
     per-declaration arrays that bindings are restored to on reset. For
     int globals [gorig] holds [no_arr], doubling as the dynamic tag. *)
  gints : int array;
  garrs : int array array;
  gorig : int array array;
  (* Touched-globals journal (mirrors [Coverage_map]'s clear strategy):
     only slots written during an execution are reset. Array *contents*
     are mutated through aliases and so are re-zeroed unconditionally. *)
  gdirty : Bytes.t;
  mutable gtouched : int array;
  mutable ngtouched : int;
  pools : fpool array;  (** indexed by function id *)
  (* Call stack as parallel int stacks; [Crash.frame] records are only
     materialised when a crash actually happens. *)
  mutable cs_fid : int array;
  mutable cs_site : int array;
  mutable cs_top : int;
  (* Per-execution registers. [input_len] is authoritative: the scratch
     fast path ([run_batch]) views a pooled buffer as a string whose
     physical length exceeds the candidate's. *)
  mutable input : string;
  mutable input_len : int;
  mutable fuel : int;
  mutable max_depth : int;
  mutable blocks : int;
  (* Return-value scratch: [ret_a == no_arr] means the value is the int
     in [ret_i]. Lets [call] return results without boxing. *)
  mutable ret_i : int;
  mutable ret_a : int array;
  (* Batched-reset support. [gclear] is the subset of [gorig] that holds
     real arrays, precomputed so reset skips int-global sentinels.
     [unwound] is set by the exception fences of both engines' run
     loops: a clean run leaves every callee pool back at zero (calls
     release their frame on return) with only the entry frame live, so
     reset can skip the full pool sweep unless an exception unwound the
     stack. *)
  gclear : int array array;
  mutable unwound : bool;
  (* Introspection: how many journaled global slots the last reset had
     to undo — the width of the dirty set. Written by [reset_ctx], read
     only by observers (never by execution). *)
  mutable last_reset_width : int;
}

let make_frame nlocals =
  {
    f_ints = Array.make nlocals 0;
    f_arrs = Array.make nlocals no_arr;
    f_arrs_live = false;
  }

(** Build a reusable execution context. One context serves one campaign:
    frames, globals and the call stack are pooled here and reused by
    every run. Contexts are single-threaded; use one per
    worker domain. *)
let create_ctx ?(hooks = no_hooks) (p : prepared) : exec_ctx =
  let ng = Array.length p.global_sizes in
  let gorig =
    Array.map
      (fun size -> if size = 0 then no_arr else Array.make size 0)
      p.global_sizes
  in
  {
    p;
    hooks;
    gints = Array.make ng 0;
    garrs = Array.copy gorig;
    gorig;
    gdirty = Bytes.make (max 1 ng) '\000';
    gtouched = Array.make (max 16 ng) 0;
    ngtouched = 0;
    pools = Array.map (fun _ -> { frames = [||]; live = 0 }) p.rfuncs;
    cs_fid = Array.make 64 0;
    cs_site = Array.make 64 0;
    cs_top = 0;
    input = "";
    input_len = 0;
    fuel = 0;
    max_depth = default_max_depth;
    blocks = 0;
    ret_i = 0;
    ret_a = no_arr;
    gclear =
      Array.of_list
        (List.filter (fun a -> a != no_arr) (Array.to_list gorig));
    unwound = false;
    last_reset_width = 0;
  }

(* Reset between executions: undo journaled global-slot writes, re-zero
   declared array globals (their contents are reachable through aliases,
   so content dirtiness cannot be slot-journaled), drop leftover frames
   from crash unwinding, and clear the per-execution registers. *)
let reset_ctx (ctx : exec_ctx) : unit =
  ctx.last_reset_width <- ctx.ngtouched;
  for k = 0 to ctx.ngtouched - 1 do
    let i = Array.unsafe_get ctx.gtouched k in
    Array.unsafe_set ctx.gints i 0;
    Array.unsafe_set ctx.garrs i (Array.unsafe_get ctx.gorig i);
    Bytes.unsafe_set ctx.gdirty i '\000'
  done;
  ctx.ngtouched <- 0;
  let gc = ctx.gclear in
  for k = 0 to Array.length gc - 1 do
    let a = Array.unsafe_get gc k in
    Array.fill a 0 (Array.length a) 0
  done;
  (* Clean runs release every callee frame on return, so only the entry
     pool can be live; crash/hang unwinding skips the releases and is
     flagged by [unwound], paying the full sweep only then. *)
  if ctx.unwound then begin
    Array.iter (fun (pool : fpool) -> pool.live <- 0) ctx.pools;
    ctx.unwound <- false
  end
  else (Array.unsafe_get ctx.pools ctx.p.main_id).live <- 0;
  ctx.cs_top <- 0;
  ctx.blocks <- 0;
  ctx.ret_i <- 0;
  ctx.ret_a <- no_arr

(* Take a zeroed frame for one activation of [fid]. Frames above the
   pool's high-water mark are created on demand and kept forever. *)
let acquire (ctx : exec_ctx) (fid : int) : frame =
  let pool = Array.unsafe_get ctx.pools fid in
  let n = Array.length pool.frames in
  if pool.live = n then begin
    let nlocals = ctx.p.rfuncs.(fid).nlocals in
    pool.frames <-
      Array.init
        (max 4 (2 * n))
        (fun i -> if i < n then pool.frames.(i) else make_frame nlocals)
  end;
  let fr = Array.unsafe_get pool.frames pool.live in
  pool.live <- pool.live + 1;
  Array.fill fr.f_ints 0 (Array.length fr.f_ints) 0;
  if fr.f_arrs_live then begin
    Array.fill fr.f_arrs 0 (Array.length fr.f_arrs) no_arr;
    fr.f_arrs_live <- false
  end;
  fr

(* Like [acquire] but leaves [f_ints] unzeroed (the array table is still
   reset — reads consult it to tell ints from arrays). For engines that
   prove definite assignment and zero the residual slots themselves. *)
let acquire_raw (ctx : exec_ctx) (fid : int) : frame =
  let pool = Array.unsafe_get ctx.pools fid in
  let n = Array.length pool.frames in
  if pool.live = n then begin
    let nlocals = ctx.p.rfuncs.(fid).nlocals in
    pool.frames <-
      Array.init
        (max 4 (2 * n))
        (fun i -> if i < n then pool.frames.(i) else make_frame nlocals)
  end;
  let fr = Array.unsafe_get pool.frames pool.live in
  pool.live <- pool.live + 1;
  if fr.f_arrs_live then begin
    Array.fill fr.f_arrs 0 (Array.length fr.f_arrs) no_arr;
    fr.f_arrs_live <- false
  end;
  fr

let push_call (ctx : exec_ctx) (fid : int) (site : int) : unit =
  if ctx.cs_top = Array.length ctx.cs_fid then begin
    let n = Array.length ctx.cs_fid in
    let grow a = Array.init (2 * n) (fun i -> if i < n then a.(i) else 0) in
    ctx.cs_fid <- grow ctx.cs_fid;
    ctx.cs_site <- grow ctx.cs_site
  end;
  Array.unsafe_set ctx.cs_fid ctx.cs_top fid;
  Array.unsafe_set ctx.cs_site ctx.cs_top site;
  ctx.cs_top <- ctx.cs_top + 1

(* Materialise the [Crash.frame] list (innermost first) from the int
   stacks — only reached when a crash actually happened. *)
let materialize_stack (ctx : exec_ctx) : Crash.frame list =
  let rec go k acc =
    if k >= ctx.cs_top then acc
    else
      go (k + 1)
        ({ Crash.fn = ctx.p.rfuncs.(ctx.cs_fid.(k)).rname; site = ctx.cs_site.(k) }
        :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Slot access *)

let type_err site what = raise (Crash_exn (Crash.Type_error what, site))

let[@inline] set_local_int (fr : frame) i v =
  Array.unsafe_set fr.f_ints i v;
  if fr.f_arrs_live && Array.unsafe_get fr.f_arrs i != no_arr then
    Array.unsafe_set fr.f_arrs i no_arr

let[@inline] set_local_arr (fr : frame) i a =
  Array.unsafe_set fr.f_arrs i a;
  fr.f_arrs_live <- true

let[@inline] touch_global (ctx : exec_ctx) i =
  if Bytes.unsafe_get ctx.gdirty i = '\000' then begin
    Bytes.unsafe_set ctx.gdirty i '\001';
    if ctx.ngtouched = Array.length ctx.gtouched then begin
      let bigger = Array.make (2 * Array.length ctx.gtouched) 0 in
      Array.blit ctx.gtouched 0 bigger 0 ctx.ngtouched;
      ctx.gtouched <- bigger
    end;
    Array.unsafe_set ctx.gtouched ctx.ngtouched i;
    ctx.ngtouched <- ctx.ngtouched + 1
  end

let[@inline] set_global_int (ctx : exec_ctx) i v =
  touch_global ctx i;
  Array.unsafe_set ctx.gints i v;
  if Array.unsafe_get ctx.garrs i != no_arr then
    Array.unsafe_set ctx.garrs i no_arr

let[@inline] set_global_arr (ctx : exec_ctx) i a =
  touch_global ctx i;
  Array.unsafe_set ctx.garrs i a

let[@inline] write_int ctx fr (dst : slot) v =
  match dst with
  | Local i -> set_local_int fr i v
  | Global i -> set_global_int ctx i v

let[@inline] write_arr ctx fr (dst : slot) a =
  match dst with
  | Local i -> set_local_arr fr i a
  | Global i -> set_global_arr ctx i a

let[@inline] read_int ctx (fr : frame) site (s : slot) =
  match s with
  | Local i ->
      if fr.f_arrs_live && Array.unsafe_get fr.f_arrs i != no_arr then
        type_err site "int expected"
      else Array.unsafe_get fr.f_ints i
  | Global i ->
      if Array.unsafe_get ctx.garrs i != no_arr then type_err site "int expected"
      else Array.unsafe_get ctx.gints i

let[@inline] read_arr ctx (fr : frame) site (s : slot) =
  match s with
  | Local i ->
      let a = if fr.f_arrs_live then Array.unsafe_get fr.f_arrs i else no_arr in
      if a == no_arr then type_err site "array expected" else a
  | Global i ->
      let a = Array.unsafe_get ctx.garrs i in
      if a == no_arr then type_err site "array expected" else a

(* Copy one slot's raw value (int or array) to another without boxing. *)
let copy_slot ctx (src_fr : frame) (src : slot) (dst_fr : frame) (dst : slot) =
  match src with
  | Local i ->
      let a =
        if src_fr.f_arrs_live then Array.unsafe_get src_fr.f_arrs i else no_arr
      in
      if a != no_arr then write_arr ctx dst_fr dst a
      else write_int ctx dst_fr dst (Array.unsafe_get src_fr.f_ints i)
  | Global i ->
      let a = Array.unsafe_get ctx.garrs i in
      if a != no_arr then write_arr ctx dst_fr dst a
      else write_int ctx dst_fr dst (Array.unsafe_get ctx.gints i)

(* ------------------------------------------------------------------ *)
(* Evaluation *)

(* Integer-typed evaluation; array-typed sub-expressions are reached only
   through [eval_arr]. *)
let rec eval_int ctx (fr : frame) (e : rexpr) : int =
  match e with
  | Rconst n -> n
  | Rload (s, site) -> read_int ctx fr site s
  | Rindex (b, i, site) ->
      let a = eval_arr ctx fr site b in
      let idx = eval_int ctx fr i in
      if idx < 0 || idx >= Array.length a then
        raise (Crash_exn (Crash.Out_of_bounds { len = Array.length a; idx }, site))
      else Array.unsafe_get a idx
  | Rarith (op, e1, e2, site) -> begin
      let a = eval_int ctx fr e1 in
      let b = eval_int ctx fr e2 in
      match op with
      | Aadd -> a + b
      | Asub -> a - b
      | Amul -> a * b
      | Adiv -> if b = 0 then raise (Crash_exn (Crash.Div_by_zero, site)) else a / b
      | Arem -> if b = 0 then raise (Crash_exn (Crash.Div_by_zero, site)) else a mod b
      | Aband -> a land b
      | Abor -> a lor b
      | Abxor -> a lxor b
      | Ashl -> a lsl (min 62 (b land 63))
      | Ashr -> a asr (min 62 (b land 63))
    end
  | Rcmp (op, e1, e2) -> begin
      let a = eval_int ctx fr e1 in
      let b = eval_int ctx fr e2 in
      ctx.hooks.h_cmp a b;
      match op with
      | Ceq -> if a = b then 1 else 0
      | Cne -> if a <> b then 1 else 0
      | Clt -> if a < b then 1 else 0
      | Cle -> if a <= b then 1 else 0
      | Cgt -> if a > b then 1 else 0
      | Cge -> if a >= b then 1 else 0
    end
  | Rneg e -> -eval_int ctx fr e
  | Rnot e -> if eval_int ctx fr e = 0 then 1 else 0
  | Rbnot e -> lnot (eval_int ctx fr e)
  | Rin e ->
      let i = eval_int ctx fr e in
      if i < 0 || i >= ctx.input_len then -1
      else Char.code (String.unsafe_get ctx.input i)
  | Rlen -> ctx.input_len
  | Rabs e -> abs (eval_int ctx fr e)
  | Rarray_make (_, site) -> type_err site "array in int context"
  | Rarray_len (e, site) -> Array.length (eval_arr ctx fr site e)

and eval_arr ctx (fr : frame) site (e : rexpr) : int array =
  match e with
  | Rload (s, _) -> read_arr ctx fr site s
  | Rarray_make (n, site') ->
      let n = eval_int ctx fr n in
      if n < 0 || n > max_alloc then raise (Crash_exn (Crash.Bad_alloc n, site'))
      else Array.make n 0
  | _ -> type_err site "array expected"

(* Evaluate [e] in [src_fr] and store the result (int or array, no
   boxing) into [dst] of [dst_fr]. The two frames differ only when
   passing call arguments directly into the callee frame. *)
let eval_into ctx (src_fr : frame) (dst_fr : frame) (dst : slot) (e : rexpr) :
    unit =
  match e with
  | Rload (s, _) -> copy_slot ctx src_fr s dst_fr dst
  | Rarray_make (n, site) ->
      let n = eval_int ctx src_fr n in
      if n < 0 || n > max_alloc then raise (Crash_exn (Crash.Bad_alloc n, site))
      else write_arr ctx dst_fr dst (Array.make n 0)
  | _ -> write_int ctx dst_fr dst (eval_int ctx src_fr e)

(* Evaluate a return expression into the context's return scratch. *)
let eval_ret ctx (fr : frame) (e : rexpr) : unit =
  match e with
  | Rload (s, _) -> begin
      match s with
      | Local i ->
          let a =
            if fr.f_arrs_live then Array.unsafe_get fr.f_arrs i else no_arr
          in
          if a != no_arr then ctx.ret_a <- a
          else begin
            ctx.ret_a <- no_arr;
            ctx.ret_i <- Array.unsafe_get fr.f_ints i
          end
      | Global i ->
          let a = Array.unsafe_get ctx.garrs i in
          if a != no_arr then ctx.ret_a <- a
          else begin
            ctx.ret_a <- no_arr;
            ctx.ret_i <- Array.unsafe_get ctx.gints i
          end
    end
  | Rarray_make (n, site) ->
      let n = eval_int ctx fr n in
      if n < 0 || n > max_alloc then raise (Crash_exn (Crash.Bad_alloc n, site))
      else ctx.ret_a <- Array.make n 0
  | _ ->
      ctx.ret_a <- no_arr;
      ctx.ret_i <- eval_int ctx fr e

let[@inline] burn ctx =
  ctx.fuel <- ctx.fuel - 1;
  if ctx.fuel <= 0 then raise Out_of_fuel

(* Execute one activation of [fid] in the (already zeroed and
   argument-filled) frame [fr]. The result lands in the return scratch.
   [run_block] takes the activation as explicit arguments rather than
   closing over it, so a call allocates nothing. *)
let rec call ctx (fid : int) (fr : frame) (depth : int) : unit =
  if depth > ctx.max_depth then raise (Crash_exn (Crash.Stack_overflow, -1));
  ctx.hooks.h_call fid;
  run_block ctx (Array.unsafe_get ctx.p.rfuncs fid) fid fr depth 0

and run_block ctx (f : rfunc) fid (fr : frame) depth label : unit =
  burn ctx;
  ctx.blocks <- ctx.blocks + 1;
  ctx.hooks.h_block fid label;
  let b = Array.unsafe_get f.rblocks label in
  let n = Array.length b.rinstrs in
  for i = 0 to n - 1 do
    exec_instr ctx fr fid depth (Array.unsafe_get b.rinstrs i)
  done;
  match b.rterm with
  | Rgoto l ->
      ctx.hooks.h_edge fid label l;
      run_block ctx f fid fr depth l
  | Rbranch (cond, if_true, if_false, _site) ->
      let dst = if eval_int ctx fr cond <> 0 then if_true else if_false in
      ctx.hooks.h_edge fid label dst;
      run_block ctx f fid fr depth dst
  | Rret (e, _site) ->
      (match e with
      | Some e -> eval_ret ctx fr e
      | None ->
          ctx.ret_a <- no_arr;
          ctx.ret_i <- 0);
      ctx.hooks.h_ret fid label

and exec_instr ctx (fr : frame) fid depth (i : rinstr) : unit =
  burn ctx;
  match i with
  | Rassign (slot, e) -> eval_into ctx fr fr slot e
  | Rstore (base, idx, v, site) ->
      let a = eval_arr ctx fr site base in
      let i = eval_int ctx fr idx in
      let x = eval_int ctx fr v in
      if i < 0 || i >= Array.length a then
        raise (Crash_exn (Crash.Out_of_bounds { len = Array.length a; idx = i }, site))
      else Array.unsafe_set a i x
  | Rcall { dst; callee; args; site } ->
      (* Arguments evaluate (in the caller frame) directly into the
         callee's pooled frame: no intermediate value list. *)
      let cf = acquire ctx callee in
      let params = (Array.unsafe_get ctx.p.rfuncs callee).param_slots in
      for k = 0 to Array.length args - 1 do
        eval_into ctx fr cf (Array.unsafe_get params k) (Array.unsafe_get args k)
      done;
      push_call ctx fid site;
      call ctx callee cf (depth + 1);
      ctx.cs_top <- ctx.cs_top - 1;
      (Array.unsafe_get ctx.pools callee).live <-
        (Array.unsafe_get ctx.pools callee).live - 1;
      (match dst with
      | Some d ->
          if ctx.ret_a != no_arr then write_arr ctx fr d ctx.ret_a
          else write_int ctx fr d ctx.ret_i
      | None -> ())
  | Rbug (bug, site) -> raise (Crash_exn (Crash.Seeded bug, site))
  | Rcheck (cond, bug, site) ->
      if eval_int ctx fr cond = 0 then raise (Crash_exn (Crash.Check_failed bug, site))

let site_function (prog : Minic.Ir.program) site =
  if site >= 0 && site < Array.length prog.sites then prog.sites.(site).sfunc
  else "?"

(** An execution engine's way into a prepared program: [e_enter ctx]
    runs [main] of [e_prepared] on a context the harness has already
    reset, fuelled and loaded with the input, leaving the result in the
    return scratch and raising {!Crash_exn}, {!Out_of_fuel} or
    [Stack_overflow] exactly where the interpreter would. *)
type entry = { e_prepared : prepared; e_enter : exec_ctx -> unit }

(* The interpreter's own entry: a zeroed frame for [main], then [call]. *)
let interp_enter (ctx : exec_ctx) : unit =
  let main = ctx.p.main_id in
  call ctx main (acquire ctx main) 0

(* The one run of the VM: reset, fuel and depth, the engine's entry,
   the exception fences and the outcome, on whatever input registers
   are already set. *)
let run_current (ctx : exec_ctx) (enter : exec_ctx -> unit) ~fuel ~max_depth :
    outcome =
  reset_ctx ctx;
  ctx.fuel <- fuel;
  ctx.max_depth <- max_depth;
  let status =
    try
      enter ctx;
      if ctx.ret_a != no_arr then Finished None else Finished (Some ctx.ret_i)
    with
    | Crash_exn (kind, site) ->
        ctx.unwound <- true;
        let top = { Crash.fn = site_function ctx.p.prog site; site } in
        Crashed { Crash.kind; stack = top :: materialize_stack ctx }
    | Out_of_fuel ->
        ctx.unwound <- true;
        Hung
    | Stack_overflow ->
        ctx.unwound <- true;
        Crashed { Crash.kind = Crash.Stack_overflow; stack = materialize_stack ctx }
  in
  { status; blocks_executed = ctx.blocks }

(** Execute a cohort of [n] candidates back-to-back on one context,
    through [entry] (default: the interpreter itself, driving the
    context's hooks). [gen k] produces candidate [k] as a [(buf, len)]
    scratch view of the first [len] bytes of [buf], run without copying
    them into a string (the VM never writes to its input, so viewing the
    buffer as a string is safe; the caller must not mutate [buf] during
    the run); [sink k outcome] consumes its result before [gen (k + 1)]
    is called, so a single scratch buffer may back the whole cohort.
    Back-to-back runs take the journaled fast path of [reset_ctx] (clean
    runs skip the frame-pool sweep entirely), and the entry's
    prepared-program check runs once per cohort. *)
let run_batch ?(fuel = default_fuel) ?(max_depth = default_max_depth) ?entry
    (ctx : exec_ctx) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> outcome -> unit) : unit =
  let enter =
    match entry with
    | None -> interp_enter
    | Some e ->
        if n > 0 && ctx.p != e.e_prepared then
          invalid_arg
            "Interp.run_batch: context belongs to a different prepared program";
        e.e_enter
  in
  for k = 0 to n - 1 do
    let buf, len = gen k in
    if len < 0 || len > Bytes.length buf then invalid_arg "Interp.run_batch";
    ctx.input <- Bytes.unsafe_to_string buf;
    ctx.input_len <- len;
    sink k (run_current ctx enter ~fuel ~max_depth)
  done

(** Zero-copy [(buf, len)] view of a string input, for [run_batch]'s
    [gen]: the VM never writes its input. *)
let view (s : string) : Bytes.t * int =
  (Bytes.unsafe_of_string s, String.length s)

(** Run [input] on [ctx] through [entry] as a cohort of one. *)
let run_one ?fuel ?max_depth ?entry (ctx : exec_ctx) ~(input : string) :
    outcome =
  let out = ref None in
  run_batch ?fuel ?max_depth ?entry ctx ~n:1
    ~gen:(fun _ -> view input)
    ~sink:(fun _ o -> out := Some o);
  Option.get !out

(** One-shot convenience: prepare [prog] and run [input] on a fresh
    context over [hooks] (use [prepare] + [create_ctx] + [run_batch] in
    loops). *)
let run ?fuel ?hooks ?max_depth (prog : Minic.Ir.program) ~(input : string) :
    outcome =
  run_one ?fuel ?max_depth (create_ctx ?hooks (prepare prog)) ~input
