(** Staged compilation of a prepared MiniC program into OCaml closures —
    the second execution engine, threaded-code style.

    [Interp] walks the resolved IR per execution: every expression node
    re-matches its constructor, every instruction re-dispatches, and
    every block/edge/return event goes through a devirtualised hook call
    whether or not the feedback mode cares. [compile] pays all of that
    once: it partially evaluates the CFG into one closure per basic
    block (forward references resolved through a captured block table
    read at call time), expressions into closure trees with operators,
    slots, sites and constants baked in, and — the point — the feedback
    listener itself into per-site probe closures generated at compile
    time from the {!spec}. A probe that a (site, mode) pair cannot fire
    (an edge that is no Ball–Larus operation, any probe under the null
    spec) is simply not emitted: the compiled code for it is a direct
    jump.

    Three further things are resolved at compile time that the
    interpreter re-derives per event:

    - {b slot typing}: a whole-program may-hold-array fixpoint proves
      most locals and globals int-only, so their loads/stores compile to
      single unchecked table accesses instead of the tagged two-table
      probe (sound over-approximation: a slot the analysis calls
      int-only can never observe an array at runtime);
    - {b fuel}: straight-line instruction runs between calls pre-pay
      their fuel in one subtraction, falling back to the exact
      per-instruction burn chain when the budget is nearly exhausted —
      the hang point and everything a mid-segment crash can observe stay
      bit-identical;
    - {b branches}: comparison and negation conditions fuse into the
      branch, skipping the 1/0 materialisation ([h_cmp] still fires
      between operand evaluation and the jump).

    Staged code runs against the unmodified pooled {!Interp.exec_ctx}
    — frames, pools, the touched-globals journal, fuel, the int call
    stack and crash materialisation are shared with the interpreter —
    and replicates its observable semantics exactly: same evaluation
    order, same crash kinds and sites, same [h_cmp] timing, same
    [blocks_executed]. The differential suite pins compiled vs the boxed
    reference interpreter on random programs and on every subject
    seed/witness, per mode.

    Artifacts are cacheable: all per-campaign state (the bound trace
    map, the cmplog probe, listener registers, the activation depth)
    lives in a mutable {!cstate} rebound via
    {!bind}, so one compiled artifact per [(prepared, spec)] serves
    every campaign on a domain — {!cached} memoises per domain via
    [Domain.DLS]. Sharded campaigns must {!compile} fresh per shard
    instead: [cstate] is single-threaded. *)

open Interp

(** What gets baked in. [Snone] is the bare program (the throughput
    bench's "none" row); [Sfull mode] bakes the corresponding
    {!Pathcov.Feedback} listener in as per-site probes. *)
type spec = Snone | Sfull of Pathcov.Feedback.mode

let spec_name = function
  | Snone -> "none"
  | Sfull m -> Pathcov.Feedback.mode_name m

(* Per-campaign (rebindable) listener state. One record per artifact;
   probes read it through the closure environment, so rebinding [trace]
   or [h_cmp] retargets every probe at once. [depth] replaces the
   interpreter's threaded depth argument: block closures are binary
   (ctx, frame) and only call sites and function entries touch the
   cell. *)
type cstate = {
  mutable trace : Pathcov.Coverage_map.t;
  mutable h_cmp : int -> int -> unit;
  mutable depth : int;  (** current activation depth *)
  mutable prev : int;  (** edge / pathafl previous-block register *)
  hist : int array;  (** ngram history ring (length n, else empty) *)
  mutable pos : int;
  mutable regs : int array;  (** Ball–Larus path registers, a stack *)
  mutable top : int;
  mutable rolling : int;  (** pathafl whole-program rolling hash *)
  (* introspection tallies — plain stores on paths that never feed back
     into execution, so they are trajectory-invisible *)
  mutable stat_rollbacks : int;
      (** bulk-burn fast paths abandoned for a careful replay *)
  mutable stat_careful_units : int;
      (** fuel units re-burned one at a time by those replays *)
  (* static superblock-fusion shape, filled once at compile time *)
  mutable stat_chains : int;  (** fused chains emitted *)
  mutable stat_chain_blocks : int;  (** blocks covered by fused chains *)
  mutable stat_chain_max : int;  (** longest fused chain (blocks) *)
  mutable stat_dup_instrs : int;  (** instructions copied by tail duplication *)
}

type t = {
  prepared : prepared;
  spec : spec;
  cmplog : bool;  (** were [h_cmp] calls compiled into comparisons? *)
  cs : cstate;
  fentries : (exec_ctx -> frame -> unit) array;
  main_zero : int array;
      (** [main]'s definite-assignment residue (entry frames come from
          {!Interp.acquire_raw}, so the residue is zeroed by hand) *)
}

(* ------------------------------------------------------------------ *)
(* Probe generation: compile-time per-site closures, or None = the
   probe is not emitted at all. *)

type probes = {
  pc : int -> (unit -> unit) option;  (** fid *)
  pb : int -> int -> (unit -> unit) option;  (** fid block *)
  pe : int -> int -> int -> (unit -> unit) option;  (** fid src dst *)
  pr : int -> int -> (unit -> unit) option;  (** fid block (return) *)
  pe_add : int -> int -> int -> int option;
      (** Superblock-fusion query: [Some k] means the edge's only effect
          is adding [k] to the current Ball–Larus register ([k = 0]: no
          effect at all), so consecutive fused edges may fold their
          constants into one deferred add; [None] means the probe must
          fire in place (it reads or commits the register, or emits an
          event whose stream position is observable). Must agree with
          {!pe}: an edge reported [Some _] is exactly one whose [pe]
          either is [None] or only adds to the register. *)
  padd : (int -> unit) option;
      (** Apply a folded (nonzero) register add — same top-of-stack guard
          as the per-edge closures it replaces. [None] when the spec has
          no register adds to fold (then [pe_add] never reports a nonzero
          constant). *)
  emit_cmp : bool;  (** compile [cs.h_cmp] calls into comparisons *)
}

let probes_none =
  {
    pc = (fun _ -> None);
    pb = (fun _ _ -> None);
    pe = (fun _ _ _ -> None);
    pr = (fun _ _ -> None);
    pe_add = (fun _ _ _ -> Some 0);
    padd = None;
    emit_cmp = false;
  }

let probes_block (cs : cstate) =
  {
    probes_none with
    emit_cmp = true;
    pb =
      (fun fid b ->
        let key = Pathcov.Feedback.block_key fid b in
        Some (fun () -> Pathcov.Coverage_map.hit cs.trace key));
  }

let probes_edge (cs : cstate) =
  {
    probes_none with
    emit_cmp = true;
    pb =
      (fun fid b ->
        let cur = Pathcov.Feedback.block_key fid b in
        Some
          (fun () ->
            Pathcov.Coverage_map.hit cs.trace (cur lxor cs.prev);
            cs.prev <- cur lsr 1));
  }

let probes_ngram (cs : cstate) n =
  {
    probes_none with
    emit_cmp = true;
    pb =
      (fun fid b ->
        let key = Pathcov.Feedback.block_key fid b in
        Some
          (fun () ->
            Array.unsafe_set cs.hist (cs.pos mod n) key;
            cs.pos <- cs.pos + 1;
            let h = ref 0 in
            for i = 0 to n - 1 do
              h := !h lxor (Array.unsafe_get cs.hist i lsr (i land 15))
            done;
            Pathcov.Coverage_map.hit cs.trace !h));
  }

(* Path probes: the Ball–Larus operation per edge is resolved at compile
   time — edges carrying no operation compile to direct jumps, register
   increments bake their constant in, and commits bake (salt, add/reset)
   in. *)
let path_salt (f : Minic.Ir.func) = Hashtbl.hash f.Minic.Ir.name * 0x9e3779b1

let probes_path (cs : cstate) (p : prepared)
    (plans : Pathcov.Ball_larus.program_plans) =
  let salts = Array.map path_salt p.prog.funcs in
  {
    probes_none with
    emit_cmp = true;
    pc =
      (fun _fid ->
        Some
          (fun () ->
            if cs.top = Array.length cs.regs then begin
              let bigger = Array.make (2 * cs.top) 0 in
              Array.blit cs.regs 0 bigger 0 cs.top;
              cs.regs <- bigger
            end;
            Array.unsafe_set cs.regs cs.top 0;
            cs.top <- cs.top + 1));
    pe =
      (fun fid src dst ->
        match Pathcov.Ball_larus.on_edge plans.plans.(fid) ~src ~dst with
        | None -> None
        | Some (Pathcov.Ball_larus.Add k) ->
            Some
              (fun () ->
                if cs.top > 0 then begin
                  let r = cs.regs in
                  let i = cs.top - 1 in
                  Array.unsafe_set r i (Array.unsafe_get r i + k)
                end)
        | Some (Pathcov.Ball_larus.Commit_back { add; reset }) ->
            let salt = salts.(fid) in
            Some
              (fun () ->
                if cs.top > 0 then begin
                  let r = cs.regs in
                  let i = cs.top - 1 in
                  Pathcov.Coverage_map.hit cs.trace
                    (((Array.unsafe_get r i + add) lxor salt) land max_int);
                  Array.unsafe_set r i reset
                end));
    pe_add =
      (fun fid src dst ->
        match Pathcov.Ball_larus.on_edge plans.plans.(fid) ~src ~dst with
        | None -> Some 0
        | Some (Pathcov.Ball_larus.Add k) -> Some k
        | Some (Pathcov.Ball_larus.Commit_back _) -> None);
    padd =
      Some
        (fun k ->
          if cs.top > 0 then begin
            let r = cs.regs in
            let i = cs.top - 1 in
            Array.unsafe_set r i (Array.unsafe_get r i + k)
          end);
    pr =
      (fun fid block ->
        let ra = plans.plans.(fid).Pathcov.Ball_larus.ret_add.(block) in
        let salt = salts.(fid) in
        Some
          (fun () ->
            if cs.top > 0 then begin
              let i = cs.top - 1 in
              Pathcov.Coverage_map.hit cs.trace
                (((Array.unsafe_get cs.regs i + ra) lxor salt) land max_int);
              cs.top <- i
            end));
  }

let probes_pathafl (cs : cstate) (p : prepared) =
  let nsucc fid src =
    List.length
      (Minic.Ir.successors p.prog.funcs.(fid).blocks.(src).Minic.Ir.term)
  in
  let key_event k =
    cs.rolling <- (((cs.rolling lsl 13) lor (cs.rolling lsr 49)) lxor k) land max_int;
    Pathcov.Coverage_map.hit cs.trace cs.rolling
  in
  {
    probes_none with
    emit_cmp = true;
    pc =
      (fun fid ->
        let k = Pathcov.Feedback.block_key fid 0 + 1 in
        Some (fun () -> key_event k));
    pb =
      (fun fid b ->
        let cur = Pathcov.Feedback.block_key fid b in
        Some
          (fun () ->
            Pathcov.Coverage_map.hit cs.trace (cur lxor cs.prev);
            cs.prev <- cur lsr 1));
    pe =
      (fun fid src dst ->
        if nsucc fid src >= 2 then
          let k = Pathcov.Feedback.block_key fid src lxor (dst * 31) in
          Some (fun () -> key_event k)
        else None);
    pe_add =
      (fun fid src _dst -> if nsucc fid src >= 2 then None else Some 0);
  }

(* ------------------------------------------------------------------ *)
(* May-hold-array analysis.

   MiniC slots are dynamically typed: the interpreter keeps an int and
   an array table per frame and checks, per access, which one is live.
   Statically, though, almost every slot is int-only. A whole-program
   fixpoint over "may this slot ever hold an array" lets the compiler
   emit single unchecked loads/stores for int-only slots. Sources of
   array-ness: [array(n)] literals, loads from may-array slots, calls
   returning may-array, and array-declared globals; arrays propagate
   through assignment, argument passing, returns and global writes
   (globals are NOT statically typed — an int-declared global may be
   overwritten with an array). Everything else (arithmetic, comparisons,
   input reads) is int-valued, so the analysis is a sound
   over-approximation: a slot it calls int-only never holds an array. *)

type typing = {
  lmay : bool array array;  (** per (fid, local slot) *)
  gmay : bool array;  (** per global *)
}

let may_array_analysis (p : prepared) : typing =
  let lmay =
    Array.map (fun (f : rfunc) -> Array.make f.nlocals false) p.rfuncs
  in
  let gmay = Array.map (fun n -> n > 0) p.global_sizes in
  let rmay = Array.make (Array.length p.rfuncs) false in
  let changed = ref true in
  let expr_may fid (e : rexpr) =
    match e with
    | Rload (Local i, _) -> lmay.(fid).(i)
    | Rload (Global g, _) -> gmay.(g)
    | Rarray_make _ -> true
    | _ -> false
  in
  let set_slot fid (s : slot) =
    match s with
    | Local i ->
        if not lmay.(fid).(i) then begin
          lmay.(fid).(i) <- true;
          changed := true
        end
    | Global g ->
        if not gmay.(g) then begin
          gmay.(g) <- true;
          changed := true
        end
  in
  while !changed do
    changed := false;
    Array.iteri
      (fun fid (f : rfunc) ->
        Array.iter
          (fun (b : rblock) ->
            Array.iter
              (fun ins ->
                match ins with
                | Rassign (dst, e) -> if expr_may fid e then set_slot fid dst
                | Rcall { dst; callee; args; _ } ->
                    Array.iteri
                      (fun k a ->
                        if expr_may fid a then
                          set_slot callee p.rfuncs.(callee).param_slots.(k))
                      args;
                    (match dst with
                    | Some d when rmay.(callee) -> set_slot fid d
                    | _ -> ())
                | Rstore _ | Rbug _ | Rcheck _ -> ())
              b.rinstrs;
            match b.rterm with
            | Rret (Some e, _) when expr_may fid e && not rmay.(fid) ->
                rmay.(fid) <- true;
                changed := true
            | _ -> ())
          f.rblocks)
      p.rfuncs
  done;
  { lmay; gmay }

(* ------------------------------------------------------------------ *)
(* Definite-assignment analysis.

   MiniC locals are zero-initialised, which the interpreter implements
   as a whole-frame [Array.fill] per activation ([Interp.acquire]).
   Per function, a must-assign forward dataflow proves which locals are
   written before every possible read; only the residue needs zeroing,
   so compiled call sites use [Interp.acquire_raw] plus a (usually
   empty) per-callee slot list. Sound over all paths: a slot outside
   the list can never be read before it is written, so the stale value
   a reused pooled frame carries is unobservable — including by crashes
   (the analysis covers every expression position, and frames are never
   reflected into outcomes). *)

let zero_slots_analysis (p : prepared) : int array array =
  Array.map
    (fun (f : rfunc) ->
      let n = f.nlocals in
      if n = 0 then [||]
      else begin
        let nb = Array.length f.rblocks in
        (* per block: [gen] = slots assigned; [ue] = slots read before
           any in-block assignment (upward-exposed reads) *)
        let gen = Array.init nb (fun _ -> Array.make n false) in
        let ue = Array.init nb (fun _ -> Array.make n false) in
        let preds = Array.make nb [] in
        let succs = function
          | Rgoto l -> [ l ]
          | Rbranch (_, tl, fl, _) -> if tl = fl then [ tl ] else [ tl; fl ]
          | Rret _ -> []
        in
        Array.iteri
          (fun b (blk : rblock) ->
            List.iter (fun s -> preds.(s) <- b :: preds.(s)) (succs blk.rterm))
          f.rblocks;
        Array.iteri
          (fun b (blk : rblock) ->
            let g = gen.(b) and u = ue.(b) in
            let rec reads (e : rexpr) =
              match e with
              | Rconst _ | Rlen -> ()
              | Rload (Local i, _) -> if not g.(i) then u.(i) <- true
              | Rload (Global _, _) -> ()
              | Rindex (a, i, _) ->
                  reads a;
                  reads i
              | Rarith (_, a, b', _) | Rcmp (_, a, b') ->
                  reads a;
                  reads b'
              | Rneg a | Rnot a | Rbnot a | Rin a | Rabs a
              | Rarray_make (a, _)
              | Rarray_len (a, _) ->
                  reads a
            in
            let def = function Local i -> g.(i) <- true | Global _ -> () in
            Array.iter
              (fun ins ->
                match ins with
                | Rassign (dst, e) ->
                    reads e;
                    def dst
                | Rstore (a, i, v, _) ->
                    reads a;
                    reads i;
                    reads v
                | Rcall { dst; args; _ } ->
                    Array.iter reads args;
                    (match dst with Some d -> def d | None -> ())
                | Rbug _ -> ()
                | Rcheck (c, _, _) -> reads c)
              blk.rinstrs;
            match blk.rterm with
            | Rgoto _ | Rret (None, _) -> ()
            | Rbranch (c, _, _, _) -> reads c
            | Rret (Some e, _) -> reads e)
          f.rblocks;
        (* Must-assign fixpoint: IN(b) = meet over incoming edges of
           IN(pred) ∪ gen(pred); the function-entry edge contributes
           exactly the parameter slots, so IN(0) starts there and only
           shrinks. Unreachable blocks keep ⊤ and contribute nothing. *)
        let inb =
          Array.init nb (fun b ->
              if b = 0 then begin
                let a = Array.make n false in
                Array.iter
                  (function Local i -> a.(i) <- true | Global _ -> ())
                  f.param_slots;
                a
              end
              else Array.make n true)
        in
        let changed = ref true in
        while !changed do
          changed := false;
          for b = 0 to nb - 1 do
            let cur = inb.(b) in
            List.iter
              (fun pb ->
                let pin = inb.(pb) and pg = gen.(pb) in
                for i = 0 to n - 1 do
                  if cur.(i) && not (pin.(i) || pg.(i)) then begin
                    cur.(i) <- false;
                    changed := true
                  end
                done)
              preds.(b)
          done
        done;
        let need = Array.make n false in
        for b = 0 to nb - 1 do
          for i = 0 to n - 1 do
            if ue.(b).(i) && not inb.(b).(i) then need.(i) <- true
          done
        done;
        let out = ref [] in
        for i = n - 1 downto 0 do
          if need.(i) then out := i :: !out
        done;
        Array.of_list !out
      end)
    p.rfuncs

(* ------------------------------------------------------------------ *)
(* Expression compilation. Closure trees mirror [Interp.eval_int] /
   [eval_arr] node for node: same left-to-right evaluation (explicit
   lets — OCaml operator arguments evaluate right-to-left), same crash
   kinds and sites, same h_cmp timing (after both operands). Slots the
   typing proves int-only compile to unchecked single-table accesses
   (and a [caexp] on one becomes the constant type error the
   interpreter's [no_arr] probe would produce). *)

type iexp = exec_ctx -> frame -> int
type aexp = exec_ctx -> frame -> int array

(* Compile-time environment: listener state + the typing views needed by
   the function being compiled. *)
type env = {
  cs : cstate;
  emit_cmp : bool;
  lmay : bool array array;  (** all functions (for call-arg stores) *)
  ma : bool array;  (** current function's locals (= [lmay.(fid)]) *)
  gma : bool array;  (** globals *)
  zeroes : int array array;
      (** per function: local slots to zero at frame entry (the
          definite-assignment residue) *)
}

let type_err site what = raise (Crash_exn (Crash.Type_error what, site))

(* Effect-free int operands — constants and slots the typing proves
   int-only — fuse into their consumer without a closure call: their
   fetch can neither crash, emit a cmp event, nor change under another
   operand's evaluation, so fetch order is unobservable. *)
type simple = Sconst of int | Sloc of int | Sglob of int

let simple_of (env : env) (e : rexpr) : simple option =
  match e with
  | Rconst n -> Some (Sconst n)
  | Rload (Local i, _) when not env.ma.(i) -> Some (Sloc i)
  | Rload (Global g, _) when not env.gma.(g) -> Some (Sglob g)
  | _ -> None

(* Direct (non-closure) calls for the fused forms; [op] is
   loop-invariant so the dispatch predicts perfectly. *)
let[@inline] apply_arith op a b site =
  match op with
  | Aadd -> a + b
  | Asub -> a - b
  | Amul -> a * b
  | Adiv -> if b = 0 then raise (Crash_exn (Crash.Div_by_zero, site)) else a / b
  | Arem ->
      if b = 0 then raise (Crash_exn (Crash.Div_by_zero, site)) else a mod b
  | Aband -> a land b
  | Abor -> a lor b
  | Abxor -> a lxor b
  | Ashl -> a lsl min 62 (b land 63)
  | Ashr -> a asr min 62 (b land 63)

let[@inline] apply_cmp op a b =
  match op with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

let rec cexp (env : env) (e : rexpr) : iexp =
  match e with
  | Rconst n -> fun _ _ -> n
  | Rload (Local i, site) ->
      if env.ma.(i) then
        fun _ fr ->
          if fr.f_arrs_live && Array.unsafe_get fr.f_arrs i != no_arr then
            type_err site "int expected"
          else Array.unsafe_get fr.f_ints i
      else fun _ fr -> Array.unsafe_get fr.f_ints i
  | Rload (Global g, site) ->
      if env.gma.(g) then
        fun ctx _ ->
          if Array.unsafe_get ctx.garrs g != no_arr then
            type_err site "int expected"
          else Array.unsafe_get ctx.gints g
      else fun ctx _ -> Array.unsafe_get ctx.gints g
  | Rindex (b, i, site) -> begin
      let fb = caexp env site b in
      match simple_of env i with
      | Some (Sconst k) ->
          fun ctx fr ->
            let a = fb ctx fr in
            if k < 0 || k >= Array.length a then
              raise
                (Crash_exn
                   (Crash.Out_of_bounds { len = Array.length a; idx = k }, site))
            else Array.unsafe_get a k
      | Some (Sloc li) ->
          fun ctx fr ->
            let a = fb ctx fr in
            let idx = Array.unsafe_get fr.f_ints li in
            if idx < 0 || idx >= Array.length a then
              raise
                (Crash_exn
                   (Crash.Out_of_bounds { len = Array.length a; idx }, site))
            else Array.unsafe_get a idx
      | Some (Sglob g) ->
          fun ctx fr ->
            let a = fb ctx fr in
            let idx = Array.unsafe_get ctx.gints g in
            if idx < 0 || idx >= Array.length a then
              raise
                (Crash_exn
                   (Crash.Out_of_bounds { len = Array.length a; idx }, site))
            else Array.unsafe_get a idx
      | None ->
          let fi = cexp env i in
          fun ctx fr ->
            let a = fb ctx fr in
            let idx = fi ctx fr in
            if idx < 0 || idx >= Array.length a then
              raise
                (Crash_exn
                   (Crash.Out_of_bounds { len = Array.length a; idx }, site))
            else Array.unsafe_get a idx
    end
  | Rarith (op, e1, e2, site) -> begin
      match (simple_of env e1, simple_of env e2) with
      | Some s1, Some s2 -> begin
          match (s1, s2) with
          | Sconst a, Sconst b -> fun _ _ -> apply_arith op a b site
          | Sloc i, Sconst k ->
              fun _ fr -> apply_arith op (Array.unsafe_get fr.f_ints i) k site
          | Sconst k, Sloc i ->
              fun _ fr -> apply_arith op k (Array.unsafe_get fr.f_ints i) site
          | Sloc i, Sloc j ->
              fun _ fr ->
                apply_arith op
                  (Array.unsafe_get fr.f_ints i)
                  (Array.unsafe_get fr.f_ints j)
                  site
          | Sglob g, Sconst k ->
              fun ctx _ -> apply_arith op (Array.unsafe_get ctx.gints g) k site
          | Sconst k, Sglob g ->
              fun ctx _ -> apply_arith op k (Array.unsafe_get ctx.gints g) site
          | Sglob g, Sloc i ->
              fun ctx fr ->
                apply_arith op
                  (Array.unsafe_get ctx.gints g)
                  (Array.unsafe_get fr.f_ints i)
                  site
          | Sloc i, Sglob g ->
              fun ctx fr ->
                apply_arith op
                  (Array.unsafe_get fr.f_ints i)
                  (Array.unsafe_get ctx.gints g)
                  site
          | Sglob g, Sglob h ->
              fun ctx _ ->
                apply_arith op
                  (Array.unsafe_get ctx.gints g)
                  (Array.unsafe_get ctx.gints h)
                  site
        end
      | Some s1, None -> begin
          let f2 = cexp env e2 in
          match s1 with
          | Sconst k ->
              fun ctx fr ->
                let b = f2 ctx fr in
                apply_arith op k b site
          | Sloc i ->
              fun ctx fr ->
                let a = Array.unsafe_get fr.f_ints i in
                let b = f2 ctx fr in
                apply_arith op a b site
          | Sglob g ->
              fun ctx fr ->
                let a = Array.unsafe_get ctx.gints g in
                let b = f2 ctx fr in
                apply_arith op a b site
        end
      | None, Some s2 -> begin
          let f1 = cexp env e1 in
          match s2 with
          | Sconst k ->
              fun ctx fr ->
                let a = f1 ctx fr in
                apply_arith op a k site
          | Sloc i ->
              fun ctx fr ->
                let a = f1 ctx fr in
                apply_arith op a (Array.unsafe_get fr.f_ints i) site
          | Sglob g ->
              fun ctx fr ->
                let a = f1 ctx fr in
                apply_arith op a (Array.unsafe_get ctx.gints g) site
        end
      | None, None -> (
      let f1 = cexp env e1 in
      let f2 = cexp env e2 in
      match op with
      | Aadd ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a + b
      | Asub ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a - b
      | Amul ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a * b
      | Adiv ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            if b = 0 then raise (Crash_exn (Crash.Div_by_zero, site)) else a / b
      | Arem ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            if b = 0 then raise (Crash_exn (Crash.Div_by_zero, site))
            else a mod b
      | Aband ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a land b
      | Abor ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a lor b
      | Abxor ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a lxor b
      | Ashl ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a lsl min 62 (b land 63)
      | Ashr ->
          fun ctx fr ->
            let a = f1 ctx fr in
            let b = f2 ctx fr in
            a asr min 62 (b land 63))
    end
  | Rcmp (op, e1, e2) -> begin
      match (simple_of env e1, simple_of env e2) with
      | Some s1, Some s2 -> begin
          let cs = env.cs in
          let emit = env.emit_cmp in
          match (s1, s2) with
          | Sconst a, Sconst b ->
              fun _ _ ->
                if emit then cs.h_cmp a b;
                if apply_cmp op a b then 1 else 0
          | Sloc i, Sconst k ->
              fun _ fr ->
                let a = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a k;
                if apply_cmp op a k then 1 else 0
          | Sconst k, Sloc i ->
              fun _ fr ->
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp k b;
                if apply_cmp op k b then 1 else 0
          | Sloc i, Sloc j ->
              fun _ fr ->
                let a = Array.unsafe_get fr.f_ints i in
                let b = Array.unsafe_get fr.f_ints j in
                if emit then cs.h_cmp a b;
                if apply_cmp op a b then 1 else 0
          | Sglob g, Sconst k ->
              fun ctx _ ->
                let a = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a k;
                if apply_cmp op a k then 1 else 0
          | Sconst k, Sglob g ->
              fun ctx _ ->
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp k b;
                if apply_cmp op k b then 1 else 0
          | Sglob g, Sloc i ->
              fun ctx fr ->
                let a = Array.unsafe_get ctx.gints g in
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a b;
                if apply_cmp op a b then 1 else 0
          | Sloc i, Sglob g ->
              fun ctx fr ->
                let a = Array.unsafe_get fr.f_ints i in
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a b;
                if apply_cmp op a b then 1 else 0
          | Sglob g, Sglob h ->
              fun ctx _ ->
                let a = Array.unsafe_get ctx.gints g in
                let b = Array.unsafe_get ctx.gints h in
                if emit then cs.h_cmp a b;
                if apply_cmp op a b then 1 else 0
        end
      | _ -> (
      let f1 = cexp env e1 in
      let f2 = cexp env e2 in
      let cs = env.cs in
      if env.emit_cmp then
        match op with
        | Ceq ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              if a = b then 1 else 0
        | Cne ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              if a <> b then 1 else 0
        | Clt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              if a < b then 1 else 0
        | Cle ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              if a <= b then 1 else 0
        | Cgt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              if a > b then 1 else 0
        | Cge ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              if a >= b then 1 else 0
      else
        match op with
        | Ceq ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              if a = b then 1 else 0
        | Cne ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              if a <> b then 1 else 0
        | Clt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              if a < b then 1 else 0
        | Cle ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              if a <= b then 1 else 0
        | Cgt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              if a > b then 1 else 0
        | Cge ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              if a >= b then 1 else 0)
    end
  | Rneg e ->
      let f = cexp env e in
      fun ctx fr -> -f ctx fr
  | Rnot e ->
      let f = cexp env e in
      fun ctx fr -> if f ctx fr = 0 then 1 else 0
  | Rbnot e ->
      let f = cexp env e in
      fun ctx fr -> lnot (f ctx fr)
  | Rin e -> begin
      match simple_of env e with
      | Some (Sconst k) ->
          fun ctx _ ->
            if k < 0 || k >= ctx.input_len then -1
            else Char.code (String.unsafe_get ctx.input k)
      | Some (Sloc li) ->
          fun ctx fr ->
            let i = Array.unsafe_get fr.f_ints li in
            if i < 0 || i >= ctx.input_len then -1
            else Char.code (String.unsafe_get ctx.input i)
      | Some (Sglob g) ->
          fun ctx _ ->
            let i = Array.unsafe_get ctx.gints g in
            if i < 0 || i >= ctx.input_len then -1
            else Char.code (String.unsafe_get ctx.input i)
      | None ->
          let f = cexp env e in
          fun ctx fr ->
            let i = f ctx fr in
            if i < 0 || i >= ctx.input_len then -1
            else Char.code (String.unsafe_get ctx.input i)
    end
  | Rlen -> fun ctx _ -> ctx.input_len
  | Rabs e ->
      let f = cexp env e in
      fun ctx fr -> abs (f ctx fr)
  | Rarray_make (_, site) -> fun _ _ -> type_err site "array in int context"
  | Rarray_len (e, site) ->
      let fa = caexp env site e in
      fun ctx fr -> Array.length (fa ctx fr)

and caexp (env : env) (site : int) (e : rexpr) : aexp =
  match e with
  | Rload (Local i, _) ->
      if env.ma.(i) then
        fun _ fr ->
          let a =
            if fr.f_arrs_live then Array.unsafe_get fr.f_arrs i else no_arr
          in
          if a == no_arr then type_err site "array expected" else a
      else fun _ _ -> type_err site "array expected"
  | Rload (Global g, _) ->
      if env.gma.(g) then
        fun ctx _ ->
          let a = Array.unsafe_get ctx.garrs g in
          if a == no_arr then type_err site "array expected" else a
      else fun _ _ -> type_err site "array expected"
  | Rarray_make (n, site') ->
      let fn = cexp env n in
      fun ctx fr ->
        let n = fn ctx fr in
        if n < 0 || n > max_alloc then
          raise (Crash_exn (Crash.Bad_alloc n, site'))
        else Array.make n 0
  | _ -> fun _ _ -> type_err site "array expected"

(* Branch conditions, fused: the comparison feeds the branch directly
   instead of materialising 1/0 and re-testing it. [h_cmp] still fires
   between operand evaluation and the jump, as in the interpreter. *)
let ccond (env : env) (e : rexpr) : exec_ctx -> frame -> bool =
  match e with
  | Rcmp (op, e1, e2) -> begin
      match (simple_of env e1, simple_of env e2) with
      | Some s1, Some s2 -> begin
          let cs = env.cs in
          let emit = env.emit_cmp in
          match (s1, s2) with
          | Sconst a, Sconst b ->
              fun _ _ ->
                if emit then cs.h_cmp a b;
                apply_cmp op a b
          | Sloc i, Sconst k ->
              fun _ fr ->
                let a = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a k;
                apply_cmp op a k
          | Sconst k, Sloc i ->
              fun _ fr ->
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp k b;
                apply_cmp op k b
          | Sloc i, Sloc j ->
              fun _ fr ->
                let a = Array.unsafe_get fr.f_ints i in
                let b = Array.unsafe_get fr.f_ints j in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
          | Sglob g, Sconst k ->
              fun ctx _ ->
                let a = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a k;
                apply_cmp op a k
          | Sconst k, Sglob g ->
              fun ctx _ ->
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp k b;
                apply_cmp op k b
          | Sglob g, Sloc i ->
              fun ctx fr ->
                let a = Array.unsafe_get ctx.gints g in
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
          | Sloc i, Sglob g ->
              fun ctx fr ->
                let a = Array.unsafe_get fr.f_ints i in
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
          | Sglob g, Sglob h ->
              fun ctx _ ->
                let a = Array.unsafe_get ctx.gints g in
                let b = Array.unsafe_get ctx.gints h in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
        end
      | Some s1, None -> begin
          let f2 = cexp env e2 in
          let cs = env.cs in
          let emit = env.emit_cmp in
          match s1 with
          | Sconst k ->
              fun ctx fr ->
                let b = f2 ctx fr in
                if emit then cs.h_cmp k b;
                apply_cmp op k b
          | Sloc i ->
              fun ctx fr ->
                let a = Array.unsafe_get fr.f_ints i in
                let b = f2 ctx fr in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
          | Sglob g ->
              fun ctx fr ->
                let a = Array.unsafe_get ctx.gints g in
                let b = f2 ctx fr in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
        end
      | None, Some s2 -> begin
          let f1 = cexp env e1 in
          let cs = env.cs in
          let emit = env.emit_cmp in
          match s2 with
          | Sconst k ->
              fun ctx fr ->
                let a = f1 ctx fr in
                if emit then cs.h_cmp a k;
                apply_cmp op a k
          | Sloc i ->
              fun ctx fr ->
                let a = f1 ctx fr in
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
          | Sglob g ->
              fun ctx fr ->
                let a = f1 ctx fr in
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a b;
                apply_cmp op a b
        end
      | None, None -> (
      let f1 = cexp env e1 in
      let f2 = cexp env e2 in
      let cs = env.cs in
      if env.emit_cmp then
        match op with
        | Ceq ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              a = b
        | Cne ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              a <> b
        | Clt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              a < b
        | Cle ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              a <= b
        | Cgt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              a > b
        | Cge ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              cs.h_cmp a b;
              a >= b
      else
        match op with
        | Ceq ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              a = b
        | Cne ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              a <> b
        | Clt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              a < b
        | Cle ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              a <= b
        | Cgt ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              a > b
        | Cge ->
            fun ctx fr ->
              let a = f1 ctx fr in
              let b = f2 ctx fr in
              a >= b)
    end
  | Rnot e ->
      let f = cexp env e in
      fun ctx fr -> f ctx fr = 0
  | _ -> begin
      match simple_of env e with
      | Some (Sconst k) ->
          let v = k <> 0 in
          fun _ _ -> v
      | Some (Sloc i) -> fun _ fr -> Array.unsafe_get fr.f_ints i <> 0
      | Some (Sglob g) -> fun ctx _ -> Array.unsafe_get ctx.gints g <> 0
      | None ->
          let f = cexp env e in
          fun ctx fr -> f ctx fr <> 0
    end

(* [Interp.eval_into]: evaluate in [src] and store (int or array, no
   boxing) into [dst] of the destination frame. [dstma] is the may-array
   table of the frame being stored into — the callee's for argument
   passing, the current function's otherwise. *)
let cinto (env : env) ~(dstma : bool array) (dst : slot) (e : rexpr) :
    exec_ctx -> frame -> frame -> unit =
  let store_int : exec_ctx -> frame -> int -> unit =
    match dst with
    | Local i ->
        if dstma.(i) then
          fun _ dstf v ->
            Array.unsafe_set dstf.f_ints i v;
            if dstf.f_arrs_live && Array.unsafe_get dstf.f_arrs i != no_arr
            then Array.unsafe_set dstf.f_arrs i no_arr
            else ()
        else fun _ dstf v -> Array.unsafe_set dstf.f_ints i v
    | Global g ->
        if env.gma.(g) then
          fun ctx _ v ->
            touch_global ctx g;
            Array.unsafe_set ctx.gints g v;
            if Array.unsafe_get ctx.garrs g != no_arr then
              Array.unsafe_set ctx.garrs g no_arr
            else ()
        else
          fun ctx _ v ->
            touch_global ctx g;
            Array.unsafe_set ctx.gints g v
  in
  match e with
  | Rload ((Local i) as s, _) when env.ma.(i) ->
      fun ctx src dstf -> copy_slot ctx src s dstf dst
  | Rload ((Global g) as s, _) when env.gma.(g) ->
      fun ctx src dstf -> copy_slot ctx src s dstf dst
  | Rload (Local i, _) ->
      (* int-only source: a plain int move *)
      fun ctx src dstf -> store_int ctx dstf (Array.unsafe_get src.f_ints i)
  | Rload (Global g, _) ->
      fun ctx _ dstf -> store_int ctx dstf (Array.unsafe_get ctx.gints g)
  | Rarray_make (n, site) ->
      let fn = cexp env n in
      fun ctx src dstf ->
        let n = fn ctx src in
        if n < 0 || n > max_alloc then
          raise (Crash_exn (Crash.Bad_alloc n, site))
        else write_arr ctx dstf dst (Array.make n 0)
  | _ ->
      let f = cexp env e in
      fun ctx src dstf -> store_int ctx dstf (f ctx src)

(* [Interp.eval_ret]: evaluate a return expression into the return
   scratch. *)
let cret (env : env) (e : rexpr option) : exec_ctx -> frame -> unit =
  match e with
  | None ->
      fun ctx _ ->
        ctx.ret_a <- no_arr;
        ctx.ret_i <- 0
  | Some (Rload (Local i, _)) ->
      if env.ma.(i) then
        fun ctx fr ->
          let a =
            if fr.f_arrs_live then Array.unsafe_get fr.f_arrs i else no_arr
          in
          if a != no_arr then ctx.ret_a <- a
          else begin
            ctx.ret_a <- no_arr;
            ctx.ret_i <- Array.unsafe_get fr.f_ints i
          end
      else
        fun ctx fr ->
          ctx.ret_a <- no_arr;
          ctx.ret_i <- Array.unsafe_get fr.f_ints i
  | Some (Rload (Global g, _)) ->
      if env.gma.(g) then
        fun ctx _ ->
          let a = Array.unsafe_get ctx.garrs g in
          if a != no_arr then ctx.ret_a <- a
          else begin
            ctx.ret_a <- no_arr;
            ctx.ret_i <- Array.unsafe_get ctx.gints g
          end
      else
        fun ctx _ ->
          ctx.ret_a <- no_arr;
          ctx.ret_i <- Array.unsafe_get ctx.gints g
  | Some (Rarray_make (n, site)) ->
      let fn = cexp env n in
      fun ctx fr ->
        let n = fn ctx fr in
        if n < 0 || n > max_alloc then
          raise (Crash_exn (Crash.Bad_alloc n, site))
        else ctx.ret_a <- Array.make n 0
  | Some e ->
      let f = cexp env e in
      fun ctx fr ->
        ctx.ret_a <- no_arr;
        ctx.ret_i <- f ctx fr

(* ------------------------------------------------------------------ *)
(* Instruction / block / function compilation.

   Straight-line instruction runs between calls ("segments") pre-pay
   their fuel in one subtraction: the dispatcher takes the fast body
   (no per-instruction accounting) whenever the budget strictly covers
   the whole segment — in which case the interpreter could not have
   hung anywhere inside it and ends the segment with the identical fuel
   value — and otherwise rolls the subtraction back and runs the exact
   per-instruction burn chain, reproducing the interpreter's hang point
   (and the burn-before-execute ordering a mid-segment crash observes)
   bit for bit. Calls always burn exactly: the callee shares the fuel
   pool and must see the same budget as under the interpreter. *)

type bfn = exec_ctx -> frame -> unit

(* One instruction, no fuel accounting (the pre-paid fast body),
   continuing into [rest]. *)
let cinstr_fast (env : env) (ins : rinstr) (rest : bfn) : bfn =
  match ins with
  (* A store to an int-only local: the typing guarantees the source
     expression is statically int-valued (an array-yielding source would
     have marked the destination may-array), so this is a bare int
     write — no [cinto] indirection, no array-table probe. *)
  | Rassign (Local d, e) when not env.ma.(d) -> begin
      (* Superinstructions: the hottest source shapes (constants, moves,
         simple-operand arithmetic, input reads) write the destination
         straight from the assignment closure — no [cexp] hop. *)
      match e with
      | Rconst k ->
          fun ctx fr ->
            Array.unsafe_set fr.f_ints d k;
            rest ctx fr
      | Rload (Local s, _) when not env.ma.(s) ->
          fun ctx fr ->
            Array.unsafe_set fr.f_ints d (Array.unsafe_get fr.f_ints s);
            rest ctx fr
      | Rload (Global g, _) when not env.gma.(g) ->
          fun ctx fr ->
            Array.unsafe_set fr.f_ints d (Array.unsafe_get ctx.gints g);
            rest ctx fr
      | Rarith (op, e1, e2, site) -> begin
          match (simple_of env e1, simple_of env e2) with
          | Some (Sloc i), Some (Sconst k) ->
              fun ctx fr ->
                Array.unsafe_set fr.f_ints d
                  (apply_arith op (Array.unsafe_get fr.f_ints i) k site);
                rest ctx fr
          | Some (Sconst k), Some (Sloc i) ->
              fun ctx fr ->
                Array.unsafe_set fr.f_ints d
                  (apply_arith op k (Array.unsafe_get fr.f_ints i) site);
                rest ctx fr
          | Some (Sloc i), Some (Sloc j) ->
              fun ctx fr ->
                Array.unsafe_set fr.f_ints d
                  (apply_arith op
                     (Array.unsafe_get fr.f_ints i)
                     (Array.unsafe_get fr.f_ints j)
                     site);
                rest ctx fr
          | Some (Sglob g), Some (Sconst k) ->
              fun ctx fr ->
                Array.unsafe_set fr.f_ints d
                  (apply_arith op (Array.unsafe_get ctx.gints g) k site);
                rest ctx fr
          | _ ->
              let f = cexp env e in
              fun ctx fr ->
                Array.unsafe_set fr.f_ints d (f ctx fr);
                rest ctx fr
        end
      | Rin a -> begin
          match simple_of env a with
          | Some (Sloc i) ->
              fun ctx fr ->
                let i = Array.unsafe_get fr.f_ints i in
                Array.unsafe_set fr.f_ints d
                  (if i < 0 || i >= ctx.input_len then -1
                   else Char.code (String.unsafe_get ctx.input i));
                rest ctx fr
          | _ ->
              let f = cexp env e in
              fun ctx fr ->
                Array.unsafe_set fr.f_ints d (f ctx fr);
                rest ctx fr
        end
      | _ ->
          let f = cexp env e in
          fun ctx fr ->
            Array.unsafe_set fr.f_ints d (f ctx fr);
            rest ctx fr
    end
  | Rassign (Global g, e) when not env.gma.(g) ->
      let f = cexp env e in
      fun ctx fr ->
        let v = f ctx fr in
        touch_global ctx g;
        Array.unsafe_set ctx.gints g v;
        rest ctx fr
  | Rassign (dst, e) ->
      let f = cinto env ~dstma:env.ma dst e in
      fun ctx fr ->
        f ctx fr fr;
        rest ctx fr
  | Rstore (base, idx, v, site) -> begin
      let fb = caexp env site base in
      let fv = cexp env v in
      let finish a i x ctx fr =
        if i < 0 || i >= Array.length a then
          raise
            (Crash_exn
               (Crash.Out_of_bounds { len = Array.length a; idx = i }, site))
        else begin
          Array.unsafe_set a i x;
          rest ctx fr
        end
      in
      match simple_of env idx with
      | Some (Sconst k) ->
          fun ctx fr ->
            let a = fb ctx fr in
            let x = fv ctx fr in
            finish a k x ctx fr
      | Some (Sloc li) ->
          fun ctx fr ->
            let a = fb ctx fr in
            let i = Array.unsafe_get fr.f_ints li in
            let x = fv ctx fr in
            finish a i x ctx fr
      | Some (Sglob g) ->
          fun ctx fr ->
            let a = fb ctx fr in
            let i = Array.unsafe_get ctx.gints g in
            let x = fv ctx fr in
            finish a i x ctx fr
      | None ->
          let fi = cexp env idx in
          fun ctx fr ->
            let a = fb ctx fr in
            let i = fi ctx fr in
            let x = fv ctx fr in
            finish a i x ctx fr
    end
  | Rbug (bug, site) -> fun _ _ -> raise (Crash_exn (Crash.Seeded bug, site))
  | Rcheck (cond, bug, site) ->
      (* The condition compiles through the fused boolean path — same
         crash test ([= 0]), no 1/0 materialisation. *)
      let f = ccond env cond in
      fun ctx fr ->
        if not (f ctx fr) then raise (Crash_exn (Crash.Check_failed bug, site));
        rest ctx fr
  | Rcall _ -> invalid_arg "Compile.cinstr_fast: calls bound segments"

(* The same instruction with its exact leading burn (the careful
   fallback). *)
let cinstr_careful (env : env) (ins : rinstr) (rest : bfn) : bfn =
  let body = cinstr_fast env ins rest in
  fun ctx fr ->
    ctx.fuel <- ctx.fuel - 1;
    if ctx.fuel <= 0 then raise Out_of_fuel;
    body ctx fr

(* A call instruction: exact burn, argument evaluation into the callee
   frame, depth / call-stack / pool bookkeeping, return-value store. *)
let ccall (env : env) (p : prepared) (fentries : bfn array) (fid : int) ~dst
    ~callee ~(args : rexpr array) ~site (rest : bfn) : bfn =
  let params = p.rfuncs.(callee).param_slots in
  let dstma = env.lmay.(callee) in
  let cargs = Array.mapi (fun k a -> cinto env ~dstma params.(k) a) args in
  let nargs = Array.length cargs in
  let store_ret : exec_ctx -> frame -> unit =
    match dst with
    | None -> fun _ _ -> ()
    | Some d ->
        fun ctx fr ->
          if ctx.ret_a != no_arr then write_arr ctx fr d ctx.ret_a
          else write_int ctx fr d ctx.ret_i
  in
  let cs = env.cs in
  let zs = env.zeroes.(callee) in
  let nz = Array.length zs in
  fun ctx fr ->
    ctx.fuel <- ctx.fuel - 1;
    if ctx.fuel <= 0 then raise Out_of_fuel;
    let cf = acquire_raw ctx callee in
    if nz > 0 then
      for k = 0 to nz - 1 do
        Array.unsafe_set cf.f_ints (Array.unsafe_get zs k) 0
      done;
    for k = 0 to nargs - 1 do
      (Array.unsafe_get cargs k) ctx fr cf
    done;
    push_call ctx fid site;
    cs.depth <- cs.depth + 1;
    (Array.unsafe_get fentries callee) ctx cf;
    cs.depth <- cs.depth - 1;
    ctx.cs_top <- ctx.cs_top - 1;
    let pool = Array.unsafe_get ctx.pools callee in
    pool.live <- pool.live - 1;
    store_ret ctx fr;
    rest ctx fr

let cterm (env : env) (probes : probes) (tbl : bfn array) (fid : int)
    (label : int) (t : rterm) : bfn =
  match t with
  | Rgoto l -> begin
      match probes.pe fid label l with
      | None -> fun ctx fr -> (Array.unsafe_get tbl l) ctx fr
      | Some p ->
          fun ctx fr ->
            p ();
            (Array.unsafe_get tbl l) ctx fr
    end
  | Rbranch (cond, tl, fl, _site) -> begin
      let fc = ccond env cond in
      match (probes.pe fid label tl, probes.pe fid label fl) with
      | None, None ->
          fun ctx fr ->
            let d = if fc ctx fr then tl else fl in
            (Array.unsafe_get tbl d) ctx fr
      | Some pt, None ->
          fun ctx fr ->
            if fc ctx fr then begin
              pt ();
              (Array.unsafe_get tbl tl) ctx fr
            end
            else (Array.unsafe_get tbl fl) ctx fr
      | None, Some pf ->
          fun ctx fr ->
            if fc ctx fr then (Array.unsafe_get tbl tl) ctx fr
            else begin
              pf ();
              (Array.unsafe_get tbl fl) ctx fr
            end
      | Some pt, Some pf ->
          fun ctx fr ->
            if fc ctx fr then begin
              pt ();
              (Array.unsafe_get tbl tl) ctx fr
            end
            else begin
              pf ();
              (Array.unsafe_get tbl fl) ctx fr
            end
    end
  | Rret (e, _site) -> begin
      let f = cret env e in
      match probes.pr fid label with
      | None -> fun ctx fr -> f ctx fr
      | Some p ->
          fun ctx fr ->
            f ctx fr;
            p ()
    end

let[@inline] fire = function None -> () | Some p -> p ()

(* An instruction-free block fused into one closure: entry burn, work
   counter, block probe, condition and jump — branch-only blocks are the
   bulk of loop control, and the generic dispatcher would spend an extra
   closure hop on them. Event order matches the interpreter: burn,
   blocks, h_block, condition (h_cmp inside), h_edge/h_ret, jump. *)
let cblock_empty (env : env) (probes : probes) (tbl : bfn array) (fid : int)
    (label : int) (t : rterm) : bfn =
  let pb = probes.pb fid label in
  match t with
  | Rgoto l ->
      let pe = probes.pe fid label l in
      fun ctx fr ->
        ctx.fuel <- ctx.fuel - 1;
        if ctx.fuel <= 0 then raise Out_of_fuel;
        ctx.blocks <- ctx.blocks + 1;
        fire pb;
        fire pe;
        (Array.unsafe_get tbl l) ctx fr
  | Rbranch (cond, tl, fl, _site) -> begin
      let pt = probes.pe fid label tl and pf = probes.pe fid label fl in
      (* Loop-control blocks with a simple-operand comparison inline the
         test itself — entry, condition and jump in one closure. *)
      let simple_cmp =
        match cond with
        | Rcmp (op, e1, e2) -> (
            match (simple_of env e1, simple_of env e2) with
            | Some s1, Some s2 -> Some (op, s1, s2)
            | _ -> None)
        | _ -> None
      in
      match simple_cmp with
      | Some (op, s1, s2) ->
          let cs = env.cs in
          let emit = env.emit_cmp in
          let[@inline] finish taken ctx fr =
            if taken then begin
              fire pt;
              (Array.unsafe_get tbl tl) ctx fr
            end
            else begin
              fire pf;
              (Array.unsafe_get tbl fl) ctx fr
            end
          in
          let[@inline] entry ctx =
            ctx.fuel <- ctx.fuel - 1;
            if ctx.fuel <= 0 then raise Out_of_fuel;
            ctx.blocks <- ctx.blocks + 1;
            fire pb
          in
          (match (s1, s2) with
          | Sconst a, Sconst b ->
              fun ctx fr ->
                entry ctx;
                if emit then cs.h_cmp a b;
                finish (apply_cmp op a b) ctx fr
          | Sloc i, Sconst k ->
              fun ctx fr ->
                entry ctx;
                let a = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a k;
                finish (apply_cmp op a k) ctx fr
          | Sconst k, Sloc i ->
              fun ctx fr ->
                entry ctx;
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp k b;
                finish (apply_cmp op k b) ctx fr
          | Sloc i, Sloc j ->
              fun ctx fr ->
                entry ctx;
                let a = Array.unsafe_get fr.f_ints i in
                let b = Array.unsafe_get fr.f_ints j in
                if emit then cs.h_cmp a b;
                finish (apply_cmp op a b) ctx fr
          | Sglob g, Sconst k ->
              fun ctx fr ->
                entry ctx;
                let a = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a k;
                finish (apply_cmp op a k) ctx fr
          | Sconst k, Sglob g ->
              fun ctx fr ->
                entry ctx;
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp k b;
                finish (apply_cmp op k b) ctx fr
          | Sglob g, Sloc i ->
              fun ctx fr ->
                entry ctx;
                let a = Array.unsafe_get ctx.gints g in
                let b = Array.unsafe_get fr.f_ints i in
                if emit then cs.h_cmp a b;
                finish (apply_cmp op a b) ctx fr
          | Sloc i, Sglob g ->
              fun ctx fr ->
                entry ctx;
                let a = Array.unsafe_get fr.f_ints i in
                let b = Array.unsafe_get ctx.gints g in
                if emit then cs.h_cmp a b;
                finish (apply_cmp op a b) ctx fr
          | Sglob g, Sglob h ->
              fun ctx fr ->
                entry ctx;
                let a = Array.unsafe_get ctx.gints g in
                let b = Array.unsafe_get ctx.gints h in
                if emit then cs.h_cmp a b;
                finish (apply_cmp op a b) ctx fr)
      | None ->
          let fc = ccond env cond in
          fun ctx fr ->
            ctx.fuel <- ctx.fuel - 1;
            if ctx.fuel <= 0 then raise Out_of_fuel;
            ctx.blocks <- ctx.blocks + 1;
            fire pb;
            if fc ctx fr then begin
              fire pt;
              (Array.unsafe_get tbl tl) ctx fr
            end
            else begin
              fire pf;
              (Array.unsafe_get tbl fl) ctx fr
            end
    end
  | Rret (e, _site) ->
      let f = cret env e in
      let pr = probes.pr fid label in
      fun ctx fr ->
        ctx.fuel <- ctx.fuel - 1;
        if ctx.fuel <= 0 then raise Out_of_fuel;
        ctx.blocks <- ctx.blocks + 1;
        fire pb;
        f ctx fr;
        fire pr

(* Compile a block: segment the instruction array at call boundaries,
   emit a bulk-burn dispatcher per non-empty segment (fast body vs exact
   fallback, sharing one continuation), and fold the block-entry burn,
   the [blocks] work counter and the block probe into the first
   segment. *)
let cblock (env : env) (probes : probes) (p : prepared) (fentries : bfn array)
    (tbl : bfn array) (fid : int) (label : int) (b : rblock) : bfn =
  let instrs = b.rinstrs in
  let n = Array.length instrs in
  if n = 0 then cblock_empty env probes tbl fid label b.rterm
  else begin
  let term = cterm env probes tbl fid label b.rterm in
  (* [build i ~first] compiles execution from instruction [i] to the end
     of the block: one dispatcher for the straight-line run starting at
     [i], chained through the call (if any) into the next segment. *)
  let rec build (i : int) ~(first : bool) : bfn =
    let j = ref i in
    while !j < n && (match instrs.(!j) with Rcall _ -> false | _ -> true) do
      incr j
    done;
    let j = !j in
    let cont : bfn =
      if j >= n then term
      else
        match instrs.(j) with
        | Rcall { dst; callee; args; site } ->
            let rest = build (j + 1) ~first:false in
            ccall env p fentries fid ~dst ~callee ~args ~site rest
        | _ -> assert false
    in
    let burn_units = j - i + if first then 1 else 0 in
    if burn_units = 0 then cont
    else begin
      let rec fast_chain k =
        if k >= j then cont else cinstr_fast env instrs.(k) (fast_chain (k + 1))
      in
      let rec careful_chain k =
        if k >= j then cont
        else cinstr_careful env instrs.(k) (careful_chain (k + 1))
      in
      let head_careful : bfn -> bfn =
        if not first then fun body -> body
        else
          match probes.pb fid label with
          | None ->
              fun body ctx fr ->
                ctx.fuel <- ctx.fuel - 1;
                if ctx.fuel <= 0 then raise Out_of_fuel;
                ctx.blocks <- ctx.blocks + 1;
                body ctx fr
          | Some pb ->
              fun body ctx fr ->
                ctx.fuel <- ctx.fuel - 1;
                if ctx.fuel <= 0 then raise Out_of_fuel;
                ctx.blocks <- ctx.blocks + 1;
                pb ();
                body ctx fr
      in
      let fast = fast_chain i in
      let careful = head_careful (careful_chain i) in
      let cs = env.cs in
      (* The head work of the first segment (entry burn already counted
         in [burn_units], the work counter, the block probe) is inlined
         into the dispatcher itself — no extra closure hop. *)
      if not first then
        fun ctx fr ->
          ctx.fuel <- ctx.fuel - burn_units;
          if ctx.fuel > 0 then fast ctx fr
          else begin
            ctx.fuel <- ctx.fuel + burn_units;
            cs.stat_rollbacks <- cs.stat_rollbacks + 1;
            cs.stat_careful_units <- cs.stat_careful_units + burn_units;
            careful ctx fr
          end
      else
        match probes.pb fid label with
        | None ->
            fun ctx fr ->
              ctx.fuel <- ctx.fuel - burn_units;
              if ctx.fuel > 0 then begin
                ctx.blocks <- ctx.blocks + 1;
                fast ctx fr
              end
              else begin
                ctx.fuel <- ctx.fuel + burn_units;
                cs.stat_rollbacks <- cs.stat_rollbacks + 1;
                cs.stat_careful_units <- cs.stat_careful_units + burn_units;
                careful ctx fr
              end
        | Some pb ->
            fun ctx fr ->
              ctx.fuel <- ctx.fuel - burn_units;
              if ctx.fuel > 0 then begin
                ctx.blocks <- ctx.blocks + 1;
                pb ();
                fast ctx fr
              end
              else begin
                ctx.fuel <- ctx.fuel + burn_units;
                cs.stat_rollbacks <- cs.stat_rollbacks + 1;
                cs.stat_careful_units <- cs.stat_careful_units + burn_units;
                careful ctx fr
              end
    end
  in
  build 0 ~first:true
  end

(* ------------------------------------------------------------------ *)
(* Superblock fusion.

   A chain of blocks linked by unconditional gotos where every interior
   block has exactly one predecessor executes as one straight line: no
   input-dependent branch can enter or leave it except at the head and
   the final terminator. Fusing the chain into one closure elides the
   interior dispatch (the [tbl] jumps), coalesces the interior fuel
   burns into the bulk-burn dispatcher the intra-block segments already
   use — lifted here from intra-block to inter-block — and folds
   consecutive Ball–Larus register increments into one deferred
   constant-add.

   Equivalence argument (the inter-block extension of the intra-block
   one at [cblock]): the fast chain runs only when [fuel > burn_units]
   where [burn_units] counts one unit per block entry and per non-call
   instruction in the segment, exactly what the careful chain burns one
   at a time. Under that guard no interior burn can hit zero, so
   [Out_of_fuel] is impossible inside the fast chain and the end-of-
   segment fuel is identical; otherwise the careful chain replays the
   per-op burn order exactly, making mid-chain hang points and crash
   sites (each instruction's own crash raises from its compiled body,
   with [ctx.blocks] advanced per block entry) bit-identical to
   block-at-a-time execution. Probe event order is preserved: block probes fire
   per entry in chain order, and only edges whose entire effect is a
   register increment ([probes.pe_add] = [Some k]) are folded — the
   folded constant is flushed (via [probes.padd], same top-of-stack
   guard) before any must-fire edge probe (a commit reads the register)
   and at segment end, and adds commute with everything in between
   (instructions never touch the register; register state after an
   aborted run is dead — [reset] clears it before the next one). *)

type cop =
  | Oentry of int  (** fused block entry: burn 1, work counter, pb *)
  | Oinstr of rinstr  (** non-call instruction: burn 1 *)
  | Ocall of rinstr  (** [Rcall]: burns exactly, bounds segments *)
  | Oedge of int * int  (** fused goto edge (src, dst): burn 0 *)

let max_chain_blocks = 24
let max_dup_instrs = 32

(* Grow the fused region headed at [head]: follow unconditional gotos
   through single-predecessor interior blocks, and through multi-
   predecessor join blocks by tail duplication (the join keeps its own
   [tbl] entry for the other predecessors) within a copied-instruction
   budget. Stops on branches, returns, self-loops/cycles and the caps. *)
let grow_chain (f : rfunc) (interior : bool array) (head : int) : int list =
  let dup = ref 0 in
  let rec go acc len cur =
    let acc = cur :: acc in
    match f.rblocks.(cur).rterm with
    | Rgoto l when (not (List.mem l acc)) && len < max_chain_blocks ->
        if interior.(l) then go acc (len + 1) l
        else begin
          let cost = Array.length f.rblocks.(l).rinstrs + 1 in
          if !dup + cost <= max_dup_instrs then begin
            dup := !dup + cost;
            go acc (len + 1) l
          end
          else List.rev acc
        end
    | _ -> List.rev acc
  in
  go [] 1 head

(* Interior marking for superblock fusion: a block reached only by one
   unconditional goto (the entry block keeps a pseudo-predecessor so it
   is never fused away). Interior blocks keep their standalone [tbl]
   entries — a budget-capped chain can still end with a goto into
   one. *)
let fusion_interior (f : rfunc) : bool array =
  let nb = Array.length f.rblocks in
  let npreds = Array.make nb 0 in
  npreds.(0) <- 1;
  let succs = function
    | Rgoto l -> [ l ]
    | Rbranch (_, tl, fl, _) -> if tl = fl then [ tl ] else [ tl; fl ]
    | Rret _ -> []
  in
  Array.iter
    (fun (b : rblock) ->
      List.iter (fun s -> npreds.(s) <- npreds.(s) + 1) (succs b.rterm))
    f.rblocks;
  let interior = Array.make nb false in
  Array.iteri
    (fun bi (b : rblock) ->
      match b.rterm with
      | Rgoto l when l <> bi && npreds.(l) = 1 -> interior.(l) <- true
      | _ -> ())
    f.rblocks;
  interior

let fusion_plan_of (f : rfunc) (interior : bool array) :
    int list option array =
  Array.init (Array.length f.rblocks) (fun b ->
      if interior.(b) then None
      else
        match grow_chain f interior b with
        | _ :: _ :: _ as chain -> Some chain
        | _ -> None)

(** The per-function fusion plan: [Some chain] (length >= 2) at every
    chain head, [None] elsewhere. Shared with the native emitter, which
    must fuse exactly the regions the closure engine does. *)
let fusion_plan (f : rfunc) : int list option array =
  fusion_plan_of f (fusion_interior f)

(* Compile one fused chain into a single closure. *)
let cchain (env : env) (probes : probes) (p : prepared) (fentries : bfn array)
    (tbl : bfn array) (fid : int) (f : rfunc) (chain : int list) : bfn =
  let instr_op i = match i with Rcall _ -> Ocall i | _ -> Oinstr i in
  (* Flatten the chain into an op stream; the last block's terminator
     compiles through the ordinary [cterm] (its edge/return probes and
     jumps through [tbl] are unchanged). *)
  let rec ops_of = function
    | [] -> assert false
    | [ last ] ->
        let b = f.rblocks.(last) in
        ( Oentry last :: List.map instr_op (Array.to_list b.rinstrs),
          cterm env probes tbl fid last b.rterm )
    | cur :: (next :: _ as rest) ->
        let b = f.rblocks.(cur) in
        let here =
          Oentry cur
          :: List.map instr_op (Array.to_list b.rinstrs)
          @ [ Oedge (cur, next) ]
        in
        let more, final = ops_of rest in
        (here @ more, final)
  in
  let ops, final = ops_of chain in
  let rec compile_ops (ops : cop list) : bfn =
    match ops with
    | [] -> final
    | Ocall (Rcall { dst; callee; args; site }) :: rest ->
        ccall env p fentries fid ~dst ~callee ~args ~site (compile_ops rest)
    | Ocall _ :: _ -> assert false
    | _ ->
        (* Maximal call-free segment: one bulk-burn dispatcher. *)
        let rec split acc = function
          | (Ocall _ :: _ | []) as rest -> (List.rev acc, rest)
          | op :: more -> split (op :: acc) more
        in
        let seg, rest = split [] ops in
        let cont = compile_ops rest in
        let burn =
          List.fold_left
            (fun a op ->
              match op with Oentry _ | Oinstr _ -> a + 1 | _ -> a)
            0 seg
        in
        (* Apply a folded register add ([padd] is the fold target the
           probe set promised whenever [pe_add] reports nonzero). *)
        let apply_add k (restf : bfn) : bfn =
          if k = 0 then restf
          else
            match probes.padd with
            | Some add ->
                fun ctx fr ->
                  add k;
                  restf ctx fr
            | None -> assert false
        in
        let rec fast pending = function
          | [] -> apply_add pending cont
          | Oentry b :: tl -> (
              let restf = fast pending tl in
              match probes.pb fid b with
              | None ->
                  fun ctx fr ->
                    ctx.blocks <- ctx.blocks + 1;
                    restf ctx fr
              | Some pb ->
                  fun ctx fr ->
                    ctx.blocks <- ctx.blocks + 1;
                    pb ();
                    restf ctx fr)
          | Oinstr i :: tl -> cinstr_fast env i (fast pending tl)
          | Oedge (s, d) :: tl -> (
              match probes.pe_add fid s d with
              | Some k -> fast (pending + k) tl
              | None ->
                  (* Must fire in place: flush the fold first. *)
                  let fire_then =
                    match probes.pe fid s d with
                    | None -> fast 0 tl
                    | Some pe ->
                        let restf = fast 0 tl in
                        fun ctx fr ->
                          pe ();
                          restf ctx fr
                  in
                  apply_add pending fire_then)
          | Ocall _ :: _ -> assert false
        in
        let rec careful = function
          | [] -> cont
          | Oentry b :: tl -> (
              let restc = careful tl in
              match probes.pb fid b with
              | None ->
                  fun ctx fr ->
                    ctx.fuel <- ctx.fuel - 1;
                    if ctx.fuel <= 0 then raise Out_of_fuel;
                    ctx.blocks <- ctx.blocks + 1;
                    restc ctx fr
              | Some pb ->
                  fun ctx fr ->
                    ctx.fuel <- ctx.fuel - 1;
                    if ctx.fuel <= 0 then raise Out_of_fuel;
                    ctx.blocks <- ctx.blocks + 1;
                    pb ();
                    restc ctx fr)
          | Oinstr i :: tl -> cinstr_careful env i (careful tl)
          | Oedge (s, d) :: tl -> (
              match probes.pe fid s d with
              | None -> careful tl
              | Some pe ->
                  let restc = careful tl in
                  fun ctx fr ->
                    pe ();
                    restc ctx fr)
          | Ocall _ :: _ -> assert false
        in
        let carefulc = careful seg in
        let cs = env.cs in
        if burn = 0 then fast 0 seg
        else
          (* The leading block entry's work (counter, block probe) is
             inlined into the dispatcher itself, as in [cblock] — the
             fused fast path must not pay a closure hop the standalone
             one doesn't. *)
          match seg with
          | Oentry b :: tl -> (
              let fastc = fast 0 tl in
              match probes.pb fid b with
              | None ->
                  fun ctx fr ->
                    ctx.fuel <- ctx.fuel - burn;
                    if ctx.fuel > 0 then begin
                      ctx.blocks <- ctx.blocks + 1;
                      fastc ctx fr
                    end
                    else begin
                      ctx.fuel <- ctx.fuel + burn;
                      cs.stat_rollbacks <- cs.stat_rollbacks + 1;
                      cs.stat_careful_units <- cs.stat_careful_units + burn;
                      carefulc ctx fr
                    end
              | Some pb ->
                  fun ctx fr ->
                    ctx.fuel <- ctx.fuel - burn;
                    if ctx.fuel > 0 then begin
                      ctx.blocks <- ctx.blocks + 1;
                      pb ();
                      fastc ctx fr
                    end
                    else begin
                      ctx.fuel <- ctx.fuel + burn;
                      cs.stat_rollbacks <- cs.stat_rollbacks + 1;
                      cs.stat_careful_units <- cs.stat_careful_units + burn;
                      carefulc ctx fr
                    end)
          | _ ->
              let fastc = fast 0 seg in
              fun ctx fr ->
                ctx.fuel <- ctx.fuel - burn;
                if ctx.fuel > 0 then fastc ctx fr
                else begin
                  ctx.fuel <- ctx.fuel + burn;
                  cs.stat_rollbacks <- cs.stat_rollbacks + 1;
                  cs.stat_careful_units <- cs.stat_careful_units + burn;
                  carefulc ctx fr
                end
  in
  compile_ops ops

let cfunc (env : env) (probes : probes) (p : prepared) (fentries : bfn array)
    (fid : int) (f : rfunc) : bfn =
  let nb = Array.length f.rblocks in
  let tbl = Array.make nb (fun _ _ -> assert false : bfn) in
  for b = 0 to nb - 1 do
    tbl.(b) <- cblock env probes p fentries tbl fid b f.rblocks.(b)
  done;
  let interior = fusion_interior f in
  let plan = fusion_plan_of f interior in
  for b = 0 to nb - 1 do
    match plan.(b) with
    | Some chain ->
        let cs = env.cs in
        let len = List.length chain in
        cs.stat_chains <- cs.stat_chains + 1;
        cs.stat_chain_blocks <- cs.stat_chain_blocks + len;
        if len > cs.stat_chain_max then cs.stat_chain_max <- len;
        List.iteri
          (fun i l ->
            if i > 0 && not interior.(l) then
              cs.stat_dup_instrs <-
                cs.stat_dup_instrs + Array.length f.rblocks.(l).rinstrs + 1)
          chain;
        tbl.(b) <- cchain env probes p fentries tbl fid f chain
    | None -> ()
  done;
  let b0 = tbl.(0) in
  let cs = env.cs in
  match probes.pc fid with
  | None ->
      fun ctx fr ->
        if cs.depth > ctx.max_depth then
          raise (Crash_exn (Crash.Stack_overflow, -1));
        b0 ctx fr
  | Some pc ->
      fun ctx fr ->
        if cs.depth > ctx.max_depth then
          raise (Crash_exn (Crash.Stack_overflow, -1));
        pc ();
        b0 ctx fr

(* ------------------------------------------------------------------ *)
(* Artifact construction *)

let compile ?plans ?(cmplog = true) (p : prepared) (spec : spec) : t =
  let nfuncs = Array.length p.rfuncs in
  let ngram_n = match spec with Sfull (Ngram n) -> n | _ -> 0 in
  let cs =
    {
      trace = Pathcov.Coverage_map.create ~size_log2:6 ();
      h_cmp = (fun _ _ -> ());
      depth = 0;
      prev = 0;
      hist = Array.make ngram_n 0;
      pos = 0;
      regs = Array.make 64 0;
      top = 0;
      rolling = 0;
      stat_rollbacks = 0;
      stat_careful_units = 0;
      stat_chains = 0;
      stat_chain_blocks = 0;
      stat_chain_max = 0;
      stat_dup_instrs = 0;
    }
  in
  let probes =
    match spec with
    | Snone -> probes_none
    | Sfull Block -> probes_block cs
    | Sfull Edge -> probes_edge cs
    | Sfull (Ngram n) -> probes_ngram cs n
    | Sfull Path ->
        let plans =
          match plans with
          | Some pl -> pl
          | None -> Pathcov.Ball_larus.of_program p.prog
        in
        probes_path cs p plans
    | Sfull Pathafl -> probes_pathafl cs p
  in
  (* A campaign with cmplog off binds a no-op [h_cmp]; eliding the call
     entirely is then unobservable, so such callers compile (and cache)
     a cmp-free variant. *)
  let probes = { probes with emit_cmp = probes.emit_cmp && cmplog } in
  let typing = may_array_analysis p in
  let zeroes = zero_slots_analysis p in
  let fentries = Array.make nfuncs (fun _ _ -> assert false : bfn) in
  Array.iteri
    (fun fid f ->
      let env =
        {
          cs;
          emit_cmp = probes.emit_cmp;
          lmay = typing.lmay;
          ma = typing.lmay.(fid);
          gma = typing.gmay;
          zeroes;
        }
      in
      fentries.(fid) <- cfunc env probes p fentries fid f)
    p.rfuncs;
  {
    prepared = p;
    spec;
    cmplog;
    cs;
    fentries;
    main_zero = zeroes.(p.main_id);
  }

(* ------------------------------------------------------------------ *)
(* Per-campaign binding, reset, execution *)

(** Retarget the artifact's probes at a campaign's trace map and cmplog
    probe — O(1), so callers may rebind before every execution. *)
let bind (t : t) ~(trace : Pathcov.Coverage_map.t)
    ~(h_cmp : int -> int -> unit) : unit =
  t.cs.trace <- trace;
  t.cs.h_cmp <- h_cmp

(** The trace map the probes currently write (tests and diagnostics). *)
let bound_trace (t : t) : Pathcov.Coverage_map.t = t.cs.trace

(** Reset the baked listener state (the [Feedback.t.reset] analogue);
    {!run} calls this itself before every execution. *)
let reset (t : t) : unit =
  let cs = t.cs in
  cs.depth <- 0;
  cs.prev <- 0;
  cs.pos <- 0;
  let n = Array.length cs.hist in
  if n > 0 then Array.fill cs.hist 0 n 0;
  cs.top <- 0;
  cs.rolling <- 0

(* ------------------------------------------------------------------ *)
(* Introspection (plain ints — this library has no obs dependency; the
   fuzz layer reads these into its metrics registry at deterministic
   points) *)

type runtime_stats = {
  rollbacks : int;  (** bulk-burn fast paths abandoned for careful replay *)
  careful_units : int;  (** fuel units re-burned by those replays *)
}

type static_stats = {
  chains : int;  (** fused superblock chains emitted *)
  chain_blocks : int;  (** blocks covered by fused chains *)
  chain_max : int;  (** longest fused chain (blocks) *)
  dup_instrs : int;  (** instructions copied by tail duplication *)
}

(** Bulk-burn rollback tallies accumulated since compilation. *)
let runtime_stats (t : t) : runtime_stats =
  { rollbacks = t.cs.stat_rollbacks; careful_units = t.cs.stat_careful_units }

(** Superblock-fusion shape fixed at compilation (all zero when no
    chain qualifies). *)
let static_stats (t : t) : static_stats =
  {
    chains = t.cs.stat_chains;
    chain_blocks = t.cs.stat_chain_blocks;
    chain_max = t.cs.stat_chain_max;
    dup_instrs = t.cs.stat_dup_instrs;
  }

(* Mirror of [Interp.run_current] over the compiled entry points: same
   reset, same exception fences, same outcome construction. *)
let run_current (t : t) (ctx : exec_ctx) ~fuel ~max_depth : outcome =
  reset t;
  reset_ctx ctx;
  ctx.fuel <- fuel;
  ctx.max_depth <- max_depth;
  let status =
    try
      let fr = acquire_raw ctx t.prepared.main_id in
      let zs = t.main_zero in
      for k = 0 to Array.length zs - 1 do
        Array.unsafe_set fr.f_ints (Array.unsafe_get zs k) 0
      done;
      (Array.unsafe_get t.fentries t.prepared.main_id) ctx fr;
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

(** Execute the compiled program on [input] through [ctx]. The context
    must have been created over the same [prepared] the artifact was
    compiled from (its pools are indexed by the program's function
    ids). *)
let run ?(fuel = default_fuel) ?(max_depth = default_max_depth) (t : t)
    (ctx : exec_ctx) ~(input : string) : outcome =
  if ctx.p != t.prepared then
    invalid_arg "Compile.run: context belongs to a different prepared program";
  ctx.input <- input;
  ctx.input_len <- String.length input;
  run_current t ctx ~fuel ~max_depth

(** Execute a cohort of [n] candidates back-to-back on one context (see
    {!Interp.run_batch}): [gen k] produces the [k]-th candidate as a
    [(buf, len)] scratch view, [sink k outcome] consumes its result
    before [gen (k+1)] runs. *)
let run_batch ?(fuel = default_fuel) ?(max_depth = default_max_depth) (t : t)
    (ctx : exec_ctx) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> outcome -> unit) : unit =
  if n > 0 && ctx.p != t.prepared then
    invalid_arg
      "Compile.run_batch: context belongs to a different prepared program";
  for k = 0 to n - 1 do
    let buf, len = gen k in
    if len < 0 || len > Bytes.length buf then invalid_arg "Compile.run_batch";
    ctx.input <- Bytes.unsafe_to_string buf;
    ctx.input_len <- len;
    sink k (run_current t ctx ~fuel ~max_depth)
  done

(* ------------------------------------------------------------------ *)
(* Per-domain artifact cache *)

let cache_cap = 16

let dls_cache : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Hit/miss tallies live beside the cache in DLS — multiple domains
   probe their own caches concurrently, so the counters must be
   per-domain too. *)
let dls_cache_stats : (int ref * int ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref 0, ref 0))

(** [(hits, misses)] of {!cached} on the calling domain. *)
let cache_stats () : int * int =
  let hits, misses = Domain.DLS.get dls_cache_stats in
  (!hits, !misses)

(** Compile-once memo, per domain: sequential campaigns, measurement
    replays and bench cells over the same [(prepared, spec)] share one
    artifact (rebound per campaign via {!bind}). Sharded campaigns must
    not use this — each shard owns a fresh {!compile} because [cstate]
    is single-threaded. *)
let cached ?plans ?(cmplog = true) (p : prepared) (spec : spec) : t =
  let c = Domain.DLS.get dls_cache in
  let hits, misses = Domain.DLS.get dls_cache_stats in
  match
    List.find_opt
      (fun t -> t.prepared == p && t.spec = spec && t.cmplog = cmplog)
      !c
  with
  | Some t ->
      incr hits;
      t
  | None ->
      incr misses;
      let t = compile ?plans ~cmplog p spec in
      let keep =
        if List.length !c >= cache_cap then
          List.filteri (fun i _ -> i < cache_cap - 1) !c
        else !c
      in
      c := t :: keep;
      t
