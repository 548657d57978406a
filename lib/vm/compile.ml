(** Staged compilation of a prepared MiniC program into OCaml closures —
    the second execution engine, threaded-code style.

    [Interp] walks the resolved IR per execution: every expression node
    re-matches its constructor, every instruction re-dispatches, and
    every block/edge/return event goes through a devirtualised hook call
    whether or not the feedback mode cares. [compile] pays all of that
    once: it partially evaluates the CFG into one closure per block
    group of {!Plan} (jumps between groups resolved through a captured
    table read at call time), expressions into closure trees with
    operators, slots, sites and constants baked in, and — the point —
    the feedback probes themselves, placed per site from the mode's
    [Pathcov.Feedback.table] as [Feedback.closure]s. A site the table
    leaves empty (an edge that is no Ball–Larus operation, a block under
    [path]) gets no probe at all: the compiled code for it is a direct
    jump.

    Three further things are resolved at compile time that the
    interpreter re-derives per event:

    - {b slot typing}: a whole-program may-hold-array fixpoint
      ([Plan.may_array_analysis]) proves
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
    {!bind}, so one compiled artifact per [(prepared, mode)] serves
    every campaign on a domain — {!cached} memoises per domain via
    [Domain.DLS]. Sharded campaigns must {!compile} fresh per shard
    instead: [cstate] is single-threaded. *)

open Interp

(* Per-campaign (rebindable) listener state. One record per artifact;
   probes read it through the closure environment, so rebinding
   [fb.trace] or [h_cmp] retargets every probe at once. [depth] replaces
   the interpreter's threaded depth argument: block closures are binary
   (ctx, frame) and only call sites and function entries touch the
   cell. *)
type cstate = {
  fb : Pathcov.Feedback.regs;  (** the probes' registers and trace map *)
  mutable h_cmp : int -> int -> unit;
  mutable depth : int;  (** current activation depth *)
  (* introspection tallies — plain stores on paths that never feed back
     into execution, so they are trajectory-invisible *)
  mutable stat_rollbacks : int;
      (** bulk-burn fast paths abandoned for a careful replay *)
  mutable stat_careful_units : int;
      (** fuel units re-burned one at a time by those replays *)
}

type t = {
  prepared : prepared;
  mode : Pathcov.Feedback.mode;
  cmplog : bool;  (** were [h_cmp] calls compiled into comparisons? *)
  cs : cstate;
  fentries : (exec_ctx -> frame -> unit) array;
  main_zero : int array;
      (** [main]'s definite-assignment residue (entry frames come from
          {!Interp.acquire_raw}, so the residue is zeroed by hand) *)
}

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

(* Compile-time environment: listener state, the mode's probe table and
   the typing views needed by the function being compiled. *)
type env = {
  cs : cstate;
  tb : Pathcov.Feedback.table;
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
(* Instruction / group / function compilation.

   Each block group of the [Plan] renders as one closure. Its
   straight-line runs between calls ("segments") pre-pay
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

(* Per-site probe closures from the mode's table: [None] means the site
   carries no probe, so the compiled code for it is a direct jump. *)
let probe (env : env) (op : Pathcov.Feedback.op option) =
  Option.map (Pathcov.Feedback.closure env.cs.fb) op

let block_probe env fid b = probe env (env.tb.block fid b)
let edge_probe env fid src dst = probe env (env.tb.edge fid src dst)
let ret_probe env fid b = probe env (env.tb.ret fid b)

let cterm (env : env) (tbl : bfn array) (fid : int)
    (label : int) (t : rterm) : bfn =
  match t with
  | Rgoto l -> begin
      match edge_probe env fid label l with
      | None -> fun ctx fr -> (Array.unsafe_get tbl l) ctx fr
      | Some p ->
          fun ctx fr ->
            p ();
            (Array.unsafe_get tbl l) ctx fr
    end
  | Rbranch (cond, tl, fl, _site) -> begin
      let fc = ccond env cond in
      match (edge_probe env fid label tl, edge_probe env fid label fl) with
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
      match ret_probe env fid label with
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
let cblock_empty (env : env) (tbl : bfn array) (fid : int)
    (label : int) (t : rterm) : bfn =
  let pb = block_probe env fid label in
  match t with
  | Rgoto l ->
      let pe = edge_probe env fid label l in
      fun ctx fr ->
        ctx.fuel <- ctx.fuel - 1;
        if ctx.fuel <= 0 then raise Out_of_fuel;
        ctx.blocks <- ctx.blocks + 1;
        fire pb;
        fire pe;
        (Array.unsafe_get tbl l) ctx fr
  | Rbranch (cond, tl, fl, _site) -> begin
      let pt = edge_probe env fid label tl and pf = edge_probe env fid label fl in
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
      let pr = ret_probe env fid label in
      fun ctx fr ->
        ctx.fuel <- ctx.fuel - 1;
        if ctx.fuel <= 0 then raise Out_of_fuel;
        ctx.blocks <- ctx.blocks + 1;
        fire pb;
        f ctx fr;
        fire pr

(* One call-free segment of a group, continuing into [cont]: a bulk-burn
   dispatcher over its fast and careful steps ([Plan]'s equivalence
   argument). The first segment of a group inlines its head's entry
   work (counter, block probe) into the dispatcher itself — an extra
   closure hop there made fused chains measurably slower. *)
let cseg (env : env) (fid : int) ~(first : bool) (s : Plan.segment)
    (cont : bfn) : bfn =
  (* The fast steps, or the careful ones with a burn per unit. *)
  let rec steps ~careful : Plan.step list -> bfn = function
    | [] -> cont
    | Enter b :: tl -> (
        let rest = steps ~careful tl in
        match (careful, block_probe env fid b) with
        | false, None ->
            fun ctx fr ->
              ctx.blocks <- ctx.blocks + 1;
              rest ctx fr
        | false, Some pb ->
            fun ctx fr ->
              ctx.blocks <- ctx.blocks + 1;
              pb ();
              rest ctx fr
        | true, None ->
            fun ctx fr ->
              ctx.fuel <- ctx.fuel - 1;
              if ctx.fuel <= 0 then raise Out_of_fuel;
              ctx.blocks <- ctx.blocks + 1;
              rest ctx fr
        | true, Some pb ->
            fun ctx fr ->
              ctx.fuel <- ctx.fuel - 1;
              if ctx.fuel <= 0 then raise Out_of_fuel;
              ctx.blocks <- ctx.blocks + 1;
              pb ();
              rest ctx fr)
    | Instr i :: tl ->
        (if careful then cinstr_careful else cinstr_fast)
          env i (steps ~careful tl)
    | Probe op :: tl ->
        let pe = Pathcov.Feedback.closure env.cs.fb op in
        let rest = steps ~careful tl in
        fun ctx fr ->
          pe ();
          rest ctx fr
  in
  let fast = steps ~careful:false in
  let carefulc = steps ~careful:true s.careful in
  let burn = s.burn in
  let cs = env.cs in
  match s.fast with
  | Enter b :: tl when first -> (
      let fastc = fast tl in
      match block_probe env fid b with
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
  | fsteps ->
      let fastc = fast fsteps in
      fun ctx fr ->
        ctx.fuel <- ctx.fuel - burn;
        if ctx.fuel > 0 then fastc ctx fr
        else begin
          ctx.fuel <- ctx.fuel + burn;
          cs.stat_rollbacks <- cs.stat_rollbacks + 1;
          cs.stat_careful_units <- cs.stat_careful_units + burn;
          carefulc ctx fr
        end

(* One block group as one closure: its segments and calls in order,
   then the last block's terminator. A lone instruction-free block is
   loop control and takes the [cblock_empty] fast path. *)
let cgroup (env : env) (p : prepared) (fentries : bfn array)
    (tbl : bfn array) (fid : int) (f : rfunc) (g : Plan.group) : bfn =
  match g.blocks with
  | [ b ] when Array.length f.rblocks.(b).rinstrs = 0 ->
      cblock_empty env tbl fid b g.term
  | _ ->
      let final = cterm env tbl fid g.last g.term in
      let rec render ~first : Plan.piece list -> bfn = function
        | [] -> final
        | Call { dst; callee; args; site } :: rest ->
            ccall env p fentries fid ~dst ~callee ~args ~site
              (render ~first:false rest)
        | Seg s :: rest -> cseg env fid ~first s (render ~first:false rest)
      in
      render ~first:true g.pieces

(* A function's entry: the depth fence and call probe, then the group at
   label 0. Only the groups [Plan.func] reaches get a table entry. *)
let cfunc (env : env) (p : prepared) (fentries : bfn array)
    (fid : int) (f : rfunc) : bfn =
  let tbl =
    Array.make (Array.length f.rblocks) (fun _ _ -> assert false : bfn)
  in
  List.iter
    (fun (g : Plan.group) -> tbl.(g.head) <- cgroup env p fentries tbl fid f g)
    (Plan.func env.tb fid f);
  let b0 = tbl.(0) in
  let cs = env.cs in
  match probe env (env.tb.call fid) with
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

let compile ?plans ?(cmplog = true) (p : prepared)
    (mode : Pathcov.Feedback.mode) : t =
  let nfuncs = Array.length p.rfuncs in
  let cs =
    {
      fb =
        Pathcov.Feedback.make_regs
          ~trace:(Pathcov.Coverage_map.create ~size_log2:6 ())
          mode;
      h_cmp = (fun _ _ -> ());
      depth = 0;
      stat_rollbacks = 0;
      stat_careful_units = 0;
    }
  in
  let tb = Pathcov.Feedback.table ?plans mode p.prog in
  let typing = Plan.may_array_analysis p in
  let zeroes = Plan.zero_slots_analysis p in
  let fentries = Array.make nfuncs (fun _ _ -> assert false : bfn) in
  Array.iteri
    (fun fid f ->
      let env =
        {
          cs;
          tb;
          (* A campaign with cmplog off binds a no-op [h_cmp]; eliding
             the call entirely is then unobservable, so such callers
             compile (and cache) a cmp-free variant. *)
          emit_cmp = cmplog;
          lmay = typing.lmay;
          ma = typing.lmay.(fid);
          gma = typing.gmay;
          zeroes;
        }
      in
      fentries.(fid) <- cfunc env p fentries fid f)
    p.rfuncs;
  {
    prepared = p;
    mode;
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
  t.cs.fb.trace <- trace;
  t.cs.h_cmp <- h_cmp

(** The trace map the probes currently write (tests and diagnostics). *)
let bound_trace (t : t) : Pathcov.Coverage_map.t = t.cs.fb.trace

(** Reset the baked listener state (the [Feedback.t.reset] analogue);
    {!entry} calls this itself before every execution. *)
let reset (t : t) : unit =
  t.cs.depth <- 0;
  Pathcov.Feedback.reset_regs t.cs.fb

(* ------------------------------------------------------------------ *)
(* Introspection (plain ints — this library has no obs dependency; the
   fuzz layer reads these into its metrics registry at deterministic
   points) *)

type runtime_stats = {
  rollbacks : int;  (** bulk-burn fast paths abandoned for careful replay *)
  careful_units : int;  (** fuel units re-burned by those replays *)
}

(** Bulk-burn rollback tallies accumulated since compilation. *)
let runtime_stats (t : t) : runtime_stats =
  { rollbacks = t.cs.stat_rollbacks; careful_units = t.cs.stat_careful_units }

(** The program's superblock-fusion shape ({!Plan.shape}). *)
let static_stats (t : t) : Plan.shape = Plan.shape t.prepared

(** The artifact's entry into the run harness ({!Interp.run_batch}):
    reset the baked listener registers, take [main]'s frame raw, zero
    the slots definite assignment leaves open, and call the compiled
    [main]. *)
let entry (t : t) : entry =
  let main = t.prepared.main_id and zs = t.main_zero in
  let enter (ctx : exec_ctx) =
    reset t;
    let fr = acquire_raw ctx main in
    for k = 0 to Array.length zs - 1 do
      Array.unsafe_set fr.f_ints (Array.unsafe_get zs k) 0
    done;
    (Array.unsafe_get t.fentries main) ctx fr
  in
  { e_prepared = t.prepared; e_enter = enter }

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

(** Compile-once memo, per domain: sequential campaigns and measurement
    replays over the same [(prepared, mode)] share one
    artifact (rebound per campaign via {!bind}). Sharded campaigns must
    not use this — each shard owns a fresh {!compile} because [cstate]
    is single-threaded. *)
let cached ?plans ?(cmplog = true) (p : prepared)
    (mode : Pathcov.Feedback.mode) : t =
  let c = Domain.DLS.get dls_cache in
  let hits, misses = Domain.DLS.get dls_cache_stats in
  match
    List.find_opt
      (fun t -> t.prepared == p && t.mode = mode && t.cmplog = cmplog)
      !c
  with
  | Some t ->
      incr hits;
      t
  | None ->
      incr misses;
      let t = compile ?plans ~cmplog p mode in
      let keep =
        if List.length !c >= cache_cap then
          List.filteri (fun i _ -> i < cache_cap - 1) !c
        else !c
      in
      c := t :: keep;
      t
