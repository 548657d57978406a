(** Block-group planning shared by the closure engine ([Compile]) and
    the native emitter ([Emit]): the slot analyses both specialise
    over, superblock fusion, the reach walk that picks which labels get
    code, and the split of each group into fuel segments with its
    Ball–Larus adds folded. Each engine only renders what this module
    decides, so the two cannot drift apart on any of it. *)

open Interp

(* Successors of a terminator; a two-target branch to one label counts
   once. *)
let succs = function
  | Rgoto l -> [ l ]
  | Rbranch (_, tl, fl, _) -> if tl = fl then [ tl ] else [ tl; fl ]
  | Rret _ -> []

let predecessors (f : rfunc) : int list array =
  let preds = Array.make (Array.length f.rblocks) [] in
  Array.iteri
    (fun b (blk : rblock) ->
      List.iter (fun s -> preds.(s) <- b :: preds.(s)) (succs blk.rterm))
    f.rblocks;
  preds

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
        let preds = predecessors f in
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
(* Superblock fusion.

   A chain of blocks linked by unconditional gotos where every interior
   block has exactly one predecessor executes as one straight line: no
   input-dependent branch can enter or leave it except at the head and
   the final terminator. A group is such a chain (or a lone block): the
   engines run it without interior dispatch, pre-pay each call-free
   segment's fuel in one subtraction, and fold consecutive Ball–Larus
   register increments into one constant add.

   Equivalence argument: the fast steps run only when [fuel > burn],
   where [burn] counts one unit per block entry and per non-call
   instruction in the segment, exactly what the careful steps burn one
   at a time. Under that guard no interior burn can hit zero, so
   [Out_of_fuel] is impossible inside the fast run and the end-of-
   segment fuel is identical; otherwise the careful steps replay the
   per-op burn order exactly, making mid-chain hang points and crash
   sites (each instruction's own crash raises from its own code, with
   [ctx.blocks] advanced per block entry) bit-identical to
   block-at-a-time execution. Probe event order is preserved: block
   probes fire per entry in chain order, and only edges whose entire
   effect is a register increment ([Feedback.fold_add] = [Some k]) are
   folded — the folded constant is flushed (as one [Add]) before any
   must-fire edge probe (a commit reads the register) and at segment
   end, and adds commute with everything in between (instructions never
   touch the register; register state after an aborted run is dead —
   [reset] clears it before the next one). *)

let max_chain_blocks = 24
let max_dup_instrs = 32

(* Grow the chain headed at [head]: follow unconditional gotos through
   single-predecessor interior blocks, and through multi-predecessor
   join blocks by tail duplication (the join still heads its own group
   for its other predecessors) within a copied-instruction budget.
   Stops on branches, returns, self-loops/cycles and the caps. *)
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

(* Interior marking: a block other than the entry reached only by one
   unconditional goto. An interior block heads no chain of its own;
   when a capped chain ends with a goto into one, it heads a lone-block
   group. *)
let fusion_interior (f : rfunc) : bool array =
  let preds = predecessors f in
  let interior = Array.make (Array.length f.rblocks) false in
  Array.iteri
    (fun bi (b : rblock) ->
      match b.rterm with
      | Rgoto l when l <> bi && l <> 0 && List.length preds.(l) = 1 ->
          interior.(l) <- true
      | _ -> ())
    f.rblocks;
  interior

let chain_at f interior l =
  if interior.(l) then [ l ] else grow_chain f interior l

let last_of chain = List.nth chain (List.length chain - 1)

(* ------------------------------------------------------------------ *)
(* Groups *)

type step =
  | Enter of int
  | Instr of rinstr
  | Probe of Pathcov.Feedback.op

type segment = { burn : int; fast : step list; careful : step list }

type piece =
  | Seg of segment
  | Call of { dst : slot option; callee : int; args : rexpr array; site : int }

type group = {
  head : int;
  blocks : int list;
  pieces : piece list;
  last : int;
  term : rterm;
}

(* Split a chain at its calls. A segment's steps are collected in
   reverse; [pending] is the register add folded since the last flush.
   Every segment holds a block entry (an edge is always followed by
   one), so its [burn] is at least 1. *)
let pieces_of (tb : Pathcov.Feedback.table) fid (f : rfunc) (chain : int list)
    : piece list =
  let out = ref [] in
  let burn = ref 0 and fast = ref [] and careful = ref [] and pending = ref 0 in
  let flush () =
    if !pending <> 0 then
      fast := Probe (Pathcov.Feedback.Add !pending) :: !fast;
    pending := 0
  in
  let close () =
    flush ();
    if !burn > 0 then
      out :=
        Seg { burn = !burn; fast = List.rev !fast; careful = List.rev !careful }
        :: !out;
    burn := 0;
    fast := [];
    careful := []
  in
  let unit s =
    incr burn;
    fast := s :: !fast;
    careful := s :: !careful
  in
  let rec go = function
    | [] -> ()
    | b :: rest -> (
        unit (Enter b);
        Array.iter
          (function
            | Rcall { dst; callee; args; site } ->
                close ();
                out := Call { dst; callee; args; site } :: !out
            | i -> unit (Instr i))
          f.rblocks.(b).rinstrs;
        match rest with
        | [] -> ()
        | next :: _ ->
            let op = tb.edge fid b next in
            (match Pathcov.Feedback.fold_add op with
            | Some k -> pending := !pending + k
            | None ->
                flush ();
                Option.iter (fun op -> fast := Probe op :: !fast) op);
            Option.iter (fun op -> careful := Probe op :: !careful) op;
            go rest)
  in
  go chain;
  close ();
  List.rev !out

(* The reach walk from label 0: per label, the chain of the group it
   heads, [[]] where control enters no group. *)
let reached_chains (f : rfunc) (interior : bool array) : int list array =
  let chains = Array.make (Array.length f.rblocks) [] in
  let rec reach = function
    | [] -> ()
    | l :: todo when chains.(l) <> [] -> reach todo
    | l :: todo ->
        let chain = chain_at f interior l in
        chains.(l) <- chain;
        reach (succs f.rblocks.(last_of chain).rterm @ todo)
  in
  reach [ 0 ];
  chains

let func (tb : Pathcov.Feedback.table) (fid : int) (f : rfunc) : group list =
  let chains = reached_chains f (fusion_interior f) in
  List.filter_map
    (fun head ->
      match chains.(head) with
      | [] -> None
      | blocks ->
          let last = last_of blocks in
          Some
            {
              head;
              blocks;
              pieces = pieces_of tb fid f blocks;
              last;
              term = f.rblocks.(last).rterm;
            })
    (List.init (Array.length chains) Fun.id)

(* ------------------------------------------------------------------ *)
(* Fusion shape *)

type shape = {
  chains : int;
  chain_blocks : int;
  chain_max : int;
  dup_instrs : int;
}

let shape (p : prepared) : shape =
  let chains = ref 0 and blocks = ref 0 and longest = ref 0 and dup = ref 0 in
  Array.iter
    (fun (f : rfunc) ->
      let interior = fusion_interior f in
      Array.iter
        (function
          | _ :: (_ :: _ as tail) as chain ->
              let len = List.length chain in
              incr chains;
              blocks := !blocks + len;
              longest := max !longest len;
              List.iter
                (fun l ->
                  if not interior.(l) then
                    dup := !dup + Array.length f.rblocks.(l).rinstrs + 1)
                tail
          | _ -> ())
        (reached_chains f interior))
    p.rfuncs;
  {
    chains = !chains;
    chain_blocks = !blocks;
    chain_max = !longest;
    dup_instrs = !dup;
  }
