(** Coverage feedback: the sensitivity ladder studied by the paper.
    Implemented modes:

    - [Block]: basic-block coverage (n-gram with n=0);
    - [Edge]: AFL/pcguard-style edge coverage via a shifted previous-block
      key, the paper's baseline feedback;
    - [Ngram n]: last-n-blocks history hashing (§VII related work);
    - [Path]: the paper's contribution — Ball–Larus intra-procedural
      acyclic-path IDs, committed at back edges and returns, indexed as
      [(path_id xor function_salt) mod map_size] (§IV);
    - [Pathafl]: a PathAFL-like sketch — edge coverage plus a rolling hash
      over "key" edges (function entries and branch edges), approximating
      partial whole-program paths (Appendix C comparison).

    Each mode is described once, by {!table}: the probe op (if any) at
    every call, block, edge and return site, with keys, salts and
    Ball–Larus constants already resolved. Every engine renders that
    table: the interpreter's listener ({!make}) and the fused engine run
    the per-site closures of {!closure}, and the native emitter prints
    the same ops as source text. *)

type mode = Block | Edge | Ngram of int | Path | Pathafl

let mode_name = function
  | Block -> "block"
  | Edge -> "edge"
  | Ngram n -> Printf.sprintf "ngram%d" n
  | Path -> "path"
  | Pathafl -> "pathafl"

let mode_of_name = function
  | "block" -> Some Block
  | "edge" -> Some Edge
  | "path" -> Some Path
  | "pathafl" -> Some Pathafl
  | s when String.length s > 5 && String.sub s 0 5 = "ngram" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when n >= 2 -> Some (Ngram n)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The probe table *)

type op =
  | Hit of int
  | Hit_edge of int
  | Hit_ngram of { key : int; n : int }
  | Push
  | Add of int
  | Commit_back of { add : int; salt : int; reset : int }
  | Commit_ret of { add : int; salt : int }
  | Roll of int

type table = {
  call : int -> op option;
  block : int -> int -> op option;
  edge : int -> int -> int -> op option;
  ret : int -> int -> op option;
}

(* Stable per-(function, block) location key, spread over the map domain. *)
let block_key fid block = ((fid * 0x9e3779b1) + (block * 0x85ebca6b)) land max_int

let no_probes =
  {
    call = (fun _ -> None);
    block = (fun _ _ -> None);
    edge = (fun _ _ _ -> None);
    ret = (fun _ _ -> None);
  }

let table ?plans mode (prog : Minic.Ir.program) : table =
  match mode with
  | Block -> { no_probes with block = (fun fid b -> Some (Hit (block_key fid b))) }
  | Edge ->
      { no_probes with block = (fun fid b -> Some (Hit_edge (block_key fid b))) }
  | Ngram n ->
      if n < 2 then invalid_arg "Feedback.table: ngram n must be >= 2";
      {
        no_probes with
        block = (fun fid b -> Some (Hit_ngram { key = block_key fid b; n }));
      }
  | Path ->
      let plans =
        match plans with Some p -> p | None -> Ball_larus.of_program prog
      in
      let salts =
        Array.map
          (fun (f : Minic.Ir.func) -> Hashtbl.hash f.name * 0x9e3779b1)
          prog.funcs
      in
      {
        no_probes with
        call = (fun _ -> Some Push);
        edge =
          (fun fid src dst ->
            match Ball_larus.on_edge plans.plans.(fid) ~src ~dst with
            | None -> None
            | Some (Ball_larus.Add k) -> Some (Add k)
            | Some (Ball_larus.Commit_back { add; reset }) ->
                Some (Commit_back { add; salt = salts.(fid); reset }));
        ret =
          (fun fid block ->
            let add = Ball_larus.on_ret plans.plans.(fid) ~block in
            Some (Commit_ret { add; salt = salts.(fid) }));
      }
  | Pathafl ->
      (* Edges out of multi-successor blocks are the "key" edges feeding
         the rolling whole-program hash, as are function entries. *)
      let nsucc fid src =
        List.length (Minic.Ir.successors prog.funcs.(fid).blocks.(src).term)
      in
      {
        call = (fun fid -> Some (Roll (block_key fid 0 + 1)));
        block = (fun fid b -> Some (Hit_edge (block_key fid b)));
        edge =
          (fun fid src dst ->
            if nsucc fid src >= 2 then
              Some (Roll (block_key fid src lxor (dst * 31)))
            else None);
        ret = (fun _ _ -> None);
      }

let fold_add = function None -> Some 0 | Some (Add k) -> Some k | Some _ -> None

(* ------------------------------------------------------------------ *)
(* Registers and closures *)

type regs = {
  mutable trace : Coverage_map.t;
  mutable prev : int;
  hist : int array;
  mutable pos : int;
  mutable stack : int array;
  mutable top : int;
  mutable rolling : int;
}

let make_regs ~trace mode =
  {
    trace;
    prev = 0;
    hist = Array.make (match mode with Ngram n -> n | _ -> 0) 0;
    pos = 0;
    stack = Array.make 64 0;
    top = 0;
    rolling = 0;
  }

let reset_regs r =
  r.prev <- 0;
  r.pos <- 0;
  let n = Array.length r.hist in
  if n > 0 then Array.fill r.hist 0 n 0;
  r.top <- 0;
  r.rolling <- 0

let closure (r : regs) (op : op) : unit -> unit =
  match op with
  | Hit key -> fun () -> Coverage_map.hit r.trace key
  | Hit_edge cur ->
      let next = cur lsr 1 in
      fun () ->
        Coverage_map.hit r.trace (cur lxor r.prev);
        r.prev <- next
  | Hit_ngram { key; n } ->
      if Array.length r.hist <> n then
        invalid_arg "Feedback.closure: ngram ring does not match the op";
      let hist = r.hist in
      fun () ->
        Array.unsafe_set hist (r.pos mod n) key;
        r.pos <- r.pos + 1;
        let h = ref 0 in
        for i = 0 to n - 1 do
          h := !h lxor (Array.unsafe_get hist i lsr (i land 15))
        done;
        Coverage_map.hit r.trace !h
  | Push ->
      fun () ->
        if r.top = Array.length r.stack then begin
          let bigger = Array.make (2 * r.top) 0 in
          Array.blit r.stack 0 bigger 0 r.top;
          r.stack <- bigger
        end;
        Array.unsafe_set r.stack r.top 0;
        r.top <- r.top + 1
  | Add k ->
      fun () ->
        if r.top > 0 then begin
          let s = r.stack in
          let i = r.top - 1 in
          Array.unsafe_set s i (Array.unsafe_get s i + k)
        end
  | Commit_back { add; salt; reset } ->
      fun () ->
        if r.top > 0 then begin
          let s = r.stack in
          let i = r.top - 1 in
          Coverage_map.hit r.trace
            (((Array.unsafe_get s i + add) lxor salt) land max_int);
          Array.unsafe_set s i reset
        end
  | Commit_ret { add; salt } ->
      fun () ->
        if r.top > 0 then begin
          let i = r.top - 1 in
          Coverage_map.hit r.trace
            (((Array.unsafe_get r.stack i + add) lxor salt) land max_int);
          r.top <- i
        end
  | Roll k ->
      fun () ->
        r.rolling <-
          (((r.rolling lsl 13) lor (r.rolling lsr 49)) lxor k) land max_int;
        Coverage_map.hit r.trace r.rolling

(* ------------------------------------------------------------------ *)
(* The interpreter's listener *)

type t = {
  mode : mode;
  trace : Coverage_map.t;
  reset : unit -> unit;  (** called before each execution *)
  on_call : int -> unit;  (** [fid]: a function activation begins *)
  on_block : int -> int -> unit;  (** [fid block]: control enters block *)
  on_edge : int -> int -> int -> unit;  (** [fid src dst]: CFG transition *)
  on_ret : int -> int -> unit;  (** [fid block]: return executes in block *)
}

let no_probe () = ()

(** A trace map and no probes, for engines whose artifacts run the
    table on registers of their own. *)
let trace_only ?size_log2 mode : t =
  {
    mode;
    trace = Coverage_map.create ?size_log2 ();
    reset = ignore;
    on_call = ignore;
    on_block = (fun _ _ -> ());
    on_edge = (fun _ _ _ -> ());
    on_ret = (fun _ _ -> ());
  }

(** Instantiate a feedback listener for [prog]: one closure per probed
    site, looked up by array index per event (edges through a dense
    [src * nblocks + dst] array per function), so handlers never hash,
    probe a hashtable or allocate. A site kind no probe uses gets a
    constant no-op handler. [plans] may be supplied to share a
    precomputed Ball–Larus artifact across campaigns (it is only
    consulted for [Path] mode). *)
let make ?size_log2 ?plans mode (prog : Minic.Ir.program) : t =
  let regs = make_regs ~trace:(Coverage_map.create ?size_log2 ()) mode in
  let tb = table ?plans mode prog in
  let site = function None -> no_probe | Some op -> closure regs op in
  let nblocks (f : Minic.Ir.func) = Array.length f.blocks in
  let per_block probe =
    Array.mapi
      (fun fid f -> Array.init (nblocks f) (fun b -> site (probe fid b)))
      prog.funcs
  in
  let calls = Array.mapi (fun fid _ -> site (tb.call fid)) prog.funcs in
  let blocks = per_block tb.block and rets = per_block tb.ret in
  let edges =
    Array.mapi
      (fun fid (f : Minic.Ir.func) ->
        let n = nblocks f in
        let a = Array.make (n * n) no_probe in
        Array.iteri
          (fun src (b : Minic.Ir.block) ->
            List.iter
              (fun dst -> a.((src * n) + dst) <- site (tb.edge fid src dst))
              (Minic.Ir.successors b.term))
          f.blocks;
        a)
      prog.funcs
  in
  let strides = Array.map nblocks prog.funcs in
  let probed = Array.exists (fun c -> c != no_probe) in
  let any = Array.exists probed in
  {
    mode;
    trace = regs.trace;
    reset = (fun () -> reset_regs regs);
    on_call =
      (if probed calls then fun fid -> (Array.unsafe_get calls fid) ()
       else ignore);
    on_block =
      (if any blocks then fun fid b ->
         (Array.unsafe_get (Array.unsafe_get blocks fid) b) ()
       else fun _ _ -> ());
    on_edge =
      (if any edges then (fun fid src dst ->
         let c =
           Array.unsafe_get (Array.unsafe_get edges fid)
             ((src * Array.unsafe_get strides fid) + dst)
         in
         (* most transitions carry no probe: skip the call *)
         if c != no_probe then c ())
       else fun _ _ _ -> ());
    on_ret =
      (if any rets then fun fid b ->
         (Array.unsafe_get (Array.unsafe_get rets fid) b) ()
       else fun _ _ -> ());
  }
