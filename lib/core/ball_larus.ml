(** The Ball–Larus acyclic-path encoding (Ball & Larus, MICRO'96), adapted
    as a fuzzer coverage feedback per §III–IV of the paper.

    Given a function CFG, the pass:
    + finds loop back edges and converts the CFG to a DAG by replacing each
      back edge [v→w] with dummy edges [ENTRY→w] and [v→EXIT];
    + numbers acyclic paths: [num_paths EXIT = 1],
      [num_paths v = Σ num_paths (succ v)] in reverse topological order;
    + assigns each DAG edge an increment value such that the sum of values
      along any ENTRY→EXIT DAG path is a unique ID in [0, n);
    + optionally minimises probes by pushing increments off a maximal-weight
      spanning tree onto its chords (classic Ball–Larus event placement);
      the sum over chord increments along a path equals the sum over all
      edge values, so path IDs are unchanged (property-tested).

    At run time a per-activation register [r] starts at 0; real non-back
    edges add their increment; a back edge commits [r + add] as a completed
    path ID and resets [r]; a return commits [r + add]. The resulting plan
    is consumed by the VM's edge hooks — semantically identical to compiled
    instrumentation, with the placement decided entirely at "compile" time. *)

type edge_kind =
  | Real  (** an original CFG edge that is not a back edge *)
  | Back  (** an original back edge (excluded from the DAG) *)
  | Exit_real  (** return block → EXIT *)
  | Dummy_entry  (** ENTRY → header, standing in for a back edge *)
  | Dummy_exit  (** latch → EXIT, standing in for a back edge *)

type edge = {
  id : int;
  src : int;
  dst : int;  (** EXIT is node [nblocks] *)
  kind : edge_kind;
  mutable value : int;  (** Ball–Larus increment value *)
  mutable in_tree : bool;
  mutable inc : int;  (** chord increment after spanning-tree placement *)
}

(** What the runtime must do when a CFG edge (or return) is traversed. *)
type edge_op =
  | Add of int  (** r <- r + k *)
  | Commit_back of { add : int; reset : int }
      (** count (r + add) as a finished path; r <- reset *)

type t = {
  fname : string;
  nblocks : int;
  num_paths : int;  (** number of distinct acyclic paths in the function *)
  edges : edge array;
  out_edges : edge list array;  (** DAG out-edges per node, deterministic order *)
  back_edges : (int * int) list;
  (* Runtime plan, keyed on original CFG transitions. *)
  edge_ops : (int * int, edge_op) Hashtbl.t;
  ret_add : int array;  (** commit adjustment per return block *)
  probes : int;  (** number of CFG transitions carrying instrumentation *)
}

exception Irreducible of string

(* ------------------------------------------------------------------ *)
(* DAG construction *)

let build_dag (cfg : Minic.Cfg.t) fname =
  if not (Minic.Loops.reducible cfg) then
    raise (Irreducible fname);
  let n = Minic.Cfg.num_blocks cfg in
  let exit_node = n in
  let backs = Minic.Loops.back_edges cfg in
  let is_back v w = List.mem (v, w) backs in
  let edges = ref [] in
  let next_id = ref 0 in
  let add_edge src dst kind =
    let e = { id = !next_id; src; dst; kind; value = 0; in_tree = false; inc = 0 } in
    incr next_id;
    edges := e :: !edges;
    e
  in
  (* Real edges in deterministic order: per block, terminator order. *)
  for v = 0 to n - 1 do
    List.iter
      (fun w ->
        if is_back v w then ignore (add_edge v w Back)
        else ignore (add_edge v w Real))
      (Minic.Cfg.successors cfg v)
  done;
  List.iter (fun r -> ignore (add_edge r exit_node Exit_real)) (Minic.Cfg.exits cfg);
  (* Dummy edges for each back edge, in back-edge discovery order. *)
  List.iter
    (fun (v, w) ->
      ignore (add_edge 0 w Dummy_entry);
      ignore (add_edge v exit_node Dummy_exit))
    backs;
  let all = Array.of_list (List.rev !edges) in
  let out = Array.make (n + 1) [] in
  Array.iter
    (fun e -> if e.kind <> Back then out.(e.src) <- e :: out.(e.src))
    all;
  (* Restore insertion order (deterministic successor order). *)
  Array.iteri (fun i l -> out.(i) <- List.rev l) out;
  (all, out, backs, exit_node)

(* Reverse topological order of DAG nodes (EXIT first). *)
let rev_topo out_edges nnodes =
  let state = Array.make nnodes 0 in
  let order = ref [] in
  let rec dfs v =
    if state.(v) = 0 then begin
      state.(v) <- 1;
      List.iter (fun e -> dfs e.dst) out_edges.(v);
      state.(v) <- 2;
      order := v :: !order
    end
  in
  for v = 0 to nnodes - 1 do
    dfs v
  done;
  (* !order is forward topological; reverse it. *)
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Path numbering (Figure 5 of Ball–Larus). *)

let number_paths out_edges nnodes exit_node =
  let num = Array.make nnodes 0 in
  let order = rev_topo out_edges nnodes in
  List.iter
    (fun v ->
      if v = exit_node then num.(v) <- 1
      else begin
        let total = ref 0 in
        List.iter
          (fun e ->
            e.value <- !total;
            total := !total + num.(e.dst))
          out_edges.(v);
        num.(v) <- !total
      end)
    order;
  num

(* ------------------------------------------------------------------ *)
(* Spanning-tree probe placement.

   We add a virtual EXIT→ENTRY tree edge (forcing equal node potentials at
   ENTRY and EXIT), grow a maximal-weight spanning tree over the undirected
   DAG, then set chord increments to inc(e) = value(e) + phi(src) - phi(dst)
   where phi is the tree potential with inc = 0 on tree edges. Weights
   favour high-frequency edges (estimated by loop depth) so probes land on
   cold edges. *)

module Union_find = struct
  let create n = Array.init n (fun i -> i)

  let rec find t x = if t.(x) = x then x else let r = find t t.(x) in t.(x) <- r; r

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then false
    else begin
      t.(ra) <- rb;
      true
    end
end

let place_on_spanning_tree edges out_edges nnodes exit_node depths =
  let uf = Union_find.create nnodes in
  (* The virtual EXIT→ENTRY edge is in the tree by construction. *)
  ignore (Union_find.union uf exit_node 0);
  let weight e =
    (* deeper-nested edges are hotter; prefer them as tree edges *)
    let d v = if v >= Array.length depths then 0 else depths.(v) in
    (10 * max (d e.src) (d e.dst)) + (match e.kind with Real -> 1 | _ -> 0)
  in
  let sorted = Array.copy edges in
  Array.sort (fun a b -> compare (weight b, a.id) (weight a, b.id)) sorted;
  Array.iter
    (fun e ->
      if e.kind <> Back && Union_find.union uf e.src e.dst then e.in_tree <- true)
    sorted;
  (* Potentials by BFS over tree edges (undirected). *)
  let phi = Array.make nnodes 0 in
  let seen = Array.make nnodes false in
  let adj = Array.make nnodes [] in
  Array.iter
    (fun e ->
      if e.in_tree then begin
        adj.(e.src) <- (e, true) :: adj.(e.src);
        adj.(e.dst) <- (e, false) :: adj.(e.dst)
      end)
    edges;
  let queue = Queue.create () in
  Queue.add 0 queue;
  seen.(0) <- true;
  phi.(0) <- 0;
  (* exit and entry share potential via the virtual edge (value 0) *)
  if not seen.(exit_node) then begin
    seen.(exit_node) <- true;
    phi.(exit_node) <- 0;
    Queue.add exit_node queue
  end;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun (e, forward) ->
        let u = if forward then e.dst else e.src in
        if not seen.(u) then begin
          seen.(u) <- true;
          (* inc(tree) = 0 = value + phi(src) - phi(dst) *)
          if forward then phi.(u) <- phi.(v) + e.value
          else phi.(u) <- phi.(v) - e.value;
          Queue.add u queue
        end)
      adj.(v)
  done;
  Array.iter
    (fun e ->
      if e.kind <> Back then
        e.inc <- (if e.in_tree then 0 else e.value + phi.(e.src) - phi.(e.dst)))
    edges;
  ignore out_edges

(* ------------------------------------------------------------------ *)
(* Plan assembly *)

(** Build the instrumentation plan for one function.
    [optimize] selects spanning-tree probe placement (default) over the
    naive increment-on-every-valued-edge placement. *)
let of_func ?(optimize = true) (f : Minic.Ir.func) : t =
  let cfg = Minic.Cfg.of_func f in
  let n = Minic.Cfg.num_blocks cfg in
  let edges, out_edges, backs, exit_node = build_dag cfg f.name in
  let num = number_paths out_edges (n + 1) exit_node in
  if optimize then
    place_on_spanning_tree edges out_edges (n + 1) exit_node (Minic.Loops.depths cfg)
  else
    Array.iter (fun e -> if e.kind <> Back then e.inc <- e.value) edges;
  (* Look up the dummy-edge increments for each back edge. *)
  let dummy_entry_inc w =
    let e =
      Array.to_list edges
      |> List.find (fun e -> e.kind = Dummy_entry && e.dst = w)
    in
    e.inc
  in
  let dummy_exit_inc v =
    let e =
      Array.to_list edges
      |> List.find (fun e -> e.kind = Dummy_exit && e.src = v)
    in
    e.inc
  in
  let edge_ops = Hashtbl.create 16 in
  let probes = ref 0 in
  Array.iter
    (fun e ->
      match e.kind with
      | Real ->
          if e.inc <> 0 then begin
            Hashtbl.replace edge_ops (e.src, e.dst) (Add e.inc);
            incr probes
          end
      | Back | Exit_real | Dummy_entry | Dummy_exit -> ())
    edges;
  List.iter
    (fun (v, w) ->
      Hashtbl.replace edge_ops (v, w)
        (Commit_back { add = dummy_exit_inc v; reset = dummy_entry_inc w });
      incr probes)
    backs;
  let ret_add = Array.make n 0 in
  Array.iter
    (fun e -> if e.kind = Exit_real then ret_add.(e.src) <- e.inc)
    edges;
  {
    fname = f.name;
    nblocks = n;
    num_paths = num.(0);
    edges;
    out_edges;
    back_edges = backs;
    edge_ops;
    ret_add;
    probes = !probes;
  }

(** What to do when the CFG transition [src→dst] executes. *)
let on_edge (t : t) ~src ~dst : edge_op option = Hashtbl.find_opt t.edge_ops (src, dst)

(** Increment to add to the register when committing at return block [b]. *)
let on_ret (t : t) ~block = t.ret_add.(block)

(* ------------------------------------------------------------------ *)
(* Path regeneration: ID → DAG node sequence (Ball–Larus §3.4). Useful for
   the standalone profiler example and for exhaustiveness tests. *)

let regenerate (t : t) (id : int) : int list =
  if id < 0 || id >= t.num_paths then
    invalid_arg
      (Printf.sprintf "Ball_larus.regenerate: id %d out of [0,%d)" id t.num_paths);
  let exit_node = t.nblocks in
  let rec walk v rem acc =
    if v = exit_node then List.rev acc
    else begin
      (* Choose the out-edge with the largest value <= rem. Values are
         assigned in increasing successor order, so scan for the last
         admissible edge. *)
      let best =
        List.fold_left
          (fun best e ->
            if e.value <= rem then
              match best with
              | Some b when b.value >= e.value -> best
              | _ -> Some e
            else best)
          None t.out_edges.(v)
      in
      match best with
      | None -> List.rev acc  (* EXIT-adjacent; cannot happen on valid ids *)
      | Some e -> walk e.dst (rem - e.value) (e.dst :: acc)
    end
  in
  walk 0 id [ 0 ]

(** Like [regenerate] but returning the DAG edges themselves, which are
    unique even when a dummy edge parallels a real one (the node sequence
    alone is ambiguous in that case). *)
let regenerate_edges (t : t) (id : int) : edge list =
  if id < 0 || id >= t.num_paths then
    invalid_arg
      (Printf.sprintf "Ball_larus.regenerate_edges: id %d out of [0,%d)" id
         t.num_paths);
  let exit_node = t.nblocks in
  let rec walk v rem acc =
    if v = exit_node then List.rev acc
    else begin
      let best =
        List.fold_left
          (fun best e ->
            if e.value <= rem then
              match best with
              | Some b when b.value >= e.value -> best
              | _ -> Some e
            else best)
          None t.out_edges.(v)
      in
      match best with
      | None -> List.rev acc
      | Some e -> walk e.dst (rem - e.value) (e :: acc)
    end
  in
  walk 0 id []

(** Enumerate all path IDs with their DAG node sequences. Exponential in
    CFG size; intended for tests and examples on small functions. *)
let enumerate (t : t) : (int * int list) list =
  List.init t.num_paths (fun id -> (id, regenerate t id))

(* ------------------------------------------------------------------ *)
(* Program-level artifact *)

type program_plans = {
  plans : t array;  (** indexed by function index in the program *)
  total_paths : int;
  total_probes : int;
}

(** Run the pass over every function of a program. *)
let of_program ?(optimize = true) (p : Minic.Ir.program) : program_plans =
  let plans = Array.map (fun f -> of_func ~optimize f) p.funcs in
  {
    plans;
    total_paths = Array.fold_left (fun a pl -> a + pl.num_paths) 0 plans;
    total_probes = Array.fold_left (fun a pl -> a + pl.probes) 0 plans;
  }
