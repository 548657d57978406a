(** Graph view over an [Ir.func]: successor/predecessor arrays and standard
    traversals. Labels are dense block indices; block 0 is the entry. *)

type t = {
  func : Ir.func;
  succ : int list array;  (** successors in terminator order *)
  pred : int list array;  (** predecessors, ascending *)
}

let of_func (f : Ir.func) : t =
  let n = Array.length f.blocks in
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  Array.iter
    (fun (b : Ir.block) -> succ.(b.label) <- Ir.successors b.term)
    f.blocks;
  for v = n - 1 downto 0 do
    List.iter (fun w -> pred.(w) <- v :: pred.(w)) succ.(v)
  done;
  { func = f; succ; pred }

let num_blocks t = Array.length t.func.blocks
let successors t v = t.succ.(v)
let predecessors t v = t.pred.(v)

(** Block labels in depth-first postorder from the entry. Every block is
    reachable (lowering prunes unreachable blocks), so this covers all. *)
let postorder (t : t) : int list =
  let n = num_blocks t in
  let visited = Array.make n false in
  let acc = ref [] in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs t.succ.(v);
      acc := v :: !acc
    end
  in
  dfs 0;
  List.rev !acc

let reverse_postorder (t : t) : int list = List.rev (postorder t)

(** Exit blocks: those terminated by a return. *)
let exits (t : t) : int list =
  Array.to_list t.func.blocks
  |> List.filter_map (fun (b : Ir.block) ->
         match b.term with Ir.Ret _ -> Some b.label | Ir.Goto _ | Ir.Branch _ -> None)

(** All edges (v, w) in terminator order per source block. *)
let edges (t : t) : (int * int) list =
  let acc = ref [] in
  for v = num_blocks t - 1 downto 0 do
    List.iter (fun w -> acc := (v, w) :: !acc) (List.rev t.succ.(v))
  done;
  !acc
