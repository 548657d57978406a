(** Graph view over an {!Ir.func}: successor/predecessor arrays and
    standard traversals. Labels are dense block indices; block 0 is the
    entry and every block is reachable (lowering prunes the rest). *)

type t = {
  func : Ir.func;
  succ : int list array;  (** successors in terminator order *)
  pred : int list array;  (** predecessors, ascending *)
}

val of_func : Ir.func -> t
val num_blocks : t -> int
val successors : t -> int -> int list
val predecessors : t -> int -> int list

(** Depth-first postorder from the entry. *)
val postorder : t -> int list

val reverse_postorder : t -> int list

(** Blocks terminated by a return. *)
val exits : t -> int list

(** All edges (src, dst), terminator order per source block. The order is
    significant for Ball–Larus edge numbering. *)
val edges : t -> (int * int) list
