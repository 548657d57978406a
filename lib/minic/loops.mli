(** Back-edge and natural-loop detection. MiniC only produces structured
    loops, so every retreating edge is a back edge and CFGs are reducible;
    {!reducible} certifies this and the Ball–Larus pass asserts it. *)

type loop = {
  header : int;
  back_edge : int * int;  (** (latch, header) *)
  body : int list;  (** blocks of the natural loop, ascending, incl. header *)
}

(** Back edges (latch, header) where the header dominates the latch. *)
val back_edges : Cfg.t -> (int * int) list

(** A CFG is reducible when every retreating edge is a back edge. *)
val reducible : Cfg.t -> bool

(** Natural loops, one per back edge. *)
val loops : Cfg.t -> loop list

(** Loop nesting depth per block (0 = not in any loop); drives the
    spanning-tree edge weights of the Ball–Larus pass. *)
val depths : Cfg.t -> int array
