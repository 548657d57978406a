(** The Ball–Larus acyclic-path encoding (Ball & Larus, MICRO'96), adapted
    as a fuzzer coverage feedback per §III–IV of the paper.

    Given a function CFG the pass converts it to a DAG (back edges are
    replaced by ENTRY/EXIT dummy edges), numbers the acyclic paths so that
    the sum of edge increments along any ENTRY→EXIT path is a unique ID in
    [0, num_paths), and emits a runtime plan: which CFG transitions add to
    the per-activation path register, and which commit a finished path.
    Probe placement is optionally minimised with a maximal-weight spanning
    tree; both placements commit identical IDs (property-tested). *)

(** Classification of DAG edges. *)
type edge_kind =
  | Real  (** an original CFG edge that is not a back edge *)
  | Back  (** an original back edge (excluded from the DAG) *)
  | Exit_real  (** return block → EXIT *)
  | Dummy_entry  (** ENTRY → loop header, standing in for a back edge *)
  | Dummy_exit  (** latch → EXIT, standing in for a back edge *)

type edge = {
  id : int;  (** contiguous edge identifier, unique within the function *)
  src : int;
  dst : int;  (** EXIT is node [nblocks] *)
  kind : edge_kind;
  mutable value : int;  (** Ball–Larus increment value *)
  mutable in_tree : bool;  (** spanning-tree membership *)
  mutable inc : int;  (** chord increment after probe placement *)
}

(** What the runtime must do when a CFG transition is traversed. *)
type edge_op =
  | Add of int  (** r <- r + k *)
  | Commit_back of { add : int; reset : int }
      (** count [r + add] as a finished path; r <- reset *)

(** The per-function instrumentation artifact. *)
type t = {
  fname : string;
  nblocks : int;
  num_paths : int;  (** number of distinct acyclic paths in the function *)
  edges : edge array;
  out_edges : edge list array;  (** DAG out-edges per node, deterministic order *)
  back_edges : (int * int) list;
  edge_ops : (int * int, edge_op) Hashtbl.t;
  ret_add : int array;  (** commit adjustment per return block *)
  probes : int;  (** number of CFG transitions carrying instrumentation *)
}

(** Raised when a function's CFG is irreducible (cannot happen for CFGs
    produced by the MiniC front-end, whose loops are structured). *)
exception Irreducible of string

(** Build the instrumentation plan for one function. [optimize] (default
    true) selects spanning-tree probe placement over the naive
    increment-on-every-valued-edge placement. *)
val of_func : ?optimize:bool -> Minic.Ir.func -> t

(** What to do when the CFG transition [src→dst] executes; [None] means
    the transition carries no probe. *)
val on_edge : t -> src:int -> dst:int -> edge_op option

(** Increment to add to the register when committing at return block. *)
val on_ret : t -> block:int -> int

(** [regenerate t id] is the DAG node sequence of path [id] (Ball–Larus
    §3.4). Raises [Invalid_argument] when [id] is out of range. *)
val regenerate : t -> int -> int list

(** Like {!regenerate} but returning the DAG edges themselves, which are
    unique even when a dummy edge parallels a real one. *)
val regenerate_edges : t -> int -> edge list

(** All path IDs with their node sequences. Exponential in CFG size;
    intended for tests and examples on small functions. *)
val enumerate : t -> (int * int list) list

(** Whole-program artifact: one plan per function. *)
type program_plans = {
  plans : t array;  (** indexed by function index in the program *)
  total_paths : int;
  total_probes : int;
}

(** Run the pass over every function of a program. *)
val of_program : ?optimize:bool -> Minic.Ir.program -> program_plans
