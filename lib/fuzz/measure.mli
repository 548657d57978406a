(** Post-campaign measurement utilities: the afl-showmap analogue used by
    the coverage study (Table IV) and the queue-trimming primitives shared
    by the culling and opportunistic strategies. *)

module Int_set : Set.S with type elt = int

(** Union of edge coverage over a corpus — "afl-showmap over the queue".
    [obs] counts the replays (off-budget executions) without affecting
    the result. *)
val edge_union :
  ?fuel:int -> ?obs:Obs.Observer.t -> Minic.Ir.program -> string list -> Int_set.t

(** Greedy edge-coverage-preserving trim (the favored-corpus construction
    the paper uses as its culling criterion, §III-B1, and as the
    opportunistic queue pre-processing, §III-B2). Order-stable,
    duplicate-free. [obs] counts replays and receives a [Cull] event with
    the before/after sizes; the trim itself is observer-independent. *)
val edge_preserving_cull :
  ?fuel:int -> ?obs:Obs.Observer.t -> Minic.Ir.program -> string list -> string list

(** Same trim but preserving *path* coverage — the alternative criterion
    the paper tested and rejected (§III-B1 footnote); kept for the
    ablation bench. *)
val path_preserving_cull :
  ?fuel:int ->
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  Minic.Ir.program ->
  string list ->
  string list

(** A classic Ball–Larus path profile (the encoding's original use):
    run [inputs] in order through the interpreter with hooks that count
    every acyclic path a function commits, by path id. Returns each
    run's status and, per function id, its [(path id, count)] pairs,
    most frequent first; paths with equal counts list by ascending id. *)
val path_counts :
  Pathcov.Ball_larus.program_plans ->
  Minic.Ir.program ->
  string list ->
  Vm.Interp.status list * (int * int) list array
