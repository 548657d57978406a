(** Coverage feedback: the sensitivity ladder studied by the paper. Each
    mode is described once, as a {!table} of per-site probe ops; every
    engine renders that table (the interpreter's listener {!make} and the
    fused engine run {!closure}s, the native emitter prints the ops as
    source), filling a trace {!Coverage_map.t} that the fuzzer classifies
    and checks against the virgin map for novelty.

    Adding a mode: extend {!op} if no existing op expresses its probes,
    then {!table}; a new op also needs a case in {!closure} and in the
    native emitter's printer ([Vm.Emit]). *)

(** Available feedback modes:
    - [Block]: basic-block coverage (n-gram with n = 0);
    - [Edge]: AFL/pcguard-style edge coverage, the paper's baseline;
    - [Ngram n]: last-n-blocks history hashing (§VII related work);
    - [Path]: the paper's contribution — Ball–Larus intra-procedural
      acyclic-path IDs committed at back edges and returns, indexed as
      [(path_id xor function_salt) mod map_size] (§IV);
    - [Pathafl]: a PathAFL-like sketch — edge coverage plus a rolling hash
      over key edges, approximating partial whole-program paths
      (Appendix C comparison). *)
type mode = Block | Edge | Ngram of int | Path | Pathafl

val mode_name : mode -> string

(** Inverse of {!mode_name} ("block", "edge", "ngram<n>", "path",
    "pathafl") — the CLI/stats surface parses mode names with this so
    the two can never drift apart. *)
val mode_of_name : string -> mode option

(** {2 The probe table} *)

(** One probe, with every constant resolved. [prev], the n-gram ring,
    the path-register stack and [rolling] are the {!regs} fields. *)
type op =
  | Hit of int  (** hit a constant index (block) *)
  | Hit_edge of int
      (** [Hit_edge cur]: hit [cur lxor prev], then [prev := cur lsr 1]
          (edge, and pathafl blocks) *)
  | Hit_ngram of { key : int; n : int }
      (** push [key] on the n-gram ring and hit the history hash *)
  | Push  (** push a zero Ball–Larus register (path calls) *)
  | Add of int  (** add to the top path register *)
  | Commit_back of { add : int; salt : int; reset : int }
      (** back-edge commit: hit [((r + add) lxor salt) land max_int],
          then [r := reset] *)
  | Commit_ret of { add : int; salt : int }
      (** return: commit as above, then pop the register *)
  | Roll of int
      (** rolling-hash step with the key, then hit the hash (pathafl calls
          and branch edges) *)

(** The probe at each site, [None] for none: [call fid], [block fid b],
    [edge fid src dst] (a CFG transition), [ret fid b] (a return in
    block [b]). *)
type table = {
  call : int -> op option;
  block : int -> int -> op option;
  edge : int -> int -> int -> op option;
  ret : int -> int -> op option;
}

(** The one definition of every mode's instrumentation: block keys,
    path salts, Ball–Larus adds and resets, and the pathafl key-edge
    predicate are all resolved here. [plans] is consulted only under
    [Path] (default [Ball_larus.of_program prog]). Raises
    [Invalid_argument] for [Ngram n] with [n < 2]. *)
val table :
  ?plans:Ball_larus.program_plans -> mode -> Minic.Ir.program -> table

(** The superblock-fold query on an edge's op: [Some k] when its only
    effect is adding [k] to the top path register ([None] → [Some 0],
    [Add k] → [Some k]), so consecutive edges may fold their constants
    into one deferred [Add]; [None] when the probe must fire in place. *)
val fold_add : op option -> int option

(** The probe registers of one execution, mutable so an engine can
    retarget [trace] between campaigns. *)
type regs = {
  mutable trace : Coverage_map.t;
  mutable prev : int;  (** edge / pathafl previous-block register *)
  hist : int array;  (** n-gram ring (length n, else empty) *)
  mutable pos : int;
  mutable stack : int array;  (** Ball–Larus path registers, a stack *)
  mutable top : int;
  mutable rolling : int;  (** pathafl whole-program rolling hash *)
}

val make_regs : trace:Coverage_map.t -> mode -> regs

(** Clear everything but [trace]; called before each execution. *)
val reset_regs : regs -> unit

(** The probe as a closure over the registers, with every constant baked
    in: the op is matched once, here, never per event. Raises
    [Invalid_argument] for a [Hit_ngram] whose [n] is not the length of
    the registers' ring (registers made for another mode). *)
val closure : regs -> op -> unit -> unit

(** {2 The interpreter's listener} *)

type t = {
  mode : mode;
  trace : Coverage_map.t;
  reset : unit -> unit;  (** call before each execution *)
  on_call : int -> unit;  (** [fid]: a function activation begins *)
  on_block : int -> int -> unit;  (** [fid block]: control enters block *)
  on_edge : int -> int -> int -> unit;  (** [fid src dst]: CFG transition *)
  on_ret : int -> int -> unit;  (** [fid block]: return executes in block *)
}

(** Instantiate a feedback listener for a program: {!table} rendered as
    per-site {!closure} arrays indexed per event, so handlers never hash
    or allocate. [plans] may be supplied to share a precomputed
    Ball–Larus artifact across campaigns (consulted only in [Path]
    mode). *)
val make :
  ?size_log2:int ->
  ?plans:Ball_larus.program_plans ->
  mode ->
  Minic.Ir.program ->
  t

(** A listener with a fresh trace map and no probes: [reset] and every
    handler are no-ops. For engines whose compiled artifacts run the
    {!table} on registers of their own and only need the trace map
    (fused and native campaigns). *)
val trace_only : ?size_log2:int -> mode -> t
