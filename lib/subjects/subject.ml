(** The benchmark-subject abstraction: a MiniC program standing in for one
    UNIFUZZ target, with seed inputs, a ground-truth bug table, and one
    *witness input* per bug. The witnesses make the paper's manual bug
    deduplication exact and are verified by the test suite (every witness
    provably triggers its bug id; every seed runs crash-free). *)

type bug_class =
  | Shallow  (** reachable with little coverage progress *)
  | Magic  (** gated behind multi-byte magic values (cmplog territory) *)
  | Path_dependent
      (** triggers only via a specific path over edges that are all
          individually coverable — the paper's motivating class (§II-B) *)
  | Loop_accumulation
      (** state accumulated over repeated executions of the same paths,
          like the cflow [curs] overflow of §V-A *)
  | Deep  (** requires sustained coverage progress to reach *)

let bug_class_name = function
  | Shallow -> "shallow"
  | Magic -> "magic"
  | Path_dependent -> "path-dependent"
  | Loop_accumulation -> "loop-accumulation"
  | Deep -> "deep"

type bug = {
  id : int;  (** ground-truth identity, matches [bug]/[check] ids in source *)
  summary : string;
  bug_class : bug_class;
  witness : string;  (** a known input that triggers exactly this bug *)
}

type t = {
  name : string;  (** UNIFUZZ subject this stands in for *)
  description : string;
  source : string;  (** MiniC source text *)
  seeds : string list;
  bugs : bug list;
}

(** Compile a subject's source (parse + check + lower); memoised because
    experiments instantiate subjects repeatedly. The cache is guarded by a
    mutex since worker domains of the parallel experiment runner may look
    subjects up concurrently; the compiled IR itself is immutable, so
    sharing a cached program across domains is safe. *)
let ir_cache : (string, Minic.Ir.program) Hashtbl.t = Hashtbl.create 32

let ir_cache_lock = Mutex.create ()

let program (t : t) : Minic.Ir.program =
  Mutex.lock ir_cache_lock;
  match Hashtbl.find_opt ir_cache t.name with
  | Some p ->
      Mutex.unlock ir_cache_lock;
      p
  | None ->
      (* Compile outside the lock: lowering a large subject must not
         serialise unrelated lookups. A racing domain may compile the same
         subject; first insert wins and the copies are identical. *)
      Mutex.unlock ir_cache_lock;
      let p = Minic.Lower.compile t.source in
      Mutex.lock ir_cache_lock;
      let p =
        match Hashtbl.find_opt ir_cache t.name with
        | Some winner -> winner
        | None ->
            Hashtbl.replace ir_cache t.name p;
            p
      in
      Mutex.unlock ir_cache_lock;
      p

(** Compile fresh, bypassing the cache. Worker domains that must own
    their program outright (and everything reachable from it) use this;
    site identifiers are allocated per compilation, so repeated compiles
    of the same source yield structurally identical programs. *)
let compile_fresh (t : t) : Minic.Ir.program = Minic.Lower.compile t.source

(** Number of MiniC functions (the "Functions" column of Table I). *)
let num_functions (t : t) : int = Array.length (program t).funcs

let bug_ids (t : t) : int list = List.map (fun b -> b.id) t.bugs

(** Witness self-check used by subject modules that assert their own
    ground truth: the identity a witness input actually triggers. A
    witness that no longer crashes fails with the subject name and the
    witness bytes in the message, so a registry-wide sweep pinpoints
    which subject's bug table went stale without a debugger. *)
let witness_identity_exn (t : t) ~(witness : string) : Vm.Crash.identity =
  match (Vm.Interp.run (program t) ~input:witness).status with
  | Vm.Interp.Crashed crash -> Vm.Crash.bug_identity crash
  | Finished _ | Hung ->
      failwith
        (Printf.sprintf "subject %s: witness %S no longer crashes" t.name
           witness)

(* Helpers for building binary seed/witness strings. *)
let b (l : int list) : string =
  String.init (List.length l) (fun i -> Char.chr (List.nth l i land 255))

let u16le v = b [ v land 255; (v lsr 8) land 255 ]
let u32le v = b [ v land 255; (v lsr 8) land 255; (v lsr 16) land 255; (v lsr 24) land 255 ]
