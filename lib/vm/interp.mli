(** CFG interpreter for MiniC IR programs — the stand-in for native
    execution of the instrumented target. It runs a program on an input
    byte string, emitting the events that the instrumentation listeners of
    [Pathcov.Feedback] consume, and converting memory-safety violations
    into {!Crash.t} reports exactly where ASAN would. Execution is bounded
    by a fuel budget (the analogue of AFL's timeout) and a call-depth
    limit. MiniC locals are zero-initialised at function entry.

    The resolved representation and the pooled execution context are
    exposed concretely (not abstract) because {!Compile} and {!Emit} are
    execution engines over exactly this state: their code runs against
    the same frames, pools, globals journal, call stack and return
    scratch, entered through the one run harness ({!run_batch}), so
    crash materialisation, fuel and outcome construction are shared by
    every engine. Treat every
    exposed field as read-only unless you are an execution engine. *)

(** Instrumentation hooks, invoked during execution. *)
type hooks = {
  h_call : int -> unit;  (** [fid]: entering a function *)
  h_block : int -> int -> unit;  (** [fid block]: control enters a block *)
  h_edge : int -> int -> int -> unit;  (** [fid src dst]: CFG transition *)
  h_ret : int -> int -> unit;  (** [fid block]: return executes *)
  h_cmp : int -> int -> unit;  (** comparison operands, for cmplog *)
}

val no_hooks : hooks

type status =
  | Finished of int option  (** [main] returned normally *)
  | Crashed of Crash.t
  | Hung  (** fuel exhausted: the analogue of an AFL timeout *)

type outcome = {
  status : status;
  blocks_executed : int;  (** work metric: blocks entered across the run *)
}

val default_fuel : int
val default_max_depth : int

(** Maximum [array(n)] size before the VM reports [Bad_alloc]. *)
val max_alloc : int

(** {2 Resolved (slot-addressed) representation} *)

type slot = Local of int | Global of int

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type arith =
  | Aadd
  | Asub
  | Amul
  | Adiv
  | Arem
  | Aband
  | Abor
  | Abxor
  | Ashl
  | Ashr

type rexpr =
  | Rconst of int
  | Rload of slot * int  (** slot, site of the enclosing instruction *)
  | Rindex of rexpr * rexpr * int  (** base, index, site *)
  | Rarith of arith * rexpr * rexpr * int  (** site for div-by-zero *)
  | Rcmp of cmp * rexpr * rexpr
  | Rneg of rexpr
  | Rnot of rexpr
  | Rbnot of rexpr
  | Rin of rexpr
  | Rlen
  | Rarray_make of rexpr * int
  | Rarray_len of rexpr * int
  | Rabs of rexpr

type rinstr =
  | Rassign of slot * rexpr
  | Rstore of rexpr * rexpr * rexpr * int
  | Rcall of { dst : slot option; callee : int; args : rexpr array; site : int }
  | Rbug of int * int  (** bug id, site *)
  | Rcheck of rexpr * int * int  (** cond, bug id, site *)

type rterm =
  | Rgoto of int
  | Rbranch of rexpr * int * int * int  (** cond, true, false, site *)
  | Rret of rexpr option * int

type rblock = { rinstrs : rinstr array; rterm : rterm }

type rfunc = {
  rname : string;
  nlocals : int;
  param_slots : slot array;
  rblocks : rblock array;
}

(** A program with names resolved to slots — build once per program,
    reuse across the campaign's millions of executions. *)
type prepared = {
  prog : Minic.Ir.program;
  rfuncs : rfunc array;
  main_id : int;
  global_names : string array;
  global_sizes : int array;  (** 0 = int cell, n > 0 = array of n *)
}

(** Raised by {!prepare} when the IR references an unbound variable or an
    undefined function (cannot happen for sema-checked programs). *)
exception Unknown_name of string

val prepare : Minic.Ir.program -> prepared

(** Memoised {!prepare} keyed on the program's physical identity —
    campaigns, measurement replays and throughput cells over the same
    (cached) program share one resolution. Mutex-guarded; the [prepared]
    artifact is immutable, so sharing it across domains is safe. *)
val prepare_cached : Minic.Ir.program -> prepared

(** {2 Execution context}

    Pooled frames, globals and call stack, reused across executions so
    the steady-state hot path allocates nothing beyond the program's own
    [array(n)] requests. Single-threaded; use one per worker domain. *)

(** Raised internally (and by compiled code) for program-under-test
    crashes: kind plus the crash site. Converted to {!Crash.t} with the
    materialised stack by the run harness — never escapes {!run_batch}. *)
exception Crash_exn of Crash.kind * int

(** Raised internally when the fuel budget is exhausted. *)
exception Out_of_fuel

(** Distinguished "this slot holds an int" marker for array-slot tables
    (compare with [==] only). *)
val no_arr : int array

type frame = {
  f_ints : int array;
  f_arrs : int array array;
  mutable f_arrs_live : bool;
}

type fpool = { mutable frames : frame array; mutable live : int }

type exec_ctx = {
  p : prepared;
  hooks : hooks;
  gints : int array;
  garrs : int array array;
  gorig : int array array;
  gdirty : Bytes.t;
  mutable gtouched : int array;
  mutable ngtouched : int;
  pools : fpool array;  (** indexed by function id *)
  mutable cs_fid : int array;
  mutable cs_site : int array;
  mutable cs_top : int;
  mutable input : string;
  mutable input_len : int;
  mutable fuel : int;
  mutable max_depth : int;
  mutable blocks : int;
  mutable ret_i : int;
  mutable ret_a : int array;
  gclear : int array array;
      (** the subset of [gorig] holding real arrays (reset re-zeroes
          exactly these) *)
  mutable unwound : bool;
      (** set by the run-loop exception fences when a crash/hang
          unwound the frame stack; tells {!reset_ctx} the pool
          occupancy cannot be trusted and a full sweep is needed *)
  mutable last_reset_width : int;
      (** introspection: journaled global slots the last {!reset_ctx}
          undid (dirty-set width); written by reset, read only by
          observers *)
}

val create_ctx : ?hooks:hooks -> prepared -> exec_ctx

(** Reset between executions: undo journaled global writes, re-zero
    array globals, drop leftover frames, clear per-exec registers. *)
val reset_ctx : exec_ctx -> unit

(** Take a zeroed frame for one activation of [fid]. *)
val acquire : exec_ctx -> int -> frame

(** Like {!acquire} but leaves [f_ints] unzeroed (the array table is
    still reset — reads consult it to tell ints from arrays). For
    engines that prove definite assignment and zero the residual slots
    themselves. *)
val acquire_raw : exec_ctx -> int -> frame

val push_call : exec_ctx -> int -> int -> unit

(** {2 Slot access} (shared by every engine) *)

(** Record a global index in the write journal (so {!reset_ctx} can undo
    it) — engines writing globals directly must call it first. *)
val touch_global : exec_ctx -> int -> unit

val write_int : exec_ctx -> frame -> slot -> int -> unit
val write_arr : exec_ctx -> frame -> slot -> int array -> unit
val copy_slot : exec_ctx -> frame -> slot -> frame -> slot -> unit

(** {2 The run harness}

    The VM's one run loop, shared by every engine: reset, fuel and
    depth, the exception fences that turn {!Crash_exn}, {!Out_of_fuel}
    and [Stack_overflow] into a [status] (materialising the crash stack
    and marking the context unwound), and the [outcome] record. An
    engine differs only in its {!entry}. *)

(** An engine's way into a prepared program: [e_enter ctx] runs [main]
    of [e_prepared] on a context the harness has reset, fuelled and
    loaded with the input, leaving the result in the return scratch. *)
type entry = { e_prepared : prepared; e_enter : exec_ctx -> unit }

(** Execute a cohort of [n] candidates back-to-back on one context,
    through [entry] — by default the interpreter itself, driving the
    context's hooks; a compiled engine's entry ignores them, its probes
    being compiled in. [gen k] produces candidate [k] as a [(buf, len)]
    scratch view: the first [len] bytes of [buf], run without copying
    them into a string (the caller must not mutate [buf] during the run;
    [Invalid_argument] if [len] exceeds the buffer). [sink k outcome]
    consumes its result before [gen (k + 1)] is called, so one scratch
    buffer may back the whole cohort. Back-to-back runs take the
    journaled fast-reset path (clean runs skip the frame-pool sweep).
    Raises [Invalid_argument], once per non-empty cohort, when [ctx] was
    created over another prepared program than [entry]'s. Never raises
    for program-under-test misbehaviour — crashes, hangs and type
    confusion all come back as [status]. *)
val run_batch :
  ?fuel:int ->
  ?max_depth:int ->
  ?entry:entry ->
  exec_ctx ->
  n:int ->
  gen:(int -> Bytes.t * int) ->
  sink:(int -> outcome -> unit) ->
  unit

(** Zero-copy [(buf, len)] view of a string input, for {!run_batch}'s
    [gen]: the VM never writes its input. *)
val view : string -> Bytes.t * int

(** Run [input] on [ctx] through [entry] (default: the interpreter) as a
    cohort of one of {!run_batch}. *)
val run_one :
  ?fuel:int -> ?max_depth:int -> ?entry:entry -> exec_ctx -> input:string -> outcome

(** One-shot convenience: prepare the program and run [input] on a fresh
    context over [hooks] (use {!prepare} + {!create_ctx} + {!run_batch}
    in loops). *)
val run :
  ?fuel:int -> ?hooks:hooks -> ?max_depth:int -> Minic.Ir.program -> input:string -> outcome
