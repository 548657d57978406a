(** Crash model: what the paper's ASAN-instrumented targets report, made
    deterministic. *)

(** Kind of failure observed by the VM. *)
type kind =
  | Out_of_bounds of { len : int; idx : int }
  | Div_by_zero
  | Seeded of int  (** explicit [bug(id)] defect site *)
  | Check_failed of int  (** [check(cond, id)] with a zero condition *)
  | Bad_alloc of int
  | Stack_overflow
  | Type_error of string

type frame = { fn : string; site : int }

type t = {
  kind : kind;
  stack : frame list;  (** innermost first; head is the faulting frame *)
}

(** Ground-truth bug identity: seeded ids are explicit; organic crashes
    are identified by their faulting site, stable across runs. This is the
    exact notion the paper approximates by manual deduplication. *)
type identity = Id of int | At_site of int

val bug_identity : t -> identity
val kind_name : kind -> string

(** Stack-trace clustering key: hash of the top 5 frames plus the crash
    kind — the standard "unique crash" notion of the evaluation (§V-A). *)
val top5_hash : t -> int

val pp_identity : Format.formatter -> identity -> unit
val pp : Format.formatter -> t -> unit
val identity_compare : identity -> identity -> int
