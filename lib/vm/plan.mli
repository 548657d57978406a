(** The block-group plan both compiled engines render: which labels of a
    resolved function get code, how each group splits into fuel
    segments, and the analyses those engines specialise over.

    A {e group} is a superblock-fusion chain (or a lone block) entered
    only at its head and left only through its last block's terminator.
    {!func} returns the groups control can enter: the one at label 0 and
    the one at every target of a reached group's terminator, found by a
    walk from label 0. {!Compile} renders each group as one closure,
    {!Emit} as one generated function; a label that heads no reached
    group gets no code in either. *)

(** {2 Slot analyses} *)

(** Per-slot may-hold-array verdicts of the whole-program fixpoint: a
    slot outside the tables never holds an array, so loads/stores on it
    compile to single unchecked int-table accesses. *)
type typing = {
  lmay : bool array array;  (** per (fid, local slot) *)
  gmay : bool array;  (** per global *)
}

val may_array_analysis : Interp.prepared -> typing

(** Per function: the local slots to zero at frame entry (the
    definite-assignment residue left over a pooled [acquire_raw]). *)
val zero_slots_analysis : Interp.prepared -> int array array

(** {2 Block groups} *)

(** One step of a segment. *)
type step =
  | Enter of int
      (** entry into a block: one fuel unit, the work counter, the
          block's probe *)
  | Instr of Interp.rinstr  (** a non-call instruction: one fuel unit *)
  | Probe of Pathcov.Feedback.op
      (** a fused goto edge's probe (or folded adds), fired in place *)

(** A maximal call-free run of a group. The engines subtract [burn] in
    one step and run [fast] when the budget covers it, else give it
    back and replay [careful] with a burn per unit (DESIGN §13). *)
type segment = {
  burn : int;  (** fuel units: the block entries plus the instructions *)
  fast : step list;
      (** the fused edges' register adds folded into one [Probe (Add k)]
          before each must-fire edge probe and at the end *)
  careful : step list;  (** every step in order, each edge's own probe *)
}

type piece =
  | Seg of segment
  | Call of {
      dst : Interp.slot option;
      callee : int;
      args : Interp.rexpr array;
      site : int;
    }  (** a call instruction: burns its one unit exactly, bounds segments *)

type group = {
  head : int;  (** the label control enters at *)
  blocks : int list;  (** the chain, [head] first *)
  pieces : piece list;
      (** in order; the first is the segment opening with [Enter head] *)
  last : int;  (** the last block of [blocks] *)
  term : Interp.rterm;  (** [last]'s terminator, which ends the group *)
}

(** The groups of function [fid] control can enter, by ascending head.
    [table] supplies the edge probes the segments fire or fold. *)
val func : Pathcov.Feedback.table -> int -> Interp.rfunc -> group list

(** {2 Fusion shape} *)

type shape = {
  chains : int;  (** chains of two or more blocks *)
  chain_blocks : int;  (** blocks in those chains *)
  chain_max : int;  (** longest chain (blocks) *)
  dup_instrs : int;  (** instructions copied by tail duplication *)
}

(** The chains the fusion rule forms at every label that is not
    interior to a chain, reached or not: a property of the rule over the
    program, not of the reached groups. *)
val shape : Interp.prepared -> shape
