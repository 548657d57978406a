(** Input mutation engine: the AFL havoc stack, splicing, and an
    input-to-state substitution stage fed by comparison operands captured
    by the VM (the stand-in for AFL++'s cmplog/Redqueen, enabled for all
    fuzzer configurations in the paper's evaluation).

    The havoc stack works in place on a pooled {!scratch} buffer; the
    campaign executes children straight out of it (zero-copy) and only
    materialises a string on retention. Every operator consumes RNG
    draws in the same order and with the same bounds as the historical
    string-round-trip engine, so campaign trajectories are unchanged. *)

(** Hard cap on generated input length. *)
val max_len : int

(** A comparison observed at run time: the program compared [observed]
    (hopefully an input-derived value) against [wanted]. *)
type cmp_pair = { observed : int; wanted : int }

(** Test seam over the production input-to-state search: loads the
    input into a fresh scratch, rewrites it as {!havoc_in_place}'s
    input-to-state operator would — the first little-endian (1/2/4-byte)
    or ASCII-decimal encoding of [observed], one drawn among those found,
    replaced by the encoding of [wanted] — and returns the child (the
    input unchanged when no encoding is found). Campaigns never call it. *)
val i2s_apply : Rng.t -> cmp_pair -> string -> string

(** Reusable per-campaign mutation buffer: the child under construction
    lives in [buf] up to [len] (plus a staging area for chunk
    duplication). Create once, thread through {!havoc_in_place}; treat the fields as read-only outside this module. *)
type scratch = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable tmp : Bytes.t;
}

val create_scratch : unit -> scratch

(** One havoc-mutated child built in place in [scratch]: a random stack
    of 1–8 operations (bit flips, arithmetic, interesting values, block
    copy/insert/delete, optional input-to-state substitution from [cmps],
    optional splice with a second corpus entry). The child is
    [sc.buf[0, sc.len)] — never empty — and stays valid until the next
    call on the same scratch. Allocation-free in steady state. *)
val havoc_in_place :
  scratch -> ?cmps:cmp_pair array -> ?splice_with:string -> Rng.t -> string -> unit
