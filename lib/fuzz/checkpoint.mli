(** Versioned campaign snapshots ([pathfuzz-checkpoint/v3]): capture a
    campaign's full state at a deterministic boundary, write it to a
    checksummed binary file, and later resume a run whose remaining
    trajectory is byte-identical to the uninterrupted one.

    The format is an ASCII magic+version header, a length-prefixed
    little-endian payload, and a trailing FNV-1a checksum. Queue entries
    carry no index sets: the top-rated pairs are the only per-index
    state a resumed run reads. {!of_string} also reads format v2, whose
    entries carry packed index sets, checking and dropping them; it
    turns every failure mode (foreign file, v1 or future version,
    truncation, corruption, inconsistent payload) into
    [Error diagnostic] — never an exception. See DESIGN.md §9. *)

(** The identity of the run that wrote a snapshot; resume must validate
    the whole block ({!check_compat}). [sync_interval = 0] marks a
    sequential campaign; a positive value is the sharded merge-barrier
    schedule. *)
type config_id = {
  subject : string;
  fuzzer : string;
  mode : string;  (** {!Pathcov.Feedback.mode_name} *)
  cmplog : bool;
  rng_seed : int;
  budget : int;
  fuel : int;
  max_depth : int;
  map_size_log2 : int;
  max_queue : int;
  sync_interval : int;  (** 0 = sequential campaign loop *)
}

(** Campaign clocks, the queue cursor (sequential: [cycle_len] and
    [next_qi], 0 at a cycle boundary) or sharded planner cursor, and the
    live RNG stream
    position ({!Rng.state}); per-item streams need no state — they are
    pure substreams of [items_total]. *)
type progress = {
  execs : int;
  blocks : int;
  havocs : int;
  rng_state : int;
  items_total : int;
  cycle_len : int;
  next_qi : int;
  epochs : int;
  dup_dropped : int;
}

type entry_rec = {
  e_id : int;
  e_data : string;
  e_exec_blocks : int;
  e_depth : int;
  e_found_at : int;
  e_favored : bool;
  e_times_fuzzed : int;
}

type crash_rec = { x_crash : Vm.Crash.t; x_input : string; x_at_exec : int }

type triage_rec = {
  tr_total_crashes : int;
  tr_total_hangs : int;
  tr_by_stack : crash_rec array;  (** sorted by top-5-frame hash *)
  tr_by_bug : crash_rec array;  (** sorted by ground-truth identity *)
  tr_afl_unique : crash_rec array;  (** stored list order (newest first) *)
}

type t = {
  id : config_id;
  progress : progress;
  virgin : bytes;
  crash_virgin : bytes;
  entries : entry_rec array;  (** discovery order *)
  next_entry_id : int;
  pending_favored : int;
  top_rated : (int * int) array;  (** (map index, entry id), ascending *)
  counters : Obs.Counters.t;  (** detached copy of the observer block *)
  snapshots : Obs.Snapshot.row array;
  triage : triage_rec;
}

(** How a campaign writes snapshots: at each deterministic boundary
    (between sequential queue entries / sharded merge barrier) that crosses a
    multiple of [every] executions and is still mid-budget, the runner
    captures its state and hands it to [save]. [subject] and [fuzzer]
    are identity fields the campaign itself cannot know. *)
type sink = {
  every : int;
  subject : string;
  fuzzer : string;
  save : t -> unit;
}

(** The exec count at which the next snapshot fires — a pure function of
    the current exec clock, so straight and resumed runs compute the
    identical snapshot schedule. *)
val next_mark : every:int -> execs:int -> int

(** Capture a snapshot from live campaign pieces. [counters] is copied;
    [snapshots] are the observer's rows so far. *)
val capture :
  id:config_id ->
  progress:progress ->
  virgin:Pathcov.Coverage_map.t ->
  crash_virgin:Pathcov.Coverage_map.t ->
  corpus:Corpus.t ->
  triage:Triage.t ->
  counters:Obs.Counters.t ->
  snapshots:Obs.Snapshot.row list ->
  t

(** Rebuild the captured queue into a corpus (emptied first): entries in
    discovery order under their recorded ids, with metadata, favored
    flags, the top-rated table (and so every entry's slot count) and the
    pending-favored count. *)
val restore_corpus_into : t -> Corpus.t -> unit

(** Refill a (normally fresh) triage record; observer counters are not
    re-bumped — totals live in the restored counter block. *)
val restore_triage_into : t -> Triage.t -> unit

(** Validate that a snapshot belongs to the run being resumed; [Error]
    lists every mismatching field. *)
val check_compat : expected:config_id -> t -> (unit, string) result

(** Deterministic identity: FNV-1a over the payload with wall-clock
    floats zeroed. Straight and resumed runs at the same logical point
    have equal fingerprints. *)
val fingerprint : t -> int

val to_string : t -> string

(** Decode a serialized snapshot of format v3 or v2; all failures come
    back as [Error], including a v1 file, a v2 entry index set that is
    not strictly ascending below [2^map_size_log2], a top-rated pair
    outside the map, out of order, or naming no entry, and a queue
    cursor ([next_qi] ≤ [cycle_len] ≤ entries) outside the queue. *)
val of_string : string -> (t, string) result

(** Serialize to [path] atomically (write to [path ^ ".tmp"], rename);
    returns the serialized size in bytes. *)
val write_file : path:string -> t -> int

val read_file : string -> (t, string) result
