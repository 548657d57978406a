(** Versioned campaign snapshots: stop a campaign at a barrier, write its
    full state to disk, and later resume a run that is {e byte-identical}
    to the uninterrupted one.

    Because a campaign trajectory is already a pure function of
    [(seed, sync_interval)] (sharded) or the seed (sequential), a snapshot
    only has to capture the campaign-visible state at a deterministic
    boundary — between two queue entries of the sequential loop, or a
    sharded merge barrier —
    and a resumed run replays the exact future of the original. That is a
    stronger contract than AFL-family "resume from the queue directory"
    restarts, and it is testable: the differential suite checkpoints at
    every barrier and proves each resume reproduces the straight run's
    queue, coverage maps, crash triage and observer counters byte for
    byte.

    What a snapshot holds:
    - a {!config_id} naming the run (subject, fuzzer, mode, cmplog, seed,
      budget, VM limits, map size, sync interval) — validated on resume;
    - {!progress}: exec/block/havoc clocks, the planner cursor of a
      sharded run, and every live RNG stream position ({!Rng.state});
    - the virgin and crash-virgin coverage maps, raw bytes;
    - the indexed corpus: entries with their inputs, costs and
      [found_at]/[times_fuzzed]/favored metadata, plus the top-rated
      table and pending-favored count (entries keep no index sets: the
      table is the only per-index state a resumed run reads);
    - the {!Obs.Counters.t} block and the snapshot rows recorded so far
      (wall-clock floats ride along but are excluded from
      {!fingerprint}, the deterministic identity);
    - the triage record: every crash cluster with its witness input.

    On-disk format ([pathfuzz-checkpoint/v3]): an ASCII magic+version
    header, a length-prefixed little-endian binary payload, and a
    trailing FNV-1a checksum over everything before it. The whole file
    is written into one buffer whose checksum is folded in as it grows.
    Format v2 differs only in a packed index set
    ({!Pathcov.Index_set.encoding}) after each entry's data; {!of_string}
    still reads it, validating each set and dropping it. {!of_string}
    rejects truncated, corrupted, foreign, v1 and future-versioned
    files, and payloads whose top-rated pairs (or v2 index sets) do not
    fit the recorded map size, with a diagnostic [Error] — never an
    exception — so the CLI can turn any bad snapshot into a clean
    nonzero exit. *)

let magic_prefix = "pathfuzz-checkpoint/"
let version = 3
let header = Printf.sprintf "%sv%d\n" magic_prefix version

(** The identity of the run that wrote a snapshot. Resume validates the
    whole block: resuming under a different subject, fuzzer, seed or
    sync schedule would silently produce a trajectory comparable to
    nothing, so a mismatch is a hard error. [sync_interval = 0] marks a
    sequential campaign (snapshots between queue entries); a positive value is
    the sharded merge-barrier schedule. *)
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

(** Campaign clocks and cursors. The sequential loop uses [rng_state]
    (its single campaign stream), the exec/block/havoc clocks and its
    queue cursor ([cycle_len], [next_qi]; both 0 at a cycle boundary);
    the sharded coordinator stores its planner cursor ([items_total],
    [cycle_len], [next_qi], [epochs], [dup_dropped]) and keeps
    [rng_state] for the planning stream. Per-item RNG streams need
    no state: they are keyed by [items_total] ({!Rng.substream}). *)
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

(** How a campaign writes snapshots: at each deterministic boundary that
    crosses a multiple of [every] executions (and is still mid-budget),
    the runner captures its state and hands it to [save]. [subject] and
    [fuzzer] are identity fields the campaign itself cannot know. *)
type sink = {
  every : int;
  subject : string;
  fuzzer : string;
  save : t -> unit;
}

(** The exec count at which the next snapshot fires, as a pure function
    of the current exec clock — straight and resumed runs compute the
    identical snapshot schedule. *)
let next_mark ~every ~execs = ((execs / every) + 1) * every

(* ------------------------------------------------------------------ *)
(* Capture *)

let capture ~(id : config_id) ~(progress : progress)
    ~(virgin : Pathcov.Coverage_map.t)
    ~(crash_virgin : Pathcov.Coverage_map.t) ~(corpus : Corpus.t)
    ~(triage : Triage.t) ~(counters : Obs.Counters.t)
    ~(snapshots : Obs.Snapshot.row list) : t =
  let entries =
    Array.init (Corpus.size corpus) (fun i ->
        let e = Corpus.get corpus i in
        {
          e_id = e.Corpus.id;
          e_data = e.Corpus.data;
          e_exec_blocks = e.Corpus.exec_blocks;
          e_depth = e.Corpus.depth;
          e_found_at = e.Corpus.found_at;
          e_favored = e.Corpus.favored;
          e_times_fuzzed = e.Corpus.times_fuzzed;
        })
  in
  let rec_of (r : Triage.record) =
    { x_crash = r.Triage.crash; x_input = r.Triage.input; x_at_exec = r.Triage.at_exec }
  in
  let sorted_records tbl key_order =
    Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> key_order a b)
    |> List.map (fun (_, r) -> rec_of r)
    |> Array.of_list
  in
  let counters_copy = Obs.Counters.create () in
  Obs.Counters.add_into ~into:counters_copy counters;
  {
    id;
    progress;
    virgin = Pathcov.Coverage_map.raw_bytes virgin;
    crash_virgin = Pathcov.Coverage_map.raw_bytes crash_virgin;
    entries;
    next_entry_id = corpus.Corpus.next_id;
    pending_favored = corpus.Corpus.pending_favored;
    top_rated = Corpus.top_rated_pairs corpus;
    counters = counters_copy;
    snapshots = Array.of_list snapshots;
    triage =
      {
        tr_total_crashes = triage.Triage.total_crashes;
        tr_total_hangs = triage.Triage.total_hangs;
        tr_by_stack = sorted_records triage.Triage.by_stack compare;
        tr_by_bug =
          sorted_records triage.Triage.by_bug Vm.Crash.identity_compare;
        tr_afl_unique =
          Array.of_list (List.map rec_of triage.Triage.afl_unique);
      };
  }

(* ------------------------------------------------------------------ *)
(* Restore *)

(** Rebuild the captured queue into [corpus]: entries in discovery order
    under their recorded ids, with their metadata, favored flags, the
    top-rated table (and with it every entry's slot count) and the
    pending-favored count — everything the scheduler and the incremental
    [claim_top_rated] path read. *)
let restore_corpus_into (ck : t) (corpus : Corpus.t) : unit =
  Corpus.clear corpus;
  let by_id = Hashtbl.create (max 16 (Array.length ck.entries)) in
  Array.iter
    (fun (er : entry_rec) ->
      corpus.Corpus.next_id <- er.e_id;
      let e =
        Corpus.append corpus ~data:er.e_data ~exec_blocks:er.e_exec_blocks
          ~depth:er.e_depth ~found_at:er.e_found_at
      in
      e.Corpus.favored <- er.e_favored;
      e.Corpus.times_fuzzed <- er.e_times_fuzzed;
      Hashtbl.replace by_id er.e_id e)
    ck.entries;
  corpus.Corpus.next_id <- ck.next_entry_id;
  corpus.Corpus.pending_favored <- ck.pending_favored;
  Array.iter
    (fun (idx, eid) ->
      match Hashtbl.find_opt by_id eid with
      | Some e -> Corpus.rate corpus ~slot:idx e
      | None -> invalid_arg "Checkpoint.restore_corpus_into: dangling entry id")
    ck.top_rated

(** Refill [triage] (normally fresh) from the captured record. Counters
    are {e not} re-bumped — crash/hang totals live in the restored
    counter block — so the observer wired into [triage] only sees what
    happens after the resume. *)
let restore_triage_into (ck : t) (triage : Triage.t) : unit =
  let record (x : crash_rec) =
    { Triage.crash = x.x_crash; input = x.x_input; at_exec = x.x_at_exec }
  in
  triage.Triage.total_crashes <- ck.triage.tr_total_crashes;
  triage.Triage.total_hangs <- ck.triage.tr_total_hangs;
  Hashtbl.reset triage.Triage.by_stack;
  Hashtbl.reset triage.Triage.by_bug;
  Array.iter
    (fun x ->
      Hashtbl.replace triage.Triage.by_stack
        (Vm.Crash.top5_hash x.x_crash)
        (record x))
    ck.triage.tr_by_stack;
  Array.iter
    (fun x ->
      Hashtbl.replace triage.Triage.by_bug
        (Vm.Crash.bug_identity x.x_crash)
        (record x))
    ck.triage.tr_by_bug;
  triage.Triage.afl_unique <-
    Array.to_list (Array.map record ck.triage.tr_afl_unique)

(* ------------------------------------------------------------------ *)
(* Config compatibility *)

(** Validate that a snapshot belongs to the run being resumed. Every
    identity field must match: a different subject, fuzzer, mode,
    cmplog setting, seed, budget, VM limit, map size or sync schedule
    means the resumed trajectory would not be the checkpointed one. *)
let check_compat ~(expected : config_id) (ck : t) : (unit, string) result =
  let c = ck.id in
  let mism = ref [] in
  let chk name a b pp = if a <> b then mism := Printf.sprintf "%s: checkpoint has %s, this run has %s" name (pp a) (pp b) :: !mism in
  let str s = Printf.sprintf "%S" s in
  let num = string_of_int in
  let bl = string_of_bool in
  chk "subject" c.subject expected.subject str;
  chk "fuzzer" c.fuzzer expected.fuzzer str;
  chk "mode" c.mode expected.mode str;
  chk "cmplog" c.cmplog expected.cmplog bl;
  chk "seed" c.rng_seed expected.rng_seed num;
  chk "budget" c.budget expected.budget num;
  chk "fuel" c.fuel expected.fuel num;
  chk "max-depth" c.max_depth expected.max_depth num;
  chk "map-size-log2" c.map_size_log2 expected.map_size_log2 num;
  chk "max-queue" c.max_queue expected.max_queue num;
  chk "sync-interval" c.sync_interval expected.sync_interval num;
  match List.rev !mism with
  | [] -> Ok ()
  | ms -> Error (String.concat "; " ms)

(* ------------------------------------------------------------------ *)
(* Binary encoding: little-endian, length-prefixed, checksummed *)

(* FNV-1a, folded into OCaml's 63-bit int range — the same construction
   Coverage_map.bytes_hash uses. *)
let fnv_basis = 0x3bf29ce484222325

let fnv_fold h (b : Bytes.t) ~pos ~len : int =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := !h lxor Char.code (Bytes.unsafe_get b i);
    h := !h * 0x100000001b3
  done;
  !h

(* One growable buffer for the whole file. The FNV-1a state covers
   [buf[0, hashed)] and is folded forward whenever the buffer grows and
   at the end, so the checksum never needs a second copy of the body. *)
type writer = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable hashed : int;
  mutable h : int;
}

let writer cap = { buf = Bytes.create (max 64 cap); len = 0; hashed = 0; h = fnv_basis }

let fold_hash w =
  w.h <- fnv_fold w.h w.buf ~pos:w.hashed ~len:(w.len - w.hashed);
  w.hashed <- w.len

(* The checksum of everything written so far. *)
let checksum w =
  fold_hash w;
  w.h land max_int

let reserve w n =
  if w.len + n > Bytes.length w.buf then begin
    fold_hash w;
    let bigger = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger
  end

let w_int64 w v =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let w_int w n = w_int64 w (Int64.of_int n)

let w_bool w b = w_int w (if b then 1 else 0)

(* Bytes appended as they are, with no length prefix. *)
let w_raw w s =
  let n = String.length s in
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let w_str w s =
  w_int w (String.length s);
  w_raw w s

let w_bytes w b = w_str w (Bytes.unsafe_to_string b)

(* Floats as raw IEEE bits; [zero] writes 0.0 instead — the fingerprint
   path, where wall-clock measurements must not perturb the identity. *)
let w_float ~zero w f = w_int64 w (if zero then 0L else Int64.bits_of_float f)

let w_crash buf (c : Vm.Crash.t) =
  (match c.Vm.Crash.kind with
  | Vm.Crash.Out_of_bounds { len; idx } ->
      w_int buf 0;
      w_int buf len;
      w_int buf idx
  | Vm.Crash.Div_by_zero -> w_int buf 1
  | Vm.Crash.Seeded id ->
      w_int buf 2;
      w_int buf id
  | Vm.Crash.Check_failed id ->
      w_int buf 3;
      w_int buf id
  | Vm.Crash.Bad_alloc n ->
      w_int buf 4;
      w_int buf n
  | Vm.Crash.Stack_overflow -> w_int buf 5
  | Vm.Crash.Type_error s ->
      w_int buf 6;
      w_str buf s);
  w_int buf (List.length c.Vm.Crash.stack);
  List.iter
    (fun (f : Vm.Crash.frame) ->
      w_str buf f.Vm.Crash.fn;
      w_int buf f.Vm.Crash.site)
    c.Vm.Crash.stack

let w_crash_rec buf (x : crash_rec) =
  w_crash buf x.x_crash;
  w_str buf x.x_input;
  w_int buf x.x_at_exec

let w_counters ~zero buf (c : Obs.Counters.t) =
  List.iter (fun (_, v) -> w_int buf v) (Obs.Counters.to_fields c);
  w_float ~zero buf c.Obs.Counters.vm_s;
  w_float ~zero buf c.Obs.Counters.mut_s;
  w_float ~zero buf c.Obs.Counters.mut_minor_words

let w_snapshot ~zero buf (r : Obs.Snapshot.row) =
  w_int buf r.Obs.Snapshot.at_exec;
  w_int buf r.queue;
  w_int buf r.favored;
  w_int buf r.pending_favored;
  w_int buf r.cycles;
  w_int buf r.retained;
  w_int buf r.havocs;
  w_int buf r.splices;
  w_int buf r.i2s_cands;
  w_int buf r.calibrations;
  w_int buf r.crashes;
  w_int buf r.crashes_stack_unique;
  w_int buf r.crashes_cov_novel;
  w_int buf r.hangs;
  w_int buf r.queue_full_drops;
  w_int buf r.blocks;
  w_int buf r.virgin_residual;
  w_float ~zero buf r.vm_s;
  w_float ~zero buf r.mut_s;
  w_float ~zero buf r.mut_minor_words

let w_payload ~zero buf (ck : t) : unit =
  let id = ck.id in
  w_str buf id.subject;
  w_str buf id.fuzzer;
  w_str buf id.mode;
  w_bool buf id.cmplog;
  w_int buf id.rng_seed;
  w_int buf id.budget;
  w_int buf id.fuel;
  w_int buf id.max_depth;
  w_int buf id.map_size_log2;
  w_int buf id.max_queue;
  w_int buf id.sync_interval;
  let p = ck.progress in
  w_int buf p.execs;
  w_int buf p.blocks;
  w_int buf p.havocs;
  w_int buf p.rng_state;
  w_int buf p.items_total;
  w_int buf p.cycle_len;
  w_int buf p.next_qi;
  w_int buf p.epochs;
  w_int buf p.dup_dropped;
  w_bytes buf ck.virgin;
  w_bytes buf ck.crash_virgin;
  w_int buf (Array.length ck.entries);
  Array.iter
    (fun (e : entry_rec) ->
      w_int buf e.e_id;
      w_str buf e.e_data;
      w_int buf e.e_exec_blocks;
      w_int buf e.e_depth;
      w_int buf e.e_found_at;
      w_bool buf e.e_favored;
      w_int buf e.e_times_fuzzed)
    ck.entries;
  w_int buf ck.next_entry_id;
  w_int buf ck.pending_favored;
  w_int buf (Array.length ck.top_rated);
  Array.iter
    (fun (idx, eid) ->
      w_int buf idx;
      w_int buf eid)
    ck.top_rated;
  w_counters ~zero buf ck.counters;
  w_int buf (Array.length ck.snapshots);
  Array.iter (w_snapshot ~zero buf) ck.snapshots;
  let tr = ck.triage in
  w_int buf tr.tr_total_crashes;
  w_int buf tr.tr_total_hangs;
  w_int buf (Array.length tr.tr_by_stack);
  Array.iter (w_crash_rec buf) tr.tr_by_stack;
  w_int buf (Array.length tr.tr_by_bug);
  Array.iter (w_crash_rec buf) tr.tr_by_bug;
  w_int buf (Array.length tr.tr_afl_unique);
  Array.iter (w_crash_rec buf) tr.tr_afl_unique

(* A capacity that holds most snapshots without regrowing: the two maps
   and the queue's data dominate. *)
let size_hint (ck : t) : int =
  Array.fold_left
    (fun a (e : entry_rec) -> a + 64 + String.length e.e_data)
    (4096 + Bytes.length ck.virgin + Bytes.length ck.crash_virgin
    + (16 * Array.length ck.top_rated))
    ck.entries

(** The snapshot's deterministic identity: FNV-1a over the payload with
    every wall-clock float zeroed. Two runs at the same logical point —
    straight vs resumed, clocked vs unclocked, any shard count — have
    equal fingerprints. *)
let fingerprint (ck : t) : int =
  let w = writer (size_hint ck) in
  w_payload ~zero:true w ck;
  checksum w

(* The whole file in one buffer: header, payload, trailing checksum over
   both. Returns the buffer and the file's length. *)
let serialize (ck : t) : Bytes.t * int =
  let w = writer (String.length header + size_hint ck + 8) in
  w_raw w header;
  w_payload ~zero:false w ck;
  w_int w (checksum w);
  (w.buf, w.len)

let to_string (ck : t) : string =
  let buf, len = serialize ck in
  Bytes.sub_string buf 0 len

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Corrupt of string

type reader = { src : string; limit : int; mutable pos : int }

let need (r : reader) n =
  if n < 0 || r.pos + n > r.limit then raise (Corrupt "truncated payload")

let r_int (r : reader) : int =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let r_count (r : reader) what : int =
  let n = r_int r in
  (* any honest count is bounded by the remaining payload bytes *)
  if n < 0 || n > r.limit - r.pos then
    raise (Corrupt (Printf.sprintf "implausible %s count %d" what n));
  n

let r_bool (r : reader) : bool = r_int r <> 0

let r_str (r : reader) : string =
  let n = r_count r "string length" in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_bytes (r : reader) : bytes = Bytes.of_string (r_str r)

let r_float (r : reader) : float =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let r_set (r : reader) : Pathcov.Index_set.t =
  match Pathcov.Index_set.of_encoding (r_str r) with
  | Some s -> s
  | None -> raise (Corrupt "malformed packed index set")

(* A format-v2 entry's index set, which this format no longer keeps:
   read and checked, then dropped. *)
let skip_v2_set (r : reader) ~map_len ~e_id : unit =
  if not (Pathcov.Index_set.ascending_below ~bound:map_len (r_set r)) then
    raise
      (Corrupt
         (Printf.sprintf
            "entry %d index set is not strictly ascending within the map" e_id))

let r_crash (r : reader) : Vm.Crash.t =
  let kind =
    match r_int r with
    | 0 ->
        let len = r_int r in
        let idx = r_int r in
        Vm.Crash.Out_of_bounds { len; idx }
    | 1 -> Vm.Crash.Div_by_zero
    | 2 -> Vm.Crash.Seeded (r_int r)
    | 3 -> Vm.Crash.Check_failed (r_int r)
    | 4 -> Vm.Crash.Bad_alloc (r_int r)
    | 5 -> Vm.Crash.Stack_overflow
    | 6 -> Vm.Crash.Type_error (r_str r)
    | k -> raise (Corrupt (Printf.sprintf "unknown crash kind tag %d" k))
  in
  let n = r_count r "stack" in
  let stack =
    List.init n (fun _ ->
        let fn = r_str r in
        let site = r_int r in
        { Vm.Crash.fn; site })
  in
  { Vm.Crash.kind; stack }

let r_crash_rec (r : reader) : crash_rec =
  let x_crash = r_crash r in
  let x_input = r_str r in
  let x_at_exec = r_int r in
  { x_crash; x_input; x_at_exec }

let r_counters (r : reader) : Obs.Counters.t =
  let c = Obs.Counters.create () in
  c.Obs.Counters.execs <- r_int r;
  c.blocks <- r_int r;
  c.havocs <- r_int r;
  c.splices <- r_int r;
  c.i2s_cands <- r_int r;
  c.calibrations <- r_int r;
  c.seeds_imported <- r_int r;
  c.retained <- r_int r;
  c.favored <- r_int r;
  c.pending_favored <- r_int r;
  c.cycles <- r_int r;
  c.queue_full_drops <- r_int r;
  c.crashes <- r_int r;
  c.crashes_stack_unique <- r_int r;
  c.crashes_cov_novel <- r_int r;
  c.hangs <- r_int r;
  c.replays <- r_int r;
  c.vm_s <- r_float r;
  c.mut_s <- r_float r;
  c.mut_minor_words <- r_float r;
  c

let r_snapshot (r : reader) : Obs.Snapshot.row =
  let at_exec = r_int r in
  let queue = r_int r in
  let favored = r_int r in
  let pending_favored = r_int r in
  let cycles = r_int r in
  let retained = r_int r in
  let havocs = r_int r in
  let splices = r_int r in
  let i2s_cands = r_int r in
  let calibrations = r_int r in
  let crashes = r_int r in
  let crashes_stack_unique = r_int r in
  let crashes_cov_novel = r_int r in
  let hangs = r_int r in
  let queue_full_drops = r_int r in
  let blocks = r_int r in
  let virgin_residual = r_int r in
  let vm_s = r_float r in
  let mut_s = r_float r in
  let mut_minor_words = r_float r in
  {
    Obs.Snapshot.at_exec;
    queue;
    favored;
    pending_favored;
    cycles;
    retained;
    havocs;
    splices;
    i2s_cands;
    calibrations;
    crashes;
    crashes_stack_unique;
    crashes_cov_novel;
    hangs;
    queue_full_drops;
    blocks;
    virgin_residual;
    vm_s;
    mut_s;
    mut_minor_words;
  }

let parse_payload ~(version : int) (src : string) ~pos ~limit : t =
  let r = { src; limit; pos } in
  let subject = r_str r in
  let fuzzer = r_str r in
  let mode = r_str r in
  let cmplog = r_bool r in
  let rng_seed = r_int r in
  let budget = r_int r in
  let fuel = r_int r in
  let max_depth = r_int r in
  let map_size_log2 = r_int r in
  let max_queue = r_int r in
  let sync_interval = r_int r in
  (* referential sanity: the restore path must never fault — every index
     lands in a table of [2^map_size_log2] slots *)
  if map_size_log2 < 4 || map_size_log2 > 24 then
    raise (Corrupt (Printf.sprintf "bad map_size_log2 %d" map_size_log2));
  let map_len = 1 lsl map_size_log2 in
  let id =
    {
      subject;
      fuzzer;
      mode;
      cmplog;
      rng_seed;
      budget;
      fuel;
      max_depth;
      map_size_log2;
      max_queue;
      sync_interval;
    }
  in
  let execs = r_int r in
  let blocks = r_int r in
  let havocs = r_int r in
  let rng_state = r_int r in
  let items_total = r_int r in
  let cycle_len = r_int r in
  let next_qi = r_int r in
  let epochs = r_int r in
  let dup_dropped = r_int r in
  let progress =
    {
      execs;
      blocks;
      havocs;
      rng_state;
      items_total;
      cycle_len;
      next_qi;
      epochs;
      dup_dropped;
    }
  in
  let virgin = r_bytes r in
  let crash_virgin = r_bytes r in
  let n_entries = r_count r "entry" in
  let entries =
    Array.init n_entries (fun _ ->
        let e_id = r_int r in
        let e_data = r_str r in
        if version = 2 then skip_v2_set r ~map_len ~e_id;
        let e_exec_blocks = r_int r in
        let e_depth = r_int r in
        let e_found_at = r_int r in
        let e_favored = r_bool r in
        let e_times_fuzzed = r_int r in
        {
          e_id;
          e_data;
          e_exec_blocks;
          e_depth;
          e_found_at;
          e_favored;
          e_times_fuzzed;
        })
  in
  let next_entry_id = r_int r in
  let pending_favored = r_int r in
  let n_top = r_count r "top-rated" in
  let top_rated =
    Array.init n_top (fun _ ->
        let idx = r_int r in
        let eid = r_int r in
        (idx, eid))
  in
  let counters = r_counters r in
  let n_snaps = r_count r "snapshot" in
  let snapshots = Array.init n_snaps (fun _ -> r_snapshot r) in
  let tr_total_crashes = r_int r in
  let tr_total_hangs = r_int r in
  let n_stack = r_count r "stack-crash" in
  let tr_by_stack = Array.init n_stack (fun _ -> r_crash_rec r) in
  let n_bug = r_count r "bug-crash" in
  let tr_by_bug = Array.init n_bug (fun _ -> r_crash_rec r) in
  let n_afl = r_count r "afl-crash" in
  let tr_afl_unique = Array.init n_afl (fun _ -> r_crash_rec r) in
  if r.pos <> limit then raise (Corrupt "trailing bytes after payload");
  if Bytes.length virgin <> map_len then
    raise (Corrupt "virgin map length disagrees with map_size_log2");
  if Bytes.length crash_virgin <> map_len then
    raise (Corrupt "crash-virgin map length disagrees with map_size_log2");
  let ids = Hashtbl.create (max 16 n_entries) in
  Array.iter (fun (e : entry_rec) -> Hashtbl.replace ids e.e_id ()) entries;
  Array.iteri
    (fun k (idx, eid) ->
      if idx < 0 || idx >= map_len then
        raise (Corrupt (Printf.sprintf "top-rated index %d outside the map" idx));
      if k > 0 && idx <= fst top_rated.(k - 1) then
        raise (Corrupt "top-rated indices are not strictly ascending");
      if not (Hashtbl.mem ids eid) then
        raise (Corrupt (Printf.sprintf "top-rated refers to unknown entry %d" eid)))
    top_rated;
  if
    progress.next_qi < 0
    || progress.next_qi > progress.cycle_len
    || progress.cycle_len > n_entries
  then raise (Corrupt "queue cursor outside the queue");
  {
    id;
    progress;
    virgin;
    crash_virgin;
    entries;
    next_entry_id;
    pending_favored;
    top_rated;
    counters;
    snapshots;
    triage =
      { tr_total_crashes; tr_total_hangs; tr_by_stack; tr_by_bug; tr_afl_unique };
  }

(** Decode a serialized snapshot, format v3 or v2. Every failure mode —
    foreign file, v1 or future format version, truncation, bit
    corruption, malformed or inconsistent payload (a top-rated pair or
    v2 index set outside the recorded map, out of order, or naming no
    entry; a queue cursor past the queue) — comes back as
    [Error diagnostic], never an exception. *)
let of_string (s : string) : (t, string) result =
  let len = String.length s in
  if len < String.length magic_prefix then
    Error "not a pathfuzz checkpoint (file too short for the magic header)"
  else if String.sub s 0 (String.length magic_prefix) <> magic_prefix then
    Error "not a pathfuzz checkpoint (bad magic header)"
  else
    match String.index_from_opt s (String.length magic_prefix) '\n' with
    | None -> Error "not a pathfuzz checkpoint (unterminated version header)"
    | Some nl ->
        let v =
          String.sub s (String.length magic_prefix)
            (nl - String.length magic_prefix)
        in
        (* 0: a version this build cannot read *)
        let format =
          if v = Printf.sprintf "v%d" version then version
          else if v = "v2" then 2
          else 0
        in
        if format = 0 then
          Error
            (Printf.sprintf
               "unsupported checkpoint format version %S (this build reads \
                v2 and v%d)"
               v version)
        else if len < nl + 1 + 8 then
          Error "checkpoint truncated (missing checksum)"
        else
          let body_len = len - 8 in
          let stored =
            Int64.to_int (String.get_int64_le s body_len)
          in
          if
            fnv_fold fnv_basis (Bytes.unsafe_of_string s) ~pos:0 ~len:body_len
            land max_int
            <> stored
          then
            Error "checkpoint checksum mismatch (truncated or corrupt file)"
          else begin
            match
              parse_payload ~version:format s ~pos:(nl + 1) ~limit:body_len
            with
            | ck -> Ok ck
            | exception Corrupt msg ->
                Error (Printf.sprintf "corrupt checkpoint: %s" msg)
            | exception _ -> Error "corrupt checkpoint: malformed payload"
          end

(* ------------------------------------------------------------------ *)
(* Files *)

(** Write atomically: serialize to [path ^ ".tmp"], then rename — an
    interrupted write never destroys the previous good snapshot.
    Returns the serialized size in bytes (for checkpoint metrics). *)
let write_file ~(path : string) (ck : t) : int =
  let tmp = path ^ ".tmp" in
  let buf, len = serialize ck in
  let oc = open_out_bin tmp in
  output oc buf 0 len;
  close_out oc;
  Sys.rename tmp path;
  len

let read_file (path : string) : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> of_string contents
