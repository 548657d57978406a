(** The coverage-guided fuzzing loop: an afl-fuzz-shaped campaign over the
    MiniC VM, parameterised by the feedback listener (§IV "Integration").

    A campaign owns a virgin map, a crash-virgin map, the queue, and the
    triage record. Its budget is an execution count — the deterministic
    stand-in for the paper's wall-clock budgets — and all randomness flows
    from one [Rng.t], so a run is a pure function of
    (program, seeds, config).

    Every campaign carries an {!Obs.Observer.t} (a fresh counters-only
    one when the caller passes none): the preallocated counter block is
    bumped inline, snapshot rows are sampled every [budget / 64] execs,
    and structured events flow to the observer's sink from the cold
    paths (retention, crashes, cycle boundaries, calibration). Observers
    obey the zero-perturbation rule — they never consume RNG draws and
    fuzzing decisions never branch on observer state — so observed and
    unobserved campaigns run byte-identical trajectories (test-enforced).

    {!Shard} runs sharded campaigns on this same state and these stages:
    its coordinator and its lanes are states built by {!make_state}, and
    every queue entry of either loop goes through {!fuzz_entry} and one
    decision procedure — applied at once, or captured by a lane for the
    merge barrier to {!replay}. Retention claims top-rated slots from the
    trace map's journal and keeps no index set, in the queue or in a
    capture.

    A run's trace is walked once after the VM: the merge that decides
    novelty is {!Pathcov.Coverage_map.settle}, which classifies, merges,
    notes and zeroes in one pass, and the next run's [pre_exec] then only
    rewinds the journal. *)

type config = {
  mode : Pathcov.Feedback.mode;
  budget : int;  (** total target executions *)
  rng_seed : int;
  fuel : int;  (** VM fuel per execution (the timeout analogue) *)
  max_depth : int;  (** VM call-depth limit per execution *)
  map_size_log2 : int;
  cmplog : bool;  (** enable comparison-operand capture + I2S mutations *)
  max_queue : int;  (** hard safety bound on queue growth *)
  engine : Tracer.engine;  (** execution engine (trajectory-invisible) *)
  selective : bool;  (** removed feature; [true] is rejected *)
}

let default_config =
  {
    mode = Pathcov.Feedback.Edge;
    budget = 20_000;
    rng_seed = 1;
    fuel = Vm.Interp.default_fuel;
    max_depth = Vm.Interp.default_max_depth;
    map_size_log2 = 16;
    cmplog = true;
    max_queue = 500_000;
    engine = Tracer.Interp;
    selective = false;
  }

type result = {
  config : config;
  corpus : Corpus.t;
  triage : Triage.t;
  execs : int;  (** executions actually performed *)
  queue_series : (int * int) list;  (** (execs, queue size) samples *)
  sum_exec_blocks : int;  (** total VM blocks executed, throughput proxy *)
  havocs : int;  (** mutated candidates generated *)
  snapshots : Obs.Snapshot.row list;  (** this run's periodic stats rows *)
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  vm_s : float;  (** wall inside the VM (0 unless the observer has a clock) *)
  mut_s : float;  (** wall inside the mutator (0 unless clocked) *)
  mut_minor_words : float;  (** GC minor words allocated by the mutator *)
}

(** Final queue inputs, in discovery order. *)
let queue_inputs (r : result) : string list =
  List.map (fun (e : Corpus.entry) -> e.data) (Corpus.to_list r.corpus)

(** Comparison-operand capture for calibration runs: a flat,
    insertion-ordered, deduplicated buffer bounded at {!cmp_capacity}
    pairs. The previous [(int * int, unit) Hashtbl.t] allocated a key
    tuple per probe hit and — worse — handed its pairs to the mutator in
    [Hashtbl.fold] order, an implementation detail of the hash function;
    program order is the deterministic contract.

    The probe {!record_cmp} is reached only inside the tracer's capture
    window, which {!capturing} opens around a calibration run: no other
    run's pairs are ever read (AFL++ likewise captures operands in a
    separate per-entry cmplog run), and on every engine a comparison
    outside the window costs one flag test instead of a probe call. *)
type cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
}

let cmp_capacity = 64

let make_cmp_buf () =
  { ops_a = Array.make cmp_capacity 0; ops_b = Array.make cmp_capacity 0; n_cmps = 0 }

(* Is the pair among slots [i, n_cmps)? Top-level, so a probe hit
   allocates no closure. *)
let rec cmp_seen (b : cmp_buf) a bv i =
  i < b.n_cmps
  && ((Array.unsafe_get b.ops_a i = a && Array.unsafe_get b.ops_b i = bv)
     || cmp_seen b a bv (i + 1))

let record_cmp (b : cmp_buf) a bv =
  if a <> bv && b.n_cmps < cmp_capacity && not (cmp_seen b a bv 0) then begin
    Array.unsafe_set b.ops_a b.n_cmps a;
    Array.unsafe_set b.ops_b b.n_cmps bv;
    b.n_cmps <- b.n_cmps + 1
  end

let capturing (tracer : Tracer.t) (b : cmp_buf) (run : unit -> 'a) : 'a =
  b.n_cmps <- 0;
  Tracer.arm_cmp tracer true;
  let r = run () in
  Tracer.arm_cmp tracer false;
  r

(* A shard lane's record of one decision, for the merge barrier to
   replay; why replaying only its delta is exact: see the interface. *)
type capture =
  | Retained of {
      data : string;
      delta : Pathcov.Index_set.t;  (** indices that beat the lane's map *)
      dvals : string;  (** classified trace bytes at [delta], one each *)
      claim : Pathcov.Index_set.t;
          (** slots whose epoch-start holder was dearer ({!Corpus.dearer_slots}) *)
      exec_blocks : int;
      depth : int;
      at_exec : int;
    }
  | Crashed of {
      crash : Vm.Crash.t;
      input : string;
      delta : Pathcov.Index_set.t;  (** indices that beat the lane's crash map *)
      dvals : string;
      at_exec : int;
    }
  | Hung of { at_exec : int }

type state = {
  prepared : Vm.Interp.prepared;
  ctx : Vm.Interp.exec_ctx;  (** pooled execution context, reused per exec *)
  tracer : Tracer.t;  (** engine dispatch *)
  cfg : config;
  feedback : Pathcov.Feedback.t;
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  corpus : Corpus.t;  (** the queue; a lane reads its coordinator's *)
  triage : Triage.t;
  rng : Rng.t;
  lane : bool;  (** a shard lane: decisions are captured, not applied *)
  mutable note : int array;
      (** the note log: indices the merges changed, from [0] to [nnote] *)
  mutable note_vals : Bytes.t;
      (** their classified trace bytes, position for position *)
  mutable nnote : int;
  mutable cand : int array;  (** claim-candidate scratch *)
  mutable captures : capture list;  (** a lane's captures, newest first *)
  mutable execs : int;  (** this campaign's executions (budget clock) *)
  mutable sample_every : int;  (** snapshot cadence in executions *)
  cmp_buf : cmp_buf;  (** calibration-run comparison pairs, program order *)
  scratch : Mutator.scratch;  (** pooled mutation buffer, reused per child *)
  obs : Obs.Observer.t;
      (** counters + snapshots + event sink; may be shared across phases *)
  mut_words : float array;
      (** one slot: mutator minor words counted since the last
          {!settle_walls} (a float-array store does not box, a store to
          the counter block does) *)
  h_batch : Obs.Metrics.hist;  (** cohort sizes ([exec.batch_n]) *)
  h_dirty : Obs.Metrics.hist;  (** context dirty-reset widths *)
  track : int;  (** trace track: 0, or a shard lane's index + 1 *)
}

(* Span brackets on the state's trace track: plain begin/end on the
   preallocated ring when the observer carries a trace, nothing
   otherwise. Observation-only — never consults RNG or feedback state.
   Each track is written by one domain only, so no locking. *)
let trace_begin (st : state) (k : Obs.Trace.kind) : unit =
  match st.obs.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:st.track k
  | None -> ()

let trace_end ?(arg = 0) (st : state) : unit =
  match st.obs.trace with
  | Some tr -> Obs.Trace.end_span ~arg tr ~track:st.track ()
  | None -> ()

(* Fold the VM wall the tracer accumulated and the minor words [mutate]
   counted into the counter block; runs before anything reads the
   block's [vm_s] or [mut_minor_words]. *)
let settle_walls (st : state) : unit =
  let c = st.obs.counters in
  c.vm_s <- c.vm_s +. Tracer.take_vm_s st.tracer;
  c.mut_minor_words <- c.mut_minor_words +. st.mut_words.(0);
  st.mut_words.(0) <- 0.

(* One periodic stats row: the counter block plus the two facts only the
   campaign can see (queue size, virgin residual). The residual is a
   count the virgin map keeps, so a row costs no map scan. *)
let take_snapshot (st : state) : unit =
  settle_walls st;
  Obs.Observer.snapshot st.obs
    (Obs.Snapshot.of_counters st.obs.counters
       ~queue:(Corpus.size st.corpus)
       ~virgin_residual:(Pathcov.Coverage_map.residual st.virgin))

(* Pre/post brackets around one VM run: [pre_exec] resets the listener
   state and the trace map — it only rewinds the journal of a trace the
   last run's merge settled, and zeroes one that no merge read (a hang,
   a full queue) — and the cmplog buffer is cleared by {!capturing}
   instead; [post_exec] accounts the run and leaves the trace raw for
   the one merge ({!merge_noted}) that settles it. *)
let pre_exec (st : state) : unit =
  st.feedback.reset ();
  Pathcov.Coverage_map.clear st.feedback.trace

let post_exec (st : state) (out : Vm.Interp.outcome) : unit =
  st.execs <- st.execs + 1;
  let c = st.obs.counters in
  c.execs <- c.execs + 1;
  c.blocks <- c.blocks + out.blocks_executed;
  Obs.Metrics.observe st.h_dirty st.ctx.last_reset_width;
  if st.execs mod st.sample_every = 0 then take_snapshot st

(* The campaign's one cohort entry: [n] candidates through the tracer.
   The tracer carries the observer's clock and accumulates each run's VM
   wall until {!settle_walls}. *)
let cohort (st : state) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> Vm.Interp.outcome -> unit) : unit =
  Tracer.run_full_batch st.tracer st.ctx ~fuel:st.cfg.fuel
    ~max_depth:st.cfg.max_depth ~n ~gen ~sink

let input_of ((buf, len) : Bytes.t * int) : string = Bytes.sub_string buf 0 len

(* Run one input (a seed or a calibration run) as a cohort of one. *)
let execute (st : state) (input : string) : Vm.Interp.outcome =
  let res = ref None in
  cohort st ~n:1
    ~gen:(fun _ ->
      pre_exec st;
      Vm.Interp.view input)
    ~sink:(fun _ out -> res := Some out);
  let out = Option.get !res in
  post_exec st out;
  out

(* Both substitution directions per captured pair, in capture order. *)
let current_cmps (st : state) : Mutator.cmp_pair array =
  let b = st.cmp_buf in
  Array.init (2 * b.n_cmps) (fun k ->
      let i = k lsr 1 in
      if k land 1 = 0 then
        { Mutator.observed = b.ops_a.(i); wanted = b.ops_b.(i) }
      else { Mutator.observed = b.ops_b.(i); wanted = b.ops_a.(i) })

(* A campaign-local exec anchor on the observer's exec clock, which runs
   the campaign's plus the observer's count when the campaign started. *)
let obs_exec (st : state) (at_exec : int) : int =
  st.obs.counters.execs - st.execs + at_exec

(* Settle the live trace into [map] (the virgin or the crash-virgin map)
   through the note log, growing it to the largest journal seen; returns
   how many indices the merge changed (0: nothing new). The only merge
   of a live trace, at most one per run. A lane keeps every note until
   its work item is undone ({!Shard}); a state that applies its
   decisions at once reuses the log from its start. *)
let merge_noted (st : state) (map : Pathcov.Coverage_map.t) : int =
  let tr = st.feedback.trace in
  if not st.lane then st.nnote <- 0;
  let room = st.nnote + Pathcov.Coverage_map.count_set tr in
  if room > Array.length st.note then begin
    let cap = max 256 (2 * room) in
    let bigger = Array.make cap 0 and vals = Bytes.create cap in
    Array.blit st.note 0 bigger 0 st.nnote;
    Bytes.blit st.note_vals 0 vals 0 st.nnote;
    st.note <- bigger;
    st.note_vals <- vals
  end;
  let n =
    Pathcov.Coverage_map.noted_count
      (Pathcov.Coverage_map.settle ~virgin:map tr st.note st.note_vals
         ~at:st.nnote)
  in
  st.nnote <- st.nnote + n;
  n

(* The [n] indices the last merge noted, packed, and their classified
   bytes: a capture's delta and values. *)
let last_delta (st : state) (n : int) : Pathcov.Index_set.t * string =
  ( Pathcov.Index_set.of_sub st.note ~pos:(st.nnote - n) ~len:n,
    Bytes.sub_string st.note_vals (st.nnote - n) n )

(* Crash/hang bookkeeping shared by every execution site — seed import,
   queue-entry calibration and mutated candidates — of the run of [v]
   just finished, so no outcome can be dropped on the floor: triaged at
   once, or captured by a lane. Counter bumps and Crash/Hang events ride
   on the triage record (see Triage). *)
let fault (st : state) (v : Bytes.t * int) (out : Vm.Interp.outcome) : unit =
  match out.status with
  | Vm.Interp.Crashed crash when st.lane ->
      let delta, dvals = last_delta st (merge_noted st st.crash_virgin) in
      st.captures <-
        Crashed { crash; input = input_of v; delta; dvals; at_exec = st.execs }
        :: st.captures
  | Vm.Interp.Hung when st.lane ->
      st.captures <- Hung { at_exec = st.execs } :: st.captures
  | Vm.Interp.Crashed crash ->
      trace_begin st Obs.Trace.Triage;
      let coverage_novel = merge_noted st st.crash_virgin > 0 in
      Triage.record_crash st.triage ~crash ~input:(input_of v)
        ~at_exec:st.execs ~coverage_novel;
      trace_end st
  | Vm.Interp.Hung ->
      trace_begin st Obs.Trace.Triage;
      Triage.record_hang ~at_exec:st.execs st.triage;
      trace_end st
  | Vm.Interp.Finished _ -> ()

(* Queue-capacity bookkeeping for one finished exec evaluated at
   [at_exec]. The capacity check precedes the virgin merge: a full queue
   must not mark coverage as seen without retaining an input reaching
   it, or that coverage becomes unreachable for the whole run. *)
let queue_full (st : state) ~(at_exec : int) : bool =
  Corpus.size st.corpus >= st.cfg.max_queue
  && begin
       (* drop counted per evaluated exec; the event fires once per
          campaign (branching on a counter never feeds back into fuzzing
          decisions) *)
       let c = st.obs.counters in
       c.queue_full_drops <- c.queue_full_drops + 1;
       if c.queue_full_drops = 1 then
         Obs.Observer.event st.obs
           (Obs.Event.Queue_full
              { at_exec = obs_exec st at_exec; queue = Corpus.size st.corpus });
       true
     end

(* Append an input that passed the novelty verdict to the queue, found
   at campaign exec [at_exec]. The entry claims its top-rated slots from
   the live trace's journal, or with [claim] only those slots (a
   superset of the ones it can win: see Corpus.dearer_slots). *)
let admit ?claim (st : state) ~(data : string) ~(exec_blocks : int)
    ~(depth : int) ~(at_exec : int) : unit =
  let e = Corpus.append st.corpus ~data ~exec_blocks ~depth ~found_at:at_exec in
  (match claim with
  | None ->
      let tr = st.feedback.trace in
      Corpus.claim_slots st.corpus e
        (Pathcov.Coverage_map.journal tr)
        ~len:(Pathcov.Coverage_map.count_set tr)
  | Some slots -> Corpus.claim_top_rated_at st.corpus e slots);
  let c = st.obs.counters in
  c.retained <- c.retained + 1;
  Obs.Observer.event st.obs
    (Obs.Event.Retain
       { at_exec = obs_exec st at_exec; id = e.id; len = String.length data;
         depth })

let retain (st : state) ~depth (out : Vm.Interp.outcome) (data : string) : unit
    =
  admit st ~data ~exec_blocks:(max 1 out.blocks_executed) ~depth
    ~at_exec:st.execs

(* A lane's capture of the novel run of [v] whose merge noted [n]
   indices: the delta, and the claim candidates, taken from the trace's
   journal, against the coordinator's epoch-start top-rated table. *)
let capture_retained (st : state) ~depth ~(n : int) (v : Bytes.t * int)
    (out : Vm.Interp.outcome) : unit =
  let delta, dvals = last_delta st n in
  let tr = st.feedback.trace in
  let exec_blocks = max 1 out.blocks_executed in
  let len = Pathcov.Coverage_map.count_set tr in
  if Array.length st.cand < len then st.cand <- Array.make (2 * len) 0;
  let ncand =
    Corpus.dearer_slots st.corpus
      ~fav:(Corpus.fav_of ~exec_blocks ~len:(snd v))
      (Pathcov.Coverage_map.journal tr) ~len ~into:st.cand
  in
  st.captures <-
    Retained
      {
        data = input_of v;
        delta;
        dvals;
        claim = Pathcov.Index_set.of_sub st.cand ~pos:0 ~len:ncand;
        exec_blocks;
        depth;
        at_exec = st.execs;
      }
    :: st.captures

(* The decision procedure, over the outcome of a run of the candidate
   view [v]: triage or retain on coverage novelty at once, checking the
   queue cap before the merge, or, on a lane, capture. The candidate's
   string is materialised only when triage or retention needs one — the
   common (boring) candidate allocates nothing beyond the VM's own
   requests. *)
let decide (st : state) ~depth (v : Bytes.t * int) (out : Vm.Interp.outcome) :
    unit =
  match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung -> fault st v out
  | Vm.Interp.Finished _ when st.lane ->
      let n = merge_noted st st.virgin in
      if n > 0 then capture_retained st ~depth ~n v out
  | Vm.Interp.Finished _ ->
      if
        (not (queue_full st ~at_exec:st.execs))
        && merge_noted st st.virgin > 0
      then retain st ~depth out (input_of v)

(* Evaluate a cohort of [n] candidates end to end: [gen k] builds
   candidate [k] as a view valid until the next [gen]; each runs, is
   accounted, and goes through the decision procedure. *)
let evaluate (st : state) ~depth ~(n : int) ~(gen : int -> Bytes.t * int) :
    unit =
  let cur = ref (Bytes.empty, 0) in
  cohort st ~n
    ~gen:(fun k ->
      let v = gen k in
      pre_exec st;
      cur := v;
      v)
    ~sink:(fun _ out ->
      post_exec st out;
      decide st ~depth !cur out)

(* Evaluate one candidate input end to end: execute, triage crashes and
   hangs, retain on coverage novelty. *)
let process (st : state) ~depth (input : string) : unit =
  evaluate st ~depth ~n:1 ~gen:(fun _ -> Vm.Interp.view input)

(* Seeds are always retained (afl imports the full seed directory). *)
let add_seed (st : state) (input : string) : unit =
  let out = execute st input in
  match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung ->
      fault st (Vm.Interp.view input) out
  | Vm.Interp.Finished _ ->
      ignore (merge_noted st st.virgin);
      let c = st.obs.counters in
      c.seeds_imported <- c.seeds_imported + 1;
      Obs.Observer.event st.obs
        (Obs.Event.Seed_import { at_exec = c.execs; len = String.length input });
      retain st ~depth:0 out input

(* Import the seed directory; never start with an empty queue. *)
let add_seeds (st : state) (seeds : string list) : unit =
  List.iter (add_seed st) seeds;
  if Corpus.size st.corpus = 0 then add_seed st "A";
  if Corpus.size st.corpus = 0 then
    (* even "A" crashes; fall back to an entry with no coverage *)
    ignore
      (Corpus.append st.corpus ~data:"A" ~exec_blocks:1 ~depth:0
         ~found_at:st.execs)

(** One calibration run of a queue entry, capturing cmplog operand pairs
    for input-to-state mutation (the colorization stage of AFL++). The
    outcome flows through the same triage/novelty path as [process]: a
    crash or hang here — possible for the synthetic fallback entry, whose
    data never executed cleanly — must be recorded, not discarded. *)
let calibrate (st : state) (e : Corpus.entry) : Mutator.cmp_pair array =
  trace_begin st Obs.Trace.Calibrate;
  let out = capturing st.tracer st.cmp_buf (fun () -> execute st e.data) in
  (match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung ->
      fault st (Vm.Interp.view e.data) out
  | Vm.Interp.Finished _ -> ignore (merge_noted st st.virgin));
  let c = st.obs.counters in
  c.calibrations <- c.calibrations + 1;
  Obs.Observer.event st.obs
    (Obs.Event.Calibration
       { at_exec = c.execs; entry = e.id; cmps = st.cmp_buf.n_cmps });
  trace_end st;
  current_cmps st

(** Replay one lane capture against a state that applies its decisions
    (a sharded campaign's coordinator, at the merge barrier): a crash
    delta is triaged against the crash-virgin map, a hang counted, and
    a retention checked against the queue cap, its delta re-tested
    against the virgin map, and admitted with its claim candidates if
    still novel — or dropped as a duplicate of an earlier capture. *)
let replay (st : state) (cap : capture) : [ `Admitted | `Duplicate | `Other ] =
  match cap with
  | Crashed c ->
      let coverage_novel =
        Pathcov.Coverage_map.merge_sparse_into ~virgin:st.crash_virgin
          ~idxs:c.delta ~vals:c.dvals
        <> Pathcov.Coverage_map.Nothing
      in
      Triage.record_crash st.triage ~crash:c.crash ~input:c.input
        ~at_exec:c.at_exec ~coverage_novel;
      `Other
  | Hung h ->
      Triage.record_hang ~at_exec:h.at_exec st.triage;
      `Other
  | Retained r ->
      if queue_full st ~at_exec:r.at_exec then `Other
      else if
        Pathcov.Coverage_map.merge_sparse_into ~virgin:st.virgin ~idxs:r.delta
          ~vals:r.dvals
        <> Pathcov.Coverage_map.Nothing
      then begin
        admit st ~claim:r.claim ~data:r.data
          ~exec_blocks:r.exec_blocks ~depth:r.depth ~at_exec:r.at_exec;
        `Admitted
      end
      else `Duplicate

(** afl-fuzz's skip probabilities in fuzz_one, over an explicit RNG and
    queue state — the sequential scheduler draws from the campaign
    stream, the sharded planner from its dedicated planning stream. *)
let entry_skip (rng : Rng.t) ~(pending_favored : int) (e : Corpus.entry) : bool
    =
  if e.favored then false
  else if pending_favored > 0 then Rng.chance rng ~num:99 ~den:100
  else if e.times_fuzzed > 0 then Rng.chance rng ~num:95 ~den:100
  else Rng.chance rng ~num:75 ~den:100

(** Havoc energy for one queue entry (a simplified perf_score) with
    [left] executions of the budget left: a pure function of the entry
    and the budget, cut to what is left after the entry's calibration
    run under cmplog. The sequential loop and the shard planner share
    it. *)
let entry_energy (cfg : config) ~(left : int) (e : Corpus.entry) : int =
  let base = 48 in
  let base = if e.favored then base * 2 else base in
  let base = if e.times_fuzzed = 0 then base * 2 else base in
  let base = if e.depth > 4 then base * 5 / 4 else base in
  min (min base (max 8 (cfg.budget / 64)))
    (max 0 (left - if cfg.cmplog then 1 else 0))

type peers = Live of Corpus.t | Frozen of Corpus.view

(* O(1) random splice peer. The RNG draw is mapped to the same entry the
   List.nth-over-newest-first walk used to select (draw [k] is the [k]-th
   newest), so campaign trajectories are unchanged. *)
let random_other (rng : Rng.t) (peers : peers) (e : Corpus.entry) :
    string option =
  let n =
    match peers with Live q -> Corpus.size q | Frozen v -> Corpus.view_size v
  in
  if n <= 1 then None
  else
    let k = n - 1 - Rng.int rng n in
    let pick =
      match peers with Live q -> Corpus.get q k | Frozen v -> Corpus.view_get v k
    in
    if pick.id = e.id then None else Some pick.data

(* One havoc-mutated candidate drawn from [rng] into the scratch,
   counted and (when the observer carries a clock) timed. *)
let mutate (st : state) ~(rng : Rng.t) ~cmps ?splice_with (data : string) :
    unit =
  let c = st.obs.counters in
  c.havocs <- c.havocs + 1;
  (match splice_with with Some _ -> c.splices <- c.splices + 1 | None -> ());
  if Array.length cmps > 0 then c.i2s_cands <- c.i2s_cands + 1;
  trace_begin st Obs.Trace.Mutate;
  (match st.obs.clock with
  | None -> Mutator.havoc_in_place st.scratch ~cmps ?splice_with rng data
  | Some now ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      Mutator.havoc_in_place st.scratch ~cmps ?splice_with rng data;
      c.mut_s <- c.mut_s +. (now () -. t0);
      let mw = st.mut_words in
      mw.(0) <- mw.(0) +. (Gc.minor_words () -. w0));
  trace_end st

(** The queue-entry stage both loops run: the entry's calibration run
    under cmplog, then a batched cohort of [energy] havoc candidates
    through one tracer call, each candidate's splice draw from [peers]
    ahead of its mutation draws from [rng], and each outcome through the
    decision procedure. The note log and a lane's captures start empty. *)
let fuzz_entry (st : state) ~(rng : Rng.t) ~(peers : peers) ~(energy : int)
    (e : Corpus.entry) : unit =
  st.nnote <- 0;
  st.captures <- [];
  let cmps = if st.cfg.cmplog then calibrate st e else [||] in
  if energy > 0 then begin
    Obs.Metrics.observe st.h_batch energy;
    trace_begin st Obs.Trace.Exec;
    evaluate st ~depth:(e.depth + 1) ~n:energy ~gen:(fun _ ->
        mutate st ~rng ~cmps ?splice_with:(random_other rng peers e) e.data;
        (st.scratch.buf, st.scratch.len));
    trace_end ~arg:energy st
  end

(** Why [cfg] cannot run, if it cannot. An entry costs at most [fuel]
    blocks times its length plus 16, and mutated inputs are at most
    {!Mutator.max_len} bytes, so a fuel past
    [Corpus.max_cost / (Mutator.max_len + 16)] (66,847,736) could cost
    more than the top-rated table stores; a queue cap must leave the
    table's positions room for the seeds, which bypass the cap. *)
let config_refusal (cfg : config) : string option =
  let max_fuel = Corpus.max_cost / (Mutator.max_len + 16) in
  if cfg.fuel > max_fuel then
    Some
      (Printf.sprintf
         "fuel %d is above %d: an entry's cost (blocks x (length + 16)) \
          must fit the top-rated table"
         cfg.fuel max_fuel)
  else if cfg.max_queue > Corpus.max_entries / 2 then
    Some
      (Printf.sprintf "the queue cap %d is above %d" cfg.max_queue
         (Corpus.max_entries / 2))
  else None

(** Build a fresh campaign state, or with [lane = (l, co)] lane [l] of
    the sharded campaign coordinated by [co]: a private artifact (its
    rebindable state is single-threaded, so never the per-domain cache),
    trace track [l + 1] of [co]'s trace, private counters and metrics
    behind the null sink (events stay coordinator-only), and [co]'s
    queue, read for claim candidates. *)
let make_state ?plans ?obs ?lane ?(config = default_config)
    (prog : Minic.Ir.program) : state =
  if config.selective then
    invalid_arg "Campaign: selective tracing was removed";
  Option.iter (fun m -> invalid_arg ("Campaign: " ^ m)) (config_refusal config);
  let track = match lane with Some (l, _) -> l + 1 | None -> 0 in
  let obs =
    match lane with
    | None -> ( match obs with Some o -> o | None -> Obs.Observer.null ())
    | Some (_, co) ->
        let trace =
          match co.obs.trace with
          | Some tr when track < Obs.Trace.n_tracks tr -> Some tr
          | _ -> None
        in
        Obs.Observer.create ?clock:co.obs.clock ?trace ()
  in
  let prepared = Vm.Interp.prepare_cached prog in
  let cmp_buf = make_cmp_buf () in
  (match obs.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track Obs.Trace.Compile
  | None -> ());
  let tracer =
    Tracer.make ?plans ?clock:obs.clock ~shared:(Option.is_none lane)
      ~engine:config.engine ~selective:false ~cmplog:config.cmplog
      ~mode:config.mode prepared
  in
  (match obs.trace with
  | Some tr -> Obs.Trace.end_span tr ~track ()
  | None -> ());
  (match Tracer.emit_fallback tracer with
  | Some reason -> Obs.Observer.event obs (Obs.Event.Emit_fallback { reason })
  | None -> ());
  let feedback, ctx =
    Tracer.attach ~size_log2:config.map_size_log2 ~h_cmp:(record_cmp cmp_buf)
      tracer
  in
  {
    prepared;
    ctx;
    tracer;
    cfg = config;
    feedback;
    virgin = Pathcov.Coverage_map.create_virgin ~size_log2:config.map_size_log2 ();
    crash_virgin =
      Pathcov.Coverage_map.create_virgin ~size_log2:config.map_size_log2 ();
    corpus =
      (match lane with
      | None -> Corpus.create ~map_size_log2:config.map_size_log2 ()
      | Some (_, co) -> co.corpus);
    triage = Triage.create ~obs ();
    rng = Rng.create config.rng_seed;
    lane = Option.is_some lane;
    note = [||];
    note_vals = Bytes.empty;
    nnote = 0;
    cand = [||];
    captures = [];
    execs = 0;
    sample_every = max 1 (config.budget / 64);
    cmp_buf;
    scratch = Mutator.create_scratch ();
    obs;
    mut_words = [| 0. |];
    h_batch = Obs.Metrics.hist obs.metrics "exec.batch_n";
    h_dirty = Obs.Metrics.hist obs.metrics "vm.dirty_reset_w";
    track;
  }

(** The identity a snapshot records and [--resume] checks: every config
    field that shapes the trajectory (not the engine, so snapshots resume
    under any), the names, and the merge-barrier interval (0: sequential). *)
let checkpoint_id (cfg : config) ~(subject : string) ~(fuzzer : string)
    ~(sync_interval : int) : Checkpoint.config_id =
  {
    Checkpoint.subject = subject;
    fuzzer;
    mode = Pathcov.Feedback.mode_name cfg.mode;
    cmplog = cfg.cmplog;
    rng_seed = cfg.rng_seed;
    budget = cfg.budget;
    fuel = cfg.fuel;
    max_depth = cfg.max_depth;
    map_size_log2 = cfg.map_size_log2;
    max_queue = cfg.max_queue;
    sync_interval;
  }

(* The snapshot of a campaign between queue entries (sequential loop)
   or at a merge barrier (sharded, [sync_interval > 0]). [planner] fills
   the cursor slots of [progress]: the sequential loop's queue cursor,
   or the sharded planner's. Left zero, the snapshot sits at a cycle
   boundary. *)
let capture_checkpoint ~sync_interval ~planner (st : state)
    ~(subject : string) ~(fuzzer : string) : Checkpoint.t =
  settle_walls st;
  let c = st.obs.counters in
  Checkpoint.capture
    ~id:(checkpoint_id st.cfg ~subject ~fuzzer ~sync_interval)
    ~progress:
      (planner
         {
           Checkpoint.execs = st.execs;
           blocks = c.blocks;
           havocs = c.havocs;
           rng_state = Rng.state st.rng;
           items_total = 0;
           cycle_len = 0;
           next_qi = 0;
           epochs = 0;
           dup_dropped = 0;
         })
    ~virgin:st.virgin ~crash_virgin:st.crash_virgin ~corpus:st.corpus
    ~triage:st.triage ~counters:c
    ~snapshots:(Obs.Observer.snapshots st.obs)

(** The snapshot schedule of one loop over [st], as the check the loop
    calls between queue entries or merge barriers: it writes a snapshot
    through [sink] when the exec clock has crossed the next multiple of
    [sink.every] executions, mid-budget only (resuming the final state
    would be a no-op). A pure function of the exec clock
    ({!Checkpoint.next_mark}), so straight and resumed runs write the
    same remaining snapshots at the same points. *)
let checkpoint_schedule ?(sync_interval = 0) ?(planner = Fun.id)
    (sink : Checkpoint.sink option) (st : state) : unit -> unit =
  let next_mark =
    ref
      (match sink with
      | Some sk -> Checkpoint.next_mark ~every:sk.every ~execs:st.execs
      | None -> max_int)
  in
  fun () ->
    match sink with
    | Some sk when st.execs >= !next_mark && st.execs < st.cfg.budget ->
        trace_begin st Obs.Trace.Checkpoint;
        sk.save
          (capture_checkpoint st ~subject:sk.subject ~fuzzer:sk.fuzzer
             ~sync_interval ~planner);
        trace_end st;
        next_mark := Checkpoint.next_mark ~every:sk.every ~execs:st.execs
    | _ -> ()

(** Load a snapshot into freshly built campaign state (snapshot rows are
    preloaded without sink emission). Config validation is the caller's
    job; only the map size — which would make the blit fault — is
    re-checked here. *)
let restore_checkpoint (st : state) (ck : Checkpoint.t) : unit =
  if ck.Checkpoint.id.map_size_log2 <> st.cfg.map_size_log2 then
    invalid_arg "Campaign.restore_checkpoint: map size disagrees with config";
  Checkpoint.restore_corpus_into ck st.corpus;
  Checkpoint.restore_triage_into ck st.triage;
  Pathcov.Coverage_map.restore_raw st.virgin ck.Checkpoint.virgin;
  Pathcov.Coverage_map.restore_raw st.crash_virgin ck.Checkpoint.crash_virgin;
  Rng.set_state st.rng ck.Checkpoint.progress.rng_state;
  st.execs <- ck.Checkpoint.progress.execs;
  Obs.Counters.add_into ~into:st.obs.counters ck.Checkpoint.counters;
  Obs.Observer.preload_snapshots st.obs (Array.to_list ck.Checkpoint.snapshots)

(* Start a queue cycle at campaign exec [at_exec]: recompute the favored
   set and announce it. Returns the cycle's length — entries are
   append-only, so the queue size at the boundary bounds the pass and
   entries found mid-cycle wait for the next one. *)
let start_cycle (st : state) ~(at_exec : int) : int =
  Corpus.recompute_favored st.corpus;
  let c = st.obs.counters in
  c.cycles <- c.cycles + 1;
  let fav = ref 0 in
  Corpus.iter (fun e -> if e.favored then incr fav) st.corpus;
  c.favored <- !fav;
  c.pending_favored <- st.corpus.pending_favored;
  Obs.Observer.event st.obs
    (Obs.Event.Favored_cycle
       {
         at_exec = obs_exec st at_exec;
         queue = Corpus.size st.corpus;
         favored = !fav;
         pending = st.corpus.pending_favored;
       });
  Corpus.size st.corpus

(* Drain the campaign walls and the engine-level tallies of [tracers]
   (the campaign's, plus a sharded campaign's lanes') into the
   observer's metrics registry. Runs once per campaign at budget
   exhaustion — a deterministic point — so registration order (and
   hence every dump) is reproducible. *)
let harvest_metrics (st : state) (tracers : Tracer.t list) : unit =
  let m = st.obs.metrics in
  let c = st.obs.counters in
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.vm_s") c.vm_s;
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.mut_s") c.mut_s;
  Tracer.harvest_metrics m tracers

(* The observer's counters and snapshot count when a run starts: the
   run reports its own deltas against them, since a shared observer
   (culling rounds, the opportunistic driver, benches) accumulates
   across runs. *)
type baseline = { c0 : Obs.Counters.t; snap0 : int }

let baseline (st : state) : baseline =
  let c0 = Obs.Counters.create () in
  Obs.Counters.add_into ~into:c0 st.obs.counters;
  { c0; snap0 = st.obs.n_snapshots }

(** End a run at budget exhaustion: harvest the engine metrics of
    [tracers], release the campaign's tracer (a per-domain cached
    artifact outlives the campaign; unbinding it stops it keeping this
    campaign's trace map and cmplog buffer alive) and report the run's
    deltas against [b]. *)
let finish (st : state) (b : baseline) ~(tracers : Tracer.t list) : result =
  harvest_metrics st tracers;
  Tracer.release st.tracer;
  let c = st.obs.counters in
  let snapshots = Obs.Observer.snapshots_from st.obs ~from:b.snap0 in
  {
    config = st.cfg;
    corpus = st.corpus;
    triage = st.triage;
    execs = st.execs;
    (* derived view over this run's snapshot rows, in the historical
       (campaign-local execs, queue size) shape *)
    queue_series =
      List.map
        (fun (r : Obs.Snapshot.row) -> (r.at_exec - b.c0.execs, r.queue))
        snapshots;
    sum_exec_blocks = c.blocks - b.c0.blocks;
    havocs = c.havocs - b.c0.havocs;
    snapshots;
    virgin = st.virgin;
    crash_virgin = st.crash_virgin;
    vm_s = c.vm_s -. b.c0.vm_s;
    mut_s = c.mut_s -. b.c0.mut_s;
    mut_minor_words = c.mut_minor_words -. b.c0.mut_minor_words;
  }

(** {!run}'s loop over a state built by {!make_state}; the state's
    tracer is released on return. *)
let run_state ?(checkpoint : Checkpoint.sink option)
    ?(resume : Checkpoint.t option) (st : state) ~(seeds : string list) :
    result =
  let config = st.cfg in
  let base = baseline st in
  (* The queue cursor: the cycle's length and the next entry. A snapshot
     taken inside a cycle records it ([cycle_len > 0]); the resumed run
     finishes that cycle first. *)
  let len = ref 0 and qi = ref 0 in
  (match resume with
  | Some ck ->
      restore_checkpoint st ck;
      len := ck.Checkpoint.progress.cycle_len;
      qi := ck.Checkpoint.progress.next_qi
  | None -> add_seeds st seeds);
  let at_mark =
    checkpoint_schedule checkpoint st ~planner:(fun p ->
        { p with Checkpoint.cycle_len = !len; next_qi = !qi })
  in
  let peers = Live st.corpus in
  while st.execs < config.budget do
    if !qi >= !len then begin
      len := 0;
      qi := 0;
      at_mark ();
      len := start_cycle st ~at_exec:st.execs
    end;
    at_mark ();
    let e = Corpus.get st.corpus !qi in
    if not (entry_skip st.rng ~pending_favored:st.corpus.pending_favored e)
    then begin
      fuzz_entry st ~rng:st.rng ~peers
        ~energy:(entry_energy config ~left:(config.budget - st.execs) e)
        e;
      e.times_fuzzed <- e.times_fuzzed + 1;
      if e.favored && e.times_fuzzed = 1 then
        st.corpus.pending_favored <- max 0 (st.corpus.pending_favored - 1)
    end;
    incr qi
  done;
  (* final snapshot row: budget exhausted (kept even when it duplicates a
     cadence row, matching the historical queue_series tail sample) *)
  take_snapshot st;
  finish st base ~tracers:[ st.tracer ]

let run ?plans ?obs ?(config = default_config) ?checkpoint ?resume
    (prog : Minic.Ir.program) ~(seeds : string list) : result =
  run_state ?checkpoint ?resume (make_state ?plans ?obs ~config prog) ~seeds
