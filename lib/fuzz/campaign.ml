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
    unobserved campaigns run byte-identical trajectories (test-enforced). *)

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

    The probe records only while [capture] is set, and only
    {!capturing} sets it, around a calibration run: no other run's pairs
    are ever read (AFL++ likewise captures operands in a separate
    per-entry cmplog run), so every other comparison costs one flag
    test. {!capturing} also arms the tracer: a native unit calls the
    probe only inside the window, so there a comparison outside it costs
    one inline load and branch instead of a closure call. *)
type cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
  mutable capture : bool;
}

let cmp_capacity = 64

let make_cmp_buf () =
  {
    ops_a = Array.make cmp_capacity 0;
    ops_b = Array.make cmp_capacity 0;
    n_cmps = 0;
    capture = false;
  }

(* Is the pair among slots [i, n_cmps)? Top-level, so a probe hit
   allocates no closure. *)
let rec cmp_seen (b : cmp_buf) a bv i =
  i < b.n_cmps
  && ((Array.unsafe_get b.ops_a i = a && Array.unsafe_get b.ops_b i = bv)
     || cmp_seen b a bv (i + 1))

let capturing (tracer : Tracer.t) (b : cmp_buf) (run : unit -> 'a) : 'a =
  b.n_cmps <- 0;
  b.capture <- true;
  Tracer.arm_cmp tracer true;
  let r = run () in
  Tracer.arm_cmp tracer false;
  b.capture <- false;
  r

type state = {
  prepared : Vm.Interp.prepared;
  ctx : Vm.Interp.exec_ctx;  (** pooled execution context, reused per exec *)
  tracer : Tracer.t;  (** engine dispatch *)
  cfg : config;
  feedback : Pathcov.Feedback.t;
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  corpus : Corpus.t;
  triage : Triage.t;
  rng : Rng.t;
  mutable execs : int;  (** this campaign's executions (budget clock) *)
  mutable blocks : int;
  mutable havocs : int;
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
}

(* Span brackets on the campaign's track (track 0): plain begin/end on
   the preallocated ring when the observer carries a trace, nothing
   otherwise. Observation-only — never consults RNG or feedback state. *)
let trace_begin (st : state) (k : Obs.Trace.kind) : unit =
  match st.obs.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:0 k
  | None -> ()

let trace_end ?(arg = 0) (st : state) : unit =
  match st.obs.trace with
  | Some tr -> Obs.Trace.end_span ~arg tr ~track:0 ()
  | None -> ()

(* The instrumentation hook set installed in the context at state-creation
   time. The cmplog probe exists only when the config asks for it, and
   records only while a calibration run has the buffer armed. *)
let make_hooks (cfg : config) (fb : Pathcov.Feedback.t) (cmp_buf : cmp_buf) :
    Vm.Interp.hooks =
  {
    Vm.Interp.h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
    h_cmp =
      (if cfg.cmplog then (fun a b ->
         if
           cmp_buf.capture && a <> b
           && cmp_buf.n_cmps < cmp_capacity
           && not (cmp_seen cmp_buf a b 0)
         then begin
           Array.unsafe_set cmp_buf.ops_a cmp_buf.n_cmps a;
           Array.unsafe_set cmp_buf.ops_b cmp_buf.n_cmps b;
           cmp_buf.n_cmps <- cmp_buf.n_cmps + 1
         end)
       else fun _ _ -> ());
  }

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
   state and trace map (the cmplog buffer is cleared by {!capturing}
   instead), [post_exec] leaves the trace classified for novelty
   checks. *)
let pre_exec (st : state) : unit =
  st.feedback.reset ();
  Pathcov.Coverage_map.clear st.feedback.trace

let post_exec (st : state) (out : Vm.Interp.outcome) : unit =
  st.execs <- st.execs + 1;
  st.blocks <- st.blocks + out.blocks_executed;
  let c = st.obs.counters in
  c.execs <- c.execs + 1;
  c.blocks <- c.blocks + out.blocks_executed;
  Obs.Metrics.observe st.h_dirty st.ctx.last_reset_width;
  Pathcov.Coverage_map.classify st.feedback.trace;
  if st.execs mod st.sample_every = 0 then take_snapshot st

(* The campaign's one cohort entry: [n] candidates through the tracer.
   The tracer carries the observer's clock and accumulates each run's VM
   wall until {!settle_walls}. *)
let cohort (st : state) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> Vm.Interp.outcome -> unit) : unit =
  Tracer.run_full_batch st.tracer st.ctx ~fuel:st.cfg.fuel
    ~max_depth:st.cfg.max_depth ~n ~gen ~sink

(* Zero-copy view of a string input: the VM never writes its input. *)
let view (s : string) : Bytes.t * int =
  (Bytes.unsafe_of_string s, String.length s)

let input_of ((buf, len) : Bytes.t * int) : string = Bytes.sub_string buf 0 len

(* Run one input (a seed or a calibration run) as a cohort of one. *)
let execute (st : state) (input : string) : Vm.Interp.outcome =
  let res = ref None in
  cohort st ~n:1
    ~gen:(fun _ ->
      pre_exec st;
      view input)
    ~sink:(fun _ out -> res := Some out);
  let out = Option.get !res in
  post_exec st out;
  out

(** Both substitution directions per captured pair, in capture order —
    shared by the sequential calibration path and sharded work items. *)
let cmps_of_buf (b : cmp_buf) : Mutator.cmp_pair array =
  Array.init (2 * b.n_cmps) (fun k ->
      let i = k lsr 1 in
      if k land 1 = 0 then
        { Mutator.observed = b.ops_a.(i); wanted = b.ops_b.(i) }
      else { Mutator.observed = b.ops_b.(i); wanted = b.ops_a.(i) })

let current_cmps (st : state) : Mutator.cmp_pair array = cmps_of_buf st.cmp_buf

(* Crash/hang bookkeeping shared by every execution site — seed import,
   queue-entry calibration and mutated candidates all triage the same way,
   so no outcome can be dropped on the floor. Counter bumps and Crash/Hang
   events ride on the triage record (see Triage). *)
let triage_outcome (st : state) (out : Vm.Interp.outcome) ~(input : string) : unit =
  match out.status with
  | Vm.Interp.Crashed crash ->
      trace_begin st Obs.Trace.Triage;
      let coverage_novel =
        Pathcov.Coverage_map.merge_into ~virgin:st.crash_virgin st.feedback.trace
        <> Pathcov.Coverage_map.Nothing
      in
      Triage.record_crash st.triage ~crash ~input ~at_exec:st.execs ~coverage_novel;
      trace_end st
  | Vm.Interp.Hung ->
      trace_begin st Obs.Trace.Triage;
      Triage.record_hang ~at_exec:st.execs st.triage;
      trace_end st
  | Vm.Interp.Finished _ -> ()

(* Queue-capacity bookkeeping for one evaluated finished exec. The
   capacity check precedes the virgin merge: a full queue must not mark
   coverage as seen without retaining an input reaching it, or that
   coverage becomes unreachable for the whole run. *)
let queue_full (st : state) : bool =
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
              { at_exec = c.execs; queue = Corpus.size st.corpus });
       true
     end

(* Coverage-novelty verdict for the execution just finished. *)
let novel (st : state) : bool =
  (not (queue_full st))
  && Pathcov.Coverage_map.merge_into ~virgin:st.virgin st.feedback.trace
     <> Pathcov.Coverage_map.Nothing

let retain (st : state) ~depth (out : Vm.Interp.outcome) (data : string) : unit
    =
  let indices = Pathcov.Coverage_map.sorted_set st.feedback.trace in
  let e =
    Corpus.add_set st.corpus ~data ~indices
      ~exec_blocks:(max 1 out.blocks_executed) ~depth ~found_at:st.execs
  in
  Corpus.claim_top_rated st.corpus e;
  let c = st.obs.counters in
  c.retained <- c.retained + 1;
  Obs.Observer.event st.obs
    (Obs.Event.Retain
       { at_exec = c.execs; id = e.id; len = String.length data; depth })

(* The decision procedure, over the outcome of a run of the candidate
   view [v] that already went through [post_exec]. The candidate's
   string is materialised only when triage or retention needs one — the
   common (boring) candidate allocates nothing beyond the VM's own
   requests. *)
let decide (st : state) ~depth (v : Bytes.t * int)
    (out : Vm.Interp.outcome) : unit =
  match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung ->
      triage_outcome st out ~input:(input_of v)
  | Vm.Interp.Finished _ -> if novel st then retain st ~depth out (input_of v)

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
  evaluate st ~depth ~n:1 ~gen:(fun _ -> view input)

(* Seeds are always retained (afl imports the full seed directory). *)
let add_seed (st : state) (input : string) : unit =
  let out = execute st input in
  match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung -> triage_outcome st out ~input
  | Vm.Interp.Finished _ ->
      ignore
        (Pathcov.Coverage_map.merge_into ~virgin:st.virgin st.feedback.trace);
      let c = st.obs.counters in
      c.seeds_imported <- c.seeds_imported + 1;
      Obs.Observer.event st.obs
        (Obs.Event.Seed_import { at_exec = c.execs; len = String.length input });
      retain st ~depth:0 out input

(** One calibration run of a queue entry, capturing cmplog operand pairs
    for input-to-state mutation (the colorization stage of AFL++). The
    outcome flows through the same triage/novelty path as [process]: a
    crash or hang here — possible for the synthetic fallback entry, whose
    data never executed cleanly — must be recorded, not discarded. *)
let calibrate (st : state) (e : Corpus.entry) : Mutator.cmp_pair array =
  trace_begin st Obs.Trace.Calibrate;
  let out = capturing st.tracer st.cmp_buf (fun () -> execute st e.data) in
  (match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung -> triage_outcome st out ~input:e.data
  | Vm.Interp.Finished _ ->
      ignore (Pathcov.Coverage_map.merge_into ~virgin:st.virgin st.feedback.trace));
  let c = st.obs.counters in
  c.calibrations <- c.calibrations + 1;
  Obs.Observer.event st.obs
    (Obs.Event.Calibration
       { at_exec = c.execs; entry = e.id; cmps = st.cmp_buf.n_cmps });
  trace_end st;
  current_cmps st

(** afl-fuzz's skip probabilities in fuzz_one, over an explicit RNG and
    queue state — the sequential scheduler draws from the campaign
    stream, the sharded planner from its dedicated planning stream. *)
let entry_skip (rng : Rng.t) ~(pending_favored : int) (e : Corpus.entry) : bool
    =
  if e.favored then false
  else if pending_favored > 0 then Rng.chance rng ~num:99 ~den:100
  else if e.times_fuzzed > 0 then Rng.chance rng ~num:95 ~den:100
  else Rng.chance rng ~num:75 ~den:100

let should_skip (st : state) (e : Corpus.entry) : bool =
  entry_skip st.rng ~pending_favored:st.corpus.pending_favored e

(** Havoc energy for one queue entry (a simplified perf_score) — a pure
    function of the entry and the budget, shared with the shard planner. *)
let entry_energy ~(budget : int) (e : Corpus.entry) : int =
  let base = 48 in
  let base = if e.favored then base * 2 else base in
  let base = if e.times_fuzzed = 0 then base * 2 else base in
  let base = if e.depth > 4 then base * 5 / 4 else base in
  min base (max 8 (budget / 64))

let energy (st : state) (e : Corpus.entry) : int =
  entry_energy ~budget:st.cfg.budget e

(* O(1) random splice peer. The RNG draw is mapped to the same entry the
   List.nth-over-newest-first walk used to select (draw [k] is the [k]-th
   newest), so campaign trajectories are unchanged. *)
let random_other (st : state) (e : Corpus.entry) : string option =
  let n = Corpus.size st.corpus in
  if n <= 1 then None
  else
    let pick = Corpus.get st.corpus (n - 1 - Rng.int st.rng n) in
    if pick.id = e.id then None else Some pick.data

(** Build a fresh campaign state. Exposed (alongside [execute],
    [add_seed], [process] and [calibrate]) so tests can drive individual
    pipeline stages directly. *)
let make_state ?plans ?obs ?(config = default_config) (prog : Minic.Ir.program)
    : state =
  if config.selective then
    invalid_arg "Campaign: selective tracing was removed";
  let obs = match obs with Some o -> o | None -> Obs.Observer.null () in
  let feedback =
    Pathcov.Feedback.make ~size_log2:config.map_size_log2 ?plans config.mode prog
  in
  let prepared = Vm.Interp.prepare_cached prog in
  let cmp_buf = make_cmp_buf () in
  let hooks = make_hooks config feedback cmp_buf in
  (match obs.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:0 Obs.Trace.Compile
  | None -> ());
  let tracer =
    Tracer.make ?plans ?clock:obs.clock ~engine:config.engine
      ~selective:false ~cmplog:config.cmplog ~mode:config.mode
      prepared
  in
  (match obs.trace with
  | Some tr -> Obs.Trace.end_span tr ~track:0 ()
  | None -> ());
  (match Tracer.emit_fallback tracer with
  | Some reason -> Obs.Observer.event obs (Obs.Event.Emit_fallback { reason })
  | None -> ());
  Tracer.bind tracer ~trace:feedback.trace ~h_cmp:hooks.Vm.Interp.h_cmp;
  {
    prepared;
    ctx = Vm.Interp.create_ctx ~hooks prepared;
    tracer;
    cfg = config;
    feedback;
    virgin = Pathcov.Coverage_map.create_virgin ~size_log2:config.map_size_log2 ();
    crash_virgin =
      Pathcov.Coverage_map.create_virgin ~size_log2:config.map_size_log2 ();
    corpus = Corpus.create ~map_size_log2:config.map_size_log2 ();
    triage = Triage.create ~obs ();
    rng = Rng.create config.rng_seed;
    execs = 0;
    blocks = 0;
    havocs = 0;
    sample_every = max 1 (config.budget / 64);
    cmp_buf;
    scratch = Mutator.create_scratch ();
    obs;
    mut_words = [| 0. |];
    h_batch = Obs.Metrics.hist obs.metrics "exec.batch_n";
    h_dirty = Obs.Metrics.hist obs.metrics "vm.dirty_reset_w";
  }

(** The snapshot of a sequential campaign at a cycle boundary, under the
    identity fields carried by the checkpoint sink ([sync_interval = 0]
    marks the sequential loop). The planner-cursor slots of [progress]
    are unused here — the whole cursor is the exec clock. *)
let capture_checkpoint (st : state) ~(subject : string) ~(fuzzer : string) :
    Checkpoint.t =
  settle_walls st;
  Checkpoint.capture
    ~id:
      {
        Checkpoint.subject;
        fuzzer;
        mode = Pathcov.Feedback.mode_name st.cfg.mode;
        cmplog = st.cfg.cmplog;
        rng_seed = st.cfg.rng_seed;
        budget = st.cfg.budget;
        fuel = st.cfg.fuel;
        max_depth = st.cfg.max_depth;
        map_size_log2 = st.cfg.map_size_log2;
        max_queue = st.cfg.max_queue;
        sync_interval = 0;
      }
    ~progress:
      {
        Checkpoint.execs = st.execs;
        blocks = st.blocks;
        havocs = st.havocs;
        rng_state = Rng.state st.rng;
        items_total = 0;
        cycle_len = 0;
        next_qi = 0;
        epochs = 0;
        dup_dropped = 0;
      }
    ~virgin:st.virgin ~crash_virgin:st.crash_virgin ~corpus:st.corpus
    ~triage:st.triage ~counters:st.obs.counters
    ~snapshots:(Obs.Observer.snapshots st.obs)

(** Load a cycle-boundary snapshot into freshly built campaign state:
    queue, triage, both virgin maps, the campaign RNG position, the
    exec/block/havoc clocks, the counter block and the recorded snapshot
    rows (preloaded without sink emission). The caller is responsible
    for config validation ({!Checkpoint.check_compat}); only the map
    size — which would make the blit fault — is re-checked here. *)
let restore_checkpoint (st : state) (ck : Checkpoint.t) : unit =
  if ck.Checkpoint.id.map_size_log2 <> st.cfg.map_size_log2 then
    invalid_arg "Campaign.restore_checkpoint: map size disagrees with config";
  Checkpoint.restore_corpus_into ck st.corpus;
  Checkpoint.restore_triage_into ck st.triage;
  Pathcov.Coverage_map.restore_raw st.virgin ck.Checkpoint.virgin;
  Pathcov.Coverage_map.restore_raw st.crash_virgin ck.Checkpoint.crash_virgin;
  Rng.set_state st.rng ck.Checkpoint.progress.rng_state;
  st.execs <- ck.Checkpoint.progress.execs;
  st.blocks <- ck.Checkpoint.progress.blocks;
  st.havocs <- ck.Checkpoint.progress.havocs;
  Obs.Counters.add_into ~into:st.obs.counters ck.Checkpoint.counters;
  Obs.Observer.preload_snapshots st.obs (Array.to_list ck.Checkpoint.snapshots)

(* One havoc-mutated candidate built into the scratch, counted and (when
   the observer carries a clock) timed. *)
let mutate (st : state) ~cmps ?splice_with (data : string) : unit =
  st.havocs <- st.havocs + 1;
  let c = st.obs.counters in
  c.havocs <- c.havocs + 1;
  (match splice_with with Some _ -> c.splices <- c.splices + 1 | None -> ());
  if Array.length cmps > 0 then c.i2s_cands <- c.i2s_cands + 1;
  trace_begin st Obs.Trace.Mutate;
  (match st.obs.clock with
  | None -> Mutator.havoc_in_place st.scratch ~cmps ?splice_with st.rng data
  | Some now ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      Mutator.havoc_in_place st.scratch ~cmps ?splice_with st.rng data;
      c.mut_s <- c.mut_s +. (now () -. t0);
      let mw = st.mut_words in
      mw.(0) <- mw.(0) +. (Gc.minor_words () -. w0));
  trace_end st

(* Drain the engine-level tallies into the observer's metrics registry.
   Runs once per campaign at budget exhaustion — a deterministic point —
   so registration order (and hence every dump) is reproducible. Gauges
   use set semantics: the sources are cumulative (per artifact / per
   domain), so the latest reading is the total. *)
let harvest_metrics (st : state) : unit =
  let m = st.obs.metrics in
  let c = st.obs.counters in
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.vm_s") c.vm_s;
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.mut_s") c.mut_s;
  Obs.Metrics.add_wall
    (Obs.Metrics.wall m "engine.compile_s")
    (Tracer.compile_seconds st.tracer);
  let hits, misses = Vm.Compile.cache_stats () in
  Obs.Metrics.set (Obs.Metrics.gauge m "engine.cache_hits") hits;
  Obs.Metrics.set (Obs.Metrics.gauge m "engine.cache_misses") misses;
  (* Emitter tallies only exist on native campaigns — process-global
     cumulative sources, so set semantics; gated to keep every other
     engine's metric dump (and the golden reports) untouched. *)
  (match st.cfg.engine with
  | Tracer.Native ->
      let e = Vm.Emit.stats () in
      Obs.Metrics.set_wall (Obs.Metrics.wall m "emit.compile_s") e.compile_s;
      Obs.Metrics.set (Obs.Metrics.gauge m "emit.cache_hits") e.cache_hits;
      Obs.Metrics.set (Obs.Metrics.gauge m "emit.cache_misses") e.cache_misses;
      Obs.Metrics.set (Obs.Metrics.gauge m "emit.fallbacks") e.fallbacks
  | Tracer.Interp | Tracer.Fused -> ());
  match Tracer.artifact_stats st.tracer with
  | None -> ()
  | Some (r, s) ->
      Obs.Metrics.set (Obs.Metrics.gauge m "engine.rollbacks")
        r.Vm.Compile.rollbacks;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "engine.careful_units")
        r.Vm.Compile.careful_units;
      Obs.Metrics.set (Obs.Metrics.gauge m "fusion.chains") s.Vm.Compile.chains;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.chain_blocks")
        s.Vm.Compile.chain_blocks;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.chain_max")
        s.Vm.Compile.chain_max;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.dup_instrs")
        s.Vm.Compile.dup_instrs

(** {!run}'s loop over a state built by {!make_state}; the state's
    tracer is released on return. *)
let run_state ?(checkpoint : Checkpoint.sink option)
    ?(resume : Checkpoint.t option) (st : state) ~(seeds : string list) :
    result =
  let config = st.cfg in
  let c = st.obs.counters in
  (* deltas vs the observer's state at entry: a shared observer (culling
     rounds, the opportunistic driver, benches) accumulates globally
     while each run reports its own share *)
  let exec_base = c.execs in
  let snap_base = st.obs.n_snapshots in
  let vm_s0 = c.vm_s and mut_s0 = c.mut_s in
  let mut_minor_words0 = c.mut_minor_words in
  (match resume with
  | Some ck -> restore_checkpoint st ck
  | None ->
      List.iter (add_seed st) seeds;
      (* Never start with an empty queue: synthesise a minimal seed. *)
      if Corpus.size st.corpus = 0 then add_seed st "A";
      if Corpus.size st.corpus = 0 then
        (* even "A" crashes; fall back to an entry with no coverage *)
        ignore
          (Corpus.add st.corpus ~data:"A" ~indices:[||] ~exec_blocks:1 ~depth:0
             ~found_at:st.execs));
  (* The snapshot schedule is a pure function of the exec clock
     (Checkpoint.next_mark), so straight and resumed runs write the same
     remaining snapshots at the same boundaries. *)
  let next_mark = ref max_int in
  (match checkpoint with
  | Some sk -> next_mark := Checkpoint.next_mark ~every:sk.every ~execs:st.execs
  | None -> ());
  while st.execs < config.budget do
    (match checkpoint with
    | Some sk when st.execs >= !next_mark ->
        trace_begin st Obs.Trace.Checkpoint;
        sk.save (capture_checkpoint st ~subject:sk.subject ~fuzzer:sk.fuzzer);
        trace_end st;
        next_mark := Checkpoint.next_mark ~every:sk.every ~execs:st.execs
    | _ -> ());
    Corpus.recompute_favored st.corpus;
    c.cycles <- c.cycles + 1;
    let fav = ref 0 in
    Corpus.iter (fun e -> if e.favored then incr fav) st.corpus;
    c.favored <- !fav;
    c.pending_favored <- st.corpus.pending_favored;
    Obs.Observer.event st.obs
      (Obs.Event.Favored_cycle
         {
           at_exec = c.execs;
           queue = Corpus.size st.corpus;
           favored = !fav;
           pending = st.corpus.pending_favored;
         });
    (* index-preserving snapshot: entries are append-only, so the queue
       length bounds this cycle's pass and entries found mid-cycle wait
       for the next one — exactly the semantics of the old list copy *)
    let cycle_len = Corpus.size st.corpus in
    for qi = 0 to cycle_len - 1 do
      let e = Corpus.get st.corpus qi in
      if st.execs < config.budget && not (should_skip st e) then begin
        let cmps = if config.cmplog then calibrate st e else [||] in
        let n = energy st e in
        (* Batched cohort: the whole energy allotment runs back-to-back
           through one [evaluate] call. Each candidate ticks the budget
           clock exactly once (replays don't), so the cohort size is
           exactly what a per-candidate loop would have run. *)
        let count = max 0 (min n (config.budget - st.execs)) in
        if count > 0 then begin
          let depth = e.depth + 1 in
          Obs.Metrics.observe st.h_batch count;
          trace_begin st Obs.Trace.Exec;
          evaluate st ~depth ~n:count ~gen:(fun _ ->
              mutate st ~cmps ?splice_with:(random_other st e) e.data;
              (st.scratch.buf, st.scratch.len));
          trace_end ~arg:count st
        end;
        e.times_fuzzed <- e.times_fuzzed + 1;
        if e.favored && e.times_fuzzed = 1 then
          st.corpus.pending_favored <- max 0 (st.corpus.pending_favored - 1)
      end
    done
  done;
  (* final snapshot row: budget exhausted (kept even when it duplicates a
     cadence row, matching the historical queue_series tail sample) *)
  take_snapshot st;
  harvest_metrics st;
  (* a per-domain cached artifact outlives the campaign: unbind it so it
     stops keeping this campaign's trace map and cmplog buffer alive *)
  Tracer.release st.tracer;
  let snapshots = Obs.Observer.snapshots_from st.obs ~from:snap_base in
  {
    config;
    corpus = st.corpus;
    triage = st.triage;
    execs = st.execs;
    (* derived view over this run's snapshot rows, in the historical
       (campaign-local execs, queue size) shape *)
    queue_series =
      List.map
        (fun (r : Obs.Snapshot.row) -> (r.at_exec - exec_base, r.queue))
        snapshots;
    sum_exec_blocks = st.blocks;
    havocs = st.havocs;
    snapshots;
    vm_s = c.vm_s -. vm_s0;
    mut_s = c.mut_s -. mut_s0;
    mut_minor_words = c.mut_minor_words -. mut_minor_words0;
  }

(** Run a campaign. [plans] shares a precomputed Ball–Larus artifact;
    [obs] supplies the observer (counters, snapshot log, event sink and
    the optional wall clock that enables the mutation-vs-VM split the
    benches report). Fuzzing behaviour is identical with or without it.

    [checkpoint] writes a snapshot at each cycle boundary that crosses a
    multiple of [sink.every] executions (mid-budget only). [resume]
    restores one such snapshot instead of importing [seeds]; the resumed
    run replays the uninterrupted run's trajectory byte for byte. Both
    assume the campaign owns its observer — a checkpointed counter block
    is restored wholesale, so resuming into a shared observer would
    double-count other phases' work. *)
let run ?plans ?obs ?(config = default_config) ?checkpoint ?resume
    (prog : Minic.Ir.program) ~(seeds : string list) : result =
  run_state ?checkpoint ?resume (make_state ?plans ?obs ~config prog) ~seeds
