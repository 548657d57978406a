(** Deterministic intra-campaign sharding: one fuzzing campaign spread
    over N OCaml 5 domains with a fixed synchronization schedule.

    The sequential {!Campaign} loop feeds every discovery back into the
    very next candidate decision, which is exactly what a parallel run
    cannot reproduce. The sharded runner trades that instant feedback for
    a bounded-staleness schedule built from three pieces:

    - {b a deterministic planner} (coordinator-only): walks the queue in
      cycle order exactly like the sequential scheduler — skip
      probabilities from a dedicated planning RNG stream, afl energy,
      cycle boundaries with full favored recomputation — and emits a list
      of {e work items}, each pinned to (queue entry, private RNG stream,
      energy, exec-counter base). Item RNG streams are keyed by the item's
      position in the global schedule ({!Rng.substream}), never by shard
      or worker id. Planning stops when [sync_interval] executions are
      scheduled (or the budget is exhausted) — the sync schedule is
      measured in executions, independent of wall-clock;

    - {b per-shard step loops} (parallel phase): items are assigned
      round-robin (item [i] to shard [i mod shards]); each shard owns a
      private {!Vm.Interp.exec_ctx}, feedback listener, cmplog buffer and
      mutation scratch, and evaluates its items against a private virgin
      overlay re-seeded per item from the epoch-start global map
      ({!Pathcov.Coverage_map.copy_into}) — so what an item retains
      depends only on the epoch-start state and its own discoveries,
      never on what ran concurrently. Retained candidates and crashes are
      recorded as sparse (index, classified byte) captures; nothing
      shared is written during the phase;

    - {b a merge barrier} (coordinator-only): after the phase completes,
      item results are replayed against the shared virgin/crash-virgin
      maps in global item order — admitting candidates that still add
      coverage, dropping cross-item duplicates, triaging crashes and
      hangs, claiming top-rated slots, aggregating per-shard counter
      blocks into the campaign observer and sampling one snapshot row.

    Because the planner, the item streams and the merge order are all
    functions of the schedule position alone, the merged trajectory —
    queue contents and order, virgin map bytes, crash set, counters — is
    a deterministic function of [(seed, sync_interval)] and {e identical
    for every shard count and worker count}: [shards] only chooses how
    much of each epoch runs concurrently. The differential suite
    enforces byte-identity across shards ∈ {1, 2, 4}; re-runs are
    trivially identical. Observability keeps the zero-perturbation rule:
    shard counter blocks are private until the barrier, and no fuzzing
    decision reads observer state. *)

type config = {
  base : Campaign.config;
  shards : int;  (** parallel width of each epoch (>= 1) *)
  sync_interval : int;  (** executions scheduled between merge barriers *)
}

let default_sync_interval = 2048

let default_config =
  { base = Campaign.default_config; shards = 1; sync_interval = default_sync_interval }

(* ------------------------------------------------------------------ *)
(* Work items and their results *)

(* One planned unit of fuzzing work: calibrate (cmplog) and havoc one
   queue entry with a private RNG stream. [base_exec] anchors the item's
   executions on the campaign's deterministic exec clock. *)
type item = {
  entry_idx : int;  (** queue position of the entry *)
  entry_id : int;
  rng : Rng.t;  (** private stream, keyed by global item counter *)
  calib : bool;
  energy : int;  (** havoc candidates to evaluate *)
  base_exec : int;  (** campaign execs before this item's first one *)
}

(* Sparse captures recorded by shards and replayed at the barrier, index
   sets packed like the queue's. *)
type retained_rec = {
  r_data : string;
  r_idxs : Pathcov.Index_set.t;  (** classified trace indices, ascending *)
  r_vals : string;  (** classified trace bytes at [r_idxs], one each *)
  r_exec_blocks : int;
  r_depth : int;
  r_at_exec : int;
}

type crash_rec = {
  c_crash : Vm.Crash.t;
  c_input : string;
  c_at_exec : int;
  c_idxs : Pathcov.Index_set.t;
  c_vals : string;
}

type item_result = {
  mutable execs : int;
  mutable n_cmps : int;  (** calibration pairs captured (event payload) *)
  mutable retained : retained_rec list;  (** newest first *)
  mutable crashes : crash_rec list;  (** newest first *)
  mutable hangs : int list;  (** at_exec anchors, newest first *)
}

(* ------------------------------------------------------------------ *)
(* Shards *)

(** One shard's private execution resources, created once per campaign
    and reused across every epoch. The counter block is bumped lock-free
    on the shard's own domain and drained into the campaign observer at
    each barrier. *)
type shard = {
  ctx : Vm.Interp.exec_ctx;
  tracer : Tracer.t;  (** engine dispatch *)
  feedback : Pathcov.Feedback.t;
  cmp_buf : Campaign.cmp_buf;
  scratch : Mutator.scratch;
  item_virgin : Pathcov.Coverage_map.t;  (** per-item overlay of the global map *)
  counters : Obs.Counters.t;
  clock : (unit -> float) option;
  metrics : Obs.Metrics.t;
      (** shard-private registry, drained into the campaign observer's at
          each barrier (exactly like the counter block) *)
  h_batch : Obs.Metrics.hist;  (** cohort sizes ([exec.batch_n]) *)
  h_dirty : Obs.Metrics.hist;  (** context dirty-reset widths *)
  span_trace : Obs.Trace.t option;
      (** the observer's trace when it has a track for this shard *)
  track : int;  (** this shard's trace track ([shard index + 1]) *)
  mutable epoch_wall : float;  (** wall of this shard's last epoch slice *)
}

let make_shard ?plans (base : Campaign.config) prepared clock span_trace
    ~(track : int) prog : shard =
  let feedback =
    Pathcov.Feedback.make ~size_log2:base.map_size_log2 ?plans base.mode prog
  in
  let cmp_buf = Campaign.make_cmp_buf () in
  let hooks = Campaign.make_hooks base feedback cmp_buf in
  (* ~shared:false: compiled artifacts carry single-threaded rebindable
     state, so every shard compiles its own *)
  let tracer =
    Tracer.make ?plans ?clock ~shared:false ~engine:base.engine
      ~selective:false ~cmplog:base.cmplog ~mode:base.mode prepared
  in
  Tracer.bind tracer ~trace:feedback.trace ~h_cmp:hooks.Vm.Interp.h_cmp;
  let metrics = Obs.Metrics.create () in
  {
    ctx = Vm.Interp.create_ctx ~hooks prepared;
    tracer;
    feedback;
    cmp_buf;
    scratch = Mutator.create_scratch ();
    item_virgin =
      Pathcov.Coverage_map.create_virgin ~size_log2:base.map_size_log2 ();
    counters = Obs.Counters.create ();
    clock;
    metrics;
    h_batch = Obs.Metrics.hist metrics "exec.batch_n";
    h_dirty = Obs.Metrics.hist metrics "vm.dirty_reset_w";
    span_trace =
      (match span_trace with
      | Some tr when track < Obs.Trace.n_tracks tr -> Some tr
      | _ -> None);
    track;
    epoch_wall = 0.;
  }

(* Span brackets on this shard's own trace track. Each track is written
   only by the domain running the shard's slice, so no locking. *)
let sh_trace_begin (sh : shard) (k : Obs.Trace.kind) : unit =
  match sh.span_trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:sh.track k
  | None -> ()

let sh_trace_end ?(arg = 0) (sh : shard) : unit =
  match sh.span_trace with
  | Some tr -> Obs.Trace.end_span ~arg tr ~track:sh.track ()
  | None -> ()

(* Pre/post brackets around one VM run on a shard — the parallel twin of
   Campaign.pre_exec/post_exec, writing only shard-private state. *)
let sh_pre (sh : shard) : unit =
  sh.feedback.reset ();
  Pathcov.Coverage_map.clear sh.feedback.trace

let sh_post (sh : shard) (out : Vm.Interp.outcome) : unit =
  let c = sh.counters in
  c.execs <- c.execs + 1;
  c.blocks <- c.blocks + out.blocks_executed;
  Obs.Metrics.observe sh.h_dirty sh.ctx.last_reset_width;
  Pathcov.Coverage_map.classify sh.feedback.trace

(* The shard's one cohort entry: [n] candidates through the tracer. The
   tracer carries the shard's clock and accumulates each run's VM wall
   until {!drain_shard}. *)
let sh_cohort (base : Campaign.config) (sh : shard) ~(n : int)
    ~(gen : int -> Bytes.t * int) ~(sink : int -> Vm.Interp.outcome -> unit)
    : unit =
  Tracer.run_full_batch sh.tracer sh.ctx ~fuel:base.fuel
    ~max_depth:base.max_depth ~n ~gen ~sink

(* One execution of a string input (a seed import or a calibration run)
   as a cohort of one, zero-copy (the VM never writes its input). *)
let sh_execute (base : Campaign.config) (sh : shard) (input : string) :
    Vm.Interp.outcome =
  let res = ref None in
  sh_cohort base sh ~n:1
    ~gen:(fun _ ->
      sh_pre sh;
      (Bytes.unsafe_of_string input, String.length input))
    ~sink:(fun _ out -> res := Some out);
  let out = Option.get !res in
  sh_post sh out;
  out

(* Fold a shard's private counter and metric blocks, and the VM wall its
   tracer accumulated, into the campaign observer. Race-free only while
   the shard domains are parked (seed import, sync barriers). *)
let drain_shard (obs : Obs.Observer.t) (sh : shard) : unit =
  let c = sh.counters in
  c.vm_s <- c.vm_s +. Tracer.take_vm_s sh.tracer;
  Obs.Counters.add_into ~into:obs.counters c;
  Obs.Counters.reset c;
  Obs.Metrics.add_into ~into:obs.metrics sh.metrics;
  Obs.Metrics.reset sh.metrics

(* O(1) random splice peer over the epoch-start queue snapshot — the
   same draw-to-entry mapping as Campaign.random_other, against the view
   so every shard sees the same corpus regardless of merge-time growth. *)
let random_other_view (rng : Rng.t) (view : Corpus.view) (e : Corpus.entry) :
    string option =
  let n = Corpus.view_size view in
  if n <= 1 then None
  else
    let pick = Corpus.view_get view (n - 1 - Rng.int rng n) in
    if pick.Corpus.id = e.Corpus.id then None else Some pick.Corpus.data

(** The per-shard step loop: evaluate one work item end to end against a
    private virgin overlay, recording retentions/crashes/hangs as sparse
    captures for the merge barrier. Touches only shard-private state
    plus read-only views of the epoch-start corpus and virgin map. *)
let run_item (base : Campaign.config) (sh : shard) (view : Corpus.view)
    (global_virgin : Pathcov.Coverage_map.t) (it : item) : item_result =
  let e = Corpus.view_get view it.entry_idx in
  Pathcov.Coverage_map.copy_into ~dst:sh.item_virgin global_virgin;
  let res = { execs = 0; n_cmps = 0; retained = []; crashes = []; hangs = [] } in
  let local = ref 0 in
  (* The decision procedure over the candidate view [v]: the
     candidate's string is materialised only when a crash or a
     retention record needs one. *)
  let capture_outcome (out : Vm.Interp.outcome) ((buf, len) : Bytes.t * int)
      ~(depth : int) : unit =
    let tr = sh.feedback.trace in
    match out.status with
    | Vm.Interp.Crashed crash ->
        let idxs = Pathcov.Coverage_map.sorted_set tr in
        res.crashes <-
          {
            c_crash = crash;
            c_input = Bytes.sub_string buf 0 len;
            c_at_exec = it.base_exec + !local;
            c_idxs = idxs;
            c_vals = Pathcov.Coverage_map.values_of tr idxs;
          }
          :: res.crashes
    | Vm.Interp.Hung -> res.hangs <- (it.base_exec + !local) :: res.hangs
    | Vm.Interp.Finished _ ->
        if
          Pathcov.Coverage_map.merge_into ~virgin:sh.item_virgin tr
          <> Pathcov.Coverage_map.Nothing
        then
          let idxs = Pathcov.Coverage_map.sorted_set tr in
          res.retained <-
            {
              r_data = Bytes.sub_string buf 0 len;
              r_idxs = idxs;
              r_vals = Pathcov.Coverage_map.values_of tr idxs;
              r_exec_blocks = max 1 out.blocks_executed;
              r_depth = depth;
              r_at_exec = it.base_exec + !local;
            }
            :: res.retained
  in
  (* calibration run: capture cmplog pairs; crashes and hangs are
     triaged, but its coverage never counts as novel (the entry is
     already in the queue), mirroring the sequential calibrate stage *)
  let cmps =
    if it.calib then begin
      let out =
        Campaign.capturing sh.tracer sh.cmp_buf (fun () ->
            sh_execute base sh e.Corpus.data)
      in
      incr local;
      (match out.status with
      | Vm.Interp.Crashed _ | Vm.Interp.Hung ->
          capture_outcome out
            (Bytes.unsafe_of_string e.Corpus.data, String.length e.Corpus.data)
            ~depth:e.Corpus.depth
      | Vm.Interp.Finished _ ->
          ignore
            (Pathcov.Coverage_map.merge_into ~virgin:sh.item_virgin
               sh.feedback.trace));
      sh.counters.calibrations <- sh.counters.calibrations + 1;
      res.n_cmps <- sh.cmp_buf.n_cmps;
      Campaign.cmps_of_buf sh.cmp_buf
    end
    else [||]
  in
  let c = sh.counters in
  let depth = e.Corpus.depth + 1 in
  (* Batched cohort: the item's whole energy allotment runs back-to-back
     through one [sh_cohort] call — generation (splice draw, counter
     bumps, timed mutation, pre-exec reset) in [gen], the per-candidate
     bookkeeping and decision in [sink]. *)
  let cur = ref (Bytes.empty, 0) in
  let gen _ =
    let splice_with = random_other_view it.rng view e in
    c.havocs <- c.havocs + 1;
    (match splice_with with Some _ -> c.splices <- c.splices + 1 | None -> ());
    if Array.length cmps > 0 then c.i2s_cands <- c.i2s_cands + 1;
    (match sh.clock with
    | None ->
        Mutator.havoc_in_place sh.scratch ~cmps ?splice_with it.rng
          e.Corpus.data
    | Some now ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        Mutator.havoc_in_place sh.scratch ~cmps ?splice_with it.rng
          e.Corpus.data;
        c.mut_s <- c.mut_s +. (now () -. t0);
        c.mut_minor_words <- c.mut_minor_words +. (Gc.minor_words () -. w0));
    sh_pre sh;
    let v = (sh.scratch.buf, sh.scratch.len) in
    cur := v;
    v
  in
  if it.energy > 0 then begin
    Obs.Metrics.observe sh.h_batch it.energy;
    sh_trace_begin sh Obs.Trace.Exec
  end;
  sh_cohort base sh ~n:it.energy ~gen ~sink:(fun _ out ->
      sh_post sh out;
      incr local;
      capture_outcome out !cur ~depth);
  if it.energy > 0 then sh_trace_end ~arg:it.energy sh;
  res.execs <- !local;
  res.retained <- List.rev res.retained;
  res.crashes <- List.rev res.crashes;
  res.hangs <- List.rev res.hangs;
  res

(* ------------------------------------------------------------------ *)
(* Coordinator *)

type result = {
  campaign : Campaign.result;  (** the familiar campaign-level report *)
  shards : int;
  sync_interval : int;
  epochs : int;  (** sync barriers executed *)
  items : int;  (** work items scheduled over the whole run *)
  dup_dropped : int;
      (** shard-retained candidates another item beat to the barrier *)
  virgin : Pathcov.Coverage_map.t;  (** final merged virgin map *)
  crash_virgin : Pathcov.Coverage_map.t;
}

type t = {
  cfg : config;
  obs : Obs.Observer.t;
  corpus : Corpus.t;
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  triage : Triage.t;
  plan_rng : Rng.t;  (** skip-probability draws, planning order *)
  mutable execs : int;  (** campaign-local exec clock (budget) *)
  mutable items_total : int;  (** global item counter, keys RNG substreams *)
  mutable cycle_len : int;
  mutable next_qi : int;
  mutable epochs : int;
  mutable dup_dropped : int;
  exec_base : int;  (** observer exec counter at campaign start *)
}

(* Plan one epoch: walk the queue in cycle order, exactly like the
   sequential scheduler, until [sync_interval] executions are scheduled
   or the budget is spent. Consumes skip draws from the planning stream
   and mutates times_fuzzed/pending_favored at plan time (the sequential
   loop does so between entries; both orders are deterministic). *)
let plan_epoch (t : t) : item array =
  let base = t.cfg.base in
  let c = t.obs.counters in
  let items = ref [] in
  let n_items = ref 0 in
  let planned = ref 0 in
  while !planned < t.cfg.sync_interval && t.execs + !planned < base.budget do
    if t.next_qi >= t.cycle_len then begin
      Corpus.recompute_favored t.corpus;
      c.cycles <- c.cycles + 1;
      let fav = ref 0 in
      Corpus.iter (fun e -> if e.Corpus.favored then incr fav) t.corpus;
      c.favored <- !fav;
      c.pending_favored <- t.corpus.pending_favored;
      Obs.Observer.event t.obs
        (Obs.Event.Favored_cycle
           {
             at_exec = t.exec_base + t.execs + !planned;
             queue = Corpus.size t.corpus;
             favored = !fav;
             pending = t.corpus.pending_favored;
           });
      t.cycle_len <- Corpus.size t.corpus;
      t.next_qi <- 0
    end;
    let e = Corpus.get t.corpus t.next_qi in
    t.next_qi <- t.next_qi + 1;
    if not (Campaign.entry_skip t.plan_rng ~pending_favored:t.corpus.pending_favored e)
    then begin
      let calib_cost = if base.cmplog then 1 else 0 in
      let remaining = base.budget - (t.execs + !planned) in
      let energy =
        min (Campaign.entry_energy ~budget:base.budget e)
          (max 0 (remaining - calib_cost))
      in
      items :=
        {
          entry_idx = t.next_qi - 1;
          entry_id = e.Corpus.id;
          rng = Rng.substream ~seed:base.rng_seed (t.items_total + 1);
          calib = base.cmplog;
          energy;
          base_exec = t.execs + !planned;
        }
        :: !items;
      t.items_total <- t.items_total + 1;
      incr n_items;
      planned := !planned + calib_cost + energy;
      e.Corpus.times_fuzzed <- e.Corpus.times_fuzzed + 1;
      if e.Corpus.favored && e.Corpus.times_fuzzed = 1 then
        t.corpus.pending_favored <- max 0 (t.corpus.pending_favored - 1)
    end
  done;
  let arr = Array.of_list (List.rev !items) in
  arr

(* Replay one epoch's item results against the shared state, in global
   item order — the only place shared campaign state is written. *)
let merge_epoch (t : t) (items : item array) (results : item_result array) :
    int =
  let base = t.cfg.base in
  let c = t.obs.counters in
  let retained_now = ref 0 in
  Array.iteri
    (fun k (it : item) ->
      let r = results.(k) in
      if it.calib then
        Obs.Observer.event t.obs
          (Obs.Event.Calibration
             {
               at_exec = t.exec_base + it.base_exec + 1;
               entry = it.entry_id;
               cmps = r.n_cmps;
             });
      List.iter
        (fun (cr : crash_rec) ->
          let coverage_novel =
            Pathcov.Coverage_map.merge_sparse_into ~virgin:t.crash_virgin
              ~idxs:cr.c_idxs ~vals:cr.c_vals
            <> Pathcov.Coverage_map.Nothing
          in
          Triage.record_crash t.triage ~crash:cr.c_crash ~input:cr.c_input
            ~at_exec:cr.c_at_exec ~coverage_novel)
        r.crashes;
      List.iter (fun at -> Triage.record_hang ~at_exec:at t.triage) r.hangs;
      List.iter
        (fun (rr : retained_rec) ->
          if Corpus.size t.corpus >= base.max_queue then begin
            c.queue_full_drops <- c.queue_full_drops + 1;
            if c.queue_full_drops = 1 then
              Obs.Observer.event t.obs
                (Obs.Event.Queue_full
                   {
                     at_exec = t.exec_base + rr.r_at_exec;
                     queue = Corpus.size t.corpus;
                   })
          end
          else if
            Pathcov.Coverage_map.merge_sparse_into ~virgin:t.virgin
              ~idxs:rr.r_idxs ~vals:rr.r_vals
            <> Pathcov.Coverage_map.Nothing
          then begin
            let e =
              Corpus.add_set t.corpus ~data:rr.r_data ~indices:rr.r_idxs
                ~exec_blocks:rr.r_exec_blocks ~depth:rr.r_depth
                ~found_at:rr.r_at_exec
            in
            Corpus.claim_top_rated t.corpus e;
            c.retained <- c.retained + 1;
            incr retained_now;
            Obs.Observer.event t.obs
              (Obs.Event.Retain
                 {
                   at_exec = t.exec_base + rr.r_at_exec;
                   id = e.Corpus.id;
                   len = String.length rr.r_data;
                   depth = rr.r_depth;
                 })
          end
          else t.dup_dropped <- t.dup_dropped + 1)
        r.retained)
    items;
  !retained_now

let take_snapshot (t : t) : unit =
  Obs.Observer.snapshot t.obs
    (Obs.Snapshot.of_counters t.obs.counters ~queue:(Corpus.size t.corpus)
       ~virgin_residual:(Pathcov.Coverage_map.residual t.virgin))

(* ------------------------------------------------------------------ *)
(* Stall watchdog *)

(** A shard counts as stalled when its epoch slice took more than this
    many times the median shard's wall. *)
let stall_factor = 4.

(** Pure stall verdicts over one epoch's per-shard walls:
    [(shard, wall, median)] for every shard whose wall exceeds
    [factor *.] the median. Empty when fewer than two shards or when the
    median is zero (unclocked or degenerate epochs never stall). *)
let stall_check ~(walls : float array) ~(factor : float) :
    (int * float * float) list =
  let n = Array.length walls in
  if n < 2 then []
  else begin
    let sorted = Array.copy walls in
    Array.sort compare sorted;
    let median =
      if n land 1 = 1 then sorted.(n / 2)
      else 0.5 *. (sorted.((n / 2) - 1) +. sorted.(n / 2))
    in
    if median <= 0. then []
    else begin
      let out = ref [] in
      for s = n - 1 downto 0 do
        if walls.(s) > factor *. median then
          out := (s, walls.(s), median) :: !out
      done;
      !out
    end
  end

(* Coordinator-side span brackets on track 0 (planning, merge barriers,
   checkpoint writes). *)
let co_trace_begin (obs : Obs.Observer.t) (k : Obs.Trace.kind) : unit =
  match obs.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:0 k
  | None -> ()

let co_trace_end ?(arg = 0) (obs : Obs.Observer.t) : unit =
  match obs.trace with
  | Some tr -> Obs.Trace.end_span ~arg tr ~track:0 ()
  | None -> ()

(** Snapshot the sharded campaign at a merge barrier. Barriers are the
    only capture points: between them shard-private state is in flight,
    but at a barrier the entire campaign is the shared state below plus
    the planner cursor — and both are pure functions of
    [(seed, sync_interval)], so checkpoints are too, independent of
    shard and worker count. Per-item RNG streams need no capture: they
    are substreams keyed by [items_total]. *)
let capture_checkpoint (t : t) ~(subject : string) ~(fuzzer : string) :
    Checkpoint.t =
  let base = t.cfg.base in
  let c = t.obs.counters in
  Checkpoint.capture
    ~id:
      {
        Checkpoint.subject;
        fuzzer;
        mode = Pathcov.Feedback.mode_name base.mode;
        cmplog = base.cmplog;
        rng_seed = base.rng_seed;
        budget = base.budget;
        fuel = base.fuel;
        max_depth = base.max_depth;
        map_size_log2 = base.map_size_log2;
        max_queue = base.max_queue;
        sync_interval = t.cfg.sync_interval;
      }
    ~progress:
      {
        Checkpoint.execs = t.execs;
        blocks = c.blocks;
        havocs = c.havocs;
        rng_state = Rng.state t.plan_rng;
        items_total = t.items_total;
        cycle_len = t.cycle_len;
        next_qi = t.next_qi;
        epochs = t.epochs;
        dup_dropped = t.dup_dropped;
      }
    ~virgin:t.virgin ~crash_virgin:t.crash_virgin ~corpus:t.corpus
    ~triage:t.triage ~counters:c
    ~snapshots:(Obs.Observer.snapshots t.obs)

(** Load a barrier snapshot into a freshly built coordinator: shared
    state (queue with favored/top-rated machinery, triage, virgin maps),
    the planner cursor and its RNG position, the counter block and the
    recorded snapshot rows. Config validation is the caller's job
    ({!Checkpoint.check_compat}); only the map size is re-checked. *)
let restore_checkpoint (t : t) (ck : Checkpoint.t) : unit =
  if ck.Checkpoint.id.map_size_log2 <> t.cfg.base.map_size_log2 then
    invalid_arg "Shard.restore_checkpoint: map size disagrees with config";
  Checkpoint.restore_corpus_into ck t.corpus;
  Checkpoint.restore_triage_into ck t.triage;
  Pathcov.Coverage_map.restore_raw t.virgin ck.Checkpoint.virgin;
  Pathcov.Coverage_map.restore_raw t.crash_virgin ck.Checkpoint.crash_virgin;
  Rng.set_state t.plan_rng ck.Checkpoint.progress.rng_state;
  t.execs <- ck.Checkpoint.progress.execs;
  t.items_total <- ck.Checkpoint.progress.items_total;
  t.cycle_len <- ck.Checkpoint.progress.cycle_len;
  t.next_qi <- ck.Checkpoint.progress.next_qi;
  t.epochs <- ck.Checkpoint.progress.epochs;
  t.dup_dropped <- ck.Checkpoint.progress.dup_dropped;
  Obs.Counters.add_into ~into:t.obs.counters ck.Checkpoint.counters;
  Obs.Observer.preload_snapshots t.obs (Array.to_list ck.Checkpoint.snapshots)

(* Seed import on shard 0's resources, before any parallel phase — the
   sequential add_seed semantics: seeds always retained, crashes/hangs
   triaged, coverage merged into the shared virgin map directly. *)
let import_seed (t : t) (sh : shard) (input : string) : unit =
  let base = t.cfg.base in
  let out = sh_execute base sh input in
  t.execs <- t.execs + 1;
  let c = t.obs.counters in
  match out.status with
  | Vm.Interp.Crashed crash ->
      let coverage_novel =
        Pathcov.Coverage_map.merge_into ~virgin:t.crash_virgin
          sh.feedback.trace
        <> Pathcov.Coverage_map.Nothing
      in
      Triage.record_crash t.triage ~crash ~input ~at_exec:t.execs
        ~coverage_novel
  | Vm.Interp.Hung -> Triage.record_hang ~at_exec:t.execs t.triage
  | Vm.Interp.Finished _ ->
      ignore
        (Pathcov.Coverage_map.merge_into ~virgin:t.virgin sh.feedback.trace);
      c.seeds_imported <- c.seeds_imported + 1;
      Obs.Observer.event t.obs
        (Obs.Event.Seed_import
           { at_exec = t.exec_base + t.execs; len = String.length input });
      let indices = Pathcov.Coverage_map.sorted_set sh.feedback.trace in
      let e =
        Corpus.add_set t.corpus ~data:input ~indices
          ~exec_blocks:(max 1 out.blocks_executed) ~depth:0 ~found_at:t.execs
      in
      Corpus.claim_top_rated t.corpus e;
      c.retained <- c.retained + 1;
      Obs.Observer.event t.obs
        (Obs.Event.Retain
           {
             at_exec = t.exec_base + t.execs;
             id = e.Corpus.id;
             len = String.length input;
             depth = 0;
           })

(** Run one sharded campaign. [workers] caps the domain-pool width (the
    default runs one worker per shard; any value yields byte-identical
    results — it is purely a wall-clock knob, like [--jobs] for trial
    fan-out). [plans] and [obs] behave as in {!Campaign.run}; the
    observer's clock enables the same vm/mutator wall split, accumulated
    per shard and aggregated at each barrier.

    [checkpoint] writes a snapshot at each merge barrier that crosses a
    multiple of [sink.every] executions (mid-budget only); [resume]
    restores one instead of importing [seeds]. Because barriers — and
    therefore checkpoints — are functions of [(seed, sync_interval)]
    alone, a snapshot taken at any shard/worker count resumes at any
    other with a byte-identical remaining trajectory. Both assume the
    campaign owns its observer (the counter block is restored
    wholesale). *)
let run ?plans ?obs ?workers ?(checkpoint : Checkpoint.sink option)
    ?(resume : Checkpoint.t option) (cfg : config) (prog : Minic.Ir.program)
    ~(seeds : string list) : result =
  if cfg.shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  if cfg.base.selective then
    invalid_arg "Shard.run: selective tracing was removed";
  if cfg.sync_interval < 1 then
    invalid_arg "Shard.run: sync_interval must be >= 1";
  let obs = match obs with Some o -> o | None -> Obs.Observer.null () in
  let base = cfg.base in
  let prepared = Vm.Interp.prepare_cached prog in
  let shards =
    Array.init cfg.shards (fun s ->
        make_shard ?plans base prepared obs.clock obs.trace ~track:(s + 1) prog)
  in
  (* Emission fails identically for every shard (same cache key), so one
     event stands for the fleet. *)
  (match Tracer.emit_fallback shards.(0).tracer with
  | Some reason -> Obs.Observer.event obs (Obs.Event.Emit_fallback { reason })
  | None -> ());
  let c = obs.counters in
  let exec_base = c.execs in
  let snap_base = obs.n_snapshots in
  let vm_s0 = c.vm_s and mut_s0 = c.mut_s in
  let mut_minor_words0 = c.mut_minor_words in
  let blocks0 = c.blocks and havocs0 = c.havocs in
  let t =
    {
      cfg;
      obs;
      corpus = Corpus.create ~map_size_log2:base.map_size_log2 ();
      virgin =
        Pathcov.Coverage_map.create_virgin ~size_log2:base.map_size_log2 ();
      crash_virgin =
        Pathcov.Coverage_map.create_virgin ~size_log2:base.map_size_log2 ();
      triage = Triage.create ~obs ();
      plan_rng = Rng.substream ~seed:base.rng_seed 0;
      execs = 0;
      items_total = 0;
      cycle_len = 0;
      next_qi = 0;
      epochs = 0;
      dup_dropped = 0;
      exec_base;
    }
  in
  (match resume with
  | Some ck -> restore_checkpoint t ck
  | None ->
      List.iter (import_seed t shards.(0)) seeds;
      if Corpus.size t.corpus = 0 then import_seed t shards.(0) "A";
      if Corpus.size t.corpus = 0 then
        ignore
          (Corpus.add t.corpus ~data:"A" ~indices:[||] ~exec_blocks:1 ~depth:0
             ~found_at:t.execs);
      (* drain seed-import execution counts out of shard 0's block so the
         observer is current before the first barrier *)
      drain_shard obs shards.(0));
  (* snapshot schedule: a pure function of the exec clock, identical for
     straight and resumed runs *)
  let next_mark = ref max_int in
  (match checkpoint with
  | Some sk -> next_mark := Checkpoint.next_mark ~every:sk.every ~execs:t.execs
  | None -> ());
  let workers =
    min cfg.shards (match workers with Some w -> max 1 w | None -> cfg.shards)
  in
  let pool = if workers > 1 then Some (Exec.Pool.create ~jobs:workers) else None in
  Fun.protect
    ~finally:(fun () ->
      match pool with Some p -> Exec.Pool.shutdown p | None -> ())
    (fun () ->
      while t.execs < base.budget do
        co_trace_begin obs Obs.Trace.Plan;
        let items = plan_epoch t in
        let n = Array.length items in
        co_trace_end ~arg:n obs;
        let results = Array.make n None in
        let view = Corpus.view t.corpus ~limit:(Corpus.size t.corpus) in
        let slice s ~worker:_ =
          let sh = shards.(s) in
          let t0 = match sh.clock with Some now -> now () | None -> 0. in
          sh_trace_begin sh Obs.Trace.Epoch;
          let mine = ref 0 in
          let k = ref s in
          while !k < n do
            results.(!k) <- Some (run_item base sh view t.virgin items.(!k));
            incr mine;
            k := !k + cfg.shards
          done;
          sh_trace_end ~arg:!mine sh;
          sh.epoch_wall <-
            (match sh.clock with Some now -> now () -. t0 | None -> 0.)
        in
        (match pool with
        | Some p -> Exec.Pool.run_phase p cfg.shards slice
        | None ->
            for s = 0 to cfg.shards - 1 do
              slice s ~worker:0
            done);
        let results =
          Array.map
            (function
              | Some r -> r | None -> invalid_arg "Shard.run: missing result")
            results
        in
        (* barrier: the shard domains are parked (run_phase returned), so
           draining their private counter/metric blocks is race-free *)
        Array.iter (drain_shard obs) shards;
        co_trace_begin obs Obs.Trace.Merge;
        let retained_now = merge_epoch t items results in
        co_trace_end ~arg:retained_now obs;
        Array.iter (fun (r : item_result) -> t.execs <- t.execs + r.execs) results;
        t.epochs <- t.epochs + 1;
        (* stall watchdog: epoch walls exist only when the observer
           carries a clock, so verdicts (like every wall) are
           observation-only and never reach a fuzzing decision *)
        (match obs.clock with
        | Some _ when cfg.shards > 1 ->
            let walls = Array.map (fun sh -> sh.epoch_wall) shards in
            let maxw = Array.fold_left max 0. walls in
            let m = obs.metrics in
            Array.iteri
              (fun s sh ->
                Obs.Metrics.add_wall
                  (Obs.Metrics.wall m (Printf.sprintf "shard%d.busy_s" s))
                  sh.epoch_wall;
                Obs.Metrics.add_wall
                  (Obs.Metrics.wall m (Printf.sprintf "shard%d.wait_s" s))
                  (maxw -. sh.epoch_wall))
              shards;
            List.iter
              (fun (s, w, med) ->
                Obs.Metrics.bump (Obs.Metrics.counter m "shard.stalls");
                Obs.Observer.event t.obs
                  (Obs.Event.Stall
                     {
                       at_exec = t.exec_base + t.execs;
                       epoch = t.epochs;
                       shard = s;
                       wall_s = w;
                       median_s = med;
                     }))
              (stall_check ~walls ~factor:stall_factor)
        | _ -> ());
        Obs.Observer.event t.obs
          (Obs.Event.Shard_sync
             {
               at_exec = t.exec_base + t.execs;
               epoch = t.epochs;
               queue = Corpus.size t.corpus;
               retained = retained_now;
               dup_dropped = t.dup_dropped;
             });
        take_snapshot t;
        (* barrier-aligned checkpoint, mid-budget only: resuming the
           final state would be a no-op and the written file should
           always have budget left to replay *)
        match checkpoint with
        | Some sk when t.execs < base.budget && t.execs >= !next_mark ->
            co_trace_begin obs Obs.Trace.Checkpoint;
            sk.save (capture_checkpoint t ~subject:sk.subject ~fuzzer:sk.fuzzer);
            co_trace_end obs;
            next_mark := Checkpoint.next_mark ~every:sk.every ~execs:t.execs
        | _ -> ()
      done);
  (* engine-level harvest, mirroring the sequential campaign's: walls
     and gauges set once at budget exhaustion; artifact tallies summed
     across the per-shard tracers (fusion shape is per-artifact and
     identical across shards, so shard 0's stands for all). *)
  let m = obs.metrics in
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.vm_s") c.vm_s;
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.mut_s") c.mut_s;
  Obs.Metrics.add_wall
    (Obs.Metrics.wall m "engine.compile_s")
    (Array.fold_left
       (fun a sh -> a +. Tracer.compile_seconds sh.tracer)
       0. shards);
  let hits, misses = Vm.Compile.cache_stats () in
  Obs.Metrics.set (Obs.Metrics.gauge m "engine.cache_hits") hits;
  Obs.Metrics.set (Obs.Metrics.gauge m "engine.cache_misses") misses;
  (match base.engine with
  | Tracer.Native ->
      let e = Vm.Emit.stats () in
      Obs.Metrics.set_wall (Obs.Metrics.wall m "emit.compile_s") e.compile_s;
      Obs.Metrics.set (Obs.Metrics.gauge m "emit.cache_hits") e.cache_hits;
      Obs.Metrics.set (Obs.Metrics.gauge m "emit.cache_misses") e.cache_misses;
      Obs.Metrics.set (Obs.Metrics.gauge m "emit.fallbacks") e.fallbacks
  | Tracer.Interp | Tracer.Fused -> ());
  (match Tracer.artifact_stats shards.(0).tracer with
  | None -> ()
  | Some (_, s) ->
      let rollbacks = ref 0 and careful = ref 0 in
      Array.iter
        (fun sh ->
          match Tracer.artifact_stats sh.tracer with
          | Some (r, _) ->
              rollbacks := !rollbacks + r.Vm.Compile.rollbacks;
              careful := !careful + r.Vm.Compile.careful_units
          | None -> ())
        shards;
      Obs.Metrics.set (Obs.Metrics.gauge m "engine.rollbacks") !rollbacks;
      Obs.Metrics.set (Obs.Metrics.gauge m "engine.careful_units") !careful;
      Obs.Metrics.set (Obs.Metrics.gauge m "fusion.chains") s.Vm.Compile.chains;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.chain_blocks")
        s.Vm.Compile.chain_blocks;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.chain_max")
        s.Vm.Compile.chain_max;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "fusion.dup_instrs")
        s.Vm.Compile.dup_instrs);
  let snapshots = Obs.Observer.snapshots_from obs ~from:snap_base in
  {
    campaign =
      {
        Campaign.config = base;
        corpus = t.corpus;
        triage = t.triage;
        execs = t.execs;
        queue_series =
          List.map
            (fun (r : Obs.Snapshot.row) -> (r.at_exec - exec_base, r.queue))
            snapshots;
        sum_exec_blocks = c.blocks - blocks0;
        havocs = c.havocs - havocs0;
        snapshots;
        vm_s = c.vm_s -. vm_s0;
        mut_s = c.mut_s -. mut_s0;
        mut_minor_words = c.mut_minor_words -. mut_minor_words0;
      };
    shards = cfg.shards;
    sync_interval = cfg.sync_interval;
    epochs = t.epochs;
    items = t.items_total;
    dup_dropped = t.dup_dropped;
    virgin = t.virgin;
    crash_virgin = t.crash_virgin;
  }
