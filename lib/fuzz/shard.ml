(** Deterministic intra-campaign sharding: one fuzzing campaign spread
    over N OCaml 5 domains with a fixed synchronization schedule, run on
    {!Campaign}'s own state and stages — the coordinator and every lane
    is a {!Campaign.state}.

    - {b The planner} (coordinator) walks the queue like the sequential
      scheduler and emits {e work items} pinned to (queue entry, private
      RNG stream keyed by schedule position, energy, exec-clock base)
      until [sync_interval] executions are scheduled.
    - {b The lanes} (parallel phase) claim items off a shared cursor.
      A lane's virgin and crash-virgin maps are copies of the global
      ones taken at epoch start; each item merges into them, records
      retentions and crashes as sparse captures instead of applying
      them, and then undoes its virgin merges from an undo log.
    - {b The merge barrier} (coordinator) folds the lane counters in and
      replays the captures in global item order through the
      coordinator's admit stages. A capture carries only the indices
      that beat the lane's map and, for a retention, the top-rated
      slots it could still claim; nothing else can change there.

    The merged trajectory is thus a function of [(seed, sync_interval)]
    alone, identical for every shard and worker count (DESIGN.md §8). *)

type config = {
  base : Campaign.config;
  shards : int;  (** parallel width of each epoch (>= 1) *)
  sync_interval : int;  (** executions scheduled between merge barriers *)
}

let default_sync_interval = 2048

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

(* Sparse captures recorded by lanes and replayed at the barrier, index
   sets packed like the queue's. A capture carries only what can still
   change at the barrier: its {e delta}, the indices where it beat the
   lane's map (in journal order, with their classified bytes), and for a
   retention its claim candidates. The coordinator's map has cleared at
   least every bit the lane's had when the capture was taken (the lane's
   map is the epoch-start map plus the item's own earlier captures, each
   of which the barrier admits, finds already seen, or skips on a full
   queue and then skips this one too), so outside the delta the capture
   clears nothing there either: merging the delta gives the full
   capture's verdict and bytes. A lane's crash map also keeps the crash
   captures of the lane's earlier items of the epoch; lanes claim items
   in increasing order and the barrier replays every crash capture, so
   those are cleared in the coordinator's map first as well. *)
type retained_rec = {
  r_data : string;
  r_idxs : Pathcov.Index_set.t;  (** classified trace indices, ascending *)
  r_delta : Pathcov.Index_set.t;  (** indices that beat the lane's map *)
  r_dvals : string;  (** classified trace bytes at [r_delta], one each *)
  r_claim : Pathcov.Index_set.t;
      (** slots whose epoch-start holder was dearer ({!Corpus.dearer_slots}) *)
  r_exec_blocks : int;
  r_depth : int;
  r_at_exec : int;
}

type crash_rec = {
  c_crash : Vm.Crash.t;
  c_input : string;
  c_at_exec : int;
  c_delta : Pathcov.Index_set.t;  (** indices that beat the lane's crash map *)
  c_dvals : string;
}

type item_result = {
  mutable execs : int;
  mutable n_cmps : int;  (** calibration pairs captured (event payload) *)
  mutable retained : retained_rec list;  (** newest first *)
  mutable crashes : crash_rec list;  (** newest first *)
  mutable hangs : int list;  (** at_exec anchors, newest first *)
}

(* ------------------------------------------------------------------ *)
(* Lanes *)

(* A lane: a campaign state whose [virgin] holds the epoch-start global
   map plus the running item's merges, and whose [crash_virgin] holds
   the epoch-start one plus the lane's crash merges so far; and the undo
   log of the indices the item changed. Scratch arrays grow with the
   largest trace journal seen. *)
type lane = {
  st : Campaign.state;
  mutable undo : int array;  (** indices written since the item began *)
  mutable nundo : int;
  mutable cand : int array;  (** claim-candidate scratch *)
}

(* Room for [n] more undo entries. *)
let reserve (ln : lane) (n : int) : unit =
  if ln.nundo + n > Array.length ln.undo then begin
    let bigger = Array.make (max 256 (2 * (ln.nundo + n))) 0 in
    Array.blit ln.undo 0 bigger 0 ln.nundo;
    ln.undo <- bigger
  end

(* Merge the lane's trace into one of its maps, logging the changed
   indices for undo; returns them packed (empty when nothing was new). *)
let merge_delta (ln : lane) (map : Pathcov.Coverage_map.t) : Pathcov.Index_set.t =
  let tr = ln.st.feedback.trace in
  reserve ln (Pathcov.Coverage_map.count_set tr);
  let n =
    Pathcov.Coverage_map.noted_count
      (Pathcov.Coverage_map.merge_noting ~virgin:map tr ln.undo ~at:ln.nundo)
  in
  if n = 0 then Pathcov.Index_set.empty
  else begin
    let delta = Pathcov.Index_set.of_sub ln.undo ~pos:ln.nundo ~len:n in
    ln.nundo <- ln.nundo + n;
    delta
  end

(* O(1) random splice peer over the epoch-start queue snapshot — the
   same draw-to-entry mapping as the sequential loop's, against the view
   so every lane sees the same corpus regardless of merge-time growth. *)
let random_other_view (rng : Rng.t) (view : Corpus.view) (e : Corpus.entry) :
    string option =
  let n = Corpus.view_size view in
  if n <= 1 then None
  else
    let pick = Corpus.view_get view (n - 1 - Rng.int rng n) in
    if pick.Corpus.id = e.Corpus.id then None else Some pick.Corpus.data

(** The per-lane step loop: evaluate one work item end to end through
    the campaign stages against the lane's maps, recording retentions,
    crashes and hangs as sparse captures for the merge barrier instead
    of applying them, then undo the item's merges into [virgin] so it
    holds the epoch-start image again. [co] is the parked coordinator:
    the lane reads its maps, top-rated table and the epoch-start [view]
    only. Which candidates an item captures is thus a function of the
    item and the epoch-start state, whichever lane runs it; a crash
    delta may omit what the lane's earlier items found, which the
    barrier replays first. *)
let run_item (ln : lane) (co : Campaign.state) (view : Corpus.view) (it : item)
    : item_result =
  let lane = ln.st in
  let e = Corpus.view_get view it.entry_idx in
  let res = { execs = 0; n_cmps = 0; retained = []; crashes = []; hangs = [] } in
  let start = lane.execs in
  ln.nundo <- 0;
  (* The decision procedure over the candidate view just run: the
     candidate's string is materialised only when a crash or a
     retention record needs one. *)
  let capture_outcome (out : Vm.Interp.outcome) ((buf, len) : Bytes.t * int)
      ~(depth : int) : unit =
    let tr = lane.feedback.trace in
    let at_exec = it.base_exec + lane.execs - start in
    match out.status with
    | Vm.Interp.Crashed crash ->
        let delta = merge_delta ln lane.crash_virgin in
        res.crashes <-
          {
            c_crash = crash;
            c_input = Bytes.sub_string buf 0 len;
            c_at_exec = at_exec;
            c_delta = delta;
            c_dvals = Pathcov.Coverage_map.values_of tr delta;
          }
          :: res.crashes
    | Vm.Interp.Hung -> res.hangs <- at_exec :: res.hangs
    | Vm.Interp.Finished _ ->
        let delta = merge_delta ln lane.virgin in
        if Pathcov.Index_set.length delta > 0 then begin
          let idxs = Pathcov.Coverage_map.sorted_set tr in
          let exec_blocks = max 1 out.blocks_executed in
          let nidx = Pathcov.Index_set.length idxs in
          if Array.length ln.cand < nidx then ln.cand <- Array.make (2 * nidx) 0;
          let ncand =
            Corpus.dearer_slots co.corpus
              ~fav:(Corpus.fav_of ~exec_blocks ~len)
              idxs ~into:ln.cand
          in
          res.retained <-
            {
              r_data = Bytes.sub_string buf 0 len;
              r_idxs = idxs;
              r_delta = delta;
              r_dvals = Pathcov.Coverage_map.values_of tr delta;
              r_claim = Pathcov.Index_set.of_sub ln.cand ~pos:0 ~len:ncand;
              r_exec_blocks = exec_blocks;
              r_depth = depth;
              r_at_exec = at_exec;
            }
            :: res.retained
        end
  in
  let cmps =
    if it.calib then begin
      let data = e.Corpus.data in
      let cmps =
        Campaign.calibrate lane e ~on_fault:(fun out ->
            capture_outcome out
              (Bytes.unsafe_of_string data, String.length data)
              ~depth:e.Corpus.depth)
      in
      (* calibration merges into [virgin] unnoted; an admitted entry's
         trace was merged at the barrier already, but undo it anyway *)
      let tr = lane.feedback.trace in
      reserve ln (Pathcov.Coverage_map.count_set tr);
      Pathcov.Coverage_map.iteri_set
        (fun i _ ->
          ln.undo.(ln.nundo) <- i;
          ln.nundo <- ln.nundo + 1)
        tr;
      res.n_cmps <- lane.cmp_buf.n_cmps;
      cmps
    end
    else [||]
  in
  let depth = e.Corpus.depth + 1 in
  (* Batched cohort: the item's whole energy allotment runs back-to-back
     through one [cohort] call — splice draw, mutation and pre-exec reset
     in [gen], the per-candidate accounting and decision in [sink]. *)
  let cur = ref (Bytes.empty, 0) in
  if it.energy > 0 then begin
    Obs.Metrics.observe lane.h_batch it.energy;
    Campaign.trace_begin lane Obs.Trace.Exec
  end;
  Campaign.cohort lane ~n:it.energy
    ~gen:(fun _ ->
      Campaign.mutate lane ~rng:it.rng ~cmps
        ?splice_with:(random_other_view it.rng view e)
        e.Corpus.data;
      Campaign.pre_exec lane;
      let v = (lane.scratch.buf, lane.scratch.len) in
      cur := v;
      v)
    ~sink:(fun _ out ->
      Campaign.post_exec lane out;
      capture_outcome out !cur ~depth);
  if it.energy > 0 then Campaign.trace_end ~arg:it.energy lane;
  Pathcov.Coverage_map.restore_at ~dst:lane.virgin co.virgin ln.undo ln.nundo;
  res.execs <- lane.execs - start;
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

(* The coordinator: a campaign state owning the shared queue, virgin
   maps, triage and observer (its [rng] is the planning stream, its
   [execs] the campaign clock), plus the planner cursor. *)
type t = {
  cfg : config;
  co : Campaign.state;
  mutable items_total : int;  (** global item counter, keys RNG substreams *)
  mutable cycle_len : int;
  mutable next_qi : int;
  mutable epochs : int;
  mutable dup_dropped : int;
}

(* Plan one epoch: walk the queue in cycle order, exactly like the
   sequential scheduler, until [sync_interval] executions are scheduled
   or the budget is spent. Consumes skip draws from the planning stream
   and mutates times_fuzzed/pending_favored at plan time (the sequential
   loop does so between entries; both orders are deterministic). *)
let plan_epoch (t : t) : item array =
  let co = t.co in
  let base = t.cfg.base in
  let items = ref [] in
  let planned = ref 0 in
  while !planned < t.cfg.sync_interval && co.execs + !planned < base.budget do
    if t.next_qi >= t.cycle_len then begin
      t.cycle_len <- Campaign.start_cycle co ~at_exec:(co.execs + !planned);
      t.next_qi <- 0
    end;
    let e = Corpus.get co.corpus t.next_qi in
    t.next_qi <- t.next_qi + 1;
    if
      not
        (Campaign.entry_skip co.rng
           ~pending_favored:co.corpus.pending_favored e)
    then begin
      let calib_cost = if base.cmplog then 1 else 0 in
      let remaining = base.budget - (co.execs + !planned) in
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
          base_exec = co.execs + !planned;
        }
        :: !items;
      t.items_total <- t.items_total + 1;
      planned := !planned + calib_cost + energy;
      e.Corpus.times_fuzzed <- e.Corpus.times_fuzzed + 1;
      if e.Corpus.favored && e.Corpus.times_fuzzed = 1 then
        co.corpus.pending_favored <- max 0 (co.corpus.pending_favored - 1)
    end
  done;
  Array.of_list (List.rev !items)

(* Replay one epoch's item results against the shared state, in global
   item order — the only place shared campaign state is written. Runs
   after the epoch's executions are on both exec clocks. *)
let merge_epoch (t : t) (items : item array) (results : item_result array) :
    int =
  let co = t.co in
  (* the observer's exec count when the campaign started *)
  let exec_base = co.obs.counters.execs - co.execs in
  let retained_now = ref 0 in
  Array.iteri
    (fun k (it : item) ->
      let r = results.(k) in
      if it.calib then
        Obs.Observer.event co.obs
          (Obs.Event.Calibration
             {
               at_exec = exec_base + it.base_exec + 1;
               entry = it.entry_id;
               cmps = r.n_cmps;
             });
      List.iter
        (fun (cr : crash_rec) ->
          let coverage_novel =
            Pathcov.Coverage_map.merge_sparse_into ~virgin:co.crash_virgin
              ~idxs:cr.c_delta ~vals:cr.c_dvals
            <> Pathcov.Coverage_map.Nothing
          in
          Triage.record_crash co.triage ~crash:cr.c_crash ~input:cr.c_input
            ~at_exec:cr.c_at_exec ~coverage_novel)
        r.crashes;
      List.iter (fun at -> Triage.record_hang ~at_exec:at co.triage) r.hangs;
      List.iter
        (fun (rr : retained_rec) ->
          if Campaign.queue_full co ~at_exec:rr.r_at_exec then ()
          else if
            Pathcov.Coverage_map.merge_sparse_into ~virgin:co.virgin
              ~idxs:rr.r_delta ~vals:rr.r_dvals
            <> Pathcov.Coverage_map.Nothing
          then begin
            Campaign.admit co ~claim:rr.r_claim ~indices:rr.r_idxs ~data:rr.r_data
              ~exec_blocks:rr.r_exec_blocks ~depth:rr.r_depth
              ~at_exec:rr.r_at_exec;
            incr retained_now
          end
          else t.dup_dropped <- t.dup_dropped + 1)
        r.retained)
    items;
  !retained_now

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

(** Snapshot the sharded campaign at a merge barrier. Barriers are the
    only capture points: between them lane-private state is in flight,
    but at a barrier the entire campaign is the coordinator's state plus
    the planner cursor — and both are pure functions of
    [(seed, sync_interval)], so checkpoints are too, independent of
    shard and worker count. Per-item RNG streams need no capture: they
    are substreams keyed by [items_total]. *)
let capture_checkpoint (t : t) ~(subject : string) ~(fuzzer : string) :
    Checkpoint.t =
  Campaign.capture_checkpoint t.co ~subject ~fuzzer
    ~sync_interval:t.cfg.sync_interval ~planner:(fun p ->
      {
        p with
        items_total = t.items_total;
        cycle_len = t.cycle_len;
        next_qi = t.next_qi;
        epochs = t.epochs;
        dup_dropped = t.dup_dropped;
      })

(* Load a barrier snapshot into a freshly built coordinator: the
   campaign state, then the planner cursor. *)
let restore_checkpoint (t : t) (ck : Checkpoint.t) : unit =
  Campaign.restore_checkpoint t.co ck;
  let p = ck.Checkpoint.progress in
  t.items_total <- p.items_total;
  t.cycle_len <- p.cycle_len;
  t.next_qi <- p.next_qi;
  t.epochs <- p.epochs;
  t.dup_dropped <- p.dup_dropped

(** Run one sharded campaign. [workers] caps how many lanes run at once,
    the calling domain included (the default runs one per shard, on
    [shards - 1] pool domains and the caller; any value yields byte-identical
    results — it is purely a wall-clock knob, like [--jobs] for trial
    fan-out). [plans] and [obs] behave as in {!Campaign.run}; the
    observer's clock enables the same vm/mutator wall split, accumulated
    per lane and aggregated at each barrier.

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
  if cfg.sync_interval < 1 then
    invalid_arg "Shard.run: sync_interval must be >= 1";
  let base = cfg.base in
  let co = Campaign.make_state ?plans ?obs ~config:base prog in
  let lanes =
    Array.init cfg.shards (fun s ->
        let st = Campaign.make_state ?plans ~obs:co.obs ~lane:s ~config:base prog in
        { st; undo = [||]; nundo = 0; cand = [||] })
  in
  (* snapshot rows are sampled at barriers only *)
  co.sample_every <- max_int;
  Array.iter (fun ln -> ln.st.sample_every <- max_int) lanes;
  (* the coordinator's stream is the planning stream; items draw from
     substreams [1..] *)
  Rng.set_state co.rng (Rng.state (Rng.substream ~seed:base.rng_seed 0));
  let obs = co.obs in
  let c = obs.counters in
  let baseline = Campaign.baseline co in
  let t =
    { cfg; co; items_total = 0; cycle_len = 0; next_qi = 0; epochs = 0;
      dup_dropped = 0 }
  in
  (match resume with
  | Some ck -> restore_checkpoint t ck
  | None -> Campaign.add_seeds co seeds);
  (* snapshot schedule: a pure function of the exec clock, identical for
     straight and resumed runs *)
  let next_mark = ref max_int in
  (match checkpoint with
  | Some sk -> next_mark := Checkpoint.next_mark ~every:sk.every ~execs:co.execs
  | None -> ());
  let workers =
    min cfg.shards (match workers with Some w -> max 1 w | None -> cfg.shards)
  in
  (* the calling domain runs one lane of every phase itself *)
  let pool =
    if workers > 1 then Some (Exec.Pool.create ~jobs:(workers - 1)) else None
  in
  let walls = Array.make cfg.shards 0. in
  (* the next unclaimed item of the running epoch *)
  let cursor = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () ->
      match pool with Some p -> Exec.Pool.shutdown p | None -> ())
    (fun () ->
      while co.execs < base.budget do
        Campaign.trace_begin co Obs.Trace.Plan;
        let items = plan_epoch t in
        let n = Array.length items in
        Campaign.trace_end ~arg:n co;
        let results = Array.make n None in
        let view = Corpus.view co.corpus ~limit:(Corpus.size co.corpus) in
        Atomic.set cursor 0;
        (* lanes claim items as they free up; each lane's maps start the
           epoch as copies of the global ones and every item hands the
           virgin map back unchanged, so no retention depends on which
           lane ran it *)
        let slice s ~worker:_ =
          let ln = lanes.(s) in
          let lane = ln.st in
          let t0 = match obs.clock with Some now -> now () | None -> 0. in
          Campaign.trace_begin lane Obs.Trace.Epoch;
          Pathcov.Coverage_map.copy_into ~dst:lane.virgin co.virgin;
          Pathcov.Coverage_map.copy_into ~dst:lane.crash_virgin co.crash_virgin;
          let mine = ref 0 in
          let k = ref (Atomic.fetch_and_add cursor 1) in
          while !k < n do
            results.(!k) <- Some (run_item ln co view items.(!k));
            incr mine;
            k := Atomic.fetch_and_add cursor 1
          done;
          Campaign.trace_end ~arg:!mine lane;
          walls.(s) <- (match obs.clock with Some now -> now () -. t0 | None -> 0.)
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
        (* barrier: the lane domains are parked (run_phase returned), so
           folding their private counter and metric blocks into the
           coordinator's is race-free; the epoch's executions reach both
           exec clocks before the merge replays them *)
        Array.iter
          (fun ln ->
            let l = ln.st in
            Campaign.settle_walls l;
            Obs.Counters.add_into ~into:c l.obs.counters;
            Obs.Counters.reset l.obs.counters;
            Obs.Metrics.add_into ~into:obs.metrics l.obs.metrics;
            Obs.Metrics.reset l.obs.metrics)
          lanes;
        Array.iter (fun (r : item_result) -> co.execs <- co.execs + r.execs) results;
        Campaign.trace_begin co Obs.Trace.Merge;
        let retained_now = merge_epoch t items results in
        Campaign.trace_end ~arg:retained_now co;
        t.epochs <- t.epochs + 1;
        (* stall watchdog: epoch walls exist only when the observer
           carries a clock, so verdicts (like every wall) are
           observation-only and never reach a fuzzing decision *)
        (match obs.clock with
        | Some _ when cfg.shards > 1 ->
            let maxw = Array.fold_left max 0. walls in
            let m = obs.metrics in
            Array.iteri
              (fun s w ->
                Obs.Metrics.add_wall
                  (Obs.Metrics.wall m (Printf.sprintf "shard%d.busy_s" s))
                  w;
                Obs.Metrics.add_wall
                  (Obs.Metrics.wall m (Printf.sprintf "shard%d.wait_s" s))
                  (maxw -. w))
              walls;
            List.iter
              (fun (s, w, med) ->
                Obs.Metrics.bump (Obs.Metrics.counter m "shard.stalls");
                Obs.Observer.event obs
                  (Obs.Event.Stall
                     {
                       at_exec = c.execs;
                       epoch = t.epochs;
                       shard = s;
                       wall_s = w;
                       median_s = med;
                     }))
              (stall_check ~walls ~factor:stall_factor)
        | _ -> ());
        Obs.Observer.event obs
          (Obs.Event.Shard_sync
             {
               at_exec = c.execs;
               epoch = t.epochs;
               queue = Corpus.size co.corpus;
               retained = retained_now;
               dup_dropped = t.dup_dropped;
             });
        Campaign.take_snapshot co;
        (* barrier-aligned checkpoint, mid-budget only: resuming the
           final state would be a no-op and the written file should
           always have budget left to replay *)
        match checkpoint with
        | Some sk when co.execs < base.budget && co.execs >= !next_mark ->
            Campaign.trace_begin co Obs.Trace.Checkpoint;
            sk.save (capture_checkpoint t ~subject:sk.subject ~fuzzer:sk.fuzzer);
            Campaign.trace_end co;
            next_mark := Checkpoint.next_mark ~every:sk.every ~execs:co.execs
        | _ -> ()
      done);
  {
    campaign =
      Campaign.finish co baseline
        ~tracers:
          (co.tracer
          :: Array.to_list (Array.map (fun ln -> ln.st.tracer) lanes));
    shards = cfg.shards;
    sync_interval = cfg.sync_interval;
    epochs = t.epochs;
    items = t.items_total;
    dup_dropped = t.dup_dropped;
    virgin = co.virgin;
    crash_virgin = co.crash_virgin;
  }
