(** Deterministic intra-campaign sharding: one fuzzing campaign spread
    over N OCaml 5 domains with a fixed synchronization schedule. The
    coordinator and every lane is a {!Campaign.state}, and every queue
    entry runs through {!Campaign.fuzz_entry}, the sequential loop's own
    stage and decision procedure; this module keeps only the planning,
    the fan-out, the barrier replay and the stall watchdog.

    - {b The planner} (coordinator) walks the queue like the sequential
      scheduler and emits {e work items} pinned to (queue entry, private
      RNG stream keyed by schedule position, energy, exec-clock base)
      until [sync_interval] executions are scheduled.
    - {b The lanes} (parallel phase) claim items off a shared cursor.
      A lane's virgin and crash-virgin maps are copies of the global
      ones taken at epoch start; a lane state records each decision as a
      {!Campaign.capture} instead of applying it, and after each item
      the item's virgin merges are undone from the lane's note log.
    - {b The merge barrier} (coordinator) folds the lane counters in and
      replays the captures in global item order ({!Campaign.replay}).

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
  energy : int;  (** havoc candidates to evaluate *)
  base_exec : int;  (** campaign execs before this item's first one *)
}

type item_result = {
  execs : int;
  n_cmps : int;  (** calibration pairs captured (event payload) *)
  captures : Campaign.capture list;  (** in execution order *)
}

(* ------------------------------------------------------------------ *)
(* Lanes *)

(** The per-lane step: run one work item through the campaign's
    queue-entry stage on [lane], whose [virgin] holds the epoch-start
    global map and whose [crash_virgin] holds the epoch-start one plus
    the lane's crash captures so far; then undo the item's merges into
    [virgin] from the note log, so it holds the epoch-start image again.
    [co] is the parked coordinator: the lane reads its maps, top-rated
    table and the epoch-start [view] only. Which candidates an item
    captures is thus a function of the item and the epoch-start state,
    whichever lane runs it; a crash delta may omit what the lane's
    earlier items found, which the barrier replays first. *)
let run_item (lane : Campaign.state) (co : Campaign.state) (view : Corpus.view)
    (it : item) : item_result =
  lane.execs <- it.base_exec;
  Campaign.fuzz_entry lane ~rng:it.rng ~peers:(Frozen view) ~energy:it.energy
    (Corpus.view_get view it.entry_idx);
  Pathcov.Coverage_map.restore_at ~dst:lane.virgin co.virgin lane.note
    lane.nnote;
  {
    execs = lane.execs - it.base_exec;
    n_cmps = lane.cmp_buf.n_cmps;
    captures = List.rev lane.captures;
  }

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
      let energy =
        Campaign.entry_energy base ~left:(base.budget - (co.execs + !planned)) e
      in
      items :=
        {
          entry_idx = t.next_qi - 1;
          entry_id = e.Corpus.id;
          rng = Rng.substream ~seed:base.rng_seed (t.items_total + 1);
          energy;
          base_exec = co.execs + !planned;
        }
        :: !items;
      t.items_total <- t.items_total + 1;
      planned := !planned + (if base.cmplog then 1 else 0) + energy;
      e.Corpus.times_fuzzed <- e.Corpus.times_fuzzed + 1;
      if e.Corpus.favored && e.Corpus.times_fuzzed = 1 then
        co.corpus.pending_favored <- max 0 (co.corpus.pending_favored - 1)
    end
  done;
  Array.of_list (List.rev !items)

(* An item's crashes replay before its hangs, and those before its
   retentions: the order their events reach the sink. *)
let replay_pass : Campaign.capture -> int = function
  | Crashed _ -> 0
  | Hung _ -> 1
  | Retained _ -> 2

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
      if co.cfg.cmplog then
        Obs.Observer.event co.obs
          (Obs.Event.Calibration
             {
               at_exec = exec_base + it.base_exec + 1;
               entry = it.entry_id;
               cmps = r.n_cmps;
             });
      for pass = 0 to 2 do
        List.iter
          (fun cap ->
            if replay_pass cap = pass then
              match Campaign.replay co cap with
              | `Admitted -> incr retained_now
              | `Duplicate -> t.dup_dropped <- t.dup_dropped + 1
              | `Other -> ())
          r.captures
      done)
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

(** The planner cursor a barrier snapshot records. Barriers are the
    only capture points: between them lane-private state is in flight,
    but at a barrier the entire campaign is the coordinator's state plus
    the planner cursor — and both are pure functions of
    [(seed, sync_interval)], so checkpoints are too, independent of
    shard and worker count. Per-item RNG streams need no capture: they
    are substreams keyed by [items_total]. *)
let planner (t : t) (p : Checkpoint.progress) : Checkpoint.progress =
  {
    p with
    items_total = t.items_total;
    cycle_len = t.cycle_len;
    next_qi = t.next_qi;
    epochs = t.epochs;
    dup_dropped = t.dup_dropped;
  }

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

(* Lanes are built on the calling domain but run on pool domains, and
   their per-run registers (the emitted unit's refs, the closure
   artifact's state, contexts, trace-map records) are small mutable
   blocks that one minor collection would promote side by side: two
   lanes writing one cache line made a two-lane native sqlite3/pathafl
   campaign 2-3x slower, depending on the minor heap size. So each
   lane's young blocks are promoted on their own, followed by a cache
   line of padding in every small size class; [pads] keeps the padding
   alive for the campaign. *)
let promote_apart (pads : int array list ref) : unit =
  Gc.minor ();
  for w = 1 to 32 do
    for _ = 0 to 64 / (8 * (w + 1)) do
      pads := Array.make w 0 :: !pads
    done
  done;
  Gc.minor ()

(* One sharded campaign (see shard.mli). The calling domain runs one
   lane of every epoch itself, so [workers] lanes need [workers - 1]
   pool domains. *)
let run ?plans ?obs ?workers ?(checkpoint : Checkpoint.sink option)
    ?(resume : Checkpoint.t option) (cfg : config) (prog : Minic.Ir.program)
    ~(seeds : string list) : result =
  if cfg.shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  if cfg.sync_interval < 1 then
    invalid_arg "Shard.run: sync_interval must be >= 1";
  let base = cfg.base in
  let co = Campaign.make_state ?plans ?obs ~config:base prog in
  let pads = ref [] in
  promote_apart pads;
  let lanes =
    Array.init cfg.shards (fun s ->
        let lane = Campaign.make_state ?plans ~lane:(s, co) ~config:base prog in
        promote_apart pads;
        lane)
  in
  (* snapshot rows are sampled at barriers only *)
  co.sample_every <- max_int;
  Array.iter (fun (l : Campaign.state) -> l.sample_every <- max_int) lanes;
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
  let at_mark =
    Campaign.checkpoint_schedule ~sync_interval:cfg.sync_interval
      ~planner:(planner t) checkpoint co
  in
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
          let lane = lanes.(s) in
          let t0 = match obs.clock with Some now -> now () | None -> 0. in
          Campaign.trace_begin lane Obs.Trace.Epoch;
          Pathcov.Coverage_map.copy_into ~dst:lane.virgin co.virgin;
          Pathcov.Coverage_map.copy_into ~dst:lane.crash_virgin co.crash_virgin;
          let mine = ref 0 in
          let k = ref (Atomic.fetch_and_add cursor 1) in
          while !k < n do
            results.(!k) <- Some (run_item lane co view items.(!k));
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
          (fun (l : Campaign.state) ->
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
        at_mark ()
      done);
  ignore (Sys.opaque_identity !pads);
  {
    campaign =
      Campaign.finish co baseline
        ~tracers:
          (co.tracer
          :: Array.to_list
               (Array.map (fun (l : Campaign.state) -> l.tracer) lanes));
    shards = cfg.shards;
    sync_interval = cfg.sync_interval;
    epochs = t.epochs;
    items = t.items_total;
    dup_dropped = t.dup_dropped;
    virgin = co.virgin;
    crash_virgin = co.crash_virgin;
  }
