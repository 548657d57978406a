(** A small fixed-size domain pool (OCaml 5 [Domain] + [Mutex]/[Condition],
    stdlib only) for fanning indexed task lists out across cores.

    Two consumers with different shapes share it:

    - the experiment matrix ([map]) is embarrassingly parallel — every
      (subject, fuzzer, trial) campaign is a pure function of its inputs —
      and wants one-shot fan-out: results land by task index, so the
      output array is identical for every worker count and schedule;
    - sharded campaigns want a *reusable* barrier: one pool outlives many
      sync epochs, each epoch running a batch of shard tasks — the first
      on the calling domain — and blocking until the batch drains
      ([run_phase]). Spawning domains once per campaign instead of once
      per epoch keeps the barrier cost at mutex/condvar level.

    Failure handling is centralised in the workers: a raising task never
    kills its worker domain. The worker captures the exception and its
    backtrace immediately (in the raising domain, before any lock is
    taken — the capture cannot be clobbered by another domain's raise),
    and the pool records the failure with the smallest submission index,
    so the surfaced exception is stable across schedules. [wait] and
    [shutdown] re-raise it in the calling domain after the queue has
    drained and (for [shutdown]) every worker has been joined — a raising
    task can no longer leave workers blocked or domains unjoined.

    Scheduling is observable without being influential: [map] can emit
    [Trial_begin]/[Trial_end] events (task index, worker id, wall-clock)
    into an {!Obs.Sink.t}, serialised under the result mutex so sinks
    need no locking of their own. Results never depend on the sink.

    Tasks must not share mutable state unless that state is itself
    domain-safe; the experiment runner rebuilds the per-task program,
    Ball–Larus plans and interpreter state, and sharded campaigns hand
    each shard its own execution context, for exactly this reason. *)

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (** signalled when a task is queued or the pool closes *)
  idle : Condition.t;  (** signalled when the last in-flight task finishes *)
  tasks : (int * (int -> unit)) Queue.t;
      (** (submission index, thunk); thunks receive the claiming worker's id *)
  mutable next_seq : int;  (** submission counter, for stable failure pick *)
  mutable running : int;  (** tasks currently executing on some worker *)
  mutable closing : bool;
  mutable domains : unit Domain.t list;
  mutable failure : (int * int * exn * Printexc.raw_backtrace) option;
      (** (submission index, worker, exn, backtrace) of the earliest
          failure since the last [wait]/[shutdown] *)
}

(* Keep the failure with the smallest submission index: tasks are claimed
   in submission order, so the surfaced exception is stable across
   schedules and worker counts. Caller holds the mutex. *)
let record_failure_locked pool seq worker e bt =
  match pool.failure with
  | Some (j, _, _, _) when j <= seq -> ()
  | _ -> pool.failure <- Some (seq, worker, e, bt)

(** Spawn a pool of [jobs] worker domains consuming submitted thunks.
    Each worker passes its id (0-based) to the tasks it claims. *)
let create ~jobs : t =
  let pool =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      tasks = Queue.create ();
      next_seq = 0;
      running = 0;
      closing = false;
      domains = [];
      failure = None;
    }
  in
  let rec worker wid =
    (* invariant: the mutex is held here *)
    match Queue.take_opt pool.tasks with
    | Some (seq, task) ->
        pool.running <- pool.running + 1;
        Mutex.unlock pool.mutex;
        (match task wid with
        | () -> Mutex.lock pool.mutex
        | exception e ->
            (* capture in the raising domain, before touching the lock *)
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock pool.mutex;
            record_failure_locked pool seq wid e bt);
        pool.running <- pool.running - 1;
        if pool.running = 0 && Queue.is_empty pool.tasks then
          Condition.broadcast pool.idle;
        worker wid
    | None ->
        if pool.closing then Mutex.unlock pool.mutex
        else begin
          Condition.wait pool.work pool.mutex;
          worker wid
        end
  in
  pool.domains <-
    List.init (max 1 jobs) (fun wid ->
        Domain.spawn (fun () ->
            Mutex.lock pool.mutex;
            worker wid));
  pool

let submit (pool : t) (task : int -> unit) : unit =
  Mutex.lock pool.mutex;
  if pool.closing then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is closed"
  end
  else begin
    Queue.add (pool.next_seq, task) pool.tasks;
    pool.next_seq <- pool.next_seq + 1;
    Condition.signal pool.work;
    Mutex.unlock pool.mutex
  end

(** Has any task failed since the last [wait]/[shutdown]? Observable
    mid-flight, so long fan-outs can stop submitting doomed work. *)
let failed (pool : t) : bool =
  Mutex.lock pool.mutex;
  let f = pool.failure <> None in
  Mutex.unlock pool.mutex;
  f

(* Take and clear the recorded failure, print the worker-side frames
   (the re-raised backtrace only covers the calling domain) and re-raise
   in the calling domain. *)
let reraise_failure pool =
  Mutex.lock pool.mutex;
  let f = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.mutex;
  match f with
  | None -> ()
  | Some (seq, worker, e, bt) ->
      let frames = Printexc.raw_backtrace_to_string bt in
      Printf.eprintf "pathfuzz: task %d failed on worker %d: %s\n%s%!" seq
        worker (Printexc.to_string e)
        (if frames = "" then "" else frames);
      Printexc.raise_with_backtrace e bt

(** Barrier: block until every submitted task has finished, then re-raise
    the earliest recorded failure (if any) in the calling domain. The
    pool stays open — submit the next phase afterwards. *)
let wait (pool : t) : unit =
  Mutex.lock pool.mutex;
  while pool.running > 0 || not (Queue.is_empty pool.tasks) do
    Condition.wait pool.idle pool.mutex
  done;
  Mutex.unlock pool.mutex;
  reraise_failure pool

(** One synchronization phase: [n] tasks ([f] receives the task index
    and a worker id), task 0 on the calling domain and the rest queued
    for the pool's workers; returns once all of them have finished. The
    caller works through the phase instead of sleeping in it, so [n]
    concurrent tasks need [n - 1] pool domains and a phase wakes one
    domain fewer. Task 0's worker id is the pool's width. Tasks of one
    phase run concurrently; phases never overlap. The earliest failure
    (task 0's first) is re-raised after the whole phase has drained,
    leaving the pool reusable. *)
let run_phase (pool : t) (n : int) (f : int -> worker:int -> unit) : unit =
  Mutex.lock pool.mutex;
  let seq0 = pool.next_seq in
  pool.next_seq <- seq0 + 1;
  Mutex.unlock pool.mutex;
  for i = 1 to n - 1 do
    submit pool (fun wid -> f i ~worker:wid)
  done;
  (if n > 0 then
     let wid = List.length pool.domains in
     match f 0 ~worker:wid with
     | () -> ()
     | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.mutex;
         record_failure_locked pool seq0 wid e bt;
         Mutex.unlock pool.mutex);
  wait pool

(** Close the pool: queued tasks drain, every worker domain exits and is
    joined — even when tasks failed — and only then is the earliest
    failure re-raised. Acts as the completion barrier for [map]. *)
let shutdown (pool : t) : unit =
  Mutex.lock pool.mutex;
  pool.closing <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  (* Workers never die of task exceptions (they are captured above), but
     join defensively so one pathological domain death cannot leave the
     rest unjoined. *)
  let join_failure = ref None in
  List.iter
    (fun d ->
      try Domain.join d
      with e -> if !join_failure = None then join_failure := Some e)
    pool.domains;
  pool.domains <- [];
  reraise_failure pool;
  match !join_failure with None -> () | Some e -> raise e

(** [map ~jobs ?sink ?on_done n f] computes [|f 0; ...; f (n-1)|] on up to
    [jobs] worker domains. Tasks are claimed in index order from a shared
    queue (dynamic scheduling, so uneven task costs balance), and results
    land in their task's slot — the returned array is independent of the
    schedule. [sink] receives [Trial_begin] at claim and [Trial_end]
    (with per-trial wall-clock) at completion; both are emitted under the
    result mutex, so a plain ring or JSONL sink is safe to share.
    [on_done i r] fires once per finished task under the same mutex, so
    callbacks (e.g. a progress line) never interleave. If any task (or
    its [on_done]) raises, the exception with the lowest task index is
    re-raised in the calling domain after the queue has drained and every
    worker has been joined — preceded by a stderr diagnostic naming the
    task, its worker and the worker-side backtrace. Remaining queued
    tasks are skipped. [jobs <= 1] runs sequentially in the calling
    domain (worker id 0) with identical results and callbacks. *)
let map ?(jobs = 1) ?sink ?on_done (n : int) (f : int -> 'a) : 'a array =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  let jobs = min (max 1 jobs) n in
  let emit ev =
    match sink with Some (s : Obs.Sink.t) -> s.emit ev | None -> ()
  in
  if n = 0 then [||]
  else if jobs = 1 then
    Array.init n (fun i ->
        emit (Obs.Event.Trial_begin { task = i; worker = 0 });
        let t0 = Unix.gettimeofday () in
        let r = f i in
        emit
          (Obs.Event.Trial_end
             { task = i; worker = 0; wall_s = Unix.gettimeofday () -. t0 });
        (match on_done with Some g -> g i r | None -> ());
        r)
  else begin
    let state = Mutex.create () in
    let results = Array.make n None in
    let pool = create ~jobs in
    for i = 0 to n - 1 do
      submit pool (fun worker ->
          (* tasks are submitted in index order, so the pool's earliest
             recorded failure is the lowest-index one *)
          let skip = failed pool in
          if not skip then begin
            Mutex.lock state;
            emit (Obs.Event.Trial_begin { task = i; worker });
            Mutex.unlock state;
            let t0 = Unix.gettimeofday () in
            let r = f i in
            let wall_s = Unix.gettimeofday () -. t0 in
            Mutex.lock state;
            results.(i) <- Some r;
            emit (Obs.Event.Trial_end { task = i; worker; wall_s });
            let finish =
              match on_done with Some g -> fun () -> g i r | None -> ignore
            in
            Fun.protect ~finally:(fun () -> Mutex.unlock state) finish
          end)
    done;
    shutdown pool;
    Array.map
      (function Some r -> r | None -> invalid_arg "Pool.map: missing result")
      results
  end
