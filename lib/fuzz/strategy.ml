(* The fuzzer table and its drivers, and the run entry point {!exec}:
   see strategy.mli. *)

type kind =
  | Plain of Pathcov.Feedback.mode
  | Cull of { rounds : int; criterion : [ `Edges | `Paths | `Random ] }
  | Opportunistic

type fuzzer = { name : string; spec : kind; cmplog : bool }

let pcguard = { name = "pcguard"; spec = Plain Pathcov.Feedback.Edge; cmplog = true }
let path = { name = "path"; spec = Plain Pathcov.Feedback.Path; cmplog = true }

let cull ?(rounds = 8) () =
  { name = "cull"; spec = Cull { rounds; criterion = `Edges }; cmplog = true }

let cull_r ?(rounds = 8) () =
  { name = "cull_r"; spec = Cull { rounds; criterion = `Random }; cmplog = true }

let cull_p ?(rounds = 8) () =
  { name = "cull_p"; spec = Cull { rounds; criterion = `Paths }; cmplog = true }

let opp = { name = "opp"; spec = Opportunistic; cmplog = true }
let pathafl = { name = "pathafl"; spec = Plain Pathcov.Feedback.Pathafl; cmplog = false }
let afl = { name = "afl"; spec = Plain Pathcov.Feedback.Edge; cmplog = false }
let block = { name = "block"; spec = Plain Pathcov.Feedback.Block; cmplog = true }

let ngram n =
  {
    name = Printf.sprintf "ngram%d" n;
    spec = Plain (Pathcov.Feedback.Ngram n);
    cmplog = true;
  }

let all ?(rounds = 8) () =
  [ path; pcguard; cull ~rounds (); cull_r ~rounds (); cull_p ~rounds (); opp;
    pathafl; afl; block; ngram 2; ngram 4 ]

(** Campaign-level outcome of running one fuzzer on one subject. *)
type run_result = {
  fuzzer : string;
  final_queue : string list;  (** inputs in the queue when the budget ended *)
  queue_size : int;
  triage : Triage.t;
  execs : int;
  queue_series : (int * int) list;
  sum_exec_blocks : int;
}

let of_campaign name (r : Campaign.result) : run_result =
  {
    fuzzer = name;
    final_queue = Campaign.queue_inputs r;
    queue_size = Corpus.size r.corpus;
    triage = r.triage;
    execs = r.execs;
    queue_series = r.queue_series;
    sum_exec_blocks = r.sum_exec_blocks;
  }

(* ------------------------------------------------------------------ *)
(* The run description *)

type checkpoint = { every : int; write : Checkpoint.t -> int }

type spec = {
  fuzzer : fuzzer;
  config : Campaign.config;
  trials : int;
  jobs : int;
  shards : int;
  sync_interval : int;
  workers : int option;
  subject : string;
  checkpoint : checkpoint option;
  resume : Checkpoint.t option;
  observer : unit -> Obs.Observer.t option;
  trial_sink : Obs.Sink.t option;
}

let spec ?(engine = Tracer.matrix_engine)
    ?(map_size_log2 = Campaign.default_config.map_size_log2) ~budget
    ~trial_seed fuzzer =
  { fuzzer;
    config =
      { Campaign.default_config with budget; rng_seed = trial_seed; engine;
        map_size_log2 };
    trials = 1; jobs = 1; shards = 0;
    sync_interval = Shard.default_sync_interval; workers = None;
    subject = ""; checkpoint = None; resume = None;
    observer = (fun () -> None); trial_sink = None }

type trial = {
  result : run_result;
  campaign : Campaign.result;
  epochs : int;
  items : int;
  dup_dropped : int;
  obs : Obs.Observer.t option;
}

(* The config of one phase of a trial: the spec's base config under the
   phase's feedback, cmplog switch, budget and seed. *)
let phase (s : spec) ~budget ~seed ~cmplog mode : Campaign.config =
  { s.config with mode; budget; rng_seed = seed; cmplog }

(* A trial whose last (or only) campaign is [r]. *)
let trial_of ?obs name (r : Campaign.result) =
  { result = of_campaign name r; campaign = r; epochs = 0; items = 0;
    dup_dropped = 0; obs }

(* Random trim per Appendix D: remove 84–98% of the queue. *)
let random_trim rng inputs =
  let n = List.length inputs in
  if n <= 2 then inputs
  else begin
    let keep_pct = Rng.range rng 2 16 in
    let keep = max 1 (n * keep_pct / 100) in
    (* Reservoir-free selection: shuffle indices deterministically. *)
    let arr = Array.of_list inputs in
    for i = Array.length arr - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list (Array.sub arr 0 keep)
  end

let cull_trial ?plans ?obs (s : spec) ~seed ~rounds ~criterion prog ~seeds =
  let rounds = max 1 rounds in
  let per_round = max 1 (s.config.budget / rounds) in
  let rng = Rng.create (seed * 7 + 13) in
  let triage = Triage.create () in
  let rec go round seeds_now execs_so_far series =
    let config =
      phase s ~budget:per_round ~seed:(seed + (round * 101))
        ~cmplog:s.fuzzer.cmplog Pathcov.Feedback.Path
    in
    let r = Campaign.run ?plans ?obs ~config prog ~seeds:seeds_now in
    Triage.merge ~into:triage r.triage;
    let execs_total = execs_so_far + r.execs in
    let series =
      series @ List.map (fun (x, q) -> (x + execs_so_far, q)) r.queue_series
    in
    if round + 1 >= rounds then (r, execs_total, series)
    else begin
      let queue = Campaign.queue_inputs r in
      let culled =
        match criterion with
        | `Edges -> Measure.edge_preserving_cull ?obs prog queue
        | `Paths -> Measure.path_preserving_cull ?plans ?obs prog queue
        | `Random -> random_trim rng queue
      in
      go (round + 1) culled execs_total series
    end
  in
  let last, execs, series = go 0 seeds 0 [] in
  let t = trial_of ?obs s.fuzzer.name last in
  { t with result = { t.result with triage; execs; queue_series = series } }

let opportunistic_trial ?plans ?obs (s : spec) ~seed prog ~seeds =
  let budget = s.config.budget in
  let half = max 1 (budget / 2) in
  let config1 =
    phase s ~budget:half ~seed:(seed + 17) ~cmplog:true Pathcov.Feedback.Edge
  in
  let phase1 = Campaign.run ?plans ?obs ~config:config1 prog ~seeds in
  (* The paper strips crashing inputs (our queue never holds them) and
     trims the donor queue to an edge-preserving subset. *)
  let donor =
    Measure.edge_preserving_cull ?obs prog (Campaign.queue_inputs phase1)
  in
  let donor = if donor = [] then seeds else donor in
  let config2 =
    phase s ~budget:(budget - half) ~seed ~cmplog:s.fuzzer.cmplog
      Pathcov.Feedback.Path
  in
  let phase2 = Campaign.run ?plans ?obs ~config:config2 prog ~seeds:donor in
  (* Only the path-aware phase's queue and findings count (§V: crashing
     inputs from the donor are removed so opp relies on its own
     abilities); executions and the queue series span both phases. *)
  let t = trial_of ?obs s.fuzzer.name phase2 in
  let series =
    phase1.queue_series
    @ List.map (fun (x, q) -> (x + phase1.execs, q)) phase2.queue_series
  in
  { t with
    result =
      { t.result with
        execs = phase1.execs + phase2.execs; queue_series = series;
        sum_exec_blocks = phase1.sum_exec_blocks + phase2.sum_exec_blocks } }

(* The checkpoint sink of one trial: [c.write] stores each snapshot, and
   the trial's observer, if any, is charged its count, size and wall. *)
let sink (s : spec) (obs : Obs.Observer.t option) (c : checkpoint) :
    Checkpoint.sink =
  let save ck =
    match obs with
    | None -> ignore (c.write ck)
    | Some (o : Obs.Observer.t) ->
        let now () = match o.clock with Some f -> f () | None -> 0. in
        let t0 = now () in
        let bytes = c.write ck in
        let m = o.metrics in
        Obs.Metrics.bump (Obs.Metrics.counter m "checkpoint.writes");
        Obs.Metrics.observe (Obs.Metrics.hist m "checkpoint.bytes") bytes;
        Obs.Metrics.add_wall
          (Obs.Metrics.wall m "checkpoint.write_s")
          (now () -. t0)
  in
  { Checkpoint.every = c.every; subject = s.subject; fuzzer = s.fuzzer.name;
    save }

let run_trial ?plans (s : spec) prog ~seeds ~obs i : trial =
  let seed = s.config.rng_seed + i in
  match s.fuzzer.spec with
  | Plain mode ->
      let config =
        phase s ~budget:s.config.budget ~seed ~cmplog:s.fuzzer.cmplog mode
      in
      let checkpoint = Option.map (sink s obs) s.checkpoint in
      if s.shards = 0 then
        trial_of ?obs s.fuzzer.name
          (Campaign.run ?plans ?obs ~config ?checkpoint ?resume:s.resume prog
             ~seeds)
      else
        let r =
          Shard.run ?plans ?obs ?workers:s.workers ?checkpoint
            ?resume:s.resume
            { Shard.base = config; shards = s.shards;
              sync_interval = s.sync_interval }
            prog ~seeds
        in
        { (trial_of ?obs s.fuzzer.name r.campaign) with
          epochs = r.epochs; items = r.items; dup_dropped = r.dup_dropped }
  | Cull { rounds; criterion } ->
      cull_trial ?plans ?obs s ~seed ~rounds ~criterion prog ~seeds
  | Opportunistic -> opportunistic_trial ?plans ?obs s ~seed prog ~seeds

(* Why [s] cannot run, if it cannot (a spec that resumes is checked
   against its snapshot's identity last). *)
let refusal (s : spec) : string option =
  let plain = match s.fuzzer.spec with Plain _ -> true | _ -> false in
  let snapshots = s.checkpoint <> None || s.resume <> None in
  let nonpositive = Option.fold ~none:false ~some:(fun n -> n < 1) in
  let checks =
    [
      (s.trials < 1, Printf.sprintf "trials must be positive, got %d" s.trials);
      (s.jobs < 1, Printf.sprintf "jobs must be positive, got %d" s.jobs);
      (s.shards < 0, Printf.sprintf "shards must be >= 0, got %d" s.shards);
      ( s.sync_interval < 1,
        Printf.sprintf
          "the sync interval must be a positive execution count, got %d"
          s.sync_interval );
      (nonpositive s.workers, "workers must be positive");
      ( nonpositive (Option.map (fun (c : checkpoint) -> c.every) s.checkpoint),
        "the checkpoint cadence must be a positive execution count" );
      ( (not plain) && (s.shards > 0 || snapshots),
        Printf.sprintf
          "%s is a multi-phase fuzzer; only a plain one shards, checkpoints \
           or resumes" s.fuzzer.name );
      ( s.trials > 1 && snapshots,
        Printf.sprintf
          "a checkpoint or resume snapshots a single campaign; got %d trials"
          s.trials );
    ]
  in
  match (List.find_opt fst checks, s.fuzzer.spec, s.resume) with
  | Some (_, msg), _, _ -> Some msg
  | None, _, _ when Campaign.config_refusal s.config <> None ->
      Campaign.config_refusal s.config
  | None, Plain mode, Some ck -> (
      let expected =
        Campaign.checkpoint_id
          (phase s ~budget:s.config.budget ~seed:s.config.rng_seed
             ~cmplog:s.fuzzer.cmplog mode)
          ~subject:s.subject ~fuzzer:s.fuzzer.name
          ~sync_interval:(if s.shards > 0 then s.sync_interval else 0)
      in
      match Checkpoint.check_compat ~expected ck with
      | Ok () -> None
      | Error e -> Some ("the resume snapshot does not match this run: " ^ e))
  | None, _, _ -> None

let introspected : Obs.Observer.t option -> bool = function
  | Some o -> o.clock <> None || o.trace <> None
  | None -> false

let exec ?plans (s : spec) prog ~seeds : (trial array, string) result =
  match refusal s with
  | Some msg -> Error msg
  | None ->
      let observers = Array.init s.trials (fun _ -> s.observer ()) in
      if s.trials > 1 && Array.exists introspected observers then
        Error
          (Printf.sprintf
             "introspection (a clock or a span trace) records a single \
              campaign; got %d trials"
             s.trials)
      else
        let trial i = run_trial ?plans s prog ~seeds ~obs:observers.(i) i in
        (* a sharded trial is parallel inside, so its trials run in turn *)
        Ok
          (if s.shards > 0 then Array.init s.trials trial
           else Exec.Pool.map ~jobs:s.jobs ?sink:s.trial_sink s.trials trial)

let run ?plans ?obs ?engine ?map_size_log2 ~budget ~trial_seed
    (fuzzer : fuzzer) (prog : Minic.Ir.program) ~(seeds : string list) :
    run_result =
  let s =
    { (spec ?engine ?map_size_log2 ~budget ~trial_seed fuzzer) with
      observer = (fun () -> obs) }
  in
  match exec ?plans s prog ~seeds with
  | Ok trials -> trials.(0).result
  | Error msg -> invalid_arg ("Strategy.run: " ^ msg)
