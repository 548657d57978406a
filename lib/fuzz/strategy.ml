(** The fuzzer configurations of the evaluation (§V "Fuzzer
    configurations") as strategy drivers over [Campaign]:

    - [pcguard]: AFL++'s default edge feedback, with cmplog;
    - [path]: the baseline path-aware fuzzer (§III-A);
    - [cull]: [path] with periodic edge-coverage-preserving queue culling
      (§III-B1) — the driver splits the budget into rounds, culls between
      them and reseeds a fresh fuzzer instance with the culled queue;
    - [cull_r]: the Appendix D ablation — random trimming of 84–98%;
    - [cull_p]: culling by *path* identity (the rejected criterion);
    - [opp]: the opportunistic strategy (§III-B2) — first half of the
      budget under edge feedback, queue trimmed edge-preserving, second
      half path-aware (only the second phase's findings count);
    - [pathafl]: the PathAFL-like sketch atop an AFL-2.52b-like profile
      (no cmplog), Appendix C;
    - [afl]: plain AFL-like edge fuzzing (no cmplog), Appendix C;
    - plus the sensitivity ladder ([block], [ngram n]) for ablations. *)

type spec =
  | Plain of Pathcov.Feedback.mode
  | Cull of { rounds : int; criterion : [ `Edges | `Paths | `Random ] }
  | Opportunistic

type fuzzer = { name : string; spec : spec; cmplog : bool }

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

let base_config ?(engine = Tracer.matrix_engine) ?(selective = false)
    ?(map_size_log2 = Campaign.default_config.map_size_log2) ~budget
    ~trial_seed ~cmplog mode =
  {
    Campaign.default_config with
    mode;
    budget;
    rng_seed = trial_seed;
    map_size_log2;
    cmplog;
    engine;
    selective;
  }

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

(** Run [fuzzer] on [prog] with [seeds] for [budget] executions. [plans]
    shares the Ball–Larus artifact across configurations of a trial.
    [obs] is shared across every phase of a multi-phase strategy, so its
    counters and snapshots accumulate over the whole campaign (culling
    replays included); fuzzing behaviour is identical without it.
    [engine] defaults to {!Tracer.matrix_engine}; [map_size_log2] to
    {!Campaign.default_config}'s. *)
let run ?plans ?obs ?engine ?selective ?map_size_log2 ~budget ~trial_seed
    (fuzzer : fuzzer) (prog : Minic.Ir.program) ~(seeds : string list) :
    run_result =
  match fuzzer.spec with
  | Plain mode ->
      let config =
        base_config ?engine ?selective ?map_size_log2 ~budget ~trial_seed
          ~cmplog:fuzzer.cmplog mode
      in
      of_campaign fuzzer.name (Campaign.run ?plans ?obs ~config prog ~seeds)
  | Cull { rounds; criterion } ->
      let rounds = max 1 rounds in
      let per_round = max 1 (budget / rounds) in
      let rng = Rng.create (trial_seed * 7 + 13) in
      let triage = Triage.create () in
      let rec go round seeds_now execs_so_far series last =
        let config =
          base_config ?engine ?selective ?map_size_log2 ~budget:per_round
            ~trial_seed:(trial_seed + (round * 101))
            ~cmplog:fuzzer.cmplog Pathcov.Feedback.Path
        in
        let r = Campaign.run ?plans ?obs ~config prog ~seeds:seeds_now in
        Triage.merge ~into:triage r.triage;
        let execs_total = execs_so_far + r.execs in
        let series =
          series
          @ List.map (fun (x, q) -> (x + execs_so_far, q)) r.queue_series
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
          ignore last;
          go (round + 1) culled execs_total series (Some r)
        end
      in
      let last, execs, series = go 0 seeds 0 [] None in
      {
        fuzzer = fuzzer.name;
        final_queue = Campaign.queue_inputs last;
        queue_size = Corpus.size last.corpus;
        triage;
        execs;
        queue_series = series;
        sum_exec_blocks = last.sum_exec_blocks;
      }
  | Opportunistic ->
      let half = max 1 (budget / 2) in
      let config1 =
        base_config ?engine ?selective ?map_size_log2 ~budget:half
          ~trial_seed:(trial_seed + 17) ~cmplog:true Pathcov.Feedback.Edge
      in
      let phase1 = Campaign.run ?plans ?obs ~config:config1 prog ~seeds in
      (* The paper strips crashing inputs (our queue never holds them) and
         trims the donor queue to an edge-preserving subset. *)
      let donor =
        Measure.edge_preserving_cull ?obs prog (Campaign.queue_inputs phase1)
      in
      let donor = if donor = [] then seeds else donor in
      let config2 =
        base_config ?engine ?selective ?map_size_log2 ~budget:(budget - half)
          ~trial_seed ~cmplog:fuzzer.cmplog Pathcov.Feedback.Path
      in
      let phase2 = Campaign.run ?plans ?obs ~config:config2 prog ~seeds:donor in
      {
        fuzzer = fuzzer.name;
        final_queue = Campaign.queue_inputs phase2;
        queue_size = Corpus.size phase2.corpus;
        (* Only the path-aware phase's findings count (§V: crashing inputs
           from the donor are removed so opp relies on its own abilities). *)
        triage = phase2.triage;
        execs = phase1.execs + phase2.execs;
        queue_series =
          phase1.queue_series
          @ List.map (fun (x, q) -> (x + phase1.execs, q)) phase2.queue_series;
        sum_exec_blocks = phase1.sum_exec_blocks + phase2.sum_exec_blocks;
      }
