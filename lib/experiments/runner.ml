(** Experiment runner: executes the (subject x fuzzer x trial) matrix once
    and caches the per-run results; every table and figure generator then
    aggregates from the same matrix, exactly as the paper derives Tables
    II/III/IV/VI and Figure 3 from one set of campaigns. *)

type cell = {
  subject : Subjects.Subject.t;
  fuzzer : Fuzz.Strategy.fuzzer;
  runs : Fuzz.Strategy.run_result list;  (** one per trial *)
  wall_s : float;
      (** wall-clock seconds summed over this cell's trials. Diagnostic
          only — deliberately absent from every rendered table, so table
          output stays byte-identical across worker counts. *)
}

type matrix = {
  config : Config.t;
  cells : (string * string, cell) Hashtbl.t;  (** (subject, fuzzer) *)
  fuzzers : Fuzz.Strategy.fuzzer list;
  subjects : Subjects.Subject.t list;
}

(** The evaluated fuzzer configurations (§V), including the appendix ones. *)
let standard_fuzzers (cfg : Config.t) : Fuzz.Strategy.fuzzer list =
  [
    Fuzz.Strategy.path;
    Fuzz.Strategy.pcguard;
    Fuzz.Strategy.cull ~rounds:cfg.cull_rounds ();
    Fuzz.Strategy.opp;
    Fuzz.Strategy.cull_r ~rounds:cfg.cull_rounds ();
    Fuzz.Strategy.pathafl;
    Fuzz.Strategy.afl;
  ]

(* Per-subject Ball–Larus plans, computed once and shared read-only
   across trials (and worker domains — the memo is mutex-guarded, the
   plans themselves immutable). Keyed on subject name: every trial of a
   subject sees the same memoized program below. *)
let plans_memo : (string, Pathcov.Ball_larus.program_plans) Hashtbl.t =
  Hashtbl.create 16

let plans_mutex = Mutex.create ()

let subject_plans (subject : Subjects.Subject.t) (prog : Minic.Ir.program) :
    Pathcov.Ball_larus.program_plans =
  Mutex.protect plans_mutex (fun () ->
      match Hashtbl.find_opt plans_memo subject.Subjects.Subject.name with
      | Some p -> p
      | None ->
          let p = Pathcov.Ball_larus.of_program prog in
          Hashtbl.add plans_memo subject.Subjects.Subject.name p;
          p)

(** Run one (subject, fuzzer, trial) task. Subject preparation is hoisted
    out of the per-trial loop: the program ({!Subjects.Subject.program},
    memoized), its Ball–Larus plans (memo above) and — inside
    [Campaign.run], via [Vm.Interp.prepare_cached] — the prepared CFG are
    all built once per subject and shared read-only across trials and
    worker domains. Campaigns are pure functions of
    (program, seeds, config) and the shared artifacts are immutable, so
    the matrix stays bit-identical at any worker count. [engine] is
    trajectory-invisible; every campaign's maps take [cfg]'s size. *)
let run_trial ?engine (cfg : Config.t) (subject : Subjects.Subject.t)
    (fuzzer : Fuzz.Strategy.fuzzer) (trial : int) :
    Fuzz.Strategy.run_result * float =
  let prog = Subjects.Subject.program subject in
  let plans = subject_plans subject prog in
  let t0 = Unix.gettimeofday () in
  let r =
    Fuzz.Strategy.run ~plans ?engine ~map_size_log2:cfg.map_size_log2
      ~budget:cfg.budget
      ~trial_seed:(cfg.base_seed + (trial * 7919))
      fuzzer prog ~seeds:subject.seeds
  in
  (r, Unix.gettimeofday () -. t0)

(** Run the full matrix, fanning the (subject x fuzzer x trial) task list
    out over [jobs] worker domains. Results are collected keyed by task
    index and merged in a fixed order, so the matrix — and every table
    derived from it — is identical regardless of worker count or
    scheduling. [quiet] suppresses progress on stderr. [engine]
    (default {!Fuzz.Tracer.matrix_engine}) runs every campaign; the
    engine is trajectory-invisible, so the tables do not depend on it. *)
let run ?(quiet = false) ?(jobs = 1) ?engine ?fuzzers ?subjects (cfg : Config.t)
    : matrix =
  let fuzzers = Option.value fuzzers ~default:(standard_fuzzers cfg) in
  let subjects = Option.value subjects ~default:Subjects.Registry.all in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun subject ->
           List.concat_map
             (fun (fuzzer : Fuzz.Strategy.fuzzer) ->
               List.init cfg.trials (fun trial -> (subject, fuzzer, trial)))
             fuzzers)
         subjects)
  in
  let total = Array.length tasks in
  if (not quiet) && jobs > 1 then
    Printf.eprintf "[matrix] %d tasks on %d worker domains\n%!" total jobs;
  let done_ = ref 0 in
  (* Worker attribution comes from the pool's own [Trial_end] events:
     the sink fires under the result mutex just before [on_done i], so
     [attrib.(i)] is always current when the progress line reads it. *)
  let attrib = Array.make (max 1 total) (0, 0.) in
  let sink =
    Obs.Sink.make (function
      | Obs.Event.Trial_end { task; worker; wall_s } ->
          attrib.(task) <- (worker, wall_s)
      | _ -> ())
  in
  (* [on_done] runs under the pool's result mutex: one progress line per
     completed task, never interleaved between workers. *)
  let on_done i ((r : Fuzz.Strategy.run_result), _wall) =
    incr done_;
    if not quiet then begin
      let subject, (fuzzer : Fuzz.Strategy.fuzzer), trial = tasks.(i) in
      let worker, wall = attrib.(i) in
      Printf.eprintf
        "[matrix %3d/%d] %-10s %-8s trial %d  w%d %6.2fs  bugs: %d\n%!" !done_
        total subject.Subjects.Subject.name fuzzer.name trial worker wall
        (Fuzz.Triage.unique_bugs r.triage)
    end
  in
  let results =
    Exec.Pool.map ~jobs ~sink ~on_done total (fun i ->
        let subject, fuzzer, trial = tasks.(i) in
        run_trial ?engine cfg subject fuzzer trial)
  in
  (* Deterministic merge: regroup trial results into cells by task index,
     independent of the order workers finished in. *)
  let cells = Hashtbl.create 128 in
  let nf = List.length fuzzers in
  List.iteri
    (fun si subject ->
      List.iteri
        (fun fi (fuzzer : Fuzz.Strategy.fuzzer) ->
          let base = ((si * nf) + fi) * cfg.trials in
          let runs = List.init cfg.trials (fun t -> fst results.(base + t)) in
          let wall_s =
            List.fold_left
              (fun acc t -> acc +. snd results.(base + t))
              0.
              (List.init cfg.trials Fun.id)
          in
          Hashtbl.replace cells
            (subject.Subjects.Subject.name, fuzzer.name)
            { subject; fuzzer; runs; wall_s })
        fuzzers)
    subjects;
  { config = cfg; cells; fuzzers; subjects }

(** Total wall-clock seconds spent fuzzing across the whole matrix (the
    sum of per-trial times, not elapsed time — with [jobs] > 1 the
    elapsed time is smaller). *)
let total_wall_s (m : matrix) : float =
  Hashtbl.fold (fun _ c acc -> acc +. c.wall_s) m.cells 0.

let cell (m : matrix) ~subject ~fuzzer : cell =
  match Hashtbl.find_opt m.cells (subject, fuzzer) with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Runner.cell: no cell (%s, %s)" subject fuzzer)

(* ------------------------------------------------------------------ *)
(* Per-cell aggregations *)

(** Union of ground-truth bugs over all trials (the "cumulative" columns). *)
let cumulative_bugs (c : cell) : Fuzz.Stats.Bug_set.t =
  List.fold_left
    (fun acc (r : Fuzz.Strategy.run_result) ->
      Fuzz.Stats.Bug_set.union acc (Fuzz.Stats.bug_set (Fuzz.Triage.bugs r.triage)))
    Fuzz.Stats.Bug_set.empty c.runs

(** Count of distinct stack-hash unique crashes over all trials. *)
let cumulative_unique_crashes (c : cell) : int =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Fuzz.Strategy.run_result) ->
      Hashtbl.iter (fun h _ -> Hashtbl.replace tbl h ()) r.triage.by_stack)
    c.runs;
  Hashtbl.length tbl

let median_bugs (c : cell) : float =
  Fuzz.Stats.median_int
    (List.map (fun (r : Fuzz.Strategy.run_result) -> Fuzz.Triage.unique_bugs r.triage) c.runs)

let median_queue (c : cell) : float =
  Fuzz.Stats.median_int
    (List.map (fun (r : Fuzz.Strategy.run_result) -> r.queue_size) c.runs)

let total_crashes (c : cell) : int =
  List.fold_left
    (fun acc (r : Fuzz.Strategy.run_result) -> acc + r.triage.total_crashes)
    0 c.runs

let afl_unique_crashes (c : cell) : int =
  List.fold_left
    (fun acc (r : Fuzz.Strategy.run_result) ->
      acc + Fuzz.Triage.afl_unique_crashes r.triage)
    0 c.runs

(** Cumulative edge coverage: union over trials of afl-showmap on the final
    queue plus the seeds (Table IV's measurement). *)
let cumulative_edges (c : cell) : Fuzz.Measure.Int_set.t =
  let prog = Subjects.Subject.program c.subject in
  List.fold_left
    (fun acc (r : Fuzz.Strategy.run_result) ->
      Fuzz.Measure.Int_set.union acc
        (Fuzz.Measure.edge_union prog (c.subject.seeds @ r.final_queue)))
    Fuzz.Measure.Int_set.empty c.runs

(** Per-trial bug sets (medians and per-run set algebra, Table VI). *)
let per_trial_bugs (c : cell) : Fuzz.Stats.Bug_set.t list =
  List.map
    (fun (r : Fuzz.Strategy.run_result) ->
      Fuzz.Stats.bug_set (Fuzz.Triage.bugs r.triage))
    c.runs
