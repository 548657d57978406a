(** pathfuzz: command-line front end for the path-aware fuzzing library.

    Subcommands:
    - [subjects]           list the benchmark subjects;
    - [fuzz]               run one fuzzing campaign on a subject
                           (optionally recording a span trace and the
                           engine-metrics registry);
    - [profile]            run one introspected campaign and render the
                           deep profile report: phase wall breakdown,
                           shard utilization and engine metrics;
    - [path-profile]       Ball–Larus path-profile one input (§VII's
                           profiling use of the encoding);
    - [cfg]                print a function's CFG (optionally Graphviz)
                           with path increments;
    - [tables]             regenerate every table and figure of the paper,
                           then the ablation studies;
    - [stats]              run one observed campaign and render its
                           counter block, snapshot trajectory and event
                           log (the fuzzer_stats / plot_data analogue). *)

open Cmdliner

let subject_arg =
  let doc = "Benchmark subject name (see `pathfuzz subjects`)." in
  Arg.(value & opt string "motivating" & info [ "s"; "subject" ] ~docv:"NAME" ~doc)

(* A configuration error: one stderr line and exit 2. *)
let die fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "pathfuzz: %s@." msg;
      exit 2)
    fmt

let lookup_subject name =
  if name = "motivating" then Subjects.Motivating.subject
  else
    match Subjects.Registry.find name with
    | Some s -> s
    | None -> die "unknown subject %s; try `pathfuzz subjects`" name

(* --- subjects --- *)

let subjects_cmd =
  let run () =
    Fmt.pr "%-12s %-9s %-6s %s@." "NAME" "FUNCTIONS" "BUGS" "DESCRIPTION";
    List.iter
      (fun (s : Subjects.Subject.t) ->
        Fmt.pr "%-12s %-9d %-6d %s@." s.name
          (Subjects.Subject.num_functions s)
          (List.length s.bugs) s.description)
      (Subjects.Registry.all @ [ Subjects.Motivating.subject ])
  in
  Cmd.v (Cmd.info "subjects" ~doc:"List benchmark subjects")
    Term.(const run $ const ())

(* --- fuzz --- *)

let fuzzer_of_name rounds name =
  match
    List.find_opt
      (fun (f : Fuzz.Strategy.fuzzer) -> f.name = name)
      (Fuzz.Strategy.all ~rounds ())
  with
  | Some f -> f
  | None -> die "unknown fuzzer %s" name

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains to fan trials out over (default: PATHFUZZ_JOBS \
           from the environment, else 1). Must be positive. Results are \
           identical at any job count.")

(* 0 or a negative job count used to silently collapse to one worker;
   it is a configuration error and must say so. *)
let resolve_jobs = function
  | None -> (Experiments.Config.of_env ()).jobs
  | Some n when n > 0 -> n
  | Some n -> die "--jobs must be a positive integer, got %d" n

let shards_arg =
  Arg.(
    value
    & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard each campaign across N worker domains with a \
           deterministic sync schedule (0 = the sequential loop). The \
           merged trajectory is a function of the seed and \
           $(b,--sync-interval) only — byte-identical for every N >= 1.")

let sync_interval_arg =
  Arg.(
    value
    & opt int Fuzz.Shard.default_sync_interval
    & info [ "sync-interval" ] ~docv:"EXECS"
        ~doc:
          "Executions scheduled between shard sync barriers. Part of the \
           sharded trajectory's identity (independent of wall-clock).")

(* shared by `fuzz`, `profile` and `stats` *)
let fuzzer_arg =
  Arg.(
    value
    & opt string "path"
    & info [ "f"; "fuzzer" ] ~docv:"FUZZER"
        ~doc:
          ("One of "
          ^ String.concat ", "
              (List.map
                 (fun (f : Fuzz.Strategy.fuzzer) -> f.name)
                 (Fuzz.Strategy.all ()))
          ^ "."))

let budget_arg default =
  Arg.(
    value
    & opt int default
    & info [ "b"; "budget" ] ~docv:"EXECS" ~doc:"Execution budget.")

let trial_arg =
  Arg.(value & opt int 1 & info [ "t"; "trial" ] ~docv:"N" ~doc:"Trial seed.")

let rounds_arg =
  Arg.(value & opt int 4 & info [ "rounds" ] ~doc:"Culling rounds.")

(* The engine `fuzz`, `profile` and `stats` run without --engine. *)
let default_engine = Fuzz.Tracer.Interp

let engine_arg_of default =
  Arg.(
    value
    & opt string (Fuzz.Tracer.engine_name default)
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf
             "Execution engine (%s): $(b,interp) (the reference CFG \
              interpreter), $(b,fused) (staged compilation of the subject \
              into OCaml closures with the feedback probes baked in and \
              superblock fusion: single-predecessor chains collapsed into \
              one closure with coalesced fuel burns and folded path \
              increments) or $(b,native) (the fused plan emitted as \
              per-subject OCaml source, compiled out-of-process, Dynlink'd \
              and cached on disk (in $(b,PATHFUZZ_EMIT_CACHE) if set); \
              degrades to fused, with one stderr line, when no toolchain \
              is available). The fuzzing trajectory — queue, coverage, \
              crashes, stdout — is engine-invariant; only throughput \
              changes."
             (String.concat ", " Fuzz.Tracer.engine_names)))

let engine_arg = engine_arg_of default_engine

let engine_of_flag engine =
  match Fuzz.Tracer.engine_of_name engine with
  | Some e -> e
  | None ->
      die "unknown --engine %s (expected %s)" engine
        (String.concat ", " Fuzz.Tracer.engine_names)

(* Run [spec] on subject [s] (one program and plans, shared by every
   trial); a refused spec is a configuration error. *)
let exec (s : Subjects.Subject.t) (spec : Fuzz.Strategy.spec) :
    Fuzz.Strategy.trial array =
  let prog = Subjects.Subject.compile_fresh s in
  let plans = Pathcov.Ball_larus.of_program prog in
  match
    Fuzz.Strategy.exec ~plans { spec with subject = s.name } prog
      ~seeds:s.seeds
  with
  | Ok trials -> trials
  | Error msg -> die "%s" msg

let fuzz_cmd =
  let trials =
    Arg.(
      value
      & opt int 1
      & info [ "n"; "trials" ] ~docv:"N"
          ~doc:"Number of trials (seeds $(b,--trial), $(b,--trial)+1, ...).")
  in
  let stats =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:
            "Monitor mode: print a periodic status line per stats snapshot \
             on stderr. The fuzzing trajectory is unchanged (the observer \
             never perturbs the campaign).")
  in
  let jsonl =
    Arg.(
      value
      & opt string ""
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Stream observer events (snapshots, retains, crashes, pool \
             trials) as JSON lines into FILE (\"-\" for stderr).")
  in
  let checkpoint =
    Arg.(
      value
      & opt string ""
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a versioned campaign snapshot (pathfuzz-checkpoint/v3) \
             to FILE, atomically, at the first deterministic boundary \
             (between two queue entries, or a shard merge barrier with \
             $(b,--shards)) after each multiple of \
             $(b,--checkpoint-every) executions. \
             Plain fuzzers, single trial.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt int 5000
      & info [ "checkpoint-every" ] ~docv:"EXECS"
          ~doc:"Snapshot cadence for $(b,--checkpoint), in executions.")
  in
  let resume =
    Arg.(
      value
      & opt string ""
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a snapshot written by $(b,--checkpoint) instead of \
             importing seeds (format v3, or v2). The run's subject, \
             fuzzer, seed, budget and \
             sync schedule must match the snapshot's; the resumed \
             trajectory is byte-identical to the uninterrupted run's.")
  in
  let trace_file =
    Arg.(
      value
      & opt string ""
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the campaign's span trace (planning, mutation, \
             execution, calibration, triage, merges, compiles, checkpoints) \
             and write it to FILE as Chrome trace-event JSON — loadable \
             in chrome://tracing or Perfetto, one track per shard. \
             Observation-only: stdout is byte-identical with or without \
             this flag. Single trial.")
  in
  let metrics_file =
    Arg.(
      value
      & opt string ""
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the engine-metrics registry (compile cache and walls, \
             rollbacks, fusion shape, batch and dirty-reset histograms, \
             barrier waits, checkpoint costs) to FILE as one JSON object \
             (\"-\" for stderr). Observation-only; single trial.")
  in
  let run subject fuzzer budget trial trials rounds engine jobs shards sync_interval stats jsonl checkpoint
      checkpoint_every resume trace_file metrics_file =
    let s = lookup_subject subject in
    let fz = fuzzer_of_name rounds fuzzer in
    let engine = engine_of_flag engine in
    let jobs = resolve_jobs jobs in
    (* checked even without --checkpoint, like every other schedule knob *)
    if checkpoint_every < 1 then
      die "--checkpoint-every must be a positive execution count, got %d"
        checkpoint_every;
    let checkpoint =
      if checkpoint = "" then None
      else
        Some
          {
            Fuzz.Strategy.every = checkpoint_every;
            write =
              (fun ck ->
                let bytes = Fuzz.Checkpoint.write_file ~path:checkpoint ck in
                Fmt.epr "[checkpoint] wrote %s (%d bytes) at %d execs@."
                  checkpoint bytes ck.Fuzz.Checkpoint.progress.execs;
                bytes);
          }
    in
    let resume =
      if resume = "" then None
      else
        match Fuzz.Checkpoint.read_file resume with
        | Error msg -> die "cannot resume from %s: %s" resume msg
        | Ok ck ->
            Fmt.epr "[checkpoint] read %s, taken at %d execs@." resume
              ck.Fuzz.Checkpoint.progress.execs;
            Some ck
    in
    (* worker/shard counts go to stderr: stdout must be identical at any
       --jobs or --shards value so runs can be diffed *)
    if jobs > 1 then Fmt.epr "[fuzz] %d worker domains@." jobs;
    if shards > 0 then
      Fmt.epr "[fuzz] %d shards, sync every %d execs@." shards sync_interval;
    (* the engine is trajectory-invisible, so it stays off stdout (runs
       must diff clean across engines) and out of the checkpoint identity
       (snapshots resume under any engine) *)
    if engine <> default_engine then
      Fmt.epr "[fuzz] engine=%s@." (Fuzz.Tracer.engine_name engine);
    (* Observability: status/JSONL sinks never touch stdout, so observed
       and unobserved runs produce the same diffable report. The sink is
       mutex-wrapped and shared; each trial gets its own counter block. *)
    let jsonl_oc =
      match jsonl with
      | "" -> None
      | "-" -> Some stderr
      | path -> Some (open_out path)
    in
    let sink =
      let sinks =
        (if stats then [ Obs.Sink.status prerr_endline ] else [])
        @ match jsonl_oc with Some oc -> [ Obs.Sink.jsonl oc ] | None -> []
      in
      match sinks with
      | [] -> None
      | s :: rest -> Some (Obs.Sink.locked (List.fold_left Obs.Sink.tee s rest))
    in
    (* Deep introspection (--trace/--metrics): the trial's observer gets
       a wall clock and, for --trace, a span trace with one track per
       shard (track 0 = coordinator / sequential loop). Both are
       observation-only under the zero-perturbation rule, so stdout
       still diffs clean against an uninstrumented run (test/dune
       holds this). *)
    let introspect = trace_file <> "" || metrics_file <> "" in
    let clock = if introspect then Some Unix.gettimeofday else None in
    let observer () =
      let trace =
        if trace_file = "" then None
        else
          Some
            (Obs.Trace.create ~clock:Unix.gettimeofday ~tracks:(shards + 1) ())
      in
      Some (Obs.Observer.create ?clock ?trace ?sink ())
    in
    let results =
      exec s
        { (Fuzz.Strategy.spec ~engine ~budget ~trial_seed:trial fz) with
          trials; jobs; shards; sync_interval; checkpoint; resume; observer;
          trial_sink = sink }
    in
    Option.iter (if jsonl = "-" then flush else close_out) jsonl_oc;
    (* introspection artifacts go to their own files (stderr notes only):
       stdout stays diffable against a run without these flags *)
    (match results with
    | [| { obs = Some obs; _ } |] ->
        Option.iter
          (fun tr ->
            let track_names i =
              if i > 0 then Some (Printf.sprintf "shard %d" (i - 1))
              else Some (if shards > 0 then "coordinator" else "campaign")
            in
            Out_channel.with_open_text trace_file
              (Obs.Trace.to_chrome ~track_names tr);
            Fmt.epr "[fuzz] wrote span trace %s@." trace_file)
          obs.trace;
        (match metrics_file with
        | "" -> ()
        | "-" -> Fmt.epr "%s@." (Obs.Metrics.to_json obs.metrics)
        | path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Obs.Metrics.to_json obs.metrics ^ "\n"));
            Fmt.epr "[fuzz] wrote metrics %s@." path)
    | _ -> ());
    Fmt.pr "fuzzing %s with %s for %d execs (%d trial%s from seed %d)...@."
      s.name fz.name budget trials
      (if trials = 1 then "" else "s")
      trial;
    Array.iteri
      (fun i (t : Fuzz.Strategy.trial) ->
        let r = t.result in
        if shards > 0 then
          Fmt.epr
            "[shard] trial %d: %d epochs, %d items, %d duplicates dropped \
             at barriers@."
            (trial + i) t.epochs t.items t.dup_dropped;
        if trials > 1 then Fmt.pr "@.-- trial %d --@." (trial + i);
        Fmt.pr "executions:      %d@." r.execs;
        Fmt.pr "queue size:      %d@." r.queue_size;
        Fmt.pr "total crashes:   %d (hangs: %d)@." r.triage.total_crashes
          r.triage.total_hangs;
        Fmt.pr "unique crashes:  %d (stack-hash top-5)@."
          (Fuzz.Triage.unique_crashes r.triage);
        Fmt.pr "unique bugs:     %d / %d known@."
          (Fuzz.Triage.unique_bugs r.triage)
          (List.length s.bugs);
        List.iter
          (fun id ->
            let witness =
              Option.value ~default:"" (Fuzz.Triage.bug_witness r.triage id)
            in
            let summary =
              match id with
              | Vm.Crash.Id n -> begin
                  match
                    List.find_opt
                      (fun (b : Subjects.Subject.bug) -> b.id = n)
                      s.bugs
                  with
                  | Some b -> b.summary
                  | None -> "?"
                end
              | Vm.Crash.At_site _ -> "organic crash"
            in
            Fmt.pr "  %a: %s (witness %d bytes)@." Vm.Crash.pp_identity id
              summary (String.length witness))
          (Fuzz.Triage.bugs r.triage))
      results
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Run one or more fuzzing campaigns")
    Term.(
      const run $ subject_arg $ fuzzer_arg $ budget_arg 24_000 $ trial_arg
      $ trials $ rounds_arg $ engine_arg $ jobs_arg $ shards_arg
      $ sync_interval_arg $ stats $ jsonl $ checkpoint $ checkpoint_every
      $ resume $ trace_file $ metrics_file)

(* --- profile (deep campaign introspection) --- *)

let profile_cmd =
  let deterministic =
    Arg.(
      value
      & flag
      & info [ "deterministic" ]
          ~doc:
            "Replace the wall clock with a virtual tick counter (+1 per \
             clock reading): every wall in the report becomes a \
             deterministic count of clock reads, so the whole report is \
             reproducible byte for byte (the golden-test mode). \
             Sequential loop only — ticks are not meaningful across \
             domains.")
  in
  let run subject fuzzer budget trial rounds engine shards
      sync_interval deterministic =
    let s = lookup_subject subject in
    let fz = fuzzer_of_name rounds fuzzer in
    let engine = engine_of_flag engine in
    if deterministic && shards > 0 then
      die
        "--deterministic profiles the sequential loop (the virtual tick \
         clock is single-domain); drop --shards";
    let clock =
      if deterministic then (
        let t = ref 0. in
        fun () ->
          t := !t +. 1.;
          !t)
      else Unix.gettimeofday
    in
    let observer () =
      let trace = Obs.Trace.create ~clock ~tracks:(shards + 1) () in
      Some (Obs.Observer.create ~clock ~trace ())
    in
    let trials =
      exec s
        { (Fuzz.Strategy.spec ~engine ~budget ~trial_seed:trial fz) with
          shards; sync_interval; observer }
    in
    let title =
      Printf.sprintf "pathfuzz profile: %s / %s, budget %d, trial %d%s%s"
        s.name fz.name budget trial
        (if shards > 0 then Printf.sprintf ", shards %d" shards else "")
        (if deterministic then ", virtual clock" else "")
    in
    print_string
      (Experiments.Profile_report.render ~title ~with_wall:true ~shards
         (Option.get trials.(0).obs))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one campaign under the span tracer and engine-metrics \
          registry and render the deep introspection report (phase \
          walls, shard utilization, engine metrics, counters)")
    Term.(
      const run $ subject_arg $ fuzzer_arg $ budget_arg 8_000 $ trial_arg
      $ rounds_arg $ engine_arg $ shards_arg $ sync_interval_arg
      $ deterministic)

(* --- path-profile --- *)

let path_profile_cmd =
  let input =
    Arg.(value & opt string "" & info [ "i"; "input" ] ~docv:"STRING" ~doc:"Input to profile.")
  in
  let top = Arg.(value & opt int 5 & info [ "top" ] ~doc:"Paths to show per function.") in
  let run subject input top =
    let s = lookup_subject subject in
    let prog = Subjects.Subject.program s in
    let plans = Pathcov.Ball_larus.of_program prog in
    (* count committed paths per function: a classic path profile *)
    let counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let regs = ref [] in
    let bump fid pid =
      let k = (fid, pid) in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
    in
    let hooks =
      {
        Vm.Interp.no_hooks with
        h_call = (fun _ -> regs := 0 :: !regs);
        h_edge =
          (fun fid src dst ->
            match Pathcov.Ball_larus.on_edge plans.plans.(fid) ~src ~dst with
            | None -> ()
            | Some (Pathcov.Ball_larus.Add k) -> begin
                match !regs with [] -> () | r :: rest -> regs := (r + k) :: rest
              end
            | Some (Pathcov.Ball_larus.Commit_back { add; reset }) -> begin
                match !regs with
                | [] -> ()
                | r :: rest ->
                    bump fid (r + add);
                    regs := reset :: rest
              end);
        h_ret =
          (fun fid block ->
            match !regs with
            | [] -> ()
            | r :: rest ->
                bump fid (r + Pathcov.Ball_larus.on_ret plans.plans.(fid) ~block);
                regs := rest);
      }
    in
    let out = Vm.Interp.run ~hooks prog ~input in
    (match out.status with
    | Vm.Interp.Finished v -> Fmt.pr "finished, main returned %a@." Fmt.(option int) v
    | Vm.Interp.Crashed c -> Fmt.pr "crashed: %a@." Vm.Crash.pp c
    | Vm.Interp.Hung -> Fmt.pr "hung@.");
    Array.iteri
      (fun fid (f : Minic.Ir.func) ->
        let here =
          Hashtbl.fold
            (fun (fid', pid) n acc -> if fid' = fid then (pid, n) :: acc else acc)
            counts []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        if here <> [] then begin
          Fmt.pr "@[<v 2>%s (%d acyclic paths):@," f.name
            plans.plans.(fid).num_paths;
          List.iteri
            (fun i (pid, n) ->
              if i < top then
                Fmt.pr "path %3d x%-5d  %s@," pid n
                  (String.concat "->"
                     (List.map string_of_int
                        (Pathcov.Ball_larus.regenerate plans.plans.(fid) pid))))
            here;
          Fmt.pr "@]@."
        end)
      prog.funcs
  in
  Cmd.v
    (Cmd.info "path-profile"
       ~doc:"Path-profile one input (Ball-Larus as a profiler)")
    Term.(const run $ subject_arg $ input $ top)

(* --- cfg --- *)

let cfg_cmd =
  let fname = Arg.(value & opt string "main" & info [ "fn" ] ~doc:"Function name.") in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.") in
  let run subject fname dot =
    let s = lookup_subject subject in
    let prog = Subjects.Subject.program s in
    let f = Minic.Ir.func_exn prog fname in
    let plan = Pathcov.Ball_larus.of_func f in
    if dot then
      let edge_label (src, dst) =
        match Pathcov.Ball_larus.on_edge plan ~src ~dst with
        | Some (Pathcov.Ball_larus.Add k) -> Some (Printf.sprintf "r += %d" k)
        | Some (Pathcov.Ball_larus.Commit_back { add; reset }) ->
            Some (Printf.sprintf "commit r+%d; r := %d" add reset)
        | None -> None
      in
      print_string (Minic.Dot.to_dot ~edge_label f)
    else begin
      Fmt.pr "%a@." Minic.Pretty.pp_func f;
      Fmt.pr "acyclic paths: %d, probes: %d, back edges: %d@." plan.num_paths
        plan.probes
        (List.length plan.back_edges)
    end
  in
  Cmd.v (Cmd.info "cfg" ~doc:"Show a function's CFG and path-instrumentation plan")
    Term.(const run $ subject_arg $ fname $ dot)

(* --- tables --- *)

let tables_cmd =
  let fast = Arg.(value & flag & info [ "fast" ] ~doc:"Smoke-test scale.") in
  let run fast jobs engine =
    let engine = engine_of_flag engine in
    let cfg =
      if fast then Experiments.Config.fast else Experiments.Config.of_env ()
    in
    let cfg =
      match jobs with None -> cfg | Some _ -> { cfg with jobs = resolve_jobs jobs }
    in
    Fmt.pr "running the evaluation matrix (%a)...@." Experiments.Config.pp cfg;
    let m = Experiments.Runner.run ~jobs:cfg.jobs ~engine cfg in
    Fmt.epr "[matrix] %.1fs of fuzzing wall-clock across all cells@."
      (Experiments.Runner.total_wall_s m);
    print_string (Experiments.Tables.all m);
    print_string (Experiments.Ablations.all ~jobs:cfg.jobs ~engine cfg)
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Regenerate every table and figure of the paper, then the ablation \
          studies")
    Term.(const run $ fast $ jobs_arg $ engine_arg_of Fuzz.Tracer.matrix_engine)

(* --- stats --- *)

let stats_cmd =
  let events =
    Arg.(
      value
      & opt int 40
      & info [ "events" ] ~docv:"N" ~doc:"Newest non-snapshot events to show.")
  in
  let jsonl =
    Arg.(
      value
      & opt string ""
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Also dump the retained event stream as JSON lines into FILE \
             (\"-\" for stdout, after the tables).")
  in
  let run subject fuzzer budget trial rounds events jsonl =
    let s = lookup_subject subject in
    let fz = fuzzer_of_name rounds fuzzer in
    (* A ring sink retains the event log in memory; no clock, so the
       report is deterministic for (subject, fuzzer, budget, trial). *)
    let ring = Obs.Sink.create_ring ~capacity:8192 () in
    let obs = Obs.Observer.create ~sink:(Obs.Sink.ring ring) () in
    Fmt.pr "stats: %s / %s, budget %d, trial seed %d@." s.name fz.name budget
      trial;
    let spec =
      Fuzz.Strategy.spec ~engine:default_engine ~budget ~trial_seed:trial fz
    in
    let r = (exec s { spec with observer = (fun () -> Some obs) }).(0).result in
    print_string (Experiments.Obs_render.counters_table obs.counters);
    print_string
      (Experiments.Obs_render.snapshots_table (Obs.Observer.snapshots obs));
    print_string
      (Experiments.Obs_render.events_table ~limit:events
         (Obs.Sink.ring_events ring));
    if Obs.Sink.ring_dropped ring > 0 then
      Fmt.pr "(%d events dropped by the ring buffer)@."
        (Obs.Sink.ring_dropped ring);
    Fmt.pr "@.bugs found: %d, unique crashes: %d, queue: %d@."
      (Fuzz.Triage.unique_bugs r.triage)
      (Fuzz.Triage.unique_crashes r.triage)
      r.queue_size;
    match jsonl with
    | "" -> ()
    | "-" -> Experiments.Obs_render.dump_jsonl stdout (Obs.Sink.ring_events ring)
    | path ->
        let oc = open_out path in
        Experiments.Obs_render.dump_jsonl oc (Obs.Sink.ring_events ring);
        close_out oc;
        Fmt.epr "[stats] wrote %s@." path
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one observed campaign and render its counters, snapshot \
          trajectory and event log")
    Term.(
      const run $ subject_arg $ fuzzer_arg $ budget_arg 8_000 $ trial_arg
      $ rounds_arg $ events $ jsonl)

let () =
  let doc = "path-aware coverage-guided fuzzing (CGO 2026 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pathfuzz" ~doc)
          [
            subjects_cmd;
            fuzz_cmd;
            profile_cmd;
            path_profile_cmd;
            cfg_cmd;
            tables_cmd;
            stats_cmd;
          ]))
