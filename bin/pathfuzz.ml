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
    - [tables]             regenerate every table and figure of the paper;
    - [bench-throughput]   measure interpreter throughput per
                           (subject x feedback) and write the
                           BENCH_throughput.json telemetry baseline;
    - [bench-campaign]     measure full-campaign throughput (execs/sec,
                           allocation, mutation-vs-VM split) per
                           (subject x feedback) and write
                           BENCH_campaign.json;
    - [stats]              run one observed campaign and render its
                           counter block, snapshot trajectory and event
                           log (the fuzzer_stats / plot_data analogue);
    - [bench-history]      append the current BENCH_*.json cells as dated
                           rows of BENCH_history.jsonl and flag execs/sec
                           regressions against the trailing window. *)

open Cmdliner

let subject_arg =
  let doc = "Benchmark subject name (see `pathfuzz subjects`)." in
  Arg.(value & opt string "motivating" & info [ "s"; "subject" ] ~docv:"NAME" ~doc)

let lookup_subject name =
  if name = "motivating" then Subjects.Motivating.subject
  else
    match Subjects.Registry.find name with
    | Some s -> s
    | None ->
        Fmt.epr "unknown subject %s; try `pathfuzz subjects`@." name;
        exit 2

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

let fuzzer_of_name rounds = function
  | "path" -> Fuzz.Strategy.path
  | "pcguard" -> Fuzz.Strategy.pcguard
  | "cull" -> Fuzz.Strategy.cull ~rounds ()
  | "cull_r" -> Fuzz.Strategy.cull_r ~rounds ()
  | "cull_p" -> Fuzz.Strategy.cull_p ~rounds ()
  | "opp" -> Fuzz.Strategy.opp
  | "pathafl" -> Fuzz.Strategy.pathafl
  | "afl" -> Fuzz.Strategy.afl
  | "block" -> Fuzz.Strategy.block
  | "ngram2" -> Fuzz.Strategy.ngram 2
  | "ngram4" -> Fuzz.Strategy.ngram 4
  | other ->
      Fmt.epr "unknown fuzzer %s@." other;
      exit 2

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
  | Some n ->
      Fmt.epr "pathfuzz: --jobs must be a positive integer, got %d@." n;
      exit 2

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

(* Sharding and checkpointing reuse the plain single-phase campaign
   loop; multi-phase strategies (cull*, opp) re-seed corpora between
   phases and have neither a sharded nor a snapshottable equivalent. *)
let plain_mode_of_fuzzer ~flag (fz : Fuzz.Strategy.fuzzer) :
    Pathcov.Feedback.mode =
  match fz.spec with
  | Fuzz.Strategy.Plain mode -> mode
  | _ ->
      Fmt.epr
        "pathfuzz: %s supports plain fuzzers only (path, pcguard, pathafl, \
         afl, block, ngram*), not %s@."
        flag fz.name;
      exit 2

(* A non-positive --sync-interval used to sail past the CLI and die with
   an uncaught Invalid_argument from the sharded runner's own guard; an
   execution-count flag that must be >= 1 is a configuration error and
   gets the same clean stderr + exit 2 treatment as --jobs. *)
let check_positive ~flag n =
  if n < 1 then begin
    Fmt.epr "pathfuzz: %s must be a positive execution count, got %d@." flag n;
    exit 2
  end

(* shared by `fuzz` and `profile` *)
let fuzzer_arg =
  Arg.(
    value
    & opt string "path"
    & info [ "f"; "fuzzer" ] ~docv:"FUZZER"
        ~doc:
          "One of path, pcguard, cull, cull_r, cull_p, opp, pathafl, afl, \
           block, ngram2, ngram4.")

let trial_arg =
  Arg.(value & opt int 1 & info [ "t"; "trial" ] ~docv:"N" ~doc:"Trial seed.")

let rounds_arg =
  Arg.(value & opt int 4 & info [ "rounds" ] ~doc:"Culling rounds.")

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
              increments) or $(b,native) (the \
              fused plan emitted as per-subject OCaml source, compiled \
              out-of-process with ocamlopt, loaded via Dynlink and cached \
              on disk; silently degrades to fused when no toolchain is \
              available). The fuzzing trajectory — queue, coverage, \
              crashes, stdout — is engine-invariant; only throughput \
              changes."
             (String.concat ", " Fuzz.Tracer.engine_names)))

let engine_arg = engine_arg_of Fuzz.Tracer.Interp

let engine_of_flag engine =
  match Fuzz.Tracer.engine_of_name engine with
  | Some e -> e
  | None ->
      Fmt.epr "pathfuzz: unknown --engine %s (expected %s)@." engine
        (String.concat ", " Fuzz.Tracer.engine_names);
      exit 2

let emit_cache_arg =
  Arg.(
    value
    & opt string ""
    & info [ "emit-cache" ] ~docv:"DIR"
        ~doc:
          "Directory for the native engine's on-disk artifact cache \
           (compiled per-subject units, keyed by content hash). Overrides \
           $(b,PATHFUZZ_EMIT_CACHE); default is a per-user cache dir. \
           Only meaningful with $(b,--engine) native.")

let apply_emit_cache dir = if dir <> "" then Vm.Emit.set_cache_dir dir

let fuzz_cmd =
  let fuzzer = fuzzer_arg in
  let budget =
    Arg.(value & opt int 24_000 & info [ "b"; "budget" ] ~docv:"EXECS" ~doc:"Execution budget.")
  in
  let trial = trial_arg in
  let trials =
    Arg.(
      value
      & opt int 1
      & info [ "n"; "trials" ] ~docv:"N"
          ~doc:"Number of trials (seeds $(b,--trial), $(b,--trial)+1, ...).")
  in
  let rounds = rounds_arg in
  let engine = engine_arg in
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
            "Write a versioned campaign snapshot (pathfuzz-checkpoint/v2) \
             to FILE, atomically, at each deterministic boundary (cycle \
             boundary, or shard merge barrier with $(b,--shards)) that \
             crosses a multiple of $(b,--checkpoint-every) executions. \
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
             importing seeds. The run's subject, fuzzer, seed, budget and \
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
  let run subject fuzzer budget trial trials rounds engine emit_cache jobs shards sync_interval stats jsonl checkpoint
      checkpoint_every resume trace_file metrics_file =
    let s = lookup_subject subject in
    let fz = fuzzer_of_name rounds fuzzer in
    let engine = engine_of_flag engine in
    apply_emit_cache emit_cache;
    let trials = max 1 trials in
    let jobs = resolve_jobs jobs in
    if shards < 0 then begin
      Fmt.epr "pathfuzz: --shards must be >= 0, got %d@." shards;
      exit 2
    end;
    check_positive ~flag:"--sync-interval" sync_interval;
    check_positive ~flag:"--checkpoint-every" checkpoint_every;
    let use_ck = checkpoint <> "" || resume <> "" in
    if use_ck && trials > 1 then begin
      Fmt.epr
        "pathfuzz: --checkpoint/--resume snapshot a single campaign; run \
         one trial per invocation (got --trials %d)@."
        trials;
      exit 2
    end;
    let introspect = trace_file <> "" || metrics_file <> "" in
    if introspect && trials > 1 then begin
      Fmt.epr
        "pathfuzz: --trace/--metrics record a single campaign; run one \
         trial per invocation (got --trials %d)@."
        trials;
      exit 2
    end;
    let shard_mode =
      if shards > 0 then Some (plain_mode_of_fuzzer ~flag:"--shards" fz)
      else None
    in
    (* Everything a snapshot identifies this run by; --resume refuses a
       file whose recorded identity differs (sync_interval 0 marks the
       sequential loop). *)
    let expected_id () : Fuzz.Checkpoint.config_id =
      let mode =
        match shard_mode with
        | Some m -> m
        | None -> plain_mode_of_fuzzer ~flag:"--checkpoint/--resume" fz
      in
      let d = Fuzz.Campaign.default_config in
      {
        Fuzz.Checkpoint.subject = s.name;
        fuzzer = fz.name;
        mode = Pathcov.Feedback.mode_name mode;
        cmplog = fz.cmplog;
        rng_seed = trial;
        budget;
        fuel = d.fuel;
        max_depth = d.max_depth;
        map_size_log2 = d.map_size_log2;
        max_queue = d.max_queue;
        sync_interval = (if shards > 0 then sync_interval else 0);
      }
    in
    (* The campaign's observer, exposed so the checkpoint save closure
       can charge write costs to the metrics registry and so the trace/
       metrics files can be written after the run. Only set when
       introspection is on (single trial, so a single cell suffices). *)
    let obs_out : Obs.Observer.t option ref = ref None in
    let ck_sink =
      if checkpoint = "" then None
      else
        Some
          {
            Fuzz.Checkpoint.every = checkpoint_every;
            subject = s.name;
            fuzzer = fz.name;
            save =
              (fun ck ->
                let t0 = Unix.gettimeofday () in
                let bytes = Fuzz.Checkpoint.write_file ~path:checkpoint ck in
                (match !obs_out with
                | Some obs ->
                    let m = obs.Obs.Observer.metrics in
                    Obs.Metrics.bump
                      (Obs.Metrics.counter m "checkpoint.writes");
                    Obs.Metrics.observe
                      (Obs.Metrics.hist m "checkpoint.bytes")
                      bytes;
                    Obs.Metrics.add_wall
                      (Obs.Metrics.wall m "checkpoint.write_s")
                      (Unix.gettimeofday () -. t0)
                | None -> ());
                Fmt.epr "[checkpoint] wrote %s (%d bytes) at %d execs@."
                  checkpoint bytes ck.Fuzz.Checkpoint.progress.execs);
          }
    in
    let resume_ck =
      if resume = "" then None
      else
        match Fuzz.Checkpoint.read_file resume with
        | Error msg ->
            Fmt.epr "pathfuzz: cannot resume from %s: %s@." resume msg;
            exit 2
        | Ok ck -> (
            match Fuzz.Checkpoint.check_compat ~expected:(expected_id ()) ck with
            | Ok () ->
                Fmt.epr "[checkpoint] resuming %s at %d execs@." resume
                  ck.Fuzz.Checkpoint.progress.execs;
                Some ck
            | Error msg ->
                Fmt.epr
                  "pathfuzz: --resume %s does not match this run's config: \
                   %s@."
                  resume msg;
                exit 2)
    in
    (* force the plain-fuzzer check even when only --checkpoint is given *)
    if use_ck && shard_mode = None then ignore (expected_id ());
    (* worker/shard counts go to stderr: stdout must be identical at any
       --jobs or --shards value so runs can be diffed *)
    Fmt.pr "fuzzing %s with %s for %d execs (%d trial%s from seed %d)...@."
      s.name fz.name budget trials
      (if trials = 1 then "" else "s")
      trial;
    if jobs > 1 then Fmt.epr "[fuzz] %d worker domains@." jobs;
    if shards > 0 then
      Fmt.epr "[fuzz] %d shards, sync every %d execs@." shards sync_interval;
    (* the engine is trajectory-invisible, so it stays off stdout (runs
       must diff clean across engines) and out of the checkpoint identity
       (snapshots resume under any engine) *)
    if engine <> Fuzz.Tracer.Interp then
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
    let base_sink =
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
       still diffs clean against an uninstrumented run (make
       profile-check holds this). *)
    let mk_obs ~tracks () : Obs.Observer.t option =
      if not introspect then
        Option.map (fun sink -> Obs.Observer.create ~sink ()) base_sink
      else begin
        let clock = Unix.gettimeofday in
        let trace =
          if trace_file = "" then None
          else Some (Obs.Trace.create ~clock ~tracks ())
        in
        let obs = Obs.Observer.create ~clock ?trace ?sink:base_sink () in
        obs_out := Some obs;
        Some obs
      end
    in
    let results =
      match shard_mode with
      | Some mode ->
          (* sharded campaigns parallelise inside each trial, so trials
             run sequentially; the worker width comes from --shards *)
          Array.init trials (fun i ->
              let prog = Subjects.Subject.compile_fresh s in
              let plans = Pathcov.Ball_larus.of_program prog in
              let obs = mk_obs ~tracks:(shards + 1) () in
              let cfg =
                {
                  Fuzz.Shard.base =
                    {
                      Fuzz.Campaign.default_config with
                      mode;
                      budget;
                      rng_seed = trial + i;
                      cmplog = fz.cmplog;
                      engine;
                    };
                  shards;
                  sync_interval;
                }
              in
              let r =
                Fuzz.Shard.run ~plans ?obs ?checkpoint:ck_sink
                  ?resume:resume_ck cfg prog ~seeds:s.seeds
              in
              Fmt.epr
                "[shard] trial %d: %d epochs, %d items, %d duplicates \
                 dropped at barriers@."
                (trial + i) r.epochs r.items r.dup_dropped;
              Fuzz.Strategy.of_campaign fz.name r.campaign)
      | None when use_ck ->
          (* snapshot plumbing needs Campaign.run directly; the config is
             exactly Strategy.run's Plain path, so the trajectory — and
             stdout — match a run without these flags byte for byte *)
          [|
            (let prog = Subjects.Subject.compile_fresh s in
             let plans = Pathcov.Ball_larus.of_program prog in
             let obs = mk_obs ~tracks:1 () in
             let mode = plain_mode_of_fuzzer ~flag:"--checkpoint/--resume" fz in
             let config =
               {
                 Fuzz.Campaign.default_config with
                 mode;
                 budget;
                 rng_seed = trial;
                 cmplog = fz.cmplog;
                 engine;
               }
             in
             let r =
               Fuzz.Campaign.run ~plans ?obs ~config ?checkpoint:ck_sink
                 ?resume:resume_ck prog ~seeds:s.seeds
             in
             Fuzz.Strategy.of_campaign fz.name r);
          |]
      | None ->
          Exec.Pool.map ~jobs ?sink:base_sink trials (fun i ->
              (* per-worker program and plans: see lib/exec *)
              let prog = Subjects.Subject.compile_fresh s in
              let plans = Pathcov.Ball_larus.of_program prog in
              let obs = mk_obs ~tracks:1 () in
              Fuzz.Strategy.run ~plans ?obs ~engine ~budget
                ~trial_seed:(trial + i) fz prog ~seeds:s.seeds)
    in
    (match jsonl_oc with
    | Some oc ->
        flush oc;
        if jsonl <> "-" then close_out oc
    | None -> ());
    (* introspection artifacts go to their own files (stderr notes only):
       stdout stays diffable against a run without these flags *)
    (match !obs_out with
    | None -> ()
    | Some obs ->
        (match (trace_file, obs.Obs.Observer.trace) with
        | "", _ | _, None -> ()
        | path, Some tr ->
            let oc = open_out path in
            let track_names i =
              if i = 0 then
                Some (if shards > 0 then "coordinator" else "campaign")
              else Some (Printf.sprintf "shard %d" (i - 1))
            in
            Obs.Trace.to_chrome ~track_names tr oc;
            close_out oc;
            Fmt.epr "[fuzz] wrote span trace %s@." path);
        if metrics_file <> "" then begin
          let json = Obs.Metrics.to_json obs.Obs.Observer.metrics in
          if metrics_file = "-" then Fmt.epr "%s@." json
          else begin
            let oc = open_out metrics_file in
            output_string oc json;
            output_char oc '\n';
            close_out oc;
            Fmt.epr "[fuzz] wrote metrics %s@." metrics_file
          end
        end);
    Array.iteri
      (fun i (r : Fuzz.Strategy.run_result) ->
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
      const run $ subject_arg $ fuzzer $ budget $ trial $ trials $ rounds
      $ engine $ emit_cache_arg $ jobs_arg $ shards_arg
      $ sync_interval_arg $ stats $ jsonl $ checkpoint $ checkpoint_every
      $ resume $ trace_file $ metrics_file)

(* --- profile (deep campaign introspection) --- *)

let profile_cmd =
  let budget =
    Arg.(
      value
      & opt int 8_000
      & info [ "b"; "budget" ] ~docv:"EXECS" ~doc:"Execution budget.")
  in
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
  let run subject fuzzer budget trial rounds engine emit_cache shards
      sync_interval deterministic =
    let s = lookup_subject subject in
    let fz = fuzzer_of_name rounds fuzzer in
    let engine = engine_of_flag engine in
    apply_emit_cache emit_cache;
    if shards < 0 then begin
      Fmt.epr "pathfuzz: --shards must be >= 0, got %d@." shards;
      exit 2
    end;
    check_positive ~flag:"--sync-interval" sync_interval;
    if deterministic && shards > 0 then begin
      Fmt.epr
        "pathfuzz: --deterministic profiles the sequential loop (the \
         virtual tick clock is single-domain); drop --shards@.";
      exit 2
    end;
    let clock =
      if deterministic then (
        let t = ref 0. in
        fun () ->
          t := !t +. 1.;
          !t)
      else Unix.gettimeofday
    in
    let trace = Obs.Trace.create ~clock ~tracks:(shards + 1) () in
    let obs = Obs.Observer.create ~clock ~trace () in
    let prog = Subjects.Subject.compile_fresh s in
    let plans = Pathcov.Ball_larus.of_program prog in
    (match shards with
    | 0 ->
        ignore
          (Fuzz.Strategy.run ~plans ~obs ~engine ~budget
             ~trial_seed:trial fz prog ~seeds:s.seeds)
    | _ ->
        let mode = plain_mode_of_fuzzer ~flag:"--shards" fz in
        let cfg =
          {
            Fuzz.Shard.base =
              {
                Fuzz.Campaign.default_config with
                mode;
                budget;
                rng_seed = trial;
                cmplog = fz.cmplog;
                engine;
              };
            shards;
            sync_interval;
          }
        in
        ignore (Fuzz.Shard.run ~plans ~obs cfg prog ~seeds:s.seeds));
    let title =
      Printf.sprintf "pathfuzz profile: %s / %s, budget %d, trial %d%s%s"
        s.name fz.name budget trial
        (if shards > 0 then Printf.sprintf ", shards %d" shards else "")
        (if deterministic then ", virtual clock" else "")
    in
    print_string
      (Experiments.Profile_report.render ~title ~with_wall:true ~shards obs)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one campaign under the span tracer and engine-metrics \
          registry and render the deep introspection report (phase \
          walls, shard utilization, engine metrics, counters)")
    Term.(
      const run $ subject_arg $ fuzzer_arg $ budget $ trial_arg $ rounds_arg
      $ engine_arg $ emit_cache_arg $ shards_arg
      $ sync_interval_arg $ deterministic)

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
    print_string (Experiments.Tables.all m)
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate every table and figure of the paper")
    Term.(const run $ fast $ jobs_arg $ engine_arg_of Fuzz.Tracer.matrix_engine)

(* --- bench-throughput --- *)

let bench_throughput_cmd =
  let subjects =
    Arg.(
      value
      & opt string "cflow,sqlite3,gdk,jq"
      & info [ "subjects" ] ~docv:"NAMES"
          ~doc:"Comma-separated subjects to measure.")
  in
  let execs =
    Arg.(
      value
      & opt int 20_000
      & info [ "execs" ] ~docv:"N" ~doc:"Executions measured per cell.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_throughput.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output JSON path (\"-\" prints the JSON to stdout).")
  in
  let smoke =
    Arg.(
      value
      & flag
      & info [ "smoke" ]
          ~doc:
            "Tiny-budget self-check: one subject, 50 execs per cell — \
             exercises the telemetry path in seconds (used by dune runtest).")
  in
  let note =
    Arg.(
      value
      & opt string ""
      & info [ "note" ] ~docv:"TEXT"
          ~doc:
            "Free-form note embedded in the JSON (e.g. the honest outcome \
             of a perf target).")
  in
  let engines =
    Arg.(
      value
      & opt string ""
      & info [ "engines" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf
               "Comma-separated engines to measure (subset of %s; default: \
                all). The filter is recorded in the JSON note so a partial \
                re-measurement is never mistaken for a full grid."
               (String.concat ", " Experiments.Throughput.engines)))
  in
  let run subjects execs out smoke note engines emit_cache =
    apply_emit_cache emit_cache;
    let names =
      if smoke then [ "gdk" ]
      else String.split_on_char ',' subjects |> List.map String.trim
    in
    let execs = if smoke then 50 else max 1 execs in
    let subjects = List.map lookup_subject names in
    let engine_filter =
      match engines with
      | "" -> None
      | s ->
          let l = String.split_on_char ',' s |> List.map String.trim in
          List.iter
            (fun e ->
              if not (List.mem e Experiments.Throughput.engines) then begin
                Fmt.epr "pathfuzz: unknown --engines entry %s (expected %s)@."
                  e
                  (String.concat ", " Experiments.Throughput.engines);
                exit 2
              end)
            l;
          Some l
    in
    let note =
      match engine_filter with
      | None -> note
      | Some l ->
          let tag =
            Printf.sprintf "engines filter: %s" (String.concat "," l)
          in
          if note = "" then tag else note ^ "; " ^ tag
    in
    let samples =
      Experiments.Throughput.grid ?engines:engine_filter ~execs subjects
    in
    (* table to stderr: stdout stays machine-readable when out = "-" *)
    Fmt.epr "%s@." (Experiments.Throughput.to_table samples);
    (* regeneration keeps the recorded baseline trajectory of the
       existing file, so `make bench` never erases it *)
    let baseline_raw =
      if out = "-" then None
      else Experiments.Throughput.extract_cells ~key:"baseline_cells" out
    in
    (match baseline_raw with
    | Some raw ->
        (match
           Experiments.Throughput.speedup_vs_baseline ~baseline_raw:raw samples
         with
        | Some (g, l) ->
            Fmt.epr "%s@." (Experiments.Throughput.speedup_report g l)
        | None -> ());
        (match Experiments.Throughput.speedups_by_mode ~baseline_raw:raw samples with
        | [] -> ()
        | by_mode ->
            Fmt.epr "  per-mode geomeans vs baseline interp:@.";
            List.iter
              (fun (mode, engine, g) ->
                Fmt.epr "    %-8s %-9s %.2fx@." mode engine g)
              by_mode)
    | None -> ());
    let json = Experiments.Throughput.to_json ~note ?baseline_raw samples in
    if out = "-" then print_string json
    else begin
      let oc = open_out out in
      output_string oc json;
      close_out oc;
      Fmt.epr "[bench-throughput] wrote %s (%d cells)@." out
        (List.length samples)
    end
  in
  Cmd.v
    (Cmd.info "bench-throughput"
       ~doc:
         "Measure execs/sec, blocks/sec and allocation per execution across \
          the (subject x feedback) grid")
    Term.(
      const run $ subjects $ execs $ out $ smoke $ note $ engines
      $ emit_cache_arg)

(* --- bench-campaign --- *)

let bench_campaign_cmd =
  let subjects =
    Arg.(
      value
      & opt string "cflow,sqlite3,gdk,jq"
      & info [ "subjects" ] ~docv:"NAMES"
          ~doc:"Comma-separated subjects to measure.")
  in
  let budget =
    Arg.(
      value
      & opt int 20_000
      & info [ "b"; "budget" ] ~docv:"EXECS"
          ~doc:"Execution budget per campaign cell.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_campaign.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output JSON path (\"-\" prints the JSON to stdout).")
  in
  let baseline =
    Arg.(
      value
      & opt string ""
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Embed FILE's \"cells\" as this run's \"baseline_cells\" (a \
             prior pathfuzz-campaign/v1 measurement). Without this flag, \
             an existing output file's baseline_cells are carried forward.")
  in
  let note =
    Arg.(
      value
      & opt string ""
      & info [ "note" ] ~docv:"TEXT" ~doc:"Free-form note embedded in the JSON.")
  in
  let smoke =
    Arg.(
      value
      & flag
      & info [ "smoke" ]
          ~doc:
            "Tiny-budget self-check: one subject, 400-exec campaigns — \
             exercises the full campaign telemetry path in seconds (used \
             by dune runtest).")
  in
  let run subjects budget out baseline note smoke shards sync_interval =
    let names =
      if smoke then [ "gdk" ]
      else String.split_on_char ',' subjects |> List.map String.trim
    in
    let budget = if smoke then 400 else max 1 budget in
    let subjects = List.map lookup_subject names in
    if shards < 0 then begin
      Fmt.epr "pathfuzz: --shards must be >= 0, got %d@." shards;
      exit 2
    end;
    check_positive ~flag:"--sync-interval" sync_interval;
    let samples =
      if shards = 0 then Experiments.Campaign_bench.grid ~budget subjects
      else begin
        (* sharded bench: measure --shards 1 as the reference, then the
           requested width, and hold the determinism contract between
           them (merged coverage map, queue and crash set fingerprints
           must be byte-identical) *)
        let base =
          Experiments.Campaign_bench.shard_grid ~budget ~shards:1
            ~sync_interval subjects
        in
        let wide =
          if shards = 1 then base
          else
            Experiments.Campaign_bench.shard_grid ~budget ~shards
              ~sync_interval subjects
        in
        let mismatches =
          List.filter
            (fun ((s1, f1), (_, fn)) ->
              ignore (s1 : Experiments.Campaign_bench.sample);
              f1 <> fn)
            (List.combine base wide)
        in
        List.iter
          (fun (((s1 : Experiments.Campaign_bench.sample), _), _) ->
            Fmt.epr
              "[bench-campaign] DETERMINISM MISMATCH %s/%s: --shards %d \
               diverged from --shards 1@."
              s1.subject s1.mode shards)
          mismatches;
        let base_s = List.map fst base and wide_s = List.map fst wide in
        Fmt.epr
          "[bench-campaign] determinism: merged coverage/queue/crash \
           fingerprints %s across --shards 1 and --shards %d (%d cells)@."
          (if mismatches = [] then "identical" else "DIVERGED")
          shards (List.length base_s);
        if shards > 1 then
          Fmt.epr
            "[bench-campaign] speedup: %.2fx execs/sec geomean at --shards \
             %d over --shards 1 (sync every %d execs)@."
            (Experiments.Campaign_bench.speedup_geomean ~base:base_s wide_s)
            shards sync_interval;
        if mismatches <> [] then exit 1;
        if shards = 1 then base_s else base_s @ wide_s
      end
    in
    Fmt.epr "%s@." (Experiments.Campaign_bench.to_table samples);
    let baseline_raw =
      if baseline <> "" then
        Experiments.Throughput.extract_cells ~key:"cells" baseline
      else if out <> "-" then
        Experiments.Throughput.extract_cells ~key:"baseline_cells" out
      else None
    in
    let json = Experiments.Campaign_bench.to_json ~note ?baseline_raw samples in
    if out = "-" then print_string json
    else begin
      let oc = open_out out in
      output_string oc json;
      close_out oc;
      Fmt.epr "[bench-campaign] wrote %s (%d cells)@." out (List.length samples)
    end
  in
  Cmd.v
    (Cmd.info "bench-campaign"
       ~doc:
         "Measure full-campaign execs/sec, allocation per execution and the \
          mutation-vs-VM time split across the (subject x feedback) grid")
    Term.(
      const run $ subjects $ budget $ out $ baseline $ note $ smoke
      $ shards_arg $ sync_interval_arg)

(* --- stats --- *)

let stats_cmd =
  let fuzzer =
    Arg.(
      value
      & opt string "path"
      & info [ "f"; "fuzzer" ] ~docv:"FUZZER"
          ~doc:"Fuzzer configuration (see `pathfuzz fuzz`).")
  in
  let budget =
    Arg.(
      value
      & opt int 8_000
      & info [ "b"; "budget" ] ~docv:"EXECS" ~doc:"Execution budget.")
  in
  let trial =
    Arg.(value & opt int 1 & info [ "t"; "trial" ] ~docv:"N" ~doc:"Trial seed.")
  in
  let rounds =
    Arg.(value & opt int 4 & info [ "rounds" ] ~doc:"Culling rounds.")
  in
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
    let prog = Subjects.Subject.compile_fresh s in
    let plans = Pathcov.Ball_larus.of_program prog in
    (* A ring sink retains the event log in memory; no clock, so the
       report is deterministic for (subject, fuzzer, budget, trial). *)
    let ring = Obs.Sink.create_ring ~capacity:8192 () in
    let obs = Obs.Observer.create ~sink:(Obs.Sink.ring ring) () in
    Fmt.pr "stats: %s / %s, budget %d, trial seed %d@." s.name fz.name budget
      trial;
    let r =
      Fuzz.Strategy.run ~plans ~obs ~engine:Fuzz.Tracer.Interp ~budget
        ~trial_seed:trial fz prog ~seeds:s.seeds
    in
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
      const run $ subject_arg $ fuzzer $ budget $ trial $ rounds $ events
      $ jsonl)

(* --- bench-history --- *)

let bench_history_cmd =
  let history =
    Arg.(
      value
      & opt string "BENCH_history.jsonl"
      & info [ "history" ] ~docv:"FILE" ~doc:"Trend history file (JSONL).")
  in
  let throughput =
    Arg.(
      value
      & opt string "BENCH_throughput.json"
      & info [ "throughput" ] ~docv:"FILE"
          ~doc:"Throughput bench to ingest (skipped when missing).")
  in
  let campaign =
    Arg.(
      value
      & opt string "BENCH_campaign.json"
      & info [ "campaign" ] ~docv:"FILE"
          ~doc:"Campaign bench to ingest (skipped when missing).")
  in
  let date =
    Arg.(
      value
      & opt string ""
      & info [ "date" ] ~docv:"YYYY-MM-DD"
          ~doc:"Date stamp for the appended rows (default: today, UTC).")
  in
  let label =
    Arg.(
      value
      & opt string ""
      & info [ "label" ] ~docv:"TEXT"
          ~doc:"Free-form tag recorded with the appended rows (e.g. a PR).")
  in
  let threshold =
    Arg.(
      value
      & opt float 20.
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Regression threshold: flag cells whose execs/sec fall more \
             than PCT percent below the trailing-window mean.")
  in
  let window =
    Arg.(
      value
      & opt int 4
      & info [ "window" ] ~docv:"N"
          ~doc:"Trailing history rows (per source) to compare against.")
  in
  let check_only =
    Arg.(
      value
      & flag
      & info [ "check-only" ]
          ~doc:"Run the regression check without appending to the history.")
  in
  let run history throughput campaign date label threshold window check_only =
    let date =
      if date <> "" then date
      else
        let tm = Unix.gmtime (Unix.time ()) in
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    in
    let machine =
      Printf.sprintf "nproc=%d ocaml=%s"
        (Domain.recommended_domain_count ())
        Sys.ocaml_version
    in
    let sources =
      List.filter_map
        (fun (source, path) ->
          match Experiments.Bench_history.cells_of_bench path with
          | None -> None
          | Some cells ->
              Some
                { Experiments.Bench_history.date; source; label; machine; cells })
        [ ("throughput", throughput); ("campaign", campaign) ]
    in
    if sources = [] then begin
      Fmt.epr
        "bench-history: neither %s nor %s has a readable \"cells\" block@."
        throughput campaign;
      exit 2
    end;
    let past = Experiments.Bench_history.load history in
    let regressions =
      List.concat_map
        (fun row ->
          Experiments.Bench_history.check ~window ~threshold_pct:threshold past
            row)
        sources
    in
    if not check_only then
      List.iter (Experiments.Bench_history.append history) sources;
    let all = past @ sources in
    print_string (Experiments.Bench_history.to_table all);
    if not check_only then
      Fmt.epr "[bench-history] appended %d row%s to %s@." (List.length sources)
        (if List.length sources = 1 then "" else "s")
        history;
    if regressions <> [] then begin
      Fmt.epr "%s@." (Experiments.Bench_history.regressions_report regressions);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "bench-history"
       ~doc:
         "Append the current bench cells as dated trend rows and flag \
          execs/sec regressions against the trailing window")
    Term.(
      const run $ history $ throughput $ campaign $ date $ label $ threshold
      $ window $ check_only)

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
            bench_throughput_cmd;
            bench_campaign_cmd;
            stats_cmd;
            bench_history_cmd;
          ]))
