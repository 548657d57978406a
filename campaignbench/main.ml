(* Campaign-level benchmark for pathfuzz.

   Three pinned workloads run whole fuzzing campaigns through the
   libraries' public entry points:

   - path-native: sequential [Fuzz.Campaign.run], path feedback with
     cmplog, native engine, four subjects of different CFG shapes;
   - pathafl-shards: [Fuzz.Shard.run] of pathafl on sqlite3 and three
     bug-rich subjects at two shards, native engine, with a checkpoint
     sink;
   - paper-matrix: [Experiments.Runner.run] over a subject subset x the
     seven evaluated fuzzers x two trials at one job, then
     [Experiments.Tables.all].

   Subcommands, each run in a fresh process by run.py:

   - [prep]: compile the native units a workload needs into the emit
     cache and report the compile wall;
   - [setup]: time the cold per-process set-up once;
   - [run]: repeat the workload for [--seconds], check every
     repetition, and print the end-to-end figures; with [--trace 1],
     add one observed repetition and per-operation replays and print
     the per-layer figures instead.

   Every parameter is pinned in this file. Nothing is inherited from
   library presets ([Campaign.default_config], [Experiments.Config],
   [Subjects.Registry.all], [Runner.standard_fuzzers]), so editing a
   preset cannot silently change a workload. *)

module Cov = Pathcov.Coverage_map
module Campaign = Fuzz.Campaign

(* ------------------------------------------------------------------ *)
(* Clocks and statistics *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process CPU time (user + system), summed over every domain. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Machine-speed calibration. On the 2-vCPU virtual machine the bounds
   were set on, a fixed piece of work slowed by up to 80% within
   seconds, and CPU time slowed with wall time, so it is the machine,
   not scheduling. Every timed call into the
   libraries (a [segment]) is therefore bracketed by slices of a fixed
   stdlib-only kernel that no library code touches, and its times are
   reported at reference speed: time x [cal_ref_s / kernel time], the
   kernel time being the mean of the slices before and after. Parent
   and change are scaled by the same kernel, so ratios between them
   are preserved. *)
let cal_ref_s = 0.1

let calibrate () =
  let h = Hashtbl.create 1024 in
  let a = Array.init 200_000 (fun i -> i * 7919 land 0xffff) in
  for r = 0 to 6 do
    Array.iteri (fun i x -> Hashtbl.replace h ((x + r) land 0x3fff) i) a;
    Array.sort compare (Array.sub a 0 20_000)
  done

(* One repetition's segments: raw and reference-speed wall and CPU. *)
type segments = {
  mutable active : bool;  (** inside a measured repetition *)
  mutable raw_wall : float;
  mutable raw_cpu : float;
  mutable wall : float;
  mutable cpu_ref : float;
  mutable last_cal : float;  (** kernel time of the latest slice *)
}

let seg =
  { active = false; raw_wall = 0.; raw_cpu = 0.; wall = 0.; cpu_ref = 0.; last_cal = 0. }

(* Measure [f] as one repetition: zero the sums, take the opening slice;
   the segments inside [f] accumulate into [seg]. *)
let repetition f =
  seg.raw_wall <- 0.;
  seg.raw_cpu <- 0.;
  seg.wall <- 0.;
  seg.cpu_ref <- 0.;
  seg.last_cal <- snd (timed calibrate);
  seg.active <- true;
  Fun.protect ~finally:(fun () -> seg.active <- false) f

(* Time one call into the libraries as a segment of the repetition
   (outside a repetition, just call it). *)
let segment f =
  if not seg.active then f ()
  else
  let c0 = cpu () in
  let r, wall = timed f in
  let cpu_s = cpu () -. c0 in
  let (), after = timed calibrate in
  let factor = cal_ref_s /. ((seg.last_cal +. after) /. 2.) in
  seg.last_cal <- after;
  seg.raw_wall <- seg.raw_wall +. wall;
  seg.raw_cpu <- seg.raw_cpu +. cpu_s;
  seg.wall <- seg.wall +. (wall *. factor);
  seg.cpu_ref <- seg.cpu_ref +. (cpu_s *. factor);
  r

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 256 0.; n = 0 }

let push s x =
  if s.n = Array.length s.xs then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.xs 0 b 0 s.n;
    s.xs <- b
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let values s = Array.sub s.xs 0 s.n

(* Nearest-rank index (1-based) of percentile [q] among [n] samples. *)
let rank n q = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int n)))

(* The highest of these percentiles with at least ten samples beyond it
   is reported as a distribution's tail. *)
let tail_levels = [ 99.9; 99.; 95.; 90.; 75. ]

(* ------------------------------------------------------------------ *)
(* Metric output *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

(* A timing distribution: median, tail, the tail's percentile level
   (50 when too few samples leave ten beyond any listed level) and the
   sample count. *)
let dist name unit (s : samples) =
  let xs = sorted_copy (values s) in
  let n = Array.length xs in
  let q =
    List.find_opt (fun q -> n - rank n q >= 10) tail_levels
    |> Option.value ~default:50.
  in
  metric (name ^ ".p50") unit (median xs);
  metric (name ^ ".tail") unit (if n = 0 then 0. else xs.(rank n q - 1));
  metric (name ^ ".tail_pct") "pct" q;
  metric (name ^ ".n") "count" (float_of_int n)

(* Few-sample timings: median and count only. *)
let small name unit (s : samples) =
  metric (name ^ ".p50") unit (median (values s));
  metric (name ^ ".n") "count" (float_of_int s.n)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed =
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      !metrics
  in
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans around each public call it makes. Recorded
   only when tracing, kept in memory, written as Chrome trace-event
   JSON when the run ends. *)

type span = { sname : string; parent : int; t0 : float; mutable t1 : float }

let tracing = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let open_spans : int list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let sp = { sname = name; parent; t0 = now (); t1 = 0. } in
    let id = !n_spans in
    incr n_spans;
    spans := sp :: !spans;
    open_spans := id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        sp.t1 <- now ();
        open_spans := List.tl !open_spans)
      f
  end

let write_spans path =
  let arr = Array.of_list (List.rev !spans) in
  let base = if Array.length arr = 0 then 0. else arr.(0).t0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  Array.iteri
    (fun i sp ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}"
        (if i = 0 then "" else ",\n")
        sp.sname
        ((sp.t0 -. base) *. 1e6)
        ((sp.t1 -. sp.t0) *. 1e6)
        i sp.parent)
    arr;
  output_string oc "\n]}\n";
  close_out oc

(* Per span name: count, total seconds and self seconds (duration minus
   the part its child spans cover), in first-seen order. *)
let span_summary () =
  let arr = Array.of_list (List.rev !spans) in
  let child = Array.make (Array.length arr) 0. in
  Array.iter
    (fun sp -> if sp.parent >= 0 then child.(sp.parent) <- child.(sp.parent) +. (sp.t1 -. sp.t0))
    arr;
  let order = ref [] and tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i sp ->
      let dur = sp.t1 -. sp.t0 in
      match Hashtbl.find_opt tbl sp.sname with
      | Some (c, tot, self) -> Hashtbl.replace tbl sp.sname (c + 1, tot +. dur, self +. dur -. child.(i))
      | None ->
          order := sp.sname :: !order;
          Hashtbl.replace tbl sp.sname (1, dur, dur -. child.(i)))
    arr;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* ------------------------------------------------------------------ *)
(* Pinned workload parameters *)

type workload = Path_native | Pathafl_shards | Paper_matrix

let workload_names =
  [ ("path-native", Path_native); ("pathafl-shards", Pathafl_shards); ("paper-matrix", Paper_matrix) ]

let fuel = 200_000
let max_depth = 128
let map_size_log2 = 16
let max_queue = 500_000

(* path-native *)
let native_subjects = [ "sqlite3"; "infotocap"; "cflow"; "gdk" ]
let native_budget = 80_000

(* pathafl-shards: sqlite3 carries the retention load. The other three
   subjects find the same handful of bugs on nearly every seed; pathafl
   on sqlite3 alone finds none on most seeds, which would leave
   bugs_found at 0. Each campaign checkpoints once, at 30k execs. *)
let shard_campaigns =
  [ ("sqlite3", 60_000); ("gdk", 40_000); ("tiffsplit", 40_000); ("mp3gain", 40_000) ]

let shard_count = 2
let shard_sync = 2048
let checkpoint_every = 30_000

(* paper-matrix: the budget is a multiple of the cull rounds, so every
   strategy performs exactly the budgeted executions *)
let matrix_subjects = [ "cflow"; "jq"; "flvmeta"; "mujs" ]
let matrix_budget = 4_200
let matrix_trials = 2
let matrix_rounds = 3

let matrix_fuzzers () =
  Fuzz.Strategy.
    [
      path;
      pcguard;
      cull ~rounds:matrix_rounds ();
      opp;
      cull_r ~rounds:matrix_rounds ();
      pathafl;
      afl;
    ]

(* The short untimed reference check. *)
let ref_native_budget = 6_000
let ref_shard_scale = 8  (* reference budgets are 1/8 of the timed ones *)
let ref_matrix_budget = 600
let ref_matrix_subjects = [ "cflow"; "jq" ]

(* Campaign RNG seeds: a pure function of (workload seed, slot). *)
let derive seed slot = 1 + (Hashtbl.hash (seed, slot) land 0x3fff_ffff)

let config ~mode ~cmplog ~engine ~budget ~rng_seed : Campaign.config =
  {
    Campaign.mode;
    budget;
    rng_seed;
    fuel;
    max_depth;
    map_size_log2;
    cmplog;
    max_queue;
    engine;
    selective = false;
  }

let subject = Subjects.Registry.find_exn
let program = Subjects.Subject.program
let plans (s : Subjects.Subject.t) = Experiments.Runner.subject_plans s (program s)

let matrix_config ~seed ~budget ~jobs =
  {
    Experiments.Config.budget;
    trials = matrix_trials;
    cull_rounds = matrix_rounds;
    map_size_log2;
    base_seed = derive seed 200;
    jobs;
  }

(* The (subject, mode, cmplog, engine) units whose set-up each workload
   pays: the Runner of paper-matrix always interprets. *)
let setup_units = function
  | Path_native ->
      List.map (fun s -> (s, Pathcov.Feedback.Path, true, Fuzz.Tracer.Native)) native_subjects
  | Pathafl_shards ->
      List.map
        (fun (s, _) -> (s, Pathcov.Feedback.Pathafl, false, Fuzz.Tracer.Native))
        shard_campaigns
  | Paper_matrix ->
      List.map (fun s -> (s, Pathcov.Feedback.Path, true, Fuzz.Tracer.Interp)) matrix_subjects

(* The native units a workload loads. For paper-matrix these are the
   units its fuzzers would need if the Runner ran natively; they are
   only ever compiled to report the cold compile cost. *)
let native_units = function
  | (Path_native | Pathafl_shards) as w ->
      List.map (fun (s, mode, cmplog, _) -> (s, mode, cmplog)) (setup_units w)
  | Paper_matrix ->
      List.concat_map
        (fun s ->
          [
            (s, Pathcov.Feedback.Path, true);
            (s, Pathcov.Feedback.Edge, true);
            (s, Pathcov.Feedback.Pathafl, false);
            (s, Pathcov.Feedback.Edge, false);
          ])
        matrix_subjects

(* ------------------------------------------------------------------ *)
(* Running the workloads *)

type outcome =
  | Seq of (Subjects.Subject.t * Campaign.config * Campaign.result) list
  | Sharded of (Subjects.Subject.t * Fuzz.Shard.config * Fuzz.Shard.result) list
  | Matrix of Experiments.Runner.matrix * string  (** matrix, [Tables.all] text *)

(* Observers of the traced repetition: a clock and a span trace. *)
let observers : Obs.Observer.t list ref = ref []

let new_observer ~tracks =
  let o =
    Obs.Observer.create ~clock:now ~trace:(Obs.Trace.create ~clock:now ~tracks ()) ()
  in
  observers := o :: !observers;
  o

let run_native ~observe ~seed ~engine ~budget =
  Seq
    (List.mapi
       (fun i name ->
         let s = subject name in
         let config =
           config ~mode:Pathcov.Feedback.Path ~cmplog:true ~engine ~budget
             ~rng_seed:(derive seed i)
         in
         let obs = if observe then Some (new_observer ~tracks:1) else None in
         let r =
           segment (fun () ->
               span "Campaign.run" (fun () ->
                   Campaign.run ~plans:(plans s) ?obs ~config (program s) ~seeds:s.seeds))
         in
         (s, config, r))
       native_subjects)

(* Checkpoint sink bookkeeping, reset per repetition. *)
type ck_stats = {
  mutable writes : int;
  mutable bytes : int;
  mutable write_s : float;
  mutable last : string option;
}

let ck = { writes = 0; bytes = 0; write_s = 0.; last = None }

let reset_ck () =
  ck.writes <- 0;
  ck.bytes <- 0;
  ck.write_s <- 0.;
  ck.last <- None

let checkpoint_sink ~dir ~subject : Fuzz.Checkpoint.sink =
  {
    every = checkpoint_every;
    subject;
    fuzzer = "pathafl";
    save =
      (fun snap ->
        span "Checkpoint.write_file" (fun () ->
            let path = Filename.concat dir (subject ^ ".ckpt") in
            let n, dt = timed (fun () -> Fuzz.Checkpoint.write_file ~path snap) in
            ck.writes <- ck.writes + 1;
            ck.bytes <- ck.bytes + n;
            ck.write_s <- ck.write_s +. dt;
            ck.last <- Some path));
  }

(* [dir] enables the checkpoint sink; [scale] divides every budget. *)
let run_shards ~observe ?dir ?(scale = 1) ~seed ~engine ~shards () =
  Sharded
    (List.mapi
       (fun i (name, budget) ->
         let s = subject name in
         let config =
           {
             Fuzz.Shard.base =
               config ~mode:Pathcov.Feedback.Pathafl ~cmplog:false ~engine
                 ~budget:(budget / scale) ~rng_seed:(derive seed (100 + i));
             shards;
             sync_interval = shard_sync;
           }
         in
         let checkpoint = Option.map (fun dir -> checkpoint_sink ~dir ~subject:name) dir in
         let obs = if observe then Some (new_observer ~tracks:(shards + 1)) else None in
         let r =
           segment (fun () ->
               span "Shard.run" (fun () ->
                   Fuzz.Shard.run ~plans:(plans s) ?obs ~workers:shards ?checkpoint config
                     (program s) ~seeds:s.seeds))
         in
         (s, config, r))
       shard_campaigns)

(* Wall of the last Runner.run and Tables.all calls. *)
let runner_s = ref 0.
let tables_s = ref 0.

let render m =
  let text, dt =
    timed (fun () -> segment (fun () -> span "Tables.all" (fun () -> Experiments.Tables.all m)))
  in
  tables_s := dt;
  Matrix (m, text)

let run_matrix ~seed ~budget ~subjects ~jobs =
  let cfg = matrix_config ~seed ~budget ~jobs in
  let m, dt =
    timed (fun () ->
        segment (fun () ->
            span "Runner.run" (fun () ->
                Experiments.Runner.run ~quiet:true ~jobs ~fuzzers:(matrix_fuzzers ())
                  ~subjects:(List.map subject subjects) cfg)))
  in
  runner_s := dt;
  render m

(* The observed twin of [run_matrix]: the Runner's task loop written
   out with one observer per trial, since [Runner.run] takes none. Its
   fingerprint must equal the untimed repetitions', which pins it to
   the Runner's own schedule (trial seeds included). *)
let trial_wall_ms = samples ()

let run_matrix_observed ~seed =
  let cfg = matrix_config ~seed ~budget:matrix_budget ~jobs:1 in
  let fuzzers = matrix_fuzzers () in
  let subjects = List.map subject matrix_subjects in
  let cells = Hashtbl.create 64 in
  let (), dt =
    timed @@ fun () ->
    segment @@ fun () ->
    span "Runner.run" (fun () ->
            List.iter
              (fun (s : Subjects.Subject.t) ->
                List.iter
                  (fun (fz : Fuzz.Strategy.fuzzer) ->
                    let runs =
                      List.init cfg.trials (fun trial ->
                          let obs = new_observer ~tracks:1 in
                          let r, w =
                            timed (fun () ->
                                span "Strategy.run" (fun () ->
                                    Fuzz.Strategy.run ~plans:(plans s) ~obs ~budget:cfg.budget
                                      ~trial_seed:(cfg.base_seed + (trial * 7919))
                                      fz (program s) ~seeds:s.seeds))
                          in
                          push trial_wall_ms (w *. 1000.);
                          (r, w))
                    in
                    Hashtbl.replace cells (s.name, fz.name)
                      {
                        Experiments.Runner.subject = s;
                        fuzzer = fz;
                        runs = List.map fst runs;
                        wall_s = List.fold_left (fun a (_, w) -> a +. w) 0. runs;
                      })
                  fuzzers)
              subjects)
  in
  runner_s := dt;
  render { Experiments.Runner.config = cfg; cells; fuzzers; subjects }

let run_workload ?(observe = false) ?dir w ~seed =
  match w with
  | Path_native -> run_native ~observe ~seed ~engine:Fuzz.Tracer.Native ~budget:native_budget
  | Pathafl_shards ->
      run_shards ~observe ?dir ~seed ~engine:Fuzz.Tracer.Native ~shards:shard_count ()
  | Paper_matrix ->
      if observe then run_matrix_observed ~seed
      else run_matrix ~seed ~budget:matrix_budget ~subjects:matrix_subjects ~jobs:1

(* ------------------------------------------------------------------ *)
(* Output checks *)

let fp_add b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let fp_triage b (t : Fuzz.Triage.t) =
  let stacks = Hashtbl.fold (fun k _ acc -> k :: acc) t.by_stack [] |> List.sort compare in
  let bug = function
    | Vm.Crash.Id i -> "id" ^ string_of_int i
    | Vm.Crash.At_site s -> "site" ^ string_of_int s
  in
  fp_add b
    (Printf.sprintf "crashes=%d hangs=%d stacks=%s bugs=%s" t.total_crashes t.total_hangs
       (String.concat "," (List.map string_of_int stacks))
       (String.concat "," (List.map bug (Fuzz.Triage.bugs t))))

let fp_campaign b (r : Campaign.result) =
  List.iter (fp_add b) (Campaign.queue_inputs r);
  fp_triage b r.triage;
  fp_add b (Printf.sprintf "execs=%d blocks=%d havocs=%d" r.execs r.sum_exec_blocks r.havocs)

(* The single campaigns of a sequential or sharded outcome. *)
let campaigns = function
  | Seq cs -> cs
  | Sharded cs -> List.map (fun (s, (c : Fuzz.Shard.config), (r : Fuzz.Shard.result)) -> (s, c.base, r.campaign)) cs
  | Matrix _ -> []

(* The trajectory fingerprint: final queue inputs, virgin-map bytes
   where the library exposes the map (sharded results; sequential
   results expose the final snapshot row's virgin residual), the crash
   set, and the [Tables.all] text. *)
let fingerprint o =
  let b = Buffer.create 4096 in
  (match o with
  | Seq cs ->
      List.iter
        (fun (_, _, (r : Campaign.result)) ->
          fp_campaign b r;
          match List.rev r.snapshots with
          | last :: _ -> fp_add b (Printf.sprintf "residual=%d" last.virgin_residual)
          | [] -> ())
        cs
  | Sharded cs ->
      List.iter
        (fun (_, _, (r : Fuzz.Shard.result)) ->
          fp_campaign b r.campaign;
          fp_add b
            (Printf.sprintf "virgin=%x crash_virgin=%x" (Cov.bytes_hash r.virgin)
               (Cov.bytes_hash r.crash_virgin)))
        cs
  | Matrix (m, text) ->
      fp_add b text;
      List.iter
        (fun (s : Subjects.Subject.t) ->
          List.iter
            (fun (fz : Fuzz.Strategy.fuzzer) ->
              let c = Experiments.Runner.cell m ~subject:s.name ~fuzzer:fz.name in
              List.iter
                (fun (r : Fuzz.Strategy.run_result) ->
                  List.iter (fp_add b) r.final_queue;
                  fp_triage b r.triage;
                  fp_add b (string_of_int r.execs))
                c.runs)
            m.fuzzers)
        m.subjects);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Executions performed vs budgeted, per campaign. *)
let execs_pairs = function
  | (Seq _ | Sharded _) as o ->
      List.map
        (fun (_, (c : Campaign.config), (r : Campaign.result)) -> (r.execs, c.budget))
        (campaigns o)
  | Matrix (m, _) ->
      Hashtbl.fold
        (fun _ (c : Experiments.Runner.cell) acc ->
          List.map (fun (r : Fuzz.Strategy.run_result) -> (r.execs, m.config.budget)) c.runs
          @ acc)
        m.cells []

let budget_total o = List.fold_left (fun a (_, b) -> a + b) 0 (execs_pairs o)

let bugs_found = function
  | (Seq _ | Sharded _) as o ->
      List.fold_left
        (fun a (_, _, (r : Campaign.result)) -> a + Fuzz.Triage.unique_bugs r.triage)
        0 (campaigns o)
  | Matrix (m, _) ->
      Hashtbl.fold
        (fun _ (c : Experiments.Runner.cell) acc ->
          List.fold_left
            (fun a (r : Fuzz.Strategy.run_result) -> a + Fuzz.Triage.unique_bugs r.triage)
            acc c.runs)
        m.cells 0

(* Edge coverage of the final queues plus seeds (Table IV's measure). *)
let edges_covered o =
  let union (s : Subjects.Subject.t) queue =
    Fuzz.Measure.Int_set.cardinal (Fuzz.Measure.edge_union (program s) (s.seeds @ queue))
  in
  span "Measure.edge_union" (fun () ->
      match o with
      | Seq _ | Sharded _ ->
          List.fold_left
            (fun a (s, _, r) -> a + union s (Campaign.queue_inputs r))
            0 (campaigns o)
      | Matrix (m, _) ->
          Hashtbl.fold
            (fun _ c acc ->
              acc + Fuzz.Measure.Int_set.cardinal (Experiments.Runner.cumulative_edges c))
            m.cells 0)

(* The untimed reference check: the path-native config under the
   interpreter vs the native engine, the pathafl-shards config under
   the interpreter at one shard vs natively at two, and the matrix at
   one vs two jobs. The reference side always interprets. Also loads
   the native units, so the timed region starts warm. *)
let reference_check w ~seed =
  match w with
  | Path_native ->
      let run engine = run_native ~observe:false ~seed ~engine ~budget:ref_native_budget in
      fingerprint (run Fuzz.Tracer.Interp) = fingerprint (run Fuzz.Tracer.Native)
  | Pathafl_shards ->
      let run engine shards =
        run_shards ~observe:false ~scale:ref_shard_scale ~seed ~engine ~shards ()
      in
      fingerprint (run Fuzz.Tracer.Interp 1) = fingerprint (run Fuzz.Tracer.Native shard_count)
  | Paper_matrix ->
      let run jobs =
        run_matrix ~seed ~budget:ref_matrix_budget ~subjects:ref_matrix_subjects ~jobs
      in
      fingerprint (run 1) = fingerprint (run 2)

(* ------------------------------------------------------------------ *)
(* Per-operation replays (traced run only): the workload's own final
   queues and a havoc candidate stream derived from them, pushed through
   each layer's public functions one call at a time. *)

type replay_item = {
  ri_name : string;
  ri_prog : Minic.Ir.program;
  ri_plans : Pathcov.Ball_larus.program_plans;
  ri_config : Campaign.config;
  ri_queue : string list;
}

let replay_items = function
  | (Seq _ | Sharded _) as o ->
      List.map
        (fun ((s : Subjects.Subject.t), c, r) ->
          { ri_name = s.name; ri_prog = program s; ri_plans = plans s; ri_config = c;
            ri_queue = Campaign.queue_inputs r })
        (campaigns o)
  | Matrix (m, _) ->
      (* first trial of every cell, under the mode its last phase ran *)
      List.concat_map
        (fun (s : Subjects.Subject.t) ->
          List.filter_map
            (fun (fz : Fuzz.Strategy.fuzzer) ->
              match (Experiments.Runner.cell m ~subject:s.name ~fuzzer:fz.name).runs with
              | [] -> None
              | r :: _ ->
                  let mode =
                    match fz.spec with
                    | Fuzz.Strategy.Plain mode -> mode
                    | Cull _ | Opportunistic -> Pathcov.Feedback.Path
                  in
                  Some
                    { ri_name = s.name; ri_prog = program s; ri_plans = plans s;
                      ri_config =
                        config ~mode ~cmplog:fz.cmplog ~engine:Fuzz.Tracer.Interp
                          ~budget:m.config.budget ~rng_seed:1;
                      ri_queue = r.final_queue })
            m.fuzzers)
        m.subjects

let replay_ops ~seed items =
  let havoc = samples () and exec = samples () and classify = samples () in
  let merge = samples () and sorted = samples () and add = samples () in
  let favored = samples () and to_s = samples () and of_s = samples () in
  let per_item = max 64 (4000 / max 1 (List.length items)) in
  let largest = ref None in
  List.iteri
    (fun idx it ->
      let queue = Array.of_list (if it.ri_queue = [] then [ "A" ] else it.ri_queue) in
      let nq = Array.length queue in
      let st = Campaign.make_state ~plans:it.ri_plans ~config:it.ri_config it.ri_prog in
      let rng = Fuzz.Rng.create (derive seed (300 + idx)) in
      let sc = Fuzz.Mutator.create_scratch () in
      let cands =
        Array.init per_item (fun k ->
            let splice_with = queue.(Fuzz.Rng.int rng nq) in
            let t0 = now () in
            Fuzz.Mutator.havoc_in_place sc ~splice_with rng queue.(k mod nq);
            push havoc ((now () -. t0) *. 1e9);
            Bytes.sub_string sc.buf 0 sc.len)
      in
      let stream = Array.append queue cands in
      let n = Array.length stream in
      let idxs = Array.make n [||] and blocks = Array.make n 1 in
      let tr = st.feedback.trace in
      Fuzz.Tracer.run_full_batch ~clock:now
        ~vm_s:(fun dt -> push exec (dt *. 1e9))
        st.tracer st.ctx ~fuel:it.ri_config.fuel ~max_depth:it.ri_config.max_depth ~n
        ~gen:(fun k ->
          st.feedback.reset ();
          Cov.clear tr;
          st.cmp_buf.n_cmps <- 0;
          let b = Bytes.unsafe_of_string stream.(k) in
          (b, Bytes.length b))
        ~sink:(fun k out ->
          let t0 = now () in
          Cov.classify tr;
          let t1 = now () in
          ignore (Cov.merge_into ~virgin:st.virgin tr);
          let t2 = now () in
          idxs.(k) <- Cov.sorted_indices tr;
          let t3 = now () in
          push classify ((t1 -. t0) *. 1e9);
          push merge ((t2 -. t1) *. 1e9);
          push sorted ((t3 -. t2) *. 1e9);
          blocks.(k) <- max 1 out.Vm.Interp.blocks_executed);
      (* retention: the queue re-added into fresh corpora *)
      let passes = max 1 ((per_item + nq - 1) / nq) in
      let corpus = ref (Fuzz.Corpus.create ()) in
      for _ = 1 to passes do
        corpus := Fuzz.Corpus.create ();
        for k = 0 to nq - 1 do
          let t0 = now () in
          let e =
            Fuzz.Corpus.add !corpus ~data:queue.(k) ~indices:idxs.(k) ~exec_blocks:blocks.(k)
              ~depth:0 ~found_at:k
          in
          Fuzz.Corpus.claim_top_rated !corpus e;
          push add ((now () -. t0) *. 1e9)
        done
      done;
      match !largest with
      | Some (m, _, _, _) when m >= nq -> ()
      | _ -> largest := Some (nq, it, st, !corpus))
    items;
  (match !largest with
  | None -> ()
  | Some (_, it, st, corpus) ->
      for _ = 1 to 5 do
        let (), dt = timed (fun () -> Fuzz.Corpus.recompute_favored corpus) in
        push favored (dt *. 1e3)
      done;
      let c = it.ri_config in
      let snap =
        Fuzz.Checkpoint.capture
          ~id:
            {
              Fuzz.Checkpoint.subject = it.ri_name;
              fuzzer = "replay";
              mode = Pathcov.Feedback.mode_name c.mode;
              cmplog = c.cmplog;
              rng_seed = c.rng_seed;
              budget = c.budget;
              fuel = c.fuel;
              max_depth = c.max_depth;
              map_size_log2 = c.map_size_log2;
              max_queue = c.max_queue;
              sync_interval = 0;
            }
          ~progress:
            {
              Fuzz.Checkpoint.execs = 0;
              blocks = 0;
              havocs = 0;
              rng_state = 0;
              items_total = 0;
              cycle_len = 0;
              next_qi = 0;
              epochs = 0;
              dup_dropped = 0;
            }
          ~virgin:st.virgin ~crash_virgin:st.crash_virgin ~corpus ~triage:st.triage
          ~counters:(Obs.Counters.create ()) ~snapshots:[]
      in
      for _ = 1 to 5 do
        let s, dt = timed (fun () -> Fuzz.Checkpoint.to_string snap) in
        push to_s (dt *. 1e3);
        let r, dt = timed (fun () -> Fuzz.Checkpoint.of_string s) in
        push of_s (dt *. 1e3);
        match r with Ok _ -> () | Error e -> failwith ("checkpoint round trip: " ^ e)
      done);
  dist "mutator.havoc_ns" "ns" havoc;
  dist "vm.exec_ns" "ns" exec;
  dist "pathcov.classify_ns" "ns" classify;
  dist "pathcov.merge_ns" "ns" merge;
  dist "pathcov.sorted_indices_ns" "ns" sorted;
  dist "corpus.add_ns" "ns" add;
  small "corpus.recompute_favored_ms" "ms" favored;
  small "checkpoint.to_string_ms" "ms" to_s;
  small "checkpoint.of_string_ms" "ms" of_s

(* ------------------------------------------------------------------ *)
(* Per-layer figures of the observed repetition *)

let layer_metrics o ~wall ~cpu_s ~minor_words ~major_gcs ~overhead_pct ~runner_run_s
    ~tables_render_s =
  let obs = !observers in
  let sum f = List.fold_left (fun a (x : Obs.Observer.t) -> a +. f x) 0. obs in
  let counter f = sum (fun o -> float_of_int (f o.Obs.Observer.counters)) in
  let spans kind =
    sum (fun o ->
        match o.trace with Some t -> snd (Obs.Trace.agg_all t kind) | None -> 0.)
  in
  let execs = counter (fun c -> c.execs) in
  let vm_s = sum (fun o -> o.counters.vm_s) in
  let mut_s = sum (fun o -> o.counters.mut_s) in
  let triage_s = spans Obs.Trace.Triage in
  let merge_s = spans Obs.Trace.Merge in
  let plan_s = spans Obs.Trace.Plan in
  let checkpoint_s = spans Obs.Trace.Checkpoint in
  let shards = match o with Sharded _ -> shard_count | Seq _ | Matrix _ -> 1 in
  (* shard-side layers run in parallel: their share of the wall is their
     sum over the shard count *)
  let named =
    ((vm_s +. mut_s +. triage_s) /. float_of_int shards)
    +. merge_s +. plan_s +. checkpoint_s
    +. match o with Matrix _ -> !tables_s | Seq _ | Sharded _ -> 0.
  in
  metric "obs.traced_wall_s" "s" wall;
  metric "obs.trace_overhead_pct" "pct" overhead_pct;
  metric "campaign.vm_s" "s" vm_s;
  metric "campaign.mut_s" "s" mut_s;
  metric "campaign.other_s" "s" (wall -. named);
  metric "campaign.minor_words_per_exec" "words" (minor_words /. Float.max 1. execs);
  metric "campaign.major_gcs" "count" major_gcs;
  metric "vm.blocks_per_exec" "count" (counter (fun c -> c.blocks) /. Float.max 1. execs);
  let retained = counter (fun c -> c.retained) in
  metric "corpus.retained" "count" retained;
  metric "corpus.retain_ratio" "ratio" (retained /. Float.max 1. execs);
  metric "triage.crashes" "count" (counter (fun c -> c.crashes));
  metric "triage.s" "s" triage_s;
  let shard_wall name s = sum (fun o -> Obs.Metrics.wall_value o.metrics (Printf.sprintf "shard%d.%s" s name)) in
  let sharded = match o with Sharded cs -> cs | Seq _ | Matrix _ -> [] in
  let shard_sum f = float_of_int (List.fold_left (fun a (_, _, r) -> a + f r) 0 sharded) in
  let dup = shard_sum (fun r -> r.Fuzz.Shard.dup_dropped) in
  let kept = shard_sum (fun r -> Fuzz.Corpus.size r.Fuzz.Shard.campaign.corpus) in
  metric "shard.epochs" "count" (shard_sum (fun r -> r.epochs));
  metric "shard.items" "count" (shard_sum (fun r -> r.items));
  metric "shard.dup_ratio" "ratio" (dup /. Float.max 1. (dup +. kept));
  metric "shard.parallel_eff" "ratio"
    (if sharded = [] then 0. else cpu_s /. (float_of_int shard_count *. wall));
  for s = 0 to shard_count - 1 do
    metric (Printf.sprintf "shard%d.busy_s" s) "s" (shard_wall "busy_s" s);
    metric (Printf.sprintf "shard%d.wait_s" s) "s" (shard_wall "wait_s" s)
  done;
  metric "shard.merge_s" "s" merge_s;
  metric "checkpoint.writes" "count" (float_of_int ck.writes);
  metric "checkpoint.bytes" "bytes" (float_of_int ck.bytes);
  metric "checkpoint.write_s" "s" ck.write_s;
  let read_s =
    match ck.last with
    | None -> 0.
    | Some path ->
        let r, dt =
          timed (fun () -> span "Checkpoint.read_file" (fun () -> Fuzz.Checkpoint.read_file path))
        in
        (match r with Ok _ -> () | Error e -> failwith ("checkpoint read: " ^ e));
        dt
  in
  metric "checkpoint.read_s" "s" read_s;
  metric "runner.run_s" "s" runner_run_s;
  metric "tables.render_s" "s" tables_render_s;
  dist "runner.trial_wall_ms" "ms" trial_wall_ms

(* ------------------------------------------------------------------ *)
(* Subcommands *)

(* Load every native unit the way the workload's tracers do, compiling
   whatever the cache lacks; reports the wall spent inside the
   compiler. *)
let prep w =
  let units = native_units w in
  List.iter
    (fun (name, mode, cmplog) ->
      let s = subject name in
      let tracer =
        Fuzz.Tracer.make ~plans:(plans s) ~engine:Fuzz.Tracer.Native ~selective:false ~cmplog
          ~mode
          (Vm.Interp.prepare_cached (program s))
      in
      Option.iter
        (fun why -> Printf.eprintf "campaignbench: %s falls back: %s\n" name why)
        (Fuzz.Tracer.emit_fallback tracer))
    units;
  let st = Vm.Emit.stats () in
  Printf.printf "{\"units\": %d, \"compile_s\": %s, \"cache_misses\": %d, \"fallbacks\": %d}\n"
    (List.length units) (json_num st.compile_s) st.cache_misses st.fallbacks;
  if st.fallbacks > 0 then exit 1

let setup w =
  let parts = Array.make 4 0. in
  let part i f =
    let r, dt = timed f in
    parts.(i) <- parts.(i) +. dt;
    r
  in
  let fallbacks = ref 0 in
  List.iter
    (fun (name, mode, cmplog, engine) ->
      let s = subject name in
      let prog = part 0 (fun () -> Subjects.Subject.program s) in
      let plans = part 1 (fun () -> Pathcov.Ball_larus.of_program prog) in
      let prepared = part 2 (fun () -> Vm.Interp.prepare_cached prog) in
      let tracer =
        part 3 (fun () -> Fuzz.Tracer.make ~plans ~engine ~selective:false ~cmplog ~mode prepared)
      in
      if Fuzz.Tracer.emit_fallback tracer <> None then incr fallbacks)
    (setup_units w);
  let (), cal = timed calibrate in
  let total = Array.fold_left ( +. ) 0. parts in
  Printf.printf
    "{\"minic.program_s\": %s, \"pathcov.bl_plans_s\": %s, \"vm.prepare_s\": %s, \
     \"vm.artifact_load_s\": %s, \"setup_s\": %s, \"fallbacks\": %d}\n"
    (json_num parts.(0)) (json_num parts.(1)) (json_num parts.(2)) (json_num parts.(3))
    (json_num (total *. cal_ref_s /. cal))
    !fallbacks

(* Hard stop for the timed loop, well inside the per-run limit. *)
let max_loop_s = 120.

let run w ~seed ~seconds ~trace ~dir =
  let attempted = ref 0 and failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        prerr_endline ("campaignbench: " ^ msg))
      fmt
  in
  incr attempted;
  (match reference_check w ~seed with
  | true -> ()
  | false -> fail "reference check: fingerprints differ"
  | exception e -> fail "reference check raised: %s" (Printexc.to_string e));
  let walls = samples () and cpus = samples () and runner = samples () and tables = samples () in
  let expected = ref None and last = ref None and stop = ref false in
  let emit0 = Vm.Emit.stats () in
  (* a traced run spends half its time on the untraced baseline *)
  let window = if trace then seconds /. 2. else seconds in
  let min_reps = if trace then 2 else 3 in
  let t_start = now () in
  let check o emit_before =
    let fp = fingerprint o in
    (match !expected with
    | None -> expected := Some fp
    | Some e when e = fp -> ()
    | Some _ -> fail "fingerprint differs between repetitions");
    List.iter
      (fun (execs, budget) ->
        if execs <> budget then fail "campaign ran %d execs for a budget of %d" execs budget)
      (execs_pairs o);
    let e = Vm.Emit.stats () in
    if e.cache_misses <> emit_before.Vm.Emit.cache_misses then fail "emit cache miss in timed region";
    if e.fallbacks <> emit_before.Vm.Emit.fallbacks then fail "emit fallback in timed region"
  in
  (* stop before a repetition that would overrun the window *)
  let rep_s = ref 0. in
  while
    (not !stop)
    && (walls.n < min_reps || now () -. t_start +. !rep_s < window)
    && now () -. t_start < max_loop_s
  do
    last := None;
    reset_ck ();
    Gc.compact ();
    incr attempted;
    let failed0 = !failed in
    let emit_before = Vm.Emit.stats () in
    let t0 = now () in
    match repetition (fun () -> run_workload w ~seed ~dir) with
    | exception e ->
        fail "repetition raised: %s" (Printexc.to_string e);
        stop := true
    | o ->
        rep_s := now () -. t0;
        Printf.eprintf
          "repetition %d: wall %.4f s, cpu %.4f s; at reference speed %.4f s, %.4f s\n%!"
          walls.n seg.raw_wall seg.raw_cpu seg.wall seg.cpu_ref;
        check o emit_before;
        if !failed = failed0 then begin
          push walls seg.wall;
          push cpus seg.cpu_ref;
          push runner !runner_s;
          push tables !tables_s
        end;
        last := Some o
  done;
  let wall = median (values walls) in
  (match !last with
  | None -> ()
  | Some o when not trace ->
      let budget = float_of_int (budget_total o) in
      metric "execs_per_s" "exec/s" (budget /. wall);
      metric "wall_s" "s" wall;
      metric "cpu_s" "s" (median (values cpus));
      metric "edges_covered" "count" (float_of_int (edges_covered o));
      metric "bugs_found" "count" (float_of_int (bugs_found o))
  | Some _ -> (
      last := None;
      reset_ck ();
      Gc.compact ();
      tracing := true;
      incr attempted;
      let failed0 = !failed in
      let emit_before = Vm.Emit.stats () in
      let m0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).major_collections in
      match repetition (fun () -> run_workload ~observe:true w ~seed ~dir) with
      | exception e -> fail "observed repetition raised: %s" (Printexc.to_string e)
      | o ->
          let twall = seg.raw_wall and cpu_s = seg.raw_cpu in
          let minor_words = Gc.minor_words () -. m0 in
          let major_gcs = float_of_int ((Gc.quick_stat ()).major_collections - g0) in
          check o emit_before;
          if !failed = failed0 then begin
            let e = Vm.Emit.stats () in
            metric "vm.emit_fallbacks" "count" (float_of_int (e.fallbacks - emit0.fallbacks));
            metric "vm.emit_cache_misses" "count"
              (float_of_int (e.cache_misses - emit0.cache_misses));
            layer_metrics o ~wall:twall ~cpu_s ~minor_words ~major_gcs
              ~overhead_pct:(100. *. (seg.wall -. wall) /. wall)
              ~runner_run_s:(median (values runner))
              ~tables_render_s:(median (values tables));
            let _, edge_s = timed (fun () -> edges_covered o) in
            metric "measure.edge_union_s" "s" edge_s;
            span "replay_ops" (fun () -> replay_ops ~seed (replay_items o));
            write_spans (Filename.concat dir "spans.json");
            List.iter
              (fun (name, (count, total, self)) ->
                Printf.printf "span %-24s count %5d  total %9.4f s  self %9.4f s\n" name count
                  total self)
              (span_summary ())
          end));
  print_result ~attempted:!attempted ~failed:!failed

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt key = function
    | k :: v :: _ when k = "--" ^ key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let get key rest =
    match opt key rest with
    | Some v -> v
    | None ->
        prerr_endline ("campaignbench: missing --" ^ key);
        exit 2
  in
  match args with
  | cmd :: rest -> (
      let w =
        match List.assoc_opt (get "workload" rest) workload_names with
        | Some w -> w
        | None ->
            prerr_endline "campaignbench: unknown workload";
            exit 2
      in
      Vm.Emit.set_cache_dir (get "cache" rest);
      match cmd with
      | "prep" -> prep w
      | "setup" -> setup w
      | "run" ->
          run w
            ~seed:(int_of_string (get "seed" rest))
            ~seconds:(float_of_string (get "seconds" rest))
            ~trace:(get "trace" rest = "1")
            ~dir:(get "dir" rest)
      | _ ->
          prerr_endline "campaignbench: unknown subcommand";
          exit 2)
  | [] ->
      prerr_endline "usage: main.exe (prep|setup|run) --workload W --cache DIR [...]";
      exit 2
