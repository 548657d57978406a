(** Observability-layer tests: the zero-perturbation rule (observed and
    unobserved campaigns run byte-identical trajectories), counter
    hot-path allocation, ring-buffer sink semantics, the snapshot-derived
    legacy views, pool trial events, and the bench trend history. *)

let check = Alcotest.check
let check_bool msg = Alcotest.(check bool) msg

(* ------------------------------------------------------------------ *)
(* Zero perturbation: byte-identical trajectories under any observer *)

(* Everything the fuzzing loop decided, folded into one comparable
   summary: final queue bytes + discovery metadata, triage tallies,
   exec/havoc counts. Wall floats are excluded (they are observer-clock
   artifacts, identically 0 here). *)
let trajectory (r : Fuzz.Campaign.result) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (e : Fuzz.Corpus.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%d:%b:%S;" e.id e.depth e.found_at e.favored
           e.data))
    (Fuzz.Corpus.to_list r.corpus);
  Buffer.add_string buf
    (Printf.sprintf "|execs=%d havocs=%d blocks=%d" r.execs r.havocs
       r.sum_exec_blocks);
  Buffer.add_string buf
    (Printf.sprintf "|crashes=%d/%d/%d hangs=%d bugs=%d"
       r.triage.total_crashes
       (Fuzz.Triage.unique_crashes r.triage)
       (Fuzz.Triage.afl_unique_crashes r.triage)
       r.triage.total_hangs
       (Fuzz.Triage.unique_bugs r.triage));
  List.iter
    (fun (x, q) -> Buffer.add_string buf (Printf.sprintf "|%d,%d" x q))
    r.queue_series;
  Buffer.contents buf

let run_with ?obs config prog seeds = Fuzz.Campaign.run ?obs ~config prog ~seeds

let test_byte_identical_trajectories () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let configs =
    [
      ("path+cmplog", { Fuzz.Campaign.default_config with budget = 3_000 });
      ( "edge no cmplog",
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Edge;
          budget = 3_000;
          cmplog = false;
          rng_seed = 5;
        } );
      ( "pathafl",
        {
          Fuzz.Campaign.default_config with
          mode = Pathcov.Feedback.Pathafl;
          budget = 2_000;
          cmplog = false;
          rng_seed = 9;
        } );
    ]
  in
  let tmp = Filename.temp_file "pathfuzz_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      List.iter
        (fun (name, config) ->
          let bare = trajectory (run_with config prog s.seeds) in
          (* null sink *)
          let null_obs = Obs.Observer.create () in
          check Alcotest.string (name ^ ": null sink")
            bare
            (trajectory (run_with ~obs:null_obs config prog s.seeds));
          (* memory ring sink *)
          let ring = Obs.Sink.create_ring ~capacity:64 () in
          let ring_obs = Obs.Observer.create ~sink:(Obs.Sink.ring ring) () in
          check Alcotest.string (name ^ ": ring sink")
            bare
            (trajectory (run_with ~obs:ring_obs config prog s.seeds));
          check_bool (name ^ ": ring saw events") true
            (Obs.Sink.ring_total ring > 0);
          (* JSONL writer sink *)
          let oc = open_out tmp in
          let jsonl_obs = Obs.Observer.create ~sink:(Obs.Sink.jsonl oc) () in
          let tj = trajectory (run_with ~obs:jsonl_obs config prog s.seeds) in
          close_out oc;
          check Alcotest.string (name ^ ": jsonl sink") bare tj;
          (* the clock changes only wall floats, never the trajectory *)
          let t = ref 0. in
          let clocked =
            Obs.Observer.create
              ~clock:(fun () ->
                t := !t +. 0.001;
                !t)
              ()
          in
          check Alcotest.string (name ^ ": with clock")
            bare
            (trajectory (run_with ~obs:clocked config prog s.seeds)))
        configs)

let test_shared_observer_identical () =
  (* A multi-phase strategy must fuzz identically whether or not one
     accumulating observer is threaded through its phases. *)
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let plans = Pathcov.Ball_larus.of_program prog in
  let strat_sig (r : Fuzz.Strategy.run_result) =
    Printf.sprintf "%d|%d|%d|%s" r.execs r.queue_size
      (Fuzz.Triage.unique_bugs r.triage)
      (String.concat ";" r.final_queue)
  in
  List.iter
    (fun fz ->
      let bare =
        Fuzz.Strategy.run ~plans ~budget:2_000 ~trial_seed:3 fz prog
          ~seeds:s.seeds
      in
      let obs = Obs.Observer.create () in
      let observed =
        Fuzz.Strategy.run ~plans ~obs ~budget:2_000 ~trial_seed:3 fz prog
          ~seeds:s.seeds
      in
      check Alcotest.string
        (fz.Fuzz.Strategy.name ^ ": observed = unobserved")
        (strat_sig bare) (strat_sig observed);
      (* the shared observer accumulated across phases *)
      check_bool (fz.Fuzz.Strategy.name ^ ": counters accumulated") true
        (obs.counters.execs >= 2_000 - 64))
    [ Fuzz.Strategy.cull ~rounds:3 (); Fuzz.Strategy.opp ]

(* ------------------------------------------------------------------ *)
(* Counter hot path stays allocation-free *)

let test_counter_allocation_free () =
  (* The per-exec hot path touches int counters only (the float wall
     splits are clock-gated onto paths that already allocate), so the
     steady-state cost of counting must be zero allocation. *)
  let c = Obs.Counters.create () in
  (* warm up *)
  for _ = 1 to 1000 do
    c.execs <- c.execs + 1
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    c.execs <- c.execs + 1;
    c.blocks <- c.blocks + 7;
    c.havocs <- c.havocs + 1;
    c.retained <- c.retained + 1;
    c.queue_full_drops <- c.queue_full_drops + 1
  done;
  let dw = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "counter bumps allocate nothing (got %.1f words)" dw)
    true (dw < 256.)

let test_observed_campaign_allocation () =
  (* The whole observer layer (counters + cadenced snapshots through a
     null sink) must not move campaign steady-state allocation — nor,
     on the fused and native engines with cmplog on or off, must a
     clocked observer: seeds and calibration runs go through cohorts
     of one, and the VM-wall bracket wraps every run.
     With cmplog off nothing else allocates to hide the bracket's
     cost. *)
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let measure config obs =
    let w0 = Gc.minor_words () in
    let r = Fuzz.Campaign.run ?obs ~config prog ~seeds:s.seeds in
    (Gc.minor_words () -. w0) /. float_of_int (max 1 r.execs)
  in
  let within label config obs =
    let bare = measure config None in
    let observed = measure config (Some obs) in
    check_bool
      (Printf.sprintf "%s: observed %.1f w/exec within 15%% + 8w of bare %.1f"
         label observed bare)
      true
      (observed < (bare *. 1.15) +. 8.)
  in
  let config =
    { Fuzz.Campaign.default_config with budget = 6_000; rng_seed = 3 }
  in
  within "interp" config (Obs.Observer.create ());
  List.iter
    (fun (engine, cmplog) ->
      within
        (Printf.sprintf "%s cmplog=%b clocked"
           (Fuzz.Tracer.engine_name engine)
           cmplog)
        { config with mode = Pathcov.Feedback.Path; engine; cmplog }
        (Obs.Observer.create ~clock:Unix.gettimeofday ()))
    [
      (Fuzz.Tracer.Fused, true);
      (Fuzz.Tracer.Fused, false);
      (Fuzz.Tracer.Native, true);
      (Fuzz.Tracer.Native, false);
    ]

(* ------------------------------------------------------------------ *)
(* Ring sink semantics *)

let test_ring_buffer () =
  let r = Obs.Sink.create_ring ~capacity:4 () in
  let sink = Obs.Sink.ring r in
  check Alcotest.int "empty total" 0 (Obs.Sink.ring_total r);
  check Alcotest.int "empty events" 0 (List.length (Obs.Sink.ring_events r));
  for i = 1 to 6 do
    sink.emit (Obs.Event.Hang { at_exec = i })
  done;
  check Alcotest.int "total counts all" 6 (Obs.Sink.ring_total r);
  check Alcotest.int "dropped = total - capacity" 2 (Obs.Sink.ring_dropped r);
  let kept =
    List.map
      (function Obs.Event.Hang { at_exec } -> at_exec | _ -> -1)
      (Obs.Sink.ring_events r)
  in
  check (Alcotest.list Alcotest.int) "newest capacity kept, oldest first"
    [ 3; 4; 5; 6 ] kept;
  check_bool "capacity must be positive" true
    (match Obs.Sink.create_ring ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tee_and_status_sinks () =
  let ra = Obs.Sink.create_ring ~capacity:8 () in
  let rb = Obs.Sink.create_ring ~capacity:8 () in
  let t = Obs.Sink.tee (Obs.Sink.ring ra) (Obs.Sink.ring rb) in
  t.emit (Obs.Event.Hang { at_exec = 1 });
  check Alcotest.int "tee reaches both" 2
    (Obs.Sink.ring_total ra + Obs.Sink.ring_total rb);
  let lines = ref [] in
  let st = Obs.Sink.status (fun l -> lines := l :: !lines) in
  st.emit (Obs.Event.Hang { at_exec = 1 });
  check Alcotest.int "status ignores non-snapshots" 0 (List.length !lines);
  let row =
    Obs.Snapshot.of_counters (Obs.Counters.create ()) ~queue:0
      ~virgin_residual:0
  in
  st.emit (Obs.Event.Snapshot row);
  check Alcotest.int "status prints snapshots" 1 (List.length !lines)

(* ------------------------------------------------------------------ *)
(* Snapshots carry the legacy views *)

let test_snapshot_derived_views () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let config = { Fuzz.Campaign.default_config with budget = 2_000 } in
  let obs = Obs.Observer.create () in
  let r = Fuzz.Campaign.run ~obs ~config prog ~seeds:s.seeds in
  check_bool "snapshots recorded" true (List.length r.snapshots >= 2);
  (* queue_series is exactly the snapshot trajectory *)
  check Alcotest.int "series length = snapshots" (List.length r.snapshots)
    (List.length r.queue_series);
  List.iter2
    (fun (x, q) (row : Obs.Snapshot.row) ->
      check Alcotest.int "series exec = row exec" x row.at_exec;
      check Alcotest.int "series queue = row queue" q row.queue)
    r.queue_series r.snapshots;
  (* final row is the exhausted-budget sample *)
  let last = List.nth r.snapshots (List.length r.snapshots - 1) in
  check Alcotest.int "final row at budget" r.execs last.at_exec;
  check Alcotest.int "final row queue = final corpus"
    (Fuzz.Corpus.size r.corpus) last.queue;
  (* result aggregates are observer deltas *)
  check Alcotest.int "execs" obs.counters.execs r.execs;
  check Alcotest.int "havocs" obs.counters.havocs r.havocs;
  check Alcotest.int "blocks" obs.counters.blocks r.sum_exec_blocks;
  check Alcotest.int "retained = queue growth"
    (Fuzz.Corpus.size r.corpus) obs.counters.retained;
  (* virgin residual shrinks as coverage accrues *)
  let first = List.hd r.snapshots in
  check_bool "virgin residual monotonically non-increasing" true
    (last.virgin_residual <= first.virgin_residual);
  check_bool "virgin residual below map size" true
    (first.virgin_residual < 1 lsl config.map_size_log2);
  (* crash tallies agree between triage and counters *)
  check Alcotest.int "crash counter = triage" r.triage.total_crashes
    obs.counters.crashes;
  check Alcotest.int "hang counter = triage" r.triage.total_hangs
    obs.counters.hangs;
  check Alcotest.int "stack-unique counter = triage"
    (Fuzz.Triage.unique_crashes r.triage)
    obs.counters.crashes_stack_unique;
  check Alcotest.int "cov-novel counter = triage"
    (Fuzz.Triage.afl_unique_crashes r.triage)
    obs.counters.crashes_cov_novel

let test_virgin_residual () =
  (* residual counts bytes still 0xFF: full on a fresh virgin map, zero
     on a fresh (all-zero) trace map, decremented per consumed index *)
  let v = Pathcov.Coverage_map.create_virgin ~size_log2:8 () in
  check Alcotest.int "virgin starts full" 256 (Pathcov.Coverage_map.residual v);
  check Alcotest.int "zero trace map residual" 0
    (Pathcov.Coverage_map.residual (Pathcov.Coverage_map.create ~size_log2:8 ()));
  let trace = Pathcov.Coverage_map.create ~size_log2:8 () in
  Pathcov.Coverage_map.hit trace 3;
  Pathcov.Coverage_map.hit trace 77;
  Pathcov.Coverage_map.classify trace;
  ignore (Pathcov.Coverage_map.merge_into ~virgin:v trace);
  check Alcotest.int "two bytes consumed" 254 (Pathcov.Coverage_map.residual v)

(* A snapshot row's residual is the count the virgin map keeps; it must
   equal a scan of the map at the moment the row is taken. *)
let count_ff (b : bytes) : int =
  Bytes.fold_left (fun n c -> if c = '\255' then n + 1 else n) 0 b

let residual_config =
  {
    Fuzz.Campaign.default_config with
    mode = Pathcov.Feedback.Path;
    budget = 8_000;
    rng_seed = 5;
  }

(* Sequential: the sink scans the live virgin map on every row, through
   a straight run and through a run resumed from a restored (recounted)
   map. *)
let test_residual_rows_sequential () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let live = ref None and rows = ref 0 in
  let sink =
    Obs.Sink.make (function
      | Obs.Event.Snapshot row -> (
          match !live with
          | Some (st : Fuzz.Campaign.state) ->
              incr rows;
              check Alcotest.int
                (Printf.sprintf "row at %d: residual = scan" row.at_exec)
                (Pathcov.Coverage_map.residual_scan st.virgin)
                row.virgin_residual
          | None -> ())
      | _ -> ())
  in
  let run ?checkpoint ?resume () =
    let obs = Obs.Observer.create ~sink () in
    let st = Fuzz.Campaign.make_state ~obs ~config:residual_config prog in
    live := Some st;
    Fuzz.Campaign.run_state ?checkpoint ?resume st ~seeds:s.seeds
  in
  let saved = ref None in
  let straight =
    run
      ~checkpoint:
        {
          Fuzz.Checkpoint.every = 2_000;
          subject = s.name;
          fuzzer = "path";
          save = (fun ck -> if !saved = None then saved := Some ck);
        }
      ()
  in
  check_bool "straight rows checked" true (!rows >= 64);
  let ck = Option.get !saved in
  check Alcotest.int "restored map recounted"
    (count_ff ck.Fuzz.Checkpoint.virgin)
    (let m = Pathcov.Coverage_map.create_virgin () in
     Pathcov.Coverage_map.restore_raw m ck.virgin;
     Pathcov.Coverage_map.residual m);
  let before = !rows in
  let resumed = run ~resume:ck () in
  check_bool "resumed rows checked" true (!rows > before);
  let last (r : Fuzz.Campaign.result) =
    (List.nth r.snapshots (List.length r.snapshots - 1)).virgin_residual
  in
  check Alcotest.int "resumed final residual" (last straight) (last resumed)

(* Sharded: shard snapshots are taken at merge barriers, and a
   checkpoint written at the same barrier carries the virgin bytes, so
   every mid-budget row is checked against its barrier's map image and
   the final row against the returned map. *)
let test_residual_rows_sharded () =
  let s = Subjects.Registry.find_exn "sqlite3" in
  let prog = Subjects.Subject.compile_fresh s in
  let cfg =
    { Fuzz.Shard.base = residual_config; shards = 2; sync_interval = 512 }
  in
  let barriers = ref 0 in
  let save (ck : Fuzz.Checkpoint.t) =
    incr barriers;
    let row = ck.snapshots.(Array.length ck.snapshots - 1) in
    check Alcotest.int
      (Printf.sprintf "barrier row at %d: residual = scan" row.at_exec)
      (count_ff ck.virgin) row.virgin_residual
  in
  let r =
    Fuzz.Shard.run ~obs:(Obs.Observer.create ())
      ~checkpoint:{ Fuzz.Checkpoint.every = 1; subject = s.name; fuzzer = "path"; save }
      cfg prog ~seeds:s.seeds
  in
  check_bool "barrier rows checked" true (!barriers >= 8);
  let last = List.nth r.campaign.snapshots (List.length r.campaign.snapshots - 1) in
  check Alcotest.int "final row: residual = scan"
    (Pathcov.Coverage_map.residual_scan r.virgin)
    last.virgin_residual

(* ------------------------------------------------------------------ *)
(* Event JSONL shape *)

let test_event_jsonl () =
  let lines =
    [
      Obs.Event.to_jsonl (Obs.Event.Hang { at_exec = 7 });
      Obs.Event.to_jsonl
        (Obs.Event.Retain { at_exec = 3; id = 1; len = 4; depth = 0 });
      Obs.Event.to_jsonl
        (Obs.Event.Trial_end { task = 2; worker = 1; wall_s = 0.5 });
      Obs.Snapshot.to_jsonl
        (Obs.Snapshot.of_counters (Obs.Counters.create ()) ~queue:3
           ~virgin_residual:9);
    ]
  in
  List.iter
    (fun l ->
      check_bool ("object line: " ^ l) true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      check_bool ("no newline inside: " ^ l) true
        (not (String.contains l '\n')))
    lines;
  check_bool "hang shape" true
    (List.nth lines 0 = "{\"ev\": \"hang\", \"at\": 7}");
  check_bool "snapshot tagged" true
    (String.length (List.nth lines 3) > 20
    && String.sub (List.nth lines 3) 0 19 = "{\"ev\": \"snapshot\", ")

(* ------------------------------------------------------------------ *)
(* Pool trial events *)

let test_pool_trial_events () =
  List.iter
    (fun jobs ->
      let ring = Obs.Sink.create_ring ~capacity:256 () in
      let sink = Obs.Sink.ring ring in
      let r = Exec.Pool.map ~jobs ~sink 12 (fun i -> i * 2) in
      check Alcotest.int "results intact" 12 (Array.length r);
      let begins = Array.make 12 0 and ends = Array.make 12 0 in
      List.iter
        (function
          | Obs.Event.Trial_begin { task; worker } ->
              check_bool "begin worker in range" true
                (worker >= 0 && worker < max 1 jobs);
              begins.(task) <- begins.(task) + 1
          | Obs.Event.Trial_end { task; worker; wall_s } ->
              check_bool "end worker in range" true
                (worker >= 0 && worker < max 1 jobs);
              check_bool "wall non-negative" true (wall_s >= 0.);
              ends.(task) <- ends.(task) + 1
          | _ -> ())
        (Obs.Sink.ring_events ring);
      Array.iteri
        (fun i n ->
          check Alcotest.int (Printf.sprintf "task %d begins once" i) 1 n;
          check Alcotest.int (Printf.sprintf "task %d ends once" i) 1
            ends.(i))
        begins)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Culling observability *)

let test_cull_events_and_replays () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.program s in
  let inputs = s.seeds @ [ "zzz"; "if(1){}" ] in
  let ring = Obs.Sink.create_ring ~capacity:32 () in
  let obs = Obs.Observer.create ~sink:(Obs.Sink.ring ring) () in
  let bare = Fuzz.Measure.edge_preserving_cull prog inputs in
  let observed = Fuzz.Measure.edge_preserving_cull ~obs prog inputs in
  check (Alcotest.list Alcotest.string) "cull unchanged by observer" bare
    observed;
  check Alcotest.int "every replay counted" (List.length inputs)
    obs.counters.replays;
  match Obs.Sink.ring_events ring with
  | [ Obs.Event.Cull { before; after; _ } ] ->
      check Alcotest.int "before = inputs" (List.length inputs) before;
      check Alcotest.int "after = kept" (List.length observed) after
  | evs ->
      Alcotest.failf "expected exactly one Cull event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Bench trend history *)

let test_bench_history_roundtrip () =
  let tmp = Filename.temp_file "pathfuzz_hist" ".jsonl" in
  Sys.remove tmp;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      check Alcotest.int "missing file loads empty" 0
        (List.length (Experiments.Bench_history.load tmp));
      let row day v =
        {
          Experiments.Bench_history.date = day;
          source = "campaign";
          label = "t";
          machine = "nproc=1 ocaml=test";
          cells =
            [
              { Experiments.Bench_history.subject = "cflow";
                mode = "path";
                shards = 0;
                engine = "interp";
                execs_per_sec = v;
              };
              { Experiments.Bench_history.subject = "gdk";
                mode = "edge";
                shards = 0;
                engine = "interp";
                execs_per_sec = 2. *. v;
              };
            ];
        }
      in
      Experiments.Bench_history.append tmp (row "2026-08-01" 100_000.);
      Experiments.Bench_history.append tmp (row "2026-08-02" 110_000.);
      let loaded = Experiments.Bench_history.load tmp in
      check Alcotest.int "two rows" 2 (List.length loaded);
      let r0 = List.hd loaded in
      check Alcotest.string "date" "2026-08-01"
        r0.Experiments.Bench_history.date;
      check Alcotest.string "source" "campaign"
        r0.Experiments.Bench_history.source;
      check Alcotest.int "cells" 2
        (List.length r0.Experiments.Bench_history.cells);
      check (Alcotest.float 0.01) "execs_per_sec" 100_000.
        (List.hd r0.Experiments.Bench_history.cells)
          .Experiments.Bench_history.execs_per_sec;
      (* no regression at parity *)
      check Alcotest.int "parity: no regressions" 0
        (List.length
           (Experiments.Bench_history.check ~threshold_pct:20. loaded
              (row "2026-08-03" 105_000.)));
      (* a >20% drop on one cell is flagged *)
      let regs =
        Experiments.Bench_history.check ~threshold_pct:20. loaded
          {
            Experiments.Bench_history.date = "2026-08-03";
            source = "campaign";
            label = "t";
            machine = "";
            cells =
              [
                { Experiments.Bench_history.subject = "cflow";
                  mode = "path";
                  shards = 0;
                  engine = "interp";
                  execs_per_sec = 50_000.;
                };
                { Experiments.Bench_history.subject = "gdk";
                  mode = "edge";
                  shards = 0;
                  engine = "interp";
                  execs_per_sec = 205_000.;
                };
              ];
          }
      in
      check Alcotest.int "one regression" 1 (List.length regs);
      let r = List.hd regs in
      check Alcotest.string "regressed cell" "cflow/path"
        r.Experiments.Bench_history.key;
      check_bool "drop beyond threshold" true
        (r.Experiments.Bench_history.drop_pct > 20.);
      (* unknown cells and other sources are ignored *)
      check Alcotest.int "different source: no baseline" 0
        (List.length
           (Experiments.Bench_history.check ~threshold_pct:20. loaded
              {
                Experiments.Bench_history.date = "d";
                source = "throughput";
                label = "";
                machine = "";
                cells =
                  [
                    { Experiments.Bench_history.subject = "cflow";
                      mode = "path";
                      shards = 0;
                      engine = "interp";
                      execs_per_sec = 1.;
                    };
                  ];
              }));
      (* shards partition the baseline: a sharded cell has no history
         among the unsharded rows above, so it never trips the gate *)
      check Alcotest.int "sharded cell: separate baseline" 0
        (List.length
           (Experiments.Bench_history.check ~threshold_pct:20. loaded
              {
                Experiments.Bench_history.date = "d";
                source = "campaign";
                label = "";
                machine = "";
                cells =
                  [
                    { Experiments.Bench_history.subject = "cflow";
                      mode = "path";
                      shards = 4;
                      engine = "interp";
                      execs_per_sec = 1.;
                    };
                  ];
              }));
      (* engines partition it too: a compiled cell never compares
         against the interp rows above *)
      check Alcotest.int "compiled cell: separate baseline" 0
        (List.length
           (Experiments.Bench_history.check ~threshold_pct:20. loaded
              {
                Experiments.Bench_history.date = "d";
                source = "campaign";
                label = "";
                machine = "";
                cells =
                  [
                    { Experiments.Bench_history.subject = "cflow";
                      mode = "path";
                      shards = 0;
                      engine = "compiled";
                      execs_per_sec = 1.;
                    };
                  ];
              })))

(* Pre-sharding history lines carry no "shards" field; they must load
   with shards = 0, and round-trip lines must carry it explicitly. *)
let test_bench_history_schema_tolerant () =
  let tmp = Filename.temp_file "pathfuzz_hist_old" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc
        ("{\"schema\": \"pathfuzz-history/v1\", \"date\": \"2026-01-01\", "
       ^ "\"source\": \"campaign\", \"label\": \"legacy\", \"cells\": "
       ^ "[{\"subject\": \"cflow\", \"mode\": \"path\", "
       ^ "\"execs_per_sec\": 123456.0}]}\n");
      close_out oc;
      Experiments.Bench_history.append tmp
        {
          Experiments.Bench_history.date = "2026-01-02";
          source = "campaign";
          label = "sharded";
          machine = "";
          cells =
            [
              { Experiments.Bench_history.subject = "cflow";
                mode = "path";
                shards = 4;
                engine = "interp";
                execs_per_sec = 200_000.;
              };
            ];
        };
      match Experiments.Bench_history.load tmp with
      | [ legacy; sharded ] ->
          let lc = List.hd legacy.Experiments.Bench_history.cells in
          check Alcotest.int "legacy line defaults to shards 0" 0
            lc.Experiments.Bench_history.shards;
          check Alcotest.string "legacy line defaults to interp engine"
            "interp" lc.Experiments.Bench_history.engine;
          check Alcotest.string "legacy line defaults to empty machine" ""
            legacy.Experiments.Bench_history.machine;
          check (Alcotest.float 0.01) "legacy execs/sec intact" 123_456.
            lc.Experiments.Bench_history.execs_per_sec;
          let sc = List.hd sharded.Experiments.Bench_history.cells in
          check Alcotest.int "sharded cell round-trips" 4
            sc.Experiments.Bench_history.shards;
          check Alcotest.string "machine round-trips" ""
            sharded.Experiments.Bench_history.machine
      | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows))

let test_bench_history_parses_bench_files () =
  (* The checked-in bench baselines must stay ingestible. *)
  List.iter
    (fun path ->
      if Sys.file_exists path then
        match Experiments.Bench_history.cells_of_bench path with
        | None -> Alcotest.failf "no cells block in %s" path
        | Some cells ->
            check_bool (path ^ " has cells") true (List.length cells > 0);
            List.iter
              (fun (c : Experiments.Bench_history.cell) ->
                check_bool "subject non-empty" true (c.subject <> "");
                check_bool "positive rate" true (c.execs_per_sec > 0.))
              cells)
    [ "../BENCH_throughput.json"; "../BENCH_campaign.json" ]

let test_mode_of_name () =
  let roundtrip m =
    check_bool
      (Pathcov.Feedback.mode_name m ^ " roundtrips")
      true
      (Pathcov.Feedback.mode_of_name (Pathcov.Feedback.mode_name m) = Some m)
  in
  List.iter roundtrip
    [
      Pathcov.Feedback.Block;
      Pathcov.Feedback.Edge;
      Pathcov.Feedback.Path;
      Pathcov.Feedback.Pathafl;
      Pathcov.Feedback.Ngram 2;
      Pathcov.Feedback.Ngram 8;
    ];
  check_bool "unknown rejected" true
    (Pathcov.Feedback.mode_of_name "bogus" = None);
  check_bool "ngram1 rejected" true
    (Pathcov.Feedback.mode_of_name "ngram1" = None);
  check_bool "ngramx rejected" true
    (Pathcov.Feedback.mode_of_name "ngramx" = None)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "byte-identical trajectories" `Quick
          test_byte_identical_trajectories;
        Alcotest.test_case "shared observer identical" `Quick
          test_shared_observer_identical;
        Alcotest.test_case "counter bumps allocation-free" `Quick
          test_counter_allocation_free;
        Alcotest.test_case "observed campaign allocation" `Quick
          test_observed_campaign_allocation;
        Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
        Alcotest.test_case "tee and status sinks" `Quick
          test_tee_and_status_sinks;
        Alcotest.test_case "snapshot derived views" `Quick
          test_snapshot_derived_views;
        Alcotest.test_case "virgin residual" `Quick test_virgin_residual;
        Alcotest.test_case "event jsonl shape" `Quick test_event_jsonl;
        Alcotest.test_case "pool trial events" `Quick test_pool_trial_events;
        Alcotest.test_case "cull events and replays" `Quick
          test_cull_events_and_replays;
        Alcotest.test_case "bench history roundtrip" `Quick
          test_bench_history_roundtrip;
        Alcotest.test_case "bench history parses bench files" `Quick
          test_bench_history_parses_bench_files;
        Alcotest.test_case "bench history shards schema tolerance" `Quick
          test_bench_history_schema_tolerant;
        Alcotest.test_case "mode of name" `Quick test_mode_of_name;
        Alcotest.test_case "residual rows match a scan" `Quick
          test_residual_rows_sequential;
        Alcotest.test_case "sharded residual rows match a scan" `Quick
          test_residual_rows_sharded;
      ] );
  ]
