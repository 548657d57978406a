(** Deep-introspection tests: the engine-metrics registry, the span
    tracer and its Chrome export, JSON string escaping, the stall
    watchdog's detection rule, and what a fully-instrumented observer
    (metrics + trace + clock) records across engines and shard counts.
    That such an observer leaves the trajectory and the event stream
    unchanged is the contract suite's to check. *)

let check = Alcotest.check
let check_bool msg = Alcotest.(check bool) msg

(* A deterministic virtual clock: +1.0 per reading (what `pathfuzz
   profile --deterministic` installs). *)
let tick_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_instruments () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.count" in
  Obs.Metrics.bump c;
  Obs.Metrics.add c 4;
  let g = Obs.Metrics.gauge m "b.level" in
  Obs.Metrics.set g 7;
  Obs.Metrics.set_max g 3;
  Obs.Metrics.set_max g 11;
  let w = Obs.Metrics.wall m "c.wall_s" in
  Obs.Metrics.add_wall w 0.25;
  Obs.Metrics.add_wall w 0.5;
  let h = Obs.Metrics.hist m "d.sizes" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 4; 8; 1000 ];
  check Alcotest.int "counter" 5 (Obs.Metrics.counter_value m "a.count");
  check Alcotest.int "gauge keeps running max" 11
    (Obs.Metrics.gauge_value m "b.level");
  check (Alcotest.float 1e-9) "wall accumulates" 0.75
    (Obs.Metrics.wall_value m "c.wall_s");
  let n, sum, max_v = Obs.Metrics.hist_stats m "d.sizes" in
  check Alcotest.int "hist count" 7 n;
  check Alcotest.int "hist sum" 1018 sum;
  check Alcotest.int "hist max" 1000 max_v;
  (* log2 bucketing: 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 4 -> 3, 8 -> 4 *)
  (match Obs.Metrics.find m "d.sizes" with
  | Some (Obs.Metrics.Hist h) ->
      List.iter
        (fun (b, expect) ->
          check Alcotest.int
            (Printf.sprintf "bucket %d" b)
            expect
            h.Obs.Metrics.buckets.(b))
        [ (0, 1); (1, 1); (2, 2); (3, 1); (4, 1); (10, 1) ]
  | _ -> Alcotest.fail "d.sizes not a hist");
  (* registration order is first-use order *)
  check
    (Alcotest.list Alcotest.string)
    "registration order"
    [ "a.count"; "b.level"; "c.wall_s"; "d.sizes" ]
    (Obs.Metrics.names m);
  (* get-or-create returns the same live record *)
  check_bool "counter identity" true (Obs.Metrics.counter m "a.count" == c);
  (* a name cannot change kinds *)
  check_bool "kind mismatch rejected" true
    (match Obs.Metrics.gauge m "a.count" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_merge_and_reset () =
  let into = Obs.Metrics.create () and src = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter into "n") 2;
  Obs.Metrics.add (Obs.Metrics.counter src "n") 3;
  Obs.Metrics.observe (Obs.Metrics.hist src "h") 5;
  Obs.Metrics.observe (Obs.Metrics.hist src "h") 9;
  Obs.Metrics.add_wall (Obs.Metrics.wall src "w") 1.5;
  Obs.Metrics.add_into ~into src;
  check Alcotest.int "counters sum" 5 (Obs.Metrics.counter_value into "n");
  let n, sum, max_v = Obs.Metrics.hist_stats into "h" in
  check Alcotest.int "hist merged count" 2 n;
  check Alcotest.int "hist merged sum" 14 sum;
  check Alcotest.int "hist merged max" 9 max_v;
  check (Alcotest.float 1e-9) "wall merged" 1.5
    (Obs.Metrics.wall_value into "w");
  (* the barrier drain: reset zeroes values but keeps registrations *)
  Obs.Metrics.reset src;
  check Alcotest.int "reset zeroes counter" 0
    (Obs.Metrics.counter_value src "n");
  check Alcotest.int "reset zeroes hist"
    0
    (let n, _, _ = Obs.Metrics.hist_stats src "h" in
     n);
  check
    (Alcotest.list Alcotest.string)
    "reset keeps names" [ "n"; "h"; "w" ] (Obs.Metrics.names src);
  (* a second drain after reset adds nothing *)
  Obs.Metrics.add_into ~into src;
  check Alcotest.int "drained registry adds zero" 5
    (Obs.Metrics.counter_value into "n")

let test_metrics_json () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter m "n") 3;
  Obs.Metrics.observe (Obs.Metrics.hist m "h") 4;
  Obs.Metrics.add_wall (Obs.Metrics.wall m "w") 0.5;
  let json = Obs.Metrics.to_json m in
  check Alcotest.string "metrics json"
    ("{\"n\": 3, \"h\": {\"count\": 1, \"sum\": 4, \"max\": 4, \"buckets\": "
   ^ "[0, 0, 0, 1]}, \"w\": 0.5}")
    json

(* ------------------------------------------------------------------ *)
(* Span tracer *)

let test_trace_spans_and_agg () =
  let tr = Obs.Trace.create ~clock:(tick_clock ()) ~tracks:2 () in
  check Alcotest.int "tracks" 2 (Obs.Trace.n_tracks tr);
  (* nested spans: the outer Epoch brackets an inner Exec *)
  Obs.Trace.begin_span tr ~track:0 Obs.Trace.Epoch;
  Obs.Trace.begin_span tr ~track:0 Obs.Trace.Exec;
  Obs.Trace.end_span ~arg:32 tr ~track:0 ();
  Obs.Trace.end_span tr ~track:0 ();
  (match Obs.Trace.spans tr ~track:0 with
  | [ inner; outer ] ->
      check_bool "inner is exec" true (inner.Obs.Trace.kind = Obs.Trace.Exec);
      check Alcotest.int "inner arg" 32 inner.Obs.Trace.arg;
      check_bool "outer is epoch" true (outer.Obs.Trace.kind = Obs.Trace.Epoch);
      check_bool "outer brackets inner" true
        (outer.Obs.Trace.t0 <= inner.Obs.Trace.t0
        && outer.Obs.Trace.dur >= inner.Obs.Trace.dur)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  (* aggregates see both; the other track saw nothing *)
  let n, s = Obs.Trace.agg tr ~track:0 Obs.Trace.Exec in
  check Alcotest.int "exec agg count" 1 n;
  check_bool "exec agg wall positive" true (s > 0.);
  check Alcotest.int "track 1 silent" 0
    (fst (Obs.Trace.agg tr ~track:1 Obs.Trace.Exec));
  Obs.Trace.begin_span tr ~track:1 Obs.Trace.Exec;
  Obs.Trace.end_span tr ~track:1 ();
  check Alcotest.int "agg_all sums tracks" 2
    (fst (Obs.Trace.agg_all tr Obs.Trace.Exec));
  (* the thunk helper is exception-safe *)
  (try
     Obs.Trace.span tr ~track:0 Obs.Trace.Triage (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "span closed on raise" 1
    (fst (Obs.Trace.agg tr ~track:0 Obs.Trace.Triage))

let test_trace_ring_overflow () =
  let tr = Obs.Trace.create ~capacity:4 ~clock:(tick_clock ()) ~tracks:1 () in
  for i = 1 to 6 do
    Obs.Trace.begin_span tr ~track:0 Obs.Trace.Exec;
    Obs.Trace.end_span ~arg:i tr ~track:0 ()
  done;
  check Alcotest.int "total counts everything" 6 (Obs.Trace.total tr ~track:0);
  check Alcotest.int "dropped = total - capacity" 2
    (Obs.Trace.dropped tr ~track:0);
  check
    (Alcotest.list Alcotest.int)
    "newest retained, oldest first" [ 3; 4; 5; 6 ]
    (List.map
       (fun (s : Obs.Trace.span) -> s.Obs.Trace.arg)
       (Obs.Trace.spans tr ~track:0));
  (* aggregates still cover the overwritten spans *)
  check Alcotest.int "agg covers overwritten" 6
    (fst (Obs.Trace.agg tr ~track:0 Obs.Trace.Exec))

let test_trace_chrome_export () =
  let tr = Obs.Trace.create ~clock:(tick_clock ()) ~tracks:2 () in
  Obs.Trace.begin_span tr ~track:0 Obs.Trace.Compile;
  Obs.Trace.end_span tr ~track:0 ();
  Obs.Trace.begin_span tr ~track:1 Obs.Trace.Exec;
  Obs.Trace.end_span ~arg:9 tr ~track:1 ();
  let tmp = Filename.temp_file "pathfuzz_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      Obs.Trace.to_chrome
        ~track_names:(fun i ->
          if i = 0 then Some "coordinator" else Some "shard 0")
        tr oc;
      close_out oc;
      let ic = open_in tmp in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      check_bool "object form" true
        (String.length body > 20
        && String.sub body 0 16 = "{\"traceEvents\": ");
      let has needle =
        let nl = String.length needle and bl = String.length body in
        let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool "thread names emitted" true (has "\"coordinator\"");
      check_bool "complete events" true (has "\"ph\": \"X\"");
      check_bool "span kinds named" true (has "\"compile\"");
      check_bool "args carried" true (has "{\"arg\": 9}");
      check_bool "tid per track" true (has "\"tid\": 1"))

(* ------------------------------------------------------------------ *)
(* JSON string escaping (the Sink JSONL audit) *)

let test_json_string_escaping () =
  List.iter
    (fun (raw, quoted) ->
      check Alcotest.string ("escape " ^ String.escaped raw) quoted
        (Obs.Snapshot.json_string raw))
    [
      ("plain", "\"plain\"");
      ("with \"quotes\"", "\"with \\\"quotes\\\"\"");
      ("back\\slash", "\"back\\\\slash\"");
      ("line\nbreak", "\"line\\nbreak\"");
      ("tab\there", "\"tab\\there\"");
      ("cr\rlf", "\"cr\\rlf\"");
      ("ctrl\x01char", "\"ctrl\\u0001char\"");
      ("", "\"\"");
    ]

(* ------------------------------------------------------------------ *)
(* Stall watchdog *)

let test_stall_check () =
  let stalled walls =
    Fuzz.Shard.stall_check ~walls ~factor:Fuzz.Shard.stall_factor
  in
  check Alcotest.int "single shard never stalls" 0
    (List.length (stalled [| 5.0 |]));
  check Alcotest.int "balanced epoch: none" 0
    (List.length (stalled [| 1.0; 1.1; 0.9; 1.0 |]));
  check Alcotest.int "zero walls (unclocked): none" 0
    (List.length (stalled [| 0.; 0.; 0. |]));
  (* one shard 5x the median is flagged, with the median it tripped *)
  (match stalled [| 1.0; 5.0; 1.0; 1.2 |] with
  | [ (s, w, med) ] ->
      check Alcotest.int "stalled shard" 1 s;
      check (Alcotest.float 1e-9) "stalled wall" 5.0 w;
      (* even count: median = mean of the middle two (1.0, 1.2) *)
      check (Alcotest.float 1e-9) "median" 1.1 med
  | v -> Alcotest.failf "expected 1 verdict, got %d" (List.length v));
  (* the factor is a strict multiplier *)
  check Alcotest.int "at exactly factor x median: none" 0
    (List.length (stalled [| 1.0; 4.0; 1.0 |]));
  check Alcotest.int "just beyond: flagged" 1
    (List.length (stalled [| 1.0; 4.01; 1.0 |]));
  (* two laggards flag independently *)
  check Alcotest.int "two stalls" 2
    (List.length (stalled [| 1.0; 9.0; 1.0; 8.0; 1.0 |]))

let test_stall_event_jsonl () =
  let ev =
    Obs.Event.Stall
      { at_exec = 4096; epoch = 2; shard = 1; wall_s = 0.5; median_s = 0.1 }
  in
  check Alcotest.string "stall name" "stall" (Obs.Event.name ev);
  let line = Obs.Event.to_jsonl ev in
  check_bool ("stall jsonl: " ^ line) true
    (String.length line > 2
    && line.[0] = '{'
    && line.[String.length line - 1] = '}'
    && not (String.contains line '\n'))

(* ------------------------------------------------------------------ *)
(* What the full introspection stack records *)

(* A fully loaded observer: virtual clock, span trace, ring sink; the
   metrics registry is always present. *)
let introspected_obs ~tracks () =
  let clock = tick_clock () in
  let ring = Obs.Sink.create_ring ~capacity:512 () in
  Obs.Observer.create ~clock
    ~trace:(Obs.Trace.create ~clock ~tracks ())
    ~sink:(Obs.Sink.locked (Obs.Sink.ring ring))
    ()

let test_introspected_campaign_instrumented () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let plans = Pathcov.Ball_larus.of_program prog in
  List.iter
    (fun (label, engine) ->
      let config =
        {
          Fuzz.Campaign.default_config with
          budget = 3_000;
          rng_seed = 7;
          engine;
        }
      in
      let obs = introspected_obs ~tracks:1 () in
      ignore (Fuzz.Campaign.run ~plans ~obs ~config prog ~seeds:s.seeds);
      let n_batch, sum_batch, _ =
        Obs.Metrics.hist_stats obs.metrics "exec.batch_n"
      in
      check_bool (label ^ ": batch hist fed") true
        (n_batch > 0 && sum_batch > 0);
      let n_dirty, _, _ =
        Obs.Metrics.hist_stats obs.metrics "vm.dirty_reset_w"
      in
      check_bool (label ^ ": dirty-reset hist fed per exec") true
        (n_dirty >= 3_000 - 64);
      check_bool (label ^ ": exec spans recorded") true
        (fst (Obs.Trace.agg_all (Option.get obs.trace) Obs.Trace.Exec) > 0);
      check_bool (label ^ ": vm wall harvested") true
        (Obs.Metrics.wall_value obs.metrics "campaign.vm_s" > 0.);
      if engine <> Fuzz.Tracer.Interp then
        check_bool (label ^ ": compile span recorded") true
          (fst (Obs.Trace.agg_all (Option.get obs.trace) Obs.Trace.Compile)
          > 0);
      let gauges names =
        List.fold_left
          (fun a n -> a + Obs.Metrics.gauge_value obs.metrics n)
          0 names
      in
      match engine with
      | Fuzz.Tracer.Interp -> ()
      | Fuzz.Tracer.Fused ->
          check_bool (label ^ ": compile cache consulted") true
            (gauges [ "engine.cache_hits"; "engine.cache_misses" ] > 0)
      | Fuzz.Tracer.Native ->
          check_bool (label ^ ": emit cache consulted") true
            (gauges
               [ "emit.cache_hits"; "emit.cache_misses"; "emit.fallbacks" ]
            > 0))
    [
      ("interp", Fuzz.Tracer.Interp);
      ("fused", Fuzz.Tracer.Fused);
      ("native", Fuzz.Tracer.Native);
    ]

let test_introspected_sharded_instrumented () =
  let s = Subjects.Registry.find_exn "cflow" in
  let prog = Subjects.Subject.compile_fresh s in
  let base =
    { Fuzz.Campaign.default_config with budget = 3_000; rng_seed = 11 }
  in
  List.iter
    (fun shards ->
      let obs = introspected_obs ~tracks:(shards + 1) () in
      let cfg = { Fuzz.Shard.base; shards; sync_interval = 512 } in
      ignore (Fuzz.Shard.run ~obs cfg prog ~seeds:s.seeds);
      (* shard-private registries drained into the coordinator's *)
      let n_batch, _, _ = Obs.Metrics.hist_stats obs.metrics "exec.batch_n" in
      check_bool
        (Printf.sprintf "shards %d: batch hist drained at barriers" shards)
        true (n_batch > 0);
      (* the coordinator recorded plan/merge spans; each shard its epochs *)
      let tr = Option.get obs.trace in
      check_bool
        (Printf.sprintf "shards %d: merge spans" shards)
        true
        (fst (Obs.Trace.agg tr ~track:0 Obs.Trace.Merge) > 0);
      for sh = 0 to shards - 1 do
        check_bool
          (Printf.sprintf "shards %d: shard %d epoch spans" shards sh)
          true
          (fst (Obs.Trace.agg tr ~track:(sh + 1) Obs.Trace.Epoch) > 0)
      done)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Profile report determinism *)

let test_profile_report_deterministic () =
  let s = Subjects.Registry.find_exn "cflow" in
  let report () =
    let prog = Subjects.Subject.compile_fresh s in
    let plans = Pathcov.Ball_larus.of_program prog in
    let obs = introspected_obs ~tracks:1 () in
    let config =
      { Fuzz.Campaign.default_config with budget = 2_000; rng_seed = 3 }
    in
    ignore (Fuzz.Campaign.run ~plans ~obs ~config prog ~seeds:s.seeds);
    Experiments.Profile_report.render ~title:"test" ~with_wall:true ~shards:0
      obs
  in
  let a = report () and b = report () in
  check Alcotest.string "virtual-clock report reproduces byte for byte" a b;
  let has needle =
    let nl = String.length needle and al = String.length a in
    let rec go i = i + nl <= al && (String.sub a i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "phase table present" true (has "Phase walls");
  check_bool "metrics table present" true (has "Engine metrics");
  check_bool "counters present" true (has "Campaign counters");
  check_bool "no shard table for sequential" true
    (not (has "Shard utilization"))

let suite =
  [
    ( "introspect",
      [
        Alcotest.test_case "metrics instruments" `Quick
          test_metrics_instruments;
        Alcotest.test_case "metrics merge and reset" `Quick
          test_metrics_merge_and_reset;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "trace spans and aggregates" `Quick
          test_trace_spans_and_agg;
        Alcotest.test_case "trace ring overflow" `Quick
          test_trace_ring_overflow;
        Alcotest.test_case "trace chrome export" `Quick
          test_trace_chrome_export;
        Alcotest.test_case "json string escaping" `Quick
          test_json_string_escaping;
        Alcotest.test_case "stall check" `Quick test_stall_check;
        Alcotest.test_case "stall event jsonl" `Quick test_stall_event_jsonl;
        Contract.claim "introspected campaign identical" Contract.cflow_modes;
        Contract.claim "introspected sharded identical"
          [ Contract.cflow_afl_3000 ];
        Contract.claim "sharded event stream deterministic"
          [ Contract.cflow_afl_3000; Contract.cflow_path_3000 ];
        Alcotest.test_case "introspected campaign instrumented" `Quick
          test_introspected_campaign_instrumented;
        Alcotest.test_case "introspected sharded instrumented" `Quick
          test_introspected_sharded_instrumented;
        Alcotest.test_case "profile report deterministic" `Quick
          test_profile_report_deterministic;
      ] );
  ]
