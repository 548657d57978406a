(* The trajectory contract (DESIGN.md §11): a campaign's trajectory is a
   function of (program, seeds, config) alone, whatever the execution
   engine, shard count, worker count, resume point or observer. This
   suite is the one place the contract is checked. A run is reduced to
   one fingerprint, one fact per line. Each tier of the matrix runs one
   reference cell per schedule (sequential, or sharded: barriers make
   that a different trajectory) and compares every other cell of its
   cross product against it, naming the cell and the first line that
   differs. *)

let fail = Alcotest.failf

(* Event kinds that record an observation, not a fuzzing decision: a
   stall verdict reads wall clocks, a fallback note names the host's
   toolchain. *)
let observation_only : Obs.Event.t -> bool = function
  | Stall _ | Emit_fallback _ -> true
  | _ -> false

(* A row without its measured floats (walls and mutator minor words,
   all zero without a clock). *)
let row_line (r : Obs.Snapshot.row) =
  Obs.Snapshot.to_jsonl { r with vm_s = 0.; mut_s = 0.; mut_minor_words = 0. }

let event_line : Obs.Event.t -> string = function
  | Snapshot r -> row_line r
  | ev -> Obs.Event.to_jsonl ev

type fingerprint = {
  facts : string list;  (** the finished campaign *)
  events : string list option;  (** decision events; [None] without a sink *)
  snapshots : (int * int * int) list;
      (** per snapshot written: its exec clock, its
          {!Fuzz.Checkpoint.fingerprint}, the decision events before it *)
}

let facts ?shard (r : Fuzz.Campaign.result) ~counters =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
  Fuzz.Corpus.iter
    (fun (e : Fuzz.Corpus.entry) ->
      add "queue %d depth=%d found_at=%d favored=%b blocks=%d data=%S" e.id
        e.depth e.found_at e.favored e.exec_blocks e.data)
    r.corpus;
  add "execs %d havocs %d blocks %d" r.execs r.havocs r.sum_exec_blocks;
  List.iter (fun (x, q) -> add "series %d %d" x q) r.queue_series;
  List.iter (fun row -> add "row %s" (row_line row)) r.snapshots;
  List.iter
    (fun (k, v) -> add "counter %s %d" k v)
    (Obs.Counters.to_fields counters);
  let t = r.triage in
  add "crashes %d hangs %d stack-unique %d coverage-novel %d" t.total_crashes
    t.total_hangs
    (Fuzz.Triage.unique_crashes t)
    (Fuzz.Triage.afl_unique_crashes t);
  Hashtbl.fold (fun k _ acc -> k :: acc) t.by_stack []
  |> List.sort compare
  |> List.iter (add "stack %d");
  List.iter
    (fun id ->
      add "bug %s witness=%S"
        (Fmt.str "%a" Vm.Crash.pp_identity id)
        (Option.value ~default:"" (Fuzz.Triage.bug_witness t id)))
    (Fuzz.Triage.bugs t);
  add "virgin %d crash-virgin %d"
    (Pathcov.Coverage_map.bytes_hash r.virgin)
    (Pathcov.Coverage_map.bytes_hash r.crash_virgin);
  Option.iter
    (fun (items, epochs, dups) ->
      add "items %d epochs %d dup-dropped %d" items epochs dups)
    shard;
  List.rev !lines

(* [emit_fail]: native under PATHFUZZ_EMIT_FAIL=1, which must fall back
   to the fused closures. *)
type engine = { engine : Fuzz.Tracer.engine; emit_fail : bool }

let interp = { engine = Fuzz.Tracer.Interp; emit_fail = false }
let fused = { engine = Fuzz.Tracer.Fused; emit_fail = false }
let native = { engine = Fuzz.Tracer.Native; emit_fail = false }
let all_engines = [ interp; fused; native; { native with emit_fail = true } ]

(* [Bare]: counters only, compared on everything but events; [Ring]: a
   ring sink; [Full]: a tick clock, a span trace and a ring sink. *)
type observer = Bare | Ring | Full

type cell = {
  engine : engine;
  shards : int;  (** 0 = the sequential loop *)
  workers : int;
  observer : observer;
  resume : Fuzz.Checkpoint.t option;
  run : int;  (** repeat index *)
}

type tier = {
  subject : string;  (** a registry subject, or ["easy_bug"] *)
  seeds : string list option;  (** [None]: the subject's own *)
  fuzzer : Fuzz.Strategy.fuzzer;  (** a plain one, as [fuzz -f NAME] runs it *)
  budget : int;
  seed : int;
  sync_interval : int;
  map_size_log2 : int;
  max_queue : int;  (** the campaign's queue cap *)
  every : int;  (** checkpoint schedule of every cell *)
  widths : int list;  (** shard counts; 0 = the sequential loop *)
  engines : engine list;
  observers : observer list;
  runs : int;  (** repeats of each [workers = shards > 1] cell *)
  min_snapshots : int;  (** the reference writes at least this many *)
  cross : bool;
      (** the full cross product: workers 1 and [shards], and every
          resumed cell per snapshot; else workers = shards and one
          resumed cell per snapshot, taken in turn *)
}

let tier_name t =
  Printf.sprintf "%s/%s%s b%d%s %s%s" t.subject t.fuzzer.name
    (if t.fuzzer.cmplog then "+cmplog" else "")
    t.budget
    (if t.max_queue = Fuzz.Campaign.default_config.max_queue then ""
     else Printf.sprintf " cap%d" t.max_queue)
    (if t.widths = [ 0 ] then "seq"
     else Printf.sprintf "sync%d" t.sync_interval)
    (if t.map_size_log2 = 16 then ""
     else Printf.sprintf " map2^%d" t.map_size_log2)

let cell_name t c =
  Printf.sprintf "%s: %s%s %s %s%s run %d" (tier_name t)
    (Fuzz.Tracer.engine_name c.engine.engine)
    (if c.engine.emit_fail then "(emit-fail)" else "")
    (if c.shards = 0 then "sequential"
     else Printf.sprintf "shards=%d workers=%d" c.shards c.workers)
    (match c.observer with Bare -> "bare" | Ring -> "ring" | Full -> "full")
    (match c.resume with
    | Some ck -> Printf.sprintf " resume@%d" ck.progress.execs
    | None -> "")
    c.run

(* The seed "hi" hits bug 5 at once and "ha" is one byte away, so every
   stage of every engine's crash path runs densely. *)
let easy_bug_src =
  "fn main() { if (in(0) == 104) { if (in(1) == 105) { bug(5); } } return 0; }"

(* One compiled program per subject, shared by every cell. *)
let programs = Hashtbl.create 8

let program t =
  match Hashtbl.find_opt programs t.subject with
  | Some p -> p
  | None ->
      let prog, seeds =
        if t.subject = "easy_bug" then
          (Minic.Lower.compile easy_bug_src, [ "ha" ])
        else
          let s = Subjects.Registry.find_exn t.subject in
          (Subjects.Subject.compile_fresh s, s.seeds)
      in
      let p = (prog, Pathcov.Ball_larus.of_program prog, seeds) in
      Hashtbl.replace programs t.subject p;
      p

(* The cell's observer, the count of decision events so far, and the
   decision stream. *)
let make_observer kind ~tracks =
  match kind with
  | Bare -> (Obs.Observer.null (), (fun () -> 0), fun () -> None)
  | Ring | Full ->
      let buf = Obs.Sink.create_ring ~capacity:(1 lsl 18) () in
      let sink = Obs.Sink.(locked (ring buf)) in
      let obs =
        if kind = Ring then Obs.Observer.create ~sink ()
        else
          let t = ref 0. in
          let clock () = t := !t +. 1.; !t in
          Obs.Observer.create ~clock
            ~trace:(Obs.Trace.create ~clock ~tracks ())
            ~sink ()
      in
      let events () =
        if Obs.Sink.ring_dropped buf > 0 then fail "event ring overflowed";
        List.filter_map
          (fun ev -> if observation_only ev then None else Some (event_line ev))
          (Obs.Sink.ring_events buf)
      in
      (obs, (fun () -> List.length (events ())), fun () -> Some (events ()))

(* Run one cell through the run entry point, as [fuzz -f NAME] does;
   also returns the snapshots it wrote, for resuming. *)
let run_cell t c : fingerprint * Fuzz.Checkpoint.t list =
  let prog, plans, default_seeds = program t in
  let seeds = Option.value t.seeds ~default:default_seeds in
  let obs, n_events, events = make_observer c.observer ~tracks:(c.shards + 1) in
  let written = ref [] in
  let write (ck : Fuzz.Checkpoint.t) =
    let fp = Fuzz.Checkpoint.fingerprint ck in
    written := (ck, (ck.progress.execs, fp, n_events ())) :: !written;
    0
  in
  (* a resumed cell reads its snapshot back from bytes; [exec] checks its
     identity, as [--resume] does *)
  let resume =
    Option.map
      (fun ck ->
        match Fuzz.Checkpoint.(of_string (to_string ck)) with
        | Ok ck -> ck
        | Error e ->
            fail "%s: snapshot does not read back: %s" (cell_name t c) e)
      c.resume
  in
  let base =
    Fuzz.Strategy.spec ~engine:c.engine.engine ~map_size_log2:t.map_size_log2
      ~budget:t.budget ~trial_seed:t.seed t.fuzzer
  in
  let spec =
    {
      base with
      config = { base.config with max_queue = t.max_queue };
      shards = c.shards;
      sync_interval = t.sync_interval;
      workers = (if c.shards = 0 then None else Some c.workers);
      subject = t.subject;
      checkpoint = Some { every = t.every; write };
      resume;
      observer = (fun () -> Some obs);
    }
  in
  let fallbacks () = (Vm.Emit.stats ()).fallbacks in
  let before = fallbacks () in
  if c.engine.emit_fail then Unix.putenv "PATHFUZZ_EMIT_FAIL" "1";
  let trial =
    Fun.protect ~finally:(fun () -> Unix.putenv "PATHFUZZ_EMIT_FAIL" "")
      (fun () ->
        match Fuzz.Strategy.exec ~plans spec prog ~seeds with
        | Ok trials -> trials.(0)
        | Error e -> fail "%s: refused: %s" (cell_name t c) e)
  in
  let facts =
    facts trial.campaign ~counters:obs.counters
      ?shard:
        (if c.shards = 0 then None
         else Some (trial.items, trial.epochs, trial.dup_dropped))
  in
  let fell_back = fallbacks () > before in
  if c.engine.emit_fail && not fell_back then
    fail "%s: forced emit failure did not fall back" (cell_name t c);
  if c.engine = native && fell_back && Lazy.force Test_native.available then
    fail "%s: native fell back although the emitter works" (cell_name t c);
  let written = List.rev !written in
  ( { facts; events = events (); snapshots = List.map snd written },
    List.map fst written )

let compare_lines ~cell ~what expected got =
  let rec go i = function
    | [], [] -> ()
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) (xs, ys)
    | x :: _, y :: _ ->
        fail "%s: %s line %d differs:\n  expected %s\n  got      %s" cell what
          i x y
    | x :: _, [] -> fail "%s: %s line %d missing: %s" cell what i x
    | [], y :: _ -> fail "%s: %s line %d extra: %s" cell what i y
  in
  go 1 (expected, got)

let rec drop n = function _ :: l when n > 0 -> drop (n - 1) l | l -> l

(* A straight cell must reproduce the reference; a cell resumed from the
   reference's snapshot at [at] must reproduce its facts, the snapshots
   it wrote after [at] and the events it emitted after writing it. *)
let check_against t ~(reference : fingerprint) c (fp : fingerprint) =
  let cell = cell_name t c in
  compare_lines ~cell ~what:"fact" reference.facts fp.facts;
  let at, events_before =
    match c.resume with
    | None -> (-1, 0)
    | Some ck -> (
        let at = ck.progress.execs in
        match List.find_opt (fun (x, _, _) -> x = at) reference.snapshots with
        | Some (_, _, n) -> (at, n)
        | None -> fail "%s: not a snapshot of the reference" cell)
  in
  let shown (x, h, _) = Printf.sprintf "snapshot @%d fingerprint %d" x h in
  compare_lines ~cell ~what:"snapshot"
    (List.filter_map
       (fun ((x, _, _) as s) -> if x > at then Some (shown s) else None)
       reference.snapshots)
    (List.map shown fp.snapshots);
  Option.iter
    (compare_lines ~cell ~what:"event"
       (drop events_before (Option.get reference.events)))
    fp.events

(* The reference cell must exercise what its cells are compared on: a
   reference that wrote too few snapshots, emitted no events, never
   calibrated under cmplog, never crashed on the crash-dense program or
   never dropped a candidate on a capped queue would match every cell
   just as well. *)
let check_reference t (fp : fingerprint) =
  let guard ok what =
    if not ok then fail "%s: the reference %s" (tier_name t) what
  in
  let line prefix = List.exists (String.starts_with ~prefix) in
  guard (List.length fp.snapshots >= t.min_snapshots) "wrote too few snapshots";
  let events = Option.get fp.events in
  guard (events <> []) "emitted no events";
  guard
    ((not t.fuzzer.cmplog) || line {|{"ev": "calibration"|} events)
    "never calibrated";
  guard
    (t.subject <> "easy_bug" || not (line "crashes 0 " fp.facts))
    "never crashed";
  guard
    (t.max_queue = Fuzz.Campaign.default_config.max_queue
    || not (line "counter queue_full_drops 0" fp.facts))
    "never filled its queue"

(* Evenly spaced, at most [n], the first and last always kept. *)
let sample n l =
  let len = List.length l in
  if len <= n then l
  else
    List.filteri
      (fun i _ ->
        i = 0 || i = len - 1 || i * (n - 1) / len <> (i + 1) * (n - 1) / len)
      l

(* Every cell of one schedule of a tier ([widths] all 0, or all
   positive) against its reference: the interpreter at the first width,
   observed through a ring. Workers are a wall-clock knob, so only the
   reference's engine and observer vary them, and repeat. *)
let check_schedule t widths =
  let settings =
    List.concat_map
      (fun w ->
        if w <= 1 then [ (w, 1) ]
        else if t.cross then [ (w, 1); (w, w) ]
        else [ (w, w) ])
      widths
  in
  let shards, workers = List.hd settings in
  let ref_cell =
    { engine = interp; shards; workers; observer = Ring; resume = None;
      run = 1 }
  in
  let reference, written = run_cell t ref_cell in
  check_reference t reference;
  let check c = check_against t ~reference c (fst (run_cell t c)) in
  List.iter
    (fun (shards, workers) ->
      List.iter
        (fun engine ->
          List.iter
            (fun observer ->
              let own = engine = interp && observer = Ring in
              if own || workers = max 1 shards then
                for run = 1 to if own && workers > 1 then t.runs else 1 do
                  let c =
                    { ref_cell with engine; shards; workers; observer; run }
                  in
                  if c <> ref_cell then check c
                done)
            t.observers)
        t.engines)
    settings;
  (* resumed cells, from each sampled snapshot: at its own width and at
     another one, under engines other than the writer's *)
  let widths =
    if shards = 0 then [ 0 ] else [ (if shards = 1 then 2 else 1); shards ]
  in
  let engines =
    match List.filter (( <> ) interp) t.engines with [] -> [ interp ] | l -> l
  in
  let nth l k = List.nth l (k mod List.length l) in
  List.iteri
    (fun k ck ->
      let pairs =
        if t.cross then
          List.concat_map (fun w -> List.map (fun e -> (w, e)) engines) widths
        else [ (nth widths k, nth engines k) ]
      in
      List.iteri
        (fun i (shards, engine) ->
          let observer = nth t.observers (i + k) in
          check
            { ref_cell with engine; shards; workers = shards; observer;
              resume = Some ck })
        pairs)
    (sample 8 written)

let check_tier t =
  let seq, sharded = List.partition (( = ) 0) t.widths in
  if seq <> [] then check_schedule t seq;
  if sharded <> [] then check_schedule t sharded

let tier ?seeds ?(seed = 1)
    ?(sync_interval = Fuzz.Shard.default_sync_interval) ?(map_size_log2 = 16)
    ?(max_queue = Fuzz.Campaign.default_config.max_queue)
    ?(engines = all_engines) ?(observers = [ Bare; Ring; Full ]) ?(runs = 1)
    ?(min_snapshots = 2) ?(cross = true) ~every ~widths subject fuzzer budget =
  { subject; seeds; fuzzer; budget; seed; sync_interval; map_size_log2;
    max_queue; every; widths; engines; observers; runs; min_snapshots; cross }

module S = Fuzz.Strategy

let cmplog_off_and_on =
  List.concat_map (fun (fz : S.fuzzer) ->
      [ { fz with cmplog = false }; { fz with cmplog = true } ])

(* The CLI tiers the Makefile once diffed: path at 6,000 across engines,
   shards and observers; afl at 4,000 checkpointed at 2,500 and resumed. *)
let cflow_path_6000 =
  tier "cflow" S.path 6_000 ~every:1_000 ~widths:[ 0; 1; 2; 4 ]
    ~sync_interval:512

let cflow_afl_4000 =
  tier "cflow" S.afl 4_000 ~every:2_500 ~min_snapshots:1 ~widths:[ 0; 1; 2 ]
    ~sync_interval:512

(* The sharded event streams CI once diffed at 1, 2 and 4 shards. *)
let cflow_afl_3000 =
  tier "cflow" S.afl 3_000 ~every:1_000 ~widths:[ 1; 2; 4 ] ~sync_interval:512

let cflow_path_3000 =
  tier "cflow" S.path 3_000 ~every:1_000 ~widths:[ 1; 2; 4 ] ~sync_interval:512

(* Every feedback mode, cmplog off and on, sequentially. Snapshots fall
   between queue entries, so each mode writes nine, mostly mid-cycle
   (every snapshot costs each cell a serialization). *)
let cflow_modes =
  List.map
    (fun (fz : S.fuzzer) ->
      tier "cflow" fz 4_000 ~seed:7 ~every:400 ~widths:[ 0 ])
    (cmplog_off_and_on [ S.block; S.pcguard; S.ngram 4; S.path; S.pathafl ])

(* Retention heavy: thousands of entries, engines rotated over the
   snapshots. The sequential pathafl campaign spends most of its budget
   in its second cycle, where every 500 executions still writes a
   snapshot; a 10,000 schedule of 20,000 writes one. *)
let sqlite3_20000 =
  List.map
    (fun (every, widths, sync_interval) ->
      tier "sqlite3" S.pathafl 20_000 ~every ~widths ~sync_interval
        ~min_snapshots:(match every with 500 -> 30 | 5_000 -> 2 | _ -> 1)
        ~engines:[ interp; fused; native ] ~observers:[ Ring ] ~cross:false)
    (let default = Fuzz.Shard.default_sync_interval in
     [ (500, [ 0 ], default); (5_000, [ 2 ], 512); (10_000, [ 2 ], default) ])

(* The block and edge probe renderings of every engine, and sharded
   pathafl streams. *)
let gdk_6000 =
  tier "gdk" S.pathafl 6_000 ~every:2_000 ~widths:[ 1; 2; 4 ]
    ~sync_interval:512 ~observers:[ Ring ] ~cross:false
  :: List.map
       (fun fz ->
         tier "gdk" fz 6_000 ~every:2_000 ~widths:[ 0 ] ~observers:[ Ring ]
           ~cross:false)
       [ S.block; S.pcguard ]

(* Lanes claim items dynamically, so which lane runs which item changes
   from run to run: crash- and retention-heavy runs, repeated. *)
let claim_heavy =
  List.map
    (fun subject ->
      tier subject { S.pathafl with cmplog = true } 3_000 ~seed:11
        ~sync_interval:256 ~every:1_000 ~widths:[ 1; 2; 4 ] ~runs:3
        ~engines:[ interp ] ~observers:[ Ring ] ~cross:false)
    [ "gdk"; "sqlite3" ]

let gdk_modes =
  List.map
    (fun (fz : S.fuzzer) ->
      tier "gdk" { fz with cmplog = true } 1_000 ~seed:11 ~sync_interval:256
        ~every:250 ~widths:[ 1; 2; 4 ] ~observers:[ Ring ] ~cross:false)
    [ S.block; S.pcguard; S.path; S.pathafl ]

(* Crash dense: edge and pathafl, cmplog off and on, every width,
   repeated, resumed. *)
let easy_bug =
  List.map
    (fun fz ->
      tier "easy_bug" fz 2_000 ~seed:11 ~sync_interval:256 ~every:250
        ~widths:[ 0; 1; 2; 4 ] ~runs:3)
    (cmplog_off_and_on [ S.afl; S.pathafl ])

let easy_bug_path =
  tier "easy_bug" S.path 3_000 ~seeds:[ "hi" ] ~seed:5 ~every:250
    ~widths:[ 0; 1; 2 ] ~sync_interval:256

(* A 2^18 map: snapshots carry top-rated slots above 65,535. *)
let wide_map =
  tier "cflow" { S.pathafl with cmplog = true } 3_000 ~seed:5
    ~map_size_log2:18 ~sync_interval:512 ~every:1 ~min_snapshots:3
    ~widths:[ 1; 2 ]
    ~engines:[ interp; native ] ~observers:[ Ring ]

(* A queue cap that fills within the first epochs: the sequential loop
   checks it before every merge, the merge barrier once per replayed
   retention. *)
let capped_queue =
  tier "cflow" S.afl 3_000 ~max_queue:40 ~every:1_000 ~widths:[ 0; 1; 2; 4 ]
    ~sync_interval:512 ~observers:[ Ring ]

let matrix =
  [ cflow_path_6000; cflow_afl_4000; cflow_afl_3000; cflow_path_3000;
    capped_queue ]
  @ cflow_modes @ sqlite3_20000 @ gdk_6000 @ claim_heavy @ gdk_modes
  @ easy_bug @ [ easy_bug_path; wide_map ]

(* The paper's output does not depend on the engine: the fast matrix
   and the ablations render the same text under the interpreter and the
   matrix engine. The interpreter's text is pinned by tables.golden, the
   stdout of
     PATHCOV_BUDGET=2400 PATHCOV_TRIALS=2 pathfuzz tables --engine interp
   without its first line. [dune runtest] runs in this directory,
   [dune exec] at the root. *)
let check_tables () =
  if Fuzz.Tracer.matrix_engine <> Fused then
    fail "the matrix engine is not fused";
  let cfg = { Experiments.Config.fast with budget = 2_400; trials = 2 } in
  let text engine =
    String.split_on_char '\n'
      (Experiments.Tables.all
         (Experiments.Runner.run ~quiet:true ~jobs:2 ~engine cfg)
      ^ Experiments.Ablations.all ~quiet:true ~jobs:2 ~engine cfg)
  in
  let golden =
    List.find Sys.file_exists [ "tables.golden"; "test/tables.golden" ]
  in
  let interp = text Fuzz.Tracer.Interp in
  compare_lines ~cell:"tables" ~what:"golden"
    (String.split_on_char '\n'
       (In_channel.with_open_bin golden In_channel.input_all))
    interp;
  compare_lines ~cell:"tables" ~what:"text" interp
    (text Fuzz.Tracer.matrix_engine)

(* Each check runs once per process, however many tests name it. *)
let outcomes = Hashtbl.create 64

let once name check () =
  (match Hashtbl.find_opt outcomes name with
  | Some o -> o
  | None ->
      let o = try Ok (check ()) with e -> Error e in
      Hashtbl.replace outcomes name o;
      o)
  |> Result.iter_error raise

let run_tier t = once (tier_name t) (fun () -> check_tier t) ()
let run_tables = once "tables" check_tables

(* An identity claim of another suite, under that suite's own name, so
   that running one suite alone still checks it: the tiers (and the
   tables) that cover it. *)
let claim ?(tables = false) name tiers =
  Alcotest.test_case name `Quick (fun () ->
      List.iter run_tier tiers;
      if tables then run_tables ())

let suite =
  [
    ( "contract",
      List.map
        (fun t ->
          Alcotest.test_case (tier_name t) `Quick (fun () -> run_tier t))
        matrix
      @ [ Alcotest.test_case "tables under every engine" `Quick run_tables ]
    );
  ]
