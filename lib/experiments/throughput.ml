(** Execution-throughput telemetry: the perf trajectory behind every table.

    Every number in the evaluation is bought with executions, so execs/sec
    is the real budget unit behind the paper's wall-clock budgets. This
    module measures steady-state execution throughput per
    (subject x feedback mode x engine) cell — executions/sec, VM
    blocks/sec and GC minor words allocated per execution — and renders
    the result as the [BENCH_throughput.json] baseline that future PRs
    are compared against.

    One measured "execution" is exactly one iteration of the campaign hot
    loop: feedback reset, trace clear, run, trace classify — i.e. what
    [Fuzz.Campaign.execute] does minus queue bookkeeping. Four engines
    are measured: [interp] (the pooled interpreter driving the runtime
    listeners), [fused] (the [Vm.Compile] staged artifact with probes
    baked in and superblock fusion — single-predecessor chains collapsed
    into one closure with coalesced fuel burns and folded path
    increments), [selective] (the selective-tracing pipeline campaigns
    run on the fused engine: the near-null signal specialisation per
    execution plus a full-instrumentation replay on each first-seen
    signal; the mode-less row is the pure signal floor with no replay),
    and [native] (the [Vm.Emit] per-subject generated OCaml unit,
    compiled out-of-process and Dynlink'd — measured only when the
    emitter is available on this host; {!grid} probes once and skips the
    native rows with a stderr note otherwise).
    Selective rows also report [replays] — the replays that fell inside
    the measured window, which drops to ~0 once the cycled seeds' signals
    are all seen (the amortisation the campaign enjoys). Seeds are cycled
    in order, so the work per execution (and therefore minor-words/exec)
    is deterministic; only wall-clock rates vary across hosts. *)

type sample = {
  subject : string;
  mode : string;  (** feedback mode name, or ["none"] (uninstrumented) *)
  engine : string;
      (** "interp", "fused", "selective" or "native" *)
  execs : int;  (** measured executions (after warmup) *)
  wall_s : float;
  execs_per_sec : float;
  blocks_per_sec : float;
  minor_words_per_exec : float;
  replays : int;
      (** selective rows: full-instrumentation replays (first-seen
          signals) inside the measured window; 0 elsewhere *)
}

(** The measured instrumentation ladder: uninstrumented, then each
    feedback mode of the sensitivity ladder. *)
let modes : (string * Pathcov.Feedback.mode option) list =
  [
    ("none", None);
    ("block", Some Pathcov.Feedback.Block);
    ("edge", Some Pathcov.Feedback.Edge);
    ("path", Some Pathcov.Feedback.Path);
    ("pathafl", Some Pathcov.Feedback.Pathafl);
  ]

(** The measured engines, in presentation order — the grid default and
    the universe the [--engines] bench filter validates against. *)
let engines : string list = [ "interp"; "fused"; "selective"; "native" ]

(* One throughput cell: replay the subject's seeds round-robin through a
   reused execution context. Warmup executions let frame pools, the
   touched-index journals and (for the closure engines) the per-domain
   artifact cache reach steady state before the clock starts.
   Preparation is shared across cells: [Subject.program] memoises the
   front-end and [Interp.prepare_cached] the slot resolution, so a grid
   pays for each once instead of per cell. *)
let measure ?(warmup = 64) ~execs ~(engine : string)
    ~(mode : Pathcov.Feedback.mode option) (s : Subjects.Subject.t) : sample =
  let prog = Subjects.Subject.program s in
  let prepared = Vm.Interp.prepare_cached prog in
  let seeds = Array.of_list (if s.seeds = [] then [ "A" ] else s.seeds) in
  let nseeds = Array.length seeds in
  let blocks = ref 0 in
  let replays = ref 0 in
  let one : int -> unit =
    match engine with
    | "interp" ->
        let fb = Option.map (fun m -> Pathcov.Feedback.make m prog) mode in
        let hooks =
          match fb with
          | None -> Vm.Interp.no_hooks
          | Some fb ->
              {
                Vm.Interp.no_hooks with
                h_call = fb.Pathcov.Feedback.on_call;
                h_block = fb.Pathcov.Feedback.on_block;
                h_edge = fb.Pathcov.Feedback.on_edge;
                h_ret = fb.Pathcov.Feedback.on_ret;
              }
        in
        let ctx = Vm.Interp.create_ctx ~hooks prepared in
        fun i ->
          (match fb with
          | Some fb ->
              fb.Pathcov.Feedback.reset ();
              Pathcov.Coverage_map.clear fb.trace
          | None -> ());
          let out = Vm.Interp.run_ctx ctx ~input:seeds.(i mod nseeds) in
          blocks := !blocks + out.blocks_executed;
          (match fb with
          | Some fb -> Pathcov.Coverage_map.classify fb.trace
          | None -> ())
    | "fused" ->
        let spec =
          match mode with
          | None -> Vm.Compile.Snone
          | Some m -> Vm.Compile.Sfull m
        in
        (* cmplog is off in this loop (the h_cmp binding below is a
           no-op), so the cmp-free artifact variant is the honest cost *)
        let art = Vm.Compile.cached ~cmplog:false prepared spec in
        let ctx = Vm.Interp.create_ctx prepared in
        let trace = Pathcov.Coverage_map.create () in
        Vm.Compile.bind art ~trace ~h_cmp:(fun _ _ -> ());
        fun i ->
          (match mode with
          | Some _ -> Pathcov.Coverage_map.clear trace
          | None -> ());
          let out = Vm.Compile.run art ctx ~input:seeds.(i mod nseeds) in
          blocks := !blocks + out.blocks_executed;
          (match mode with
          | Some _ -> Pathcov.Coverage_map.classify trace
          | None -> ())
    | "selective" -> (
        let sig_art = Vm.Compile.cached prepared Vm.Compile.Ssignal in
        let ctx = Vm.Interp.create_ctx prepared in
        match mode with
        | None ->
            (* the bulk-exec floor of selective tracing: signal spec
               only, no trace to clear or classify, no replays *)
            fun i ->
              let out = Vm.Compile.run sig_art ctx ~input:seeds.(i mod nseeds) in
              blocks := !blocks + out.blocks_executed
        | Some m ->
            (* the full selective pipeline at this mode: a signal run per
               execution plus a full-instrumentation replay on each
               first-seen signal — the steady-state cost the campaign's
               bulk executions actually pay *)
            let full =
              Vm.Compile.cached ~cmplog:false prepared (Vm.Compile.Sfull m)
            in
            let trace = Pathcov.Coverage_map.create () in
            Vm.Compile.bind full ~trace ~h_cmp:(fun _ _ -> ());
            let seen = Hashtbl.create 256 in
            fun i ->
              let input = seeds.(i mod nseeds) in
              let out = Vm.Compile.run sig_art ctx ~input in
              blocks := !blocks + out.blocks_executed;
              let s = Vm.Compile.signal sig_art in
              if not (Hashtbl.mem seen s) then begin
                Hashtbl.add seen s ();
                incr replays;
                Pathcov.Coverage_map.clear trace;
                ignore (Vm.Compile.run full ctx ~input);
                Pathcov.Coverage_map.classify trace
              end)
    | "native" -> (
        let spec =
          match mode with
          | None -> Vm.Compile.Snone
          | Some m -> Vm.Compile.Sfull m
        in
        match Vm.Emit.instance ~cmplog:false prepared spec with
        | Error msg ->
            invalid_arg
              (Printf.sprintf
                 "Throughput.measure: native emitter unavailable (%s)" msg)
        | Ok em ->
            let ctx = Vm.Interp.create_ctx prepared in
            let trace = Pathcov.Coverage_map.create () in
            Vm.Emit.bind em ~trace ~h_cmp:(fun _ _ -> ());
            fun i ->
              (match mode with
              | Some _ -> Pathcov.Coverage_map.clear trace
              | None -> ());
              let out = Vm.Emit.run em ctx ~input:seeds.(i mod nseeds) in
              blocks := !blocks + out.blocks_executed;
              (match mode with
              | Some _ -> Pathcov.Coverage_map.classify trace
              | None -> ()))
    | e -> invalid_arg (Printf.sprintf "Throughput.measure: engine %S" e)
  in
  for i = 0 to warmup - 1 do
    one i
  done;
  blocks := 0;
  replays := 0;
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to execs - 1 do
    one i
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let mw = Gc.minor_words () -. mw0 in
  let per_sec n = if wall_s > 0. then float_of_int n /. wall_s else 0. in
  {
    subject = s.name;
    mode = (match mode with None -> "none" | Some m -> Pathcov.Feedback.mode_name m);
    engine;
    execs;
    wall_s;
    execs_per_sec = per_sec execs;
    blocks_per_sec = per_sec !blocks;
    minor_words_per_exec = mw /. float_of_int (max 1 execs);
    replays = !replays;
  }

(** Measure the (subject x mode x engine) grid: every mode under each
    requested engine (default: all of {!engines}), where [selective]'s
    mode-less row is the signal floor and its instrumented rows the full
    pipeline (signal runs + first-seen replays). [native] cells are
    measured only when the emitter works on this host: the grid probes
    once (first subject, no instrumentation) and drops the engine with a
    stderr note otherwise, so a toolchain-less machine still produces
    the rest of the grid. Unknown engine names raise [Invalid_argument]
    (the CLI validates before calling). *)
let grid ?warmup ?(engines = engines) ~execs
    (subjects : Subjects.Subject.t list) : sample list =
  List.iter
    (fun e ->
      if
        not
          (List.mem e engines)
      then invalid_arg (Printf.sprintf "Throughput.grid: engine %S" e))
    engines;
  let engines =
    if not (List.mem "native" engines) then engines
    else
      match subjects with
      | [] -> engines
      | s :: _ -> (
          let prepared =
            Vm.Interp.prepare_cached (Subjects.Subject.program s)
          in
          match Vm.Emit.instance ~cmplog:false prepared Vm.Compile.Snone with
          | Ok _ -> engines
          | Error msg ->
              Printf.eprintf
                "[throughput] native engine unavailable (%s); skipping \
                 native cells\n\
                 %!"
                msg;
              List.filter (fun e -> e <> "native") engines)
  in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun engine ->
          List.map (fun (_, m) -> measure ?warmup ~execs ~engine ~mode:m s) modes)
        engines)
    subjects

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Hand-rolled JSON: the repo deliberately has no JSON dependency. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let sample_json buf (s : sample) =
  Buffer.add_string buf
    (Printf.sprintf
       "    {\"subject\": %S, \"mode\": %S, \"engine\": %S, \"execs\": %d, \
        \"wall_s\": %s, \"execs_per_sec\": %s, \"blocks_per_sec\": %s, \
        \"minor_words_per_exec\": %s%s}"
       s.subject s.mode s.engine s.execs (json_float s.wall_s)
       (json_float s.execs_per_sec)
       (json_float s.blocks_per_sec)
       (json_float s.minor_words_per_exec)
       (if s.engine = "selective" then
          Printf.sprintf ", \"replays\": %d" s.replays
        else ""))

(** Extract the raw (verbatim) cell lines of a [key] array block from a
    previously written BENCH_*.json file, e.g. [~key:"baseline_cells"].
    Used to carry a recorded baseline forward when the file is
    regenerated ([make bench]) and to seed a new baseline from an old
    file's [cells]. Returns [None] when the file or block is missing.
    This is a format-anchored line scan, not a JSON parser: it only
    understands the layout our own writers emit. *)
let extract_cells ~(key : string) (path : string) : string option =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let lines = List.rev !lines in
    let marker = Printf.sprintf "  \"%s\": [" key in
    let rec skip = function
      | [] -> None
      | l :: rest -> if l = marker then Some rest else skip rest
    in
    match skip lines with
    | None -> None
    | Some rest ->
        let rec take acc = function
          | [] -> None  (* unterminated block: treat as absent *)
          | l :: rest ->
              if l = "  ]" || l = "  ]," then
                Some (String.concat "\n" (List.rev acc))
              else take (l :: acc) rest
        in
        take [] rest
  end

(* ------------------------------------------------------------------ *)
(* Speedup vs the recorded baseline *)

type speedup = {
  sp_subject : string;
  sp_baseline : float;  (** baseline path-mode execs/sec *)
  sp_current : float;  (** measured engine's path-mode execs/sec *)
  sp_ratio : float;
}

(* Minimal cell scan over a raw cell block (the bench_history idiom):
   baseline cells predate the engine field, so a missing engine reads as
   "interp". *)
let scan_cells (raw : string) : (string * string * string * float) list =
  let field obj key =
    let pat = Printf.sprintf "\"%s\": " key in
    let n = String.length obj and m = String.length pat in
    let rec find i =
      if i + m > n then None
      else if String.sub obj i m = pat then Some (i + m)
      else find (i + 1)
    in
    find 0
  in
  let string_field obj key =
    match field obj key with
    | Some i when i < String.length obj && obj.[i] = '"' -> (
        match String.index_from_opt obj (i + 1) '"' with
        | Some stop -> Some (String.sub obj (i + 1) (stop - i - 1))
        | None -> None)
    | _ -> None
  in
  let float_field obj key =
    match field obj key with
    | None -> None
    | Some start ->
        let stop = ref start in
        let n = String.length obj in
        while
          !stop < n
          && (match obj.[!stop] with
             | ',' | '}' | ']' | ' ' | '\n' -> false
             | _ -> true)
        do
          incr stop
        done;
        float_of_string_opt (String.sub obj start (!stop - start))
  in
  let rec go i acc =
    match String.index_from_opt raw i '{' with
    | None -> List.rev acc
    | Some o -> (
        match String.index_from_opt raw o '}' with
        | None -> List.rev acc
        | Some c ->
            let obj = String.sub raw o (c - o + 1) in
            let acc =
              match
                ( string_field obj "subject",
                  string_field obj "mode",
                  float_field obj "execs_per_sec" )
              with
              | Some subject, Some mode, Some eps ->
                  let engine =
                    Option.value ~default:"interp" (string_field obj "engine")
                  in
                  (subject, mode, engine, eps) :: acc
              | _ -> acc
            in
            go (c + 1) acc)
  in
  go 0 []

let geomean = function
  | [] -> None
  | l ->
      Some
        (exp
           (List.fold_left (fun a x -> a +. log x) 0. l
           /. float_of_int (List.length l)))

(** Per-subject speedup of this run's [engine] cells at [mode] over the
    recorded baseline's interp cells at the same mode, plus the
    geometric mean. [None] when either side has no usable cell. *)
let speedup_for ~(mode : string) ~(engine : string) ~(baseline_raw : string)
    (samples : sample list) : (float * speedup list) option =
  let base = scan_cells baseline_raw in
  let per_subject =
    List.filter_map
      (fun s ->
        if s.mode = mode && s.engine = engine then
          match
            List.find_opt
              (fun (subj, m, e, _) -> subj = s.subject && m = mode && e = "interp")
              base
          with
          | Some (_, _, _, b) when b > 0. ->
              Some
                {
                  sp_subject = s.subject;
                  sp_baseline = b;
                  sp_current = s.execs_per_sec;
                  sp_ratio = s.execs_per_sec /. b;
                }
          | _ -> None
        else None)
      samples
  in
  match per_subject with
  | [] -> None
  | l ->
      let g = Option.get (geomean (List.map (fun sp -> sp.sp_ratio) l)) in
      Some (g, l)

(** Per-subject path-mode speedup of this run's fused engine over the
    recorded baseline cells, plus the geometric mean. [None] when either
    side has no usable path cell. *)
let speedup_vs_baseline ~(baseline_raw : string) (samples : sample list) :
    (float * speedup list) option =
  speedup_for ~mode:"path" ~engine:"fused" ~baseline_raw samples

(** Geomean speedup vs the baseline's interp cells for every
    (mode x engine) pair present in [samples] — the honest per-mode view
    behind the single path scalar. Modes keep the ladder order; engines
    are ordered fused, selective, native. *)
let speedups_by_mode ~(baseline_raw : string) (samples : sample list) :
    (string * string * float) list =
  let mode_names = List.map fst modes in
  List.concat_map
    (fun mode ->
      List.filter_map
        (fun engine ->
          match speedup_for ~mode ~engine ~baseline_raw samples with
          | Some (g, _) -> Some (mode, engine, g)
          | None -> None)
        [ "fused"; "selective"; "native" ])
    mode_names

(** Render the [BENCH_throughput.json] document. [baseline] optionally
    embeds a prior measurement (e.g. the pre-optimisation interpreter) so
    the file itself records the trajectory, not just the endpoint;
    [baseline_raw] does the same from a previously rendered cell block
    (see {!extract_cells}), taking precedence over [baseline]. When a
    baseline is embedded, the path-mode fused- and native-vs-baseline
    speedups are recorded in the document too. *)
let to_json ?(note = "") ?(baseline = []) ?baseline_raw (samples : sample list)
    : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"pathfuzz-throughput/v1\",\n";
  if note <> "" then
    Buffer.add_string buf (Printf.sprintf "  \"note\": %S,\n" note);
  (match baseline_raw with
  | Some raw when raw <> "" ->
      (match speedup_vs_baseline ~baseline_raw:raw samples with
      | Some (g, _) ->
          Buffer.add_string buf
            (Printf.sprintf
               "  \"path_speedup_fused_vs_baseline\": %s,\n" (json_float g))
      | None -> ());
      (match speedup_for ~mode:"path" ~engine:"native" ~baseline_raw:raw samples with
      | Some (g, _) ->
          Buffer.add_string buf
            (Printf.sprintf
               "  \"path_speedup_native_vs_baseline\": %s,\n" (json_float g))
      | None -> ());
      (match speedups_by_mode ~baseline_raw:raw samples with
      | [] -> ()
      | l ->
          Buffer.add_string buf "  \"speedups_vs_baseline\": [\n";
          List.iteri
            (fun i (mode, engine, g) ->
              if i > 0 then Buffer.add_string buf ",\n";
              Buffer.add_string buf
                (Printf.sprintf
                   "    {\"mode\": %S, \"engine\": %S, \"geomean\": %s}" mode
                   engine (json_float g)))
            l;
          Buffer.add_string buf "\n  ],\n")
  | _ -> ());
  let block name ss =
    Buffer.add_string buf (Printf.sprintf "  %S: [\n" name);
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ",\n";
        sample_json buf s)
      ss;
    Buffer.add_string buf "\n  ]"
  in
  block "cells" samples;
  (match baseline_raw with
  | Some raw when raw <> "" ->
      Buffer.add_string buf ",\n  \"baseline_cells\": [\n";
      Buffer.add_string buf raw;
      Buffer.add_string buf "\n  ]"
  | _ ->
      if baseline <> [] then begin
        Buffer.add_string buf ",\n";
        block "baseline_cells" baseline
      end);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(** Human-readable table (the bench hook and [--smoke] output). *)
let to_table (samples : sample list) : string =
  let header =
    [
      "subject"; "mode"; "engine"; "execs/s"; "blocks/s"; "minor w/exec";
      "replays";
    ]
  in
  let rows =
    List.map
      (fun s ->
        [
          s.subject;
          s.mode;
          s.engine;
          Printf.sprintf "%.0f" s.execs_per_sec;
          Printf.sprintf "%.0f" s.blocks_per_sec;
          Printf.sprintf "%.1f" s.minor_words_per_exec;
          (if s.engine = "selective" then string_of_int s.replays else "-");
        ])
      samples
  in
  Render.table ~title:"Throughput (execs/sec by subject x feedback x engine)"
    ~header ~rows

(** One line per subject: the acceptance-criterion view. *)
let speedup_report ?(engine = "fused") (g : float) (l : speedup list) :
    string =
  String.concat "\n"
    (List.map
       (fun sp ->
         Printf.sprintf "  %-10s path: %.0f -> %.0f execs/s (%.2fx)"
           sp.sp_subject sp.sp_baseline sp.sp_current sp.sp_ratio)
       l
    @ [
        Printf.sprintf "  geomean speedup vs baseline (path, %s): %.2fx" engine
          g;
      ])
