(** Benchmark trend history: dated execs/sec cells accumulated across
    PRs in a checked-in [BENCH_history.jsonl], appended by
    [pathfuzz bench-history] from the current [BENCH_throughput.json] /
    [BENCH_campaign.json] and checked for regressions against the
    trailing window.

    [BENCH_throughput.json] and [BENCH_campaign.json] each hold one
    measurement plus one embedded baseline — a trajectory of length two.
    The history file is the long axis: one JSONL row per (date, source)
    with the per-(subject, mode) execs/sec cells of that day's bench, so
    the perf story survives arbitrarily many regenerations of the
    snapshot files.

    Like the rest of the repo's JSON handling, parsing is a
    format-anchored scan of our own writers' output (the
    {!Throughput.extract_cells} idiom), not a general JSON parser. *)

type cell = {
  subject : string;
  mode : string;
  shards : int;
      (** sharded-campaign width; 0 = the unsharded sequential loop
          (also the schema-tolerant default for pre-sharding history
          lines, so legacy cells and [--shards 1] cells never collide) *)
  engine : string;
      (** execution engine of the measurement ("interp", "fused",
          "selective", "native"; older lines may name the retired
          "compiled"); the schema-tolerant default for pre-engine
          history lines is "interp", which is what those lines measured *)
  execs_per_sec : float;
}

type row = {
  date : string;  (** YYYY-MM-DD *)
  source : string;  (** "throughput" or "campaign" *)
  label : string;  (** free-form tag, e.g. a PR name *)
  machine : string;
      (** host fingerprint ("nproc=N ocaml=V"); "" on pre-machine lines.
          Recorded so cross-host rate jumps in the trend are explicable;
          deliberately not part of the regression-check key *)
  cells : cell list;
}

(* ------------------------------------------------------------------ *)
(* Field scanning *)

(* Find [pat] in [s] at or after [from]. *)
let find_sub (s : string) ~(from : int) (pat : string) : int option =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  if from < 0 then None else go from

let string_field (obj : string) (key : string) : string option =
  match find_sub obj ~from:0 (Printf.sprintf "\"%s\": \"" key) with
  | None -> None
  | Some i -> (
      let start = i + String.length key + 5 in
      match String.index_from_opt obj start '"' with
      | None -> None
      | Some stop -> Some (String.sub obj start (stop - start)))

let float_field (obj : string) (key : string) : float option =
  match find_sub obj ~from:0 (Printf.sprintf "\"%s\": " key) with
  | None -> None
  | Some i ->
      let start = i + String.length key + 4 in
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

let int_field (obj : string) (key : string) : int option =
  match float_field obj key with
  | Some f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* Parse every flat {...} object at or after [from] into a cell;
   malformed objects are skipped. *)
let cells_of_string ?(from = 0) (s : string) : cell list =
  let rec go i acc =
    match String.index_from_opt s i '{' with
    | None -> List.rev acc
    | Some o -> (
        match String.index_from_opt s o '}' with
        | None -> List.rev acc
        | Some c ->
            let obj = String.sub s o (c - o + 1) in
            let acc =
              match
                ( string_field obj "subject",
                  string_field obj "mode",
                  float_field obj "execs_per_sec" )
              with
              | Some subject, Some mode, Some execs_per_sec ->
                  (* "shards" appeared with the sharded-campaign bench,
                     "engine" with staged compilation; older lines
                     simply lack them *)
                  let shards =
                    Option.value ~default:0 (int_field obj "shards")
                  in
                  let engine =
                    Option.value ~default:"interp" (string_field obj "engine")
                  in
                  { subject; mode; shards; engine; execs_per_sec } :: acc
              | _ -> acc
            in
            go (c + 1) acc)
  in
  if from >= String.length s then [] else go from []

(* ------------------------------------------------------------------ *)
(* Reading *)

(** The current cells of a BENCH_*.json file ([None] if the file or its
    "cells" block is missing). *)
let cells_of_bench (path : string) : cell list option =
  match Throughput.extract_cells ~key:"cells" path with
  | None -> None
  | Some raw -> Some (cells_of_string raw)

let row_of_line (line : string) : row option =
  match
    ( string_field line "schema",
      string_field line "date",
      string_field line "source" )
  with
  | Some "pathfuzz-history/v1", Some date, Some source ->
      let label = Option.value ~default:"" (string_field line "label") in
      let machine = Option.value ~default:"" (string_field line "machine") in
      let cells =
        match find_sub line ~from:0 "\"cells\": [" with
        | None -> []
        | Some i -> cells_of_string ~from:i line
      in
      Some { date; source; label; machine; cells }
  | _ -> None

(** Load a history file, oldest row first. Unparseable lines are
    ignored, so a hand-edited file degrades soft. Missing file = []. *)
let load (path : string) : row list =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rows = ref [] in
    (try
       while true do
         match row_of_line (input_line ic) with
         | Some r -> rows := r :: !rows
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !rows
  end

(* ------------------------------------------------------------------ *)
(* Writing *)

let row_to_jsonl (r : row) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\": \"pathfuzz-history/v1\", \"date\": %S, \"source\": %S, \
        \"label\": %S, \"machine\": %S, \"cells\": ["
       r.date r.source r.label r.machine);
  List.iteri
    (fun i (c : cell) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"subject\": %S, \"mode\": %S, \"shards\": %d, \"engine\": %S, \
            \"execs_per_sec\": %s}"
           c.subject c.mode c.shards c.engine
           (Throughput.json_float c.execs_per_sec)))
    r.cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(** Append [row] as one JSONL line. *)
let append (path : string) (r : row) : unit =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (row_to_jsonl r);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Regression check *)

type regression = {
  key : string;
      (** "subject/mode", with "@sN" appended for sharded cells and
          "@engine" for non-interp engines *)
  baseline : float;  (** trailing-window mean execs/sec *)
  current : float;
  drop_pct : float;  (** positive = slower than baseline *)
}

(** Compare [candidate]'s cells against the trailing [window] rows of
    the same source in [history]. A cell regresses when its execs/sec
    falls more than [threshold_pct] percent below the window mean; cells
    with no history are skipped (first appearance of a subject or
    mode). Wall-clock rates are noisy, so the caller picks a threshold
    well above host jitter (default 20%). *)
let check ?(window = 4) ~threshold_pct (history : row list) (candidate : row) :
    regression list =
  let trailing =
    let same = List.filter (fun r -> r.source = candidate.source) history in
    let n = List.length same in
    List.filteri (fun i _ -> i >= n - window) same
  in
  List.filter_map
    (fun (c : cell) ->
      let past =
        List.filter_map
          (fun r ->
            List.find_opt
              (fun (p : cell) ->
                p.subject = c.subject && p.mode = c.mode
                && p.shards = c.shards && p.engine = c.engine)
              r.cells)
          trailing
      in
      match past with
      | [] -> None
      | _ ->
          let mean =
            List.fold_left (fun a p -> a +. p.execs_per_sec) 0. past
            /. float_of_int (List.length past)
          in
          if mean > 0. && c.execs_per_sec < mean *. (1. -. (threshold_pct /. 100.))
          then
            Some
              {
                key =
                  c.subject ^ "/" ^ c.mode
                  ^ (if c.shards > 0 then Printf.sprintf "@s%d" c.shards
                     else "")
                  ^ (if c.engine <> "interp" then "@" ^ c.engine else "");
                baseline = mean;
                current = c.execs_per_sec;
                drop_pct = 100. *. (1. -. (c.execs_per_sec /. mean));
              }
          else None)
    candidate.cells

(* ------------------------------------------------------------------ *)
(* Rendering *)

let geo_mean (cells : cell list) : float =
  let pos = List.filter (fun c -> c.execs_per_sec > 0.) cells in
  match pos with
  | [] -> 0.
  | _ ->
      exp
        (List.fold_left (fun a c -> a +. log c.execs_per_sec) 0. pos
        /. float_of_int (List.length pos))

(** One line per history row: the trend at a glance. *)
let to_table (rows : row list) : string =
  let header = [ "date"; "source"; "label"; "cells"; "gmean execs/s" ] in
  let render (r : row) =
    [
      r.date;
      r.source;
      (if r.label = "" then "-" else r.label);
      string_of_int (List.length r.cells);
      Printf.sprintf "%.0f" (geo_mean r.cells);
    ]
  in
  Render.table ~title:"Bench history (execs/sec trend)" ~header
    ~rows:(List.map render rows)

let regressions_report (regs : regression list) : string =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf
           "REGRESSION %s: %.0f execs/s vs trailing mean %.0f (-%.1f%%)" r.key
           r.current r.baseline r.drop_pct)
       regs)
