(** Preallocated per-track span rings — the campaign's flight recorder.

    A trace owns a fixed set of {e tracks} (track 0 = the coordinator /
    sequential campaign, track [s + 1] = shard [s]); each track carries
    a preallocated ring of completed spans plus a fixed-depth open-span
    stack and per-kind aggregate totals. Recording a span is two clock
    reads and a handful of int/float stores into preallocated arrays —
    zero steady-state allocation, so span recording obeys the
    zero-perturbation rule (DESIGN.md §7/§14): nothing here is read
    back by fuzzing decisions, and a campaign run with a trace attached
    executes the exact same trajectory as one without.

    The clock is passed in by the caller (obs is stdlib-only; campaigns
    pass [Unix.gettimeofday] or [Monotonic.now], tests pass virtual
    clocks), and each track is only ever touched from one domain —
    shards record onto their own track, the coordinator onto track 0 —
    so no locking is needed.

    Completed spans export as Chrome trace-event JSON ("X" complete
    events, one [tid] per track), loadable in [chrome://tracing] and
    Perfetto. *)

type kind =
  | Plan  (** coordinator: epoch planning *)
  | Mutate  (** candidate generation (mutator) *)
  | Exec  (** VM execution of a candidate cohort *)
  | Calibrate  (** calibration / cmplog colorization runs *)
  | Triage  (** crash triage *)
  | Merge  (** coordinator: shard sync-barrier merge *)
  | Compile  (** staged subject compilation *)
  | Checkpoint  (** campaign snapshot serialization + write *)
  | Epoch  (** one shard's whole epoch slice (shard tracks) *)

let n_kinds = 9

let kind_index = function
  | Plan -> 0
  | Mutate -> 1
  | Exec -> 2
  | Calibrate -> 3
  | Triage -> 4
  | Merge -> 5
  | Compile -> 6
  | Checkpoint -> 7
  | Epoch -> 8

let kind_of_index = function
  | 0 -> Plan
  | 1 -> Mutate
  | 2 -> Exec
  | 3 -> Calibrate
  | 4 -> Triage
  | 5 -> Merge
  | 6 -> Compile
  | 7 -> Checkpoint
  | 8 -> Epoch
  | k -> invalid_arg (Printf.sprintf "Trace.kind_of_index: %d" k)

let kind_name = function
  | Plan -> "plan"
  | Mutate -> "mutate"
  | Exec -> "exec"
  | Calibrate -> "calibrate"
  | Triage -> "triage"
  | Merge -> "merge"
  | Compile -> "compile"
  | Checkpoint -> "checkpoint"
  | Epoch -> "epoch"

(** A finished span, as read back from the ring. *)
type span = { kind : kind; t0 : float; dur : float; arg : int }

let stack_cap = 32

type track = {
  (* completed-span ring, parallel arrays *)
  rk : int array;  (** kind index *)
  rt0 : float array;  (** start, seconds since trace origin *)
  rdur : float array;  (** duration, seconds *)
  rarg : int array;  (** caller payload (batch size, bytes, ...) *)
  mutable next : int;  (** next write slot *)
  mutable total : int;  (** spans ever completed *)
  (* open-span stack; depth may exceed [stack_cap], in which case the
     overflowing frames are counted but not recorded *)
  sk : int array;
  st : float array;
  mutable depth : int;
  (* per-kind aggregates over *all* completed spans, including any the
     ring has overwritten *)
  agg_n : int array;
  agg_s : float array;
}

type t = {
  clock : unit -> float;
  origin : float;  (** clock value at creation; span times are relative *)
  capacity : int;
  tracks : track array;
}

let make_track capacity =
  {
    rk = Array.make capacity 0;
    rt0 = Array.make capacity 0.;
    rdur = Array.make capacity 0.;
    rarg = Array.make capacity 0;
    next = 0;
    total = 0;
    sk = Array.make stack_cap 0;
    st = Array.make stack_cap 0.;
    depth = 0;
    agg_n = Array.make n_kinds 0;
    agg_s = Array.make n_kinds 0.;
  }

let create ?(capacity = 8192) ~(clock : unit -> float) ~(tracks : int) () : t =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  if tracks < 1 then invalid_arg "Trace.create: tracks < 1";
  {
    clock;
    origin = clock ();
    capacity;
    tracks = Array.init tracks (fun _ -> make_track capacity);
  }

let n_tracks (t : t) : int = Array.length t.tracks

let begin_span (t : t) ~(track : int) (k : kind) : unit =
  let tr = t.tracks.(track) in
  if tr.depth < stack_cap then begin
    tr.sk.(tr.depth) <- kind_index k;
    tr.st.(tr.depth) <- t.clock () -. t.origin
  end;
  tr.depth <- tr.depth + 1

let end_span ?(arg = 0) (t : t) ~(track : int) () : unit =
  let tr = t.tracks.(track) in
  if tr.depth > 0 then begin
    tr.depth <- tr.depth - 1;
    if tr.depth < stack_cap then begin
      let k = tr.sk.(tr.depth) in
      let t0 = tr.st.(tr.depth) in
      let dur = t.clock () -. t.origin -. t0 in
      tr.rk.(tr.next) <- k;
      tr.rt0.(tr.next) <- t0;
      tr.rdur.(tr.next) <- dur;
      tr.rarg.(tr.next) <- arg;
      tr.next <- (tr.next + 1) mod t.capacity;
      tr.total <- tr.total + 1;
      tr.agg_n.(k) <- tr.agg_n.(k) + 1;
      tr.agg_s.(k) <- tr.agg_s.(k) +. dur
    end
  end

(** Time a thunk as one span. *)
let span ?arg (t : t) ~(track : int) (k : kind) (f : unit -> 'a) : 'a =
  begin_span t ~track k;
  Fun.protect ~finally:(fun () -> end_span ?arg t ~track ()) f

(* ------------------------------------------------------------------ *)
(* Readback *)

(** Retained spans of one track, oldest first. *)
let spans (t : t) ~(track : int) : span list =
  let tr = t.tracks.(track) in
  let n = min tr.total t.capacity in
  let start = (tr.next - n + t.capacity) mod t.capacity in
  List.init n (fun i ->
      let j = (start + i) mod t.capacity in
      {
        kind = kind_of_index tr.rk.(j);
        t0 = tr.rt0.(j);
        dur = tr.rdur.(j);
        arg = tr.rarg.(j);
      })

(** Spans ever completed on a track (retained or overwritten). *)
let total (t : t) ~(track : int) : int = t.tracks.(track).total

(** Spans lost to ring capacity on a track. *)
let dropped (t : t) ~(track : int) : int =
  max 0 (t.tracks.(track).total - t.capacity)

(** [(count, total seconds)] for one kind on one track, over every
    completed span including overwritten ones. *)
let agg (t : t) ~(track : int) (k : kind) : int * float =
  let tr = t.tracks.(track) in
  let i = kind_index k in
  (tr.agg_n.(i), tr.agg_s.(i))

(** [(count, total seconds)] for one kind summed across all tracks. *)
let agg_all (t : t) (k : kind) : int * float =
  let i = kind_index k in
  Array.fold_left
    (fun (n, s) tr -> (n + tr.agg_n.(i), s +. tr.agg_s.(i)))
    (0, 0.) t.tracks

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

(* Microsecond timestamp with sub-µs precision, the unit the trace-event
   format specifies. *)
let usec (s : float) : string = Printf.sprintf "%.3f" (s *. 1e6)

(** Write the whole trace as Chrome trace-event JSON (the
    [{"traceEvents": [...]}] object form) — loadable in
    [chrome://tracing] / Perfetto. One [tid] per track; [track_names]
    label them with thread-name metadata events. *)
let to_chrome ?(track_names = fun _ -> None) (t : t) (oc : out_channel) : unit
    =
  output_string oc "{\"traceEvents\": [";
  let first = ref true in
  let emit line =
    if !first then first := false else output_string oc ",";
    output_string oc "\n";
    output_string oc line
  in
  Array.iteri
    (fun tid _ ->
      match track_names tid with
      | Some name ->
          emit
            (Printf.sprintf
               "{\"ph\": \"M\", \"pid\": 0, \"tid\": %d, \"name\": \
                \"thread_name\", \"args\": {\"name\": %s}}"
               tid
               (Snapshot.json_string name))
      | None -> ())
    t.tracks;
  Array.iteri
    (fun tid _ ->
      List.iter
        (fun (sp : span) ->
          emit
            (Printf.sprintf
               "{\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"name\": %s, \
                \"cat\": \"pathfuzz\", \"ts\": %s, \"dur\": %s, \"args\": \
                {\"arg\": %d}}"
               tid
               (Snapshot.json_string (kind_name sp.kind))
               (usec sp.t0) (usec sp.dur) sp.arg))
        (spans t ~track:tid))
    t.tracks;
  output_string oc "\n]}\n"
