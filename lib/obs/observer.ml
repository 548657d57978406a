(** The campaign observer: one counter block, one snapshot log, one
    event sink, and an optional wall clock, threaded through
    [Fuzz.Campaign], [Fuzz.Triage], [Fuzz.Measure] and [Exec.Pool].

    The contract (the zero-perturbation rule, DESIGN.md §7):

    - observers never consume RNG draws;
    - fuzzing decisions never branch on observer state;
    - hot-path cost is limited to unconditional int/float stores into
      the preallocated {!Counters.t} block.

    A campaign observed through a null sink, a memory ring or a JSONL
    writer therefore runs the exact same trajectory as an unobserved
    one — test-enforced byte-for-byte over final queues, triage and
    snapshots.

    One observer may outlive one campaign: multi-phase strategies
    (culling rounds, the opportunistic driver) and benches thread the
    same observer through every phase, so counters and snapshots
    accumulate monotonically while each [Campaign.run] reports its own
    deltas. *)

type t = {
  counters : Counters.t;
  metrics : Metrics.t;
      (** engine-metrics registry (compile cache, rollbacks, barrier
          waits, checkpoint costs); always present — an unused registry
          is a few empty arrays *)
  sink : Sink.t;
  clock : (unit -> float) option;
      (** enables the vm/mutator wall split; [None] costs nothing *)
  trace : Trace.t option;
      (** span flight recorder; [None] (the default) costs nothing *)
  mutable snapshots : Snapshot.row array;  (** slots [0, n_snapshots) *)
  mutable n_snapshots : int;
}

let create ?clock ?metrics ?trace ?(sink = Sink.null) () : t =
  {
    counters = Counters.create ();
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    sink;
    clock;
    trace;
    snapshots = [||];
    n_snapshots = 0;
  }

(** A fresh counters-only observer — what [Campaign.run] uses when the
    caller passes none. *)
let null () : t = create ()

(** Emit one event (cold paths only). *)
let event (o : t) (e : Event.t) : unit = o.sink.emit e

(** Append a snapshot row and emit it as an event. *)
let snapshot (o : t) (row : Snapshot.row) : unit =
  if o.n_snapshots = Array.length o.snapshots then begin
    let bigger = Array.make (max 16 (2 * o.n_snapshots)) row in
    Array.blit o.snapshots 0 bigger 0 o.n_snapshots;
    o.snapshots <- bigger
  end;
  o.snapshots.(o.n_snapshots) <- row;
  o.n_snapshots <- o.n_snapshots + 1;
  o.sink.emit (Event.Snapshot row)

(** Append already-recorded rows without emitting sink events — the
    checkpoint-restore half of {!snapshot}: a resumed campaign reloads
    the snapshot trajectory captured before the interruption so its
    final report carries the whole run's rows, while the sink (status
    lines, JSONL) only sees what happens after the resume. *)
let preload_snapshots (o : t) (rows : Snapshot.row list) : unit =
  List.iter
    (fun row ->
      if o.n_snapshots = Array.length o.snapshots then begin
        let bigger = Array.make (max 16 (2 * o.n_snapshots)) row in
        Array.blit o.snapshots 0 bigger 0 o.n_snapshots;
        o.snapshots <- bigger
      end;
      o.snapshots.(o.n_snapshots) <- row;
      o.n_snapshots <- o.n_snapshots + 1)
    rows

(** Snapshot rows recorded so far, oldest first. *)
let snapshots (o : t) : Snapshot.row list =
  List.init o.n_snapshots (fun i -> o.snapshots.(i))

(** Rows recorded at positions [>= from] — a campaign's own slice when
    the observer is shared across phases. *)
let snapshots_from (o : t) ~(from : int) : Snapshot.row list =
  List.init
    (max 0 (o.n_snapshots - from))
    (fun i -> o.snapshots.(from + i))
