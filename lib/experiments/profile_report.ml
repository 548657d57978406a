(** Rendering for [pathfuzz profile]: the deep-introspection report over
    one campaign's span-trace aggregates, engine-metrics registry and
    counter block. Pure formatting — everything here reads data that was
    collected under the zero-perturbation rule (DESIGN §7/§14), so for a
    deterministic clock (or no clock at all) the rendered report is
    byte-deterministic and golden-testable. *)

(* Every span kind, in a fixed display order: the table shape never
   depends on which phases happened to fire. *)
let phase_kinds : Obs.Trace.kind list =
  [
    Obs.Trace.Compile;
    Obs.Trace.Plan;
    Obs.Trace.Mutate;
    Obs.Trace.Exec;
    Obs.Trace.Calibrate;
    Obs.Trace.Triage;
    Obs.Trace.Merge;
    Obs.Trace.Checkpoint;
    Obs.Trace.Epoch;
  ]

let wall (v : float) : string = Printf.sprintf "%.3f" v

(** Phase wall breakdown from the span aggregates, summed across all
    tracks (coordinator plus every shard). *)
let phase_table (tr : Obs.Trace.t) : string =
  let rows =
    List.map
      (fun k ->
        let n, s = Obs.Trace.agg_all tr k in
        [ Obs.Trace.kind_name k; string_of_int n; wall s ])
      phase_kinds
  in
  Render.table ~title:"Phase walls (span aggregates, all tracks)"
    ~header:[ "phase"; "spans"; "wall_s" ] ~rows

(** Per-shard utilization from the [shardN.busy_s]/[shardN.wait_s]
    walls the coordinator accumulates at each barrier. [None] for
    sequential (or single-shard) runs. *)
let shard_table (m : Obs.Metrics.t) ~(shards : int) : string option =
  if shards < 2 then None
  else
    let rows =
      List.init shards (fun s ->
          let busy =
            Obs.Metrics.wall_value m (Printf.sprintf "shard%d.busy_s" s)
          in
          let wait =
            Obs.Metrics.wall_value m (Printf.sprintf "shard%d.wait_s" s)
          in
          let util =
            if busy +. wait > 0. then 100. *. busy /. (busy +. wait) else 0.
          in
          [ string_of_int s; wall busy; wall wait; Printf.sprintf "%.1f" util ])
    in
    Some
      (Render.table ~title:"Shard utilization (epoch walls at barriers)"
         ~header:[ "shard"; "busy_s"; "wait_s"; "util%" ]
         ~rows)

(** The whole metrics registry, one row per instrument in registration
    order (the order is itself deterministic for a deterministic
    trajectory). *)
let metrics_table (m : Obs.Metrics.t) : string =
  let rows =
    List.map
      (fun name ->
        match Obs.Metrics.find m name with
        | Some (Obs.Metrics.Counter c) ->
            [ name; "counter"; string_of_int c.Obs.Metrics.c ]
        | Some (Obs.Metrics.Gauge g) ->
            [ name; "gauge"; string_of_int g.Obs.Metrics.g ]
        | Some (Obs.Metrics.Wall w) -> [ name; "wall"; wall w.Obs.Metrics.s ]
        | Some (Obs.Metrics.Hist h) ->
            [
              name;
              "hist";
              Printf.sprintf "n=%d sum=%d max=%d" h.Obs.Metrics.count
                h.Obs.Metrics.sum h.Obs.Metrics.max_v;
            ]
        | None -> [ name; "-"; "-" ])
      (Obs.Metrics.names m)
  in
  Render.table ~title:"Engine metrics (registration order)"
    ~header:[ "metric"; "kind"; "value" ]
    ~rows

(** Assemble the full report: phase walls (when the observer carries a
    trace), shard utilization (multi-shard runs), the metrics registry
    and the counter block. [with_wall] adds the vm/mut wall rows to the
    counters table (meaningful only for clocked runs). *)
let render ?(title = "pathfuzz profile") ?(with_wall = false) ~(shards : int)
    (obs : Obs.Observer.t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
  (match obs.Obs.Observer.trace with
  | Some tr -> Buffer.add_string buf (phase_table tr)
  | None -> ());
  (match shard_table obs.Obs.Observer.metrics ~shards with
  | Some t -> Buffer.add_string buf t
  | None -> ());
  Buffer.add_string buf (metrics_table obs.Obs.Observer.metrics);
  Buffer.add_string buf
    (Obs_render.counters_table ~with_wall obs.Obs.Observer.counters);
  Buffer.contents buf
