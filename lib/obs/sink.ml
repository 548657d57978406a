(** Pluggable event sinks.

    A sink is just an [emit] function in a record. The stock sinks:

    - {!null}: drops everything (the default observer — campaigns pay
      only counter stores);
    - {!ring}: a preallocated ring buffer retaining the last [capacity]
      events in memory ([pathfuzz stats]);
    - {!jsonl}: one JSON object per line on an [out_channel];
    - {!status}: human status lines for snapshot events only (the
      [pathfuzz fuzz --stats] monitor);
    - {!tee}: fan one event stream out to two sinks;
    - {!locked}: mutex-wrap a sink so multiple domains can share it
      (the {!Exec.Pool} trial events). *)

type t = { emit : Event.t -> unit }

let null : t = { emit = ignore }

let make emit : t = { emit }

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

type ring = {
  buf : Event.t option array;  (** slots, oldest overwritten first *)
  mutable next : int;  (** next write position *)
  mutable total : int;  (** events ever emitted *)
}

let create_ring ?(capacity = 4096) () : ring =
  if capacity < 1 then invalid_arg "Sink.create_ring: capacity < 1";
  { buf = Array.make capacity None; next = 0; total = 0 }

let ring (r : ring) : t =
  {
    emit =
      (fun e ->
        r.buf.(r.next) <- Some e;
        r.next <- (r.next + 1) mod Array.length r.buf;
        r.total <- r.total + 1);
  }

(** Retained events, oldest first. *)
let ring_events (r : ring) : Event.t list =
  let cap = Array.length r.buf in
  let n = min r.total cap in
  let start = (r.next - n + cap) mod cap in
  List.init n (fun i ->
      match r.buf.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

(** Events emitted over the ring's lifetime (retained or overwritten). *)
let ring_total (r : ring) : int = r.total

(** Events lost to capacity. *)
let ring_dropped (r : ring) : int = max 0 (r.total - Array.length r.buf)

(* ------------------------------------------------------------------ *)
(* Writers *)

(** JSONL writer. The channel is the caller's to flush and close. *)
let jsonl (oc : out_channel) : t =
  {
    emit =
      (fun e ->
        output_string oc (Event.to_jsonl e);
        output_char oc '\n');
  }

(** Status-line writer: renders snapshot events through [print] (e.g.
    [prerr_endline]) and ignores everything else — periodic monitor
    output without per-event noise. *)
let status (print : string -> unit) : t =
  {
    emit =
      (fun e ->
        match e with
        | Event.Snapshot row -> print ("[stats] " ^ Snapshot.to_status row)
        | _ -> ());
  }

let tee (a : t) (b : t) : t =
  {
    emit =
      (fun e ->
        a.emit e;
        b.emit e);
  }

(** Serialize a sink shared across domains. *)
let locked (s : t) : t =
  let m = Mutex.create () in
  let guard f x =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f x)
  in
  { emit = guard s.emit }
