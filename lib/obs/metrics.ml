(** Typed engine-metrics registry.

    Counters, snapshots and events (PR 4) cover the fuzzing trajectory;
    this registry covers the *machinery underneath it*: compile-cache
    behaviour, superblock-fusion shape, bulk-burn rollbacks, batch
    cohort sizes, dirty-reset widths, shard barrier
    waits, checkpoint write costs. Instruments are registered by name on
    first use and kept in registration order, so every render and dump
    is deterministic for a deterministic trajectory.

    Four instrument kinds:

    - {!counter}: a monotone event count (merged by summing);
    - {!gauge}: a last-written or running-max level (merged by summing —
      gauges are only written coordinator-side, where there is exactly
      one writer, so the merge never actually combines two non-zero
      gauges);
    - {!wall}: a float seconds accumulator (merged by summing);
    - {!hist}: a fixed 64-bucket log2 histogram of non-negative ints
      (zero-allocation observe; merged bucket-wise).

    The zero-perturbation rule (DESIGN.md §7) extends to this registry:
    instruments are plain mutable records bumped with int/float stores,
    nothing here is read back by fuzzing decisions, and sharded
    campaigns aggregate shard-private registries into the coordinator's
    only at sync barriers, exactly like {!Counters.add_into}. *)

type counter = { mutable c : int }
type gauge = { mutable g : int }
type wall = { mutable s : float }

(** Log2 histogram: bucket 0 counts values [<= 0]; bucket [k >= 1]
    counts values in [\[2{^k-1}, 2{^k})]. 64 buckets cover every
    non-negative OCaml int. *)
type hist = {
  buckets : int array;  (** length 64 *)
  mutable count : int;
  mutable sum : int;
  mutable max_v : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Wall of wall
  | Hist of hist

type t = {
  index : (string, instrument) Hashtbl.t;
  mutable names : string array;  (** registration order; slots [0, n) *)
  mutable n : int;
}

let create () : t = { index = Hashtbl.create 64; names = [||]; n = 0 }

let register (t : t) (name : string) (i : instrument) : unit =
  Hashtbl.add t.index name i;
  if t.n = Array.length t.names then begin
    let bigger = Array.make (max 16 (2 * t.n)) name in
    Array.blit t.names 0 bigger 0 t.n;
    t.names <- bigger
  end;
  t.names.(t.n) <- name;
  t.n <- t.n + 1

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Wall _ -> "wall"
  | Hist _ -> "hist"

let mismatch name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, wanted a %s" name
       (kind_name got) want)

(* Get-or-create accessors: the returned record is the live instrument —
   callers hold on to it and bump fields directly, paying one Hashtbl
   probe per campaign, not per event. *)

let counter (t : t) (name : string) : counter =
  match Hashtbl.find_opt t.index name with
  | Some (Counter c) -> c
  | Some other -> mismatch name "counter" other
  | None ->
      let c = { c = 0 } in
      register t name (Counter c);
      c

let gauge (t : t) (name : string) : gauge =
  match Hashtbl.find_opt t.index name with
  | Some (Gauge g) -> g
  | Some other -> mismatch name "gauge" other
  | None ->
      let g = { g = 0 } in
      register t name (Gauge g);
      g

let wall (t : t) (name : string) : wall =
  match Hashtbl.find_opt t.index name with
  | Some (Wall w) -> w
  | Some other -> mismatch name "wall" other
  | None ->
      let w = { s = 0. } in
      register t name (Wall w);
      w

let hist (t : t) (name : string) : hist =
  match Hashtbl.find_opt t.index name with
  | Some (Hist h) -> h
  | Some other -> mismatch name "hist" other
  | None ->
      let h = { buckets = Array.make 64 0; count = 0; sum = 0; max_v = 0 } in
      register t name (Hist h);
      h

(* Bump helpers — all plain stores, no allocation. *)

let add (c : counter) (n : int) : unit = c.c <- c.c + n
let bump (c : counter) : unit = c.c <- c.c + 1
let set (g : gauge) (v : int) : unit = g.g <- v
let set_max (g : gauge) (v : int) : unit = if v > g.g then g.g <- v
let add_wall (w : wall) (s : float) : unit = w.s <- w.s +. s
let set_wall (w : wall) (s : float) : unit = w.s <- s

let bucket_of (v : int) : int =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    if !b > 63 then 63 else !b
  end

let observe (h : hist) (v : int) : unit =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v > h.max_v then h.max_v <- v

(* ------------------------------------------------------------------ *)
(* Readers *)

(** Registered names, registration order. *)
let names (t : t) : string list = List.init t.n (fun i -> t.names.(i))

let find (t : t) (name : string) : instrument option =
  Hashtbl.find_opt t.index name

(** Scalar readers return the zero of their kind when the instrument is
    absent or of another kind — report renderers stay total. *)

let counter_value (t : t) (name : string) : int =
  match Hashtbl.find_opt t.index name with Some (Counter c) -> c.c | _ -> 0

let gauge_value (t : t) (name : string) : int =
  match Hashtbl.find_opt t.index name with Some (Gauge g) -> g.g | _ -> 0

let wall_value (t : t) (name : string) : float =
  match Hashtbl.find_opt t.index name with Some (Wall w) -> w.s | _ -> 0.

(** [(count, sum, max)] of a histogram, [(0, 0, 0)] when absent. *)
let hist_stats (t : t) (name : string) : int * int * int =
  match Hashtbl.find_opt t.index name with
  | Some (Hist h) -> (h.count, h.sum, h.max_v)
  | _ -> (0, 0, 0)

(* ------------------------------------------------------------------ *)
(* Aggregation *)

(** Fold [src] into [into] by name, creating missing instruments in
    [src]'s registration order — the {!Counters.add_into} analogue for
    shard-private registries drained at sync barriers. Every kind merges
    by summing (histograms bucket-wise, max by max); a name registered
    with different kinds on the two sides is a programming error. *)
let add_into ~(into : t) (src : t) : unit =
  for i = 0 to src.n - 1 do
    let name = src.names.(i) in
    match Hashtbl.find src.index name with
    | Counter c -> add (counter into name) c.c
    | Gauge g ->
        let dst = gauge into name in
        dst.g <- dst.g + g.g
    | Wall w -> add_wall (wall into name) w.s
    | Hist h ->
        let dst = hist into name in
        for b = 0 to 63 do
          dst.buckets.(b) <- dst.buckets.(b) + h.buckets.(b)
        done;
        dst.count <- dst.count + h.count;
        dst.sum <- dst.sum + h.sum;
        if h.max_v > dst.max_v then dst.max_v <- h.max_v
  done

(** Zero every instrument in place (registrations survive — the
    registry keeps its deterministic name order across barriers). *)
let reset (t : t) : unit =
  for i = 0 to t.n - 1 do
    match Hashtbl.find t.index t.names.(i) with
    | Counter c -> c.c <- 0
    | Gauge g -> g.g <- 0
    | Wall w -> w.s <- 0.
    | Hist h ->
        Array.fill h.buckets 0 64 0;
        h.count <- 0;
        h.sum <- 0;
        h.max_v <- 0
  done

(* ------------------------------------------------------------------ *)
(* Dumps *)

let hist_to_json (h : hist) : string =
  let last = ref (-1) in
  for b = 0 to 63 do
    if h.buckets.(b) > 0 then last := b
  done;
  let buckets =
    if !last < 0 then "[]"
    else begin
      let buf = Buffer.create 64 in
      Buffer.add_char buf '[';
      for b = 0 to !last do
        if b > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (string_of_int h.buckets.(b))
      done;
      Buffer.add_char buf ']';
      Buffer.contents buf
    end
  in
  Printf.sprintf "{\"count\": %d, \"sum\": %d, \"max\": %d, \"buckets\": %s}"
    h.count h.sum h.max_v buckets

(** One JSON object, fields in registration order (no trailing
    newline) — the [fuzz --metrics FILE] payload. *)
let to_json (t : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  for i = 0 to t.n - 1 do
    let name = t.names.(i) in
    if i > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Snapshot.json_string name);
    Buffer.add_string buf ": ";
    (match Hashtbl.find t.index name with
    | Counter c -> Buffer.add_string buf (string_of_int c.c)
    | Gauge g -> Buffer.add_string buf (string_of_int g.g)
    | Wall w -> Buffer.add_string buf (Snapshot.json_float w.s)
    | Hist h -> Buffer.add_string buf (hist_to_json h))
  done;
  Buffer.add_char buf '}';
  Buffer.contents buf
