(** Post-campaign measurement utilities: the afl-showmap analogue used by
    the coverage study (Table IV) and the queue-trimming primitives shared
    by the culling and opportunistic strategies. Each helper builds one
    pooled execution context and replays every input through it. *)

module Int_set = Set.Make (Int)

let make_hooks (fb : Pathcov.Feedback.t) : Vm.Interp.hooks =
  {
    Vm.Interp.no_hooks with
    h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
  }

(* One reusable replay context per (prepared program, feedback) pair. *)
let make_ctx prepared fb =
  Vm.Interp.create_ctx ~hooks:(make_hooks fb) prepared

(* Replay [input] under [fb] through [ctx], returning the raw trace
   indices it hits (ascending array) and an afl-style cost (work x size).
   Replays are off-budget executions; [obs] only counts them. *)
let replay ?(fuel = Vm.Interp.default_fuel) ?obs ctx fb input =
  (match obs with
  | Some (o : Obs.Observer.t) -> o.counters.replays <- o.counters.replays + 1
  | None -> ());
  fb.Pathcov.Feedback.reset ();
  Pathcov.Coverage_map.clear fb.trace;
  let out = Vm.Interp.run_ctx ~fuel ctx ~input in
  let idxs = Pathcov.Coverage_map.sorted_indices fb.trace in
  (idxs, out.blocks_executed * (String.length input + 16))

(** Union of edge coverage over a corpus — "afl-showmap over the queue". *)
let edge_union ?fuel ?obs prog (inputs : string list) : Int_set.t =
  let fb = Pathcov.Feedback.make Pathcov.Feedback.Edge prog in
  let ctx = make_ctx (Vm.Interp.prepare_cached prog) fb in
  List.fold_left
    (fun acc input ->
      Array.fold_left
        (fun acc i -> Int_set.add i acc)
        acc
        (fst (replay ?fuel ?obs ctx fb input)))
    Int_set.empty inputs

(* Greedy favored-corpus construction over an arbitrary feedback: keep,
   for every covered index, the cheapest input covering it. Order-stable. *)
let preserving_cull ?fuel ?obs prog fb (inputs : string list) : string list =
  let ctx = make_ctx (Vm.Interp.prepare_cached prog) fb in
  (* order-stable dedup: queue semantics never hold duplicates *)
  let seen = Hashtbl.create 64 in
  let inputs =
    List.filter
      (fun i ->
        if Hashtbl.mem seen i then false
        else begin
          Hashtbl.add seen i ();
          true
        end)
      inputs
  in
  let scored =
    List.map
      (fun input ->
        let idxs, cost = replay ?fuel ?obs ctx fb input in
        (input, idxs, cost))
      inputs
  in
  let top : (int, string * int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (input, idxs, cost) ->
      Array.iter
        (fun idx ->
          match Hashtbl.find_opt top idx with
          | Some (_, best) when best <= cost -> ()
          | _ -> Hashtbl.replace top idx (input, cost))
        idxs)
    scored;
  let keep = Hashtbl.create 256 in
  Hashtbl.iter (fun _ (input, _) -> Hashtbl.replace keep input ()) top;
  let kept = List.filter (fun i -> Hashtbl.mem keep i) inputs in
  (match obs with
  | Some (o : Obs.Observer.t) ->
      Obs.Observer.event o
        (Obs.Event.Cull
           {
             at_exec = o.counters.execs;
             before = List.length inputs;
             after = List.length kept;
           })
  | None -> ());
  kept

(** Greedy edge-coverage-preserving trim (the favored-corpus construction
    the paper uses as its culling criterion, §III-B1, and as the
    opportunistic queue pre-processing, §III-B2). *)
let edge_preserving_cull ?fuel ?obs prog (inputs : string list) : string list =
  preserving_cull ?fuel ?obs prog
    (Pathcov.Feedback.make Pathcov.Feedback.Edge prog)
    inputs

(** Same trim but preserving *path* coverage — the alternative culling
    criterion the paper tested and rejected (§III-B1 footnote). Exposed
    for the ablation bench. *)
let path_preserving_cull ?fuel ?plans ?obs prog (inputs : string list) : string list =
  preserving_cull ?fuel ?obs prog
    (Pathcov.Feedback.make ?plans Pathcov.Feedback.Path prog)
    inputs
