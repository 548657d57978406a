(** Post-campaign measurement utilities: the afl-showmap analogue used by
    the coverage study (Table IV) and the queue-trimming primitives shared
    by the culling and opportunistic strategies. Each helper wires one
    interpreter tracer ({!Tracer.attach}) and replays every input through
    its pooled context; {!path_counts} alone runs hooks of its own. *)

module Int_set = Set.Make (Int)

(* The listener of [mode] over [prog] and one reusable interpreter
   context driving it, wired by a tracer. *)
let replayer ?plans mode prog =
  Tracer.attach
    (Tracer.make ?plans ~engine:Tracer.Interp ~selective:false ~cmplog:false
       ~mode (Vm.Interp.prepare_cached prog))

(* Replay [inputs] under [fb] as one cohort through [ctx]: [f k idx
   cost] is called for every trace index [idx] input [k] hit, in
   first-hit order, with the input's afl-style cost (work x size). Both
   callers are order-insensitive, so nothing is sorted. Replays are
   off-budget executions; [obs] only counts them. *)
let replay ?(fuel = Vm.Interp.default_fuel) ?obs (fb, ctx) (inputs : string array)
    (f : int -> int -> int -> unit) : unit =
  Vm.Interp.run_batch ~fuel ctx ~n:(Array.length inputs)
    ~gen:(fun k ->
      (match obs with
      | Some (o : Obs.Observer.t) ->
          o.counters.replays <- o.counters.replays + 1
      | None -> ());
      fb.Pathcov.Feedback.reset ();
      Pathcov.Coverage_map.clear fb.trace;
      Vm.Interp.view inputs.(k))
    ~sink:(fun k out ->
      let cost = out.blocks_executed * (String.length inputs.(k) + 16) in
      let journal = Pathcov.Coverage_map.journal fb.trace in
      for j = 0 to Pathcov.Coverage_map.count_set fb.trace - 1 do
        f k journal.(j) cost
      done)

(** Union of edge coverage over a corpus — "afl-showmap over the queue". *)
let edge_union ?fuel ?obs prog (inputs : string list) : Int_set.t =
  let acc = ref Int_set.empty in
  replay ?fuel ?obs (replayer Pathcov.Feedback.Edge prog) (Array.of_list inputs)
    (fun _ idx _ ->
      acc := Int_set.add idx !acc);
  !acc

(* Greedy favored-corpus construction over an arbitrary feedback: keep,
   for every covered index, the cheapest input covering it. Order-stable. *)
let preserving_cull ?fuel ?plans ?obs mode prog (inputs : string list) :
    string list =
  let wired = replayer ?plans mode prog in
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
  let top : (int, string * int) Hashtbl.t = Hashtbl.create 1024 in
  let inputs_a = Array.of_list inputs in
  replay ?fuel ?obs wired inputs_a (fun k idx cost ->
      match Hashtbl.find_opt top idx with
      | Some (_, best) when best <= cost -> ()
      | _ -> Hashtbl.replace top idx (inputs_a.(k), cost));
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
  preserving_cull ?fuel ?obs Pathcov.Feedback.Edge prog inputs

(** Same trim but preserving *path* coverage — the alternative culling
    criterion the paper tested and rejected (§III-B1 footnote). Exposed
    for the ablation bench. *)
let path_preserving_cull ?fuel ?plans ?obs prog (inputs : string list) : string list =
  preserving_cull ?fuel ?plans ?obs Pathcov.Feedback.Path prog inputs

(** A classic Ball–Larus path profile: every committed acyclic path,
    counted per function by its id, over [inputs] run in order. A
    function's listing is sorted by count, then path id, so it does not
    depend on the count table's layout. *)
let path_counts (plans : Pathcov.Ball_larus.program_plans)
    (prog : Minic.Ir.program) (inputs : string list) :
    Vm.Interp.status list * (int * int) list array =
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let regs = ref [] in
  let bump fid pid =
    let k = (fid, pid) in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let hooks =
    {
      Vm.Interp.no_hooks with
      h_call = (fun _ -> regs := 0 :: !regs);
      h_edge =
        (fun fid src dst ->
          match Pathcov.Ball_larus.on_edge plans.plans.(fid) ~src ~dst with
          | None -> ()
          | Some (Pathcov.Ball_larus.Add k) -> begin
              match !regs with [] -> () | r :: rest -> regs := (r + k) :: rest
            end
          | Some (Pathcov.Ball_larus.Commit_back { add; reset }) -> begin
              match !regs with
              | [] -> ()
              | r :: rest ->
                  bump fid (r + add);
                  regs := reset :: rest
            end);
      h_ret =
        (fun fid block ->
          match !regs with
          | [] -> ()
          | r :: rest ->
              bump fid (r + Pathcov.Ball_larus.on_ret plans.plans.(fid) ~block);
              regs := rest);
    }
  in
  let docs = Array.of_list inputs in
  let statuses = Array.make (Array.length docs) Vm.Interp.Hung in
  Vm.Interp.run_batch
    (Vm.Interp.create_ctx ~hooks (Vm.Interp.prepare prog))
    ~n:(Array.length docs)
    ~gen:(fun k -> Vm.Interp.view docs.(k))
    ~sink:(fun k out -> statuses.(k) <- out.status);
  ( Array.to_list statuses,
    Array.mapi
      (fun fid _ ->
        Hashtbl.fold
          (fun (fid', pid) n acc -> if fid' = fid then (pid, n) :: acc else acc)
          counts []
        |> List.sort (fun (p, a) (q, b) ->
               if a <> b then compare b a else compare p q))
      prog.funcs )
