(** Generators for every table and figure of the paper's evaluation.
    Each function renders the same rows/series the paper reports, derived
    from one shared run matrix (see DESIGN.md §3 for the index). *)

open Fuzz.Stats

let subj_names (m : Runner.matrix) =
  List.map (fun (s : Subjects.Subject.t) -> s.name) m.subjects

let bugs m ~subject ~fuzzer = Runner.cumulative_bugs (Runner.cell m ~subject ~fuzzer)

(* ------------------------------------------------------------------ *)
(* Table I: subject statistics — functions and queue items, edge vs path
   (the paper measures this after a 24-hour run; ours uses the same full
   campaigns as the other tables). *)

let table1 (m : Runner.matrix) : string =
  let rows =
    List.map
      (fun (s : Subjects.Subject.t) ->
        let q fuzzer =
          Render.f1 (Runner.median_queue (Runner.cell m ~subject:s.name ~fuzzer))
        in
        [ s.name; Render.i (Subjects.Subject.num_functions s); q "pcguard"; q "path" ])
      m.subjects
  in
  Render.table ~title:"Table I: subject statistics (queue items, edge vs path feedback)"
    ~header:[ "Benchmark"; "Functions"; "Queue (edge)"; "Queue (path)" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Table II: cumulative unique bugs (and unique crashes) per fuzzer, plus
   the pairwise set comparisons of the paper's columns. *)

let table2 (m : Runner.matrix) : string =
  let fuzzers = [ "path"; "pcguard"; "cull"; "opp" ] in
  let totals = Hashtbl.create 16 in
  let add key v =
    Hashtbl.replace totals key (v + Option.value ~default:0 (Hashtbl.find_opt totals key))
  in
  let rows =
    List.map
      (fun subject ->
        let b f = bugs m ~subject ~fuzzer:f in
        let crashes f =
          Runner.cumulative_unique_crashes (Runner.cell m ~subject ~fuzzer:f)
        in
        let count f =
          let n = Bug_set.cardinal (b f) in
          add f n;
          add (f ^ "#cr") (crashes f);
          Printf.sprintf "%d (%d)" n (crashes f)
        in
        let pair name v =
          add name v;
          Render.i v
        in
        [ subject ]
        @ List.map count fuzzers
        @ [
            pair "path^pcguard" (inter (b "path") (b "pcguard"));
            pair "cull^pcguard" (inter (b "cull") (b "pcguard"));
            pair "opp^pcguard" (inter (b "opp") (b "pcguard"));
            pair "opp^cull" (inter (b "opp") (b "cull"));
            pair "path\\pcguard" (diff (b "path") (b "pcguard"));
            pair "pcguard\\path" (diff (b "pcguard") (b "path"));
            pair "cull\\pcguard" (diff (b "cull") (b "pcguard"));
            pair "pcguard\\cull" (diff (b "pcguard") (b "cull"));
            pair "opp\\pcguard" (diff (b "opp") (b "pcguard"));
            pair "pcguard\\opp" (diff (b "pcguard") (b "opp"));
            pair "opp\\cull" (diff (b "opp") (b "cull"));
            pair "cull\\opp" (diff (b "cull") (b "opp"));
          ])
      (subj_names m)
  in
  let total_row =
    [ "TOTAL" ]
    @ List.map
        (fun f ->
          Printf.sprintf "%d (%d)"
            (Option.value ~default:0 (Hashtbl.find_opt totals f))
            (Option.value ~default:0 (Hashtbl.find_opt totals (f ^ "#cr"))))
        fuzzers
    @ List.map
        (fun k -> Render.i (Option.value ~default:0 (Hashtbl.find_opt totals k)))
        [
          "path^pcguard"; "cull^pcguard"; "opp^pcguard"; "opp^cull";
          "path\\pcguard"; "pcguard\\path"; "cull\\pcguard"; "pcguard\\cull";
          "opp\\pcguard"; "pcguard\\opp"; "opp\\cull"; "cull\\opp";
        ]
  in
  Render.table
    ~title:
      "Table II: unique bugs (unique crashes) cumulatively across trials, with \
       pairwise intersections and differences"
    ~header:
      [
        "Benchmark"; "path"; "pcguard"; "cull"; "opp"; "pa^pc"; "cu^pc"; "op^pc";
        "op^cu"; "pa\\pc"; "pc\\pa"; "cu\\pc"; "pc\\cu"; "op\\pc"; "pc\\op";
        "op\\cu"; "cu\\op";
      ]
    ~rows:(rows @ [ total_row ])

(* ------------------------------------------------------------------ *)
(* Figure 3: Venn regions for unique bugs across all benchmarks. *)

let union_all m fuzzer =
  List.fold_left
    (fun acc subject -> Bug_set.union acc (bugs m ~subject ~fuzzer))
    Bug_set.empty (subj_names m)

let fig3_venn (m : Runner.matrix) : string =
  let path = union_all m "path" in
  let pcguard = union_all m "pcguard" in
  let cull = union_all m "cull" in
  let opp = union_all m "opp" in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "\nFigure 3: Venn regions for unique bugs (all benchmarks)\n";
  Buffer.add_string buf "--------------------------------------------------------\n";
  let v2 name a b (sa, sb) =
    let only_a, only_b, both = venn2 a b in
    Buffer.add_string buf
      (Printf.sprintf "%-22s %s-only=%d  both=%d  %s-only=%d\n" name sa only_a both
         sb only_b)
  in
  v2 "path vs pcguard" path pcguard ("path", "pcguard");
  v2 "cull vs pcguard" cull pcguard ("cull", "pcguard");
  v2 "opp vs pcguard" opp pcguard ("opp", "pcguard");
  let oa, ob, oc, ab, ac, bc, abc = venn3 path cull opp in
  Buffer.add_string buf
    (Printf.sprintf
       "path/cull/opp          path-only=%d cull-only=%d opp-only=%d \
        path&cull=%d path&opp=%d cull&opp=%d all=%d\n"
       oa ob oc ab ac bc abc);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table III: median queue sizes and ratios vs pcguard, with geomean. *)

let table3 (m : Runner.matrix) : string =
  let ratios = Hashtbl.create 8 in
  let rows =
    List.map
      (fun subject ->
        let q f = Runner.median_queue (Runner.cell m ~subject ~fuzzer:f) in
        let base = q "pcguard" in
        let ratio f =
          let r = if base > 0. then q f /. base else nan in
          Hashtbl.add ratios f r;
          Render.f2 r
        in
        [
          subject;
          Render.f1 (q "path");
          Render.f1 base;
          Render.f1 (q "cull");
          Render.f1 (q "opp");
          ratio "path";
          ratio "cull";
          ratio "opp";
        ])
      (subj_names m)
  in
  let geo f = Render.f2 (geomean (Hashtbl.find_all ratios f)) in
  let total = [ "GEOMEAN"; ""; ""; ""; ""; geo "path"; geo "cull"; geo "opp" ] in
  Render.table ~title:"Table III: median queue sizes and ratios vs pcguard"
    ~header:
      [
        "Benchmark"; "path"; "pcguard"; "cull"; "opp"; "path/pc"; "cull/pc"; "opp/pc";
      ]
    ~rows:(rows @ [ total ])

(* ------------------------------------------------------------------ *)
(* Table IV: cumulative edge coverage and set subtractions vs pcguard. *)

let table4 (m : Runner.matrix) : string =
  let totals = Array.make 7 0 in
  let rows =
    List.map
      (fun subject ->
        let e f = Runner.cumulative_edges (Runner.cell m ~subject ~fuzzer:f) in
        let path = e "path" and pcguard = e "pcguard" in
        let cull = e "cull" and opp = e "opp" in
        let module S = Fuzz.Measure.Int_set in
        let vals =
          [
            S.cardinal path;
            S.cardinal pcguard;
            S.cardinal cull;
            S.cardinal opp;
            S.cardinal (S.diff path pcguard);
            S.cardinal (S.diff cull pcguard);
            S.cardinal (S.diff opp pcguard);
          ]
        in
        List.iteri (fun i v -> totals.(i) <- totals.(i) + v) vals;
        subject :: List.map Render.i vals)
      (subj_names m)
  in
  let total_row = "TOTAL" :: List.map Render.i (Array.to_list totals) in
  Render.table
    ~title:"Table IV: edge coverage attained cumulatively, with set subtractions"
    ~header:
      [
        "Benchmark"; "path"; "pcguard"; "cull"; "opp"; "path\\pc"; "cull\\pc";
        "opp\\pc";
      ]
    ~rows:(rows @ [ total_row ])

(* ------------------------------------------------------------------ *)
(* Table V (Appendix A): seed-corpus processing cost under edge vs path
   instrumentation, like the paper's calibration experiment; the corpus is
   a short pcguard campaign's final queue. An earlier version measured
   real CPU time here, which made [Tables.all] non-reproducible (the one
   table that differed run to run, and between --jobs settings). Instead
   we replay the corpus once and charge each listener the VM events it
   actually processes: the edge listener performs one map update per block
   transition, while the path listener pays an activation push per call, a
   Ball-Larus plan lookup per CFG edge, and a path commit per return. The
   ratio is a deterministic proxy for instrumentation overhead. *)

let table5 (m : Runner.matrix) : string =
  let ratios = ref [] in
  let rows =
    List.map
      (fun (s : Subjects.Subject.t) ->
        let prog = Subjects.Subject.program s in
        let prepared = Vm.Interp.prepare prog in
        let cell = Runner.cell m ~subject:s.name ~fuzzer:"pcguard" in
        let corpus =
          Array.of_list
            (match cell.runs with
            | r :: _ -> s.seeds @ r.final_queue
            | [] -> s.seeds)
        in
        let blocks = ref 0 and edges = ref 0 and acts = ref 0 in
        let hooks =
          {
            Vm.Interp.no_hooks with
            h_call = (fun _ -> incr acts);
            h_block = (fun _ _ -> incr blocks);
            h_edge = (fun _ _ _ -> incr edges);
            h_ret = (fun _ _ -> incr acts);
          }
        in
        Vm.Interp.run_batch
          (Vm.Interp.create_ctx ~hooks prepared)
          ~n:(Array.length corpus)
          ~gen:(fun k -> Vm.Interp.view corpus.(k))
          ~sink:(fun _ _ -> ());
        let c_edge = !blocks in
        let c_path = !edges + !acts in
        let ratio =
          if c_edge > 0 then float_of_int c_path /. float_of_int c_edge
          else nan
        in
        ratios := ratio :: !ratios;
        [ s.name; Render.i c_edge; Render.i c_path; Render.f2 ratio ])
      m.subjects
  in
  let total = [ "GEOMEAN"; ""; ""; Render.f2 (geomean !ratios) ] in
  Render.table
    ~title:
      "Table V (Appendix A): queue processing cost (probe events), pcguard \
       vs path instrumentation"
    ~header:[ "Benchmark"; "pcguard"; "path"; "path/pcguard" ]
    ~rows:(rows @ [ total ])

(* ------------------------------------------------------------------ *)
(* Table VI (Appendix B): median unique bugs per fuzzer + pairwise medians. *)

let table6 (m : Runner.matrix) : string =
  let fuzzers = [ "path"; "pcguard"; "cull"; "opp" ] in
  let med l = Fuzz.Stats.median_int l in
  let rows =
    List.map
      (fun subject ->
        let per f = Runner.per_trial_bugs (Runner.cell m ~subject ~fuzzer:f) in
        let m_of f =
          Render.f1 (med (List.map Bug_set.cardinal (per f)))
        in
        (* median of per-trial pairwise values, pairing trial i with trial i *)
        let pairwise op a b =
          let la = per a and lb = per b in
          Render.f1 (med (List.map2 (fun x y -> op x y) la lb))
        in
        [ subject ]
        @ List.map m_of fuzzers
        @ [
            pairwise inter "path" "pcguard";
            pairwise inter "cull" "pcguard";
            pairwise inter "opp" "pcguard";
            pairwise diff "path" "pcguard";
            pairwise diff "pcguard" "path";
            pairwise diff "cull" "pcguard";
            pairwise diff "opp" "pcguard";
          ])
      (subj_names m)
  in
  Render.table
    ~title:"Table VI (Appendix B): median unique bugs across trials"
    ~header:
      [
        "Benchmark"; "path"; "pcguard"; "cull"; "opp"; "pa^pc"; "cu^pc"; "op^pc";
        "pa\\pc"; "pc\\pa"; "cu\\pc"; "op\\pc";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Table VII (Appendix C): our path-aware fuzzers vs PathAFL. *)

let table7 (m : Runner.matrix) : string =
  let totals = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace totals k (v + Option.value ~default:0 (Hashtbl.find_opt totals k))
  in
  let rows =
    List.map
      (fun subject ->
        let b f = bugs m ~subject ~fuzzer:f in
        let count f =
          let n = Bug_set.cardinal (b f) in
          add f n;
          Render.i n
        in
        let pair k v = add k v; Render.i v in
        [ subject ]
        @ List.map count [ "path"; "pathafl"; "cull"; "opp" ]
        @ [
            pair "path^pathafl" (inter (b "path") (b "pathafl"));
            pair "cull^pathafl" (inter (b "cull") (b "pathafl"));
            pair "opp^pathafl" (inter (b "opp") (b "pathafl"));
            pair "path\\pathafl" (diff (b "path") (b "pathafl"));
            pair "pathafl\\path" (diff (b "pathafl") (b "path"));
            pair "cull\\pathafl" (diff (b "cull") (b "pathafl"));
            pair "pathafl\\cull" (diff (b "pathafl") (b "cull"));
            pair "opp\\pathafl" (diff (b "opp") (b "pathafl"));
            pair "pathafl\\opp" (diff (b "pathafl") (b "opp"));
          ])
      (subj_names m)
  in
  let total_row =
    [ "TOTAL" ]
    @ List.map
        (fun k -> Render.i (Option.value ~default:0 (Hashtbl.find_opt totals k)))
        [
          "path"; "pathafl"; "cull"; "opp"; "path^pathafl"; "cull^pathafl";
          "opp^pathafl"; "path\\pathafl"; "pathafl\\path"; "cull\\pathafl";
          "pathafl\\cull"; "opp\\pathafl"; "pathafl\\opp";
        ]
  in
  Render.table ~title:"Table VII (Appendix C): unique bugs, ours vs PathAFL"
    ~header:
      [
        "Benchmark"; "path"; "pathafl"; "cull"; "opp"; "pa^pf"; "cu^pf"; "op^pf";
        "pa\\pf"; "pf\\pa"; "cu\\pf"; "pf\\cu"; "op\\pf"; "pf\\op";
      ]
    ~rows:(rows @ [ total_row ])

(* ------------------------------------------------------------------ *)
(* Table VIII: PathAFL vs AFL unique bugs. *)

let table8 (m : Runner.matrix) : string =
  let t_pf = ref 0 and t_afl = ref 0 and t_i = ref 0 and t_d1 = ref 0 and t_d2 = ref 0 in
  let rows =
    List.map
      (fun subject ->
        let pf = bugs m ~subject ~fuzzer:"pathafl" in
        let afl = bugs m ~subject ~fuzzer:"afl" in
        let i = inter pf afl and d1 = diff pf afl and d2 = diff afl pf in
        t_pf := !t_pf + Bug_set.cardinal pf;
        t_afl := !t_afl + Bug_set.cardinal afl;
        t_i := !t_i + i;
        t_d1 := !t_d1 + d1;
        t_d2 := !t_d2 + d2;
        [
          subject;
          Render.i (Bug_set.cardinal pf);
          Render.i (Bug_set.cardinal afl);
          Render.i i;
          Render.i d1;
          Render.i d2;
        ])
      (subj_names m)
  in
  let total =
    [ "TOTAL"; Render.i !t_pf; Render.i !t_afl; Render.i !t_i; Render.i !t_d1;
      Render.i !t_d2 ]
  in
  Render.table ~title:"Table VIII (Appendix C): unique bugs, PathAFL vs AFL"
    ~header:
      [ "Benchmark"; "pathafl"; "afl"; "pathafl^afl"; "pathafl\\afl"; "afl\\pathafl" ]
    ~rows:(rows @ [ total ])

(* ------------------------------------------------------------------ *)
(* Table IX: crashes and unique crashes, PathAFL vs AFL, under both
   deduplication notions (AFL's coverage-novelty and stack-hash top-5). *)

let table9 (m : Runner.matrix) : string =
  let sums = Array.make 4 0 in
  let rows =
    List.map
      (fun subject ->
        let c f = Runner.cell m ~subject ~fuzzer:f in
        let vals =
          [
            Runner.afl_unique_crashes (c "pathafl");
            Runner.cumulative_unique_crashes (c "pathafl");
            Runner.afl_unique_crashes (c "afl");
            Runner.cumulative_unique_crashes (c "afl");
          ]
        in
        List.iteri (fun i v -> sums.(i) <- sums.(i) + v) vals;
        subject :: List.map Render.i vals)
      (subj_names m)
  in
  let total = "TOTAL" :: List.map Render.i (Array.to_list sums) in
  Render.table
    ~title:
      "Table IX (Appendix C): crash dedup notions — AFL coverage-novel \
       crashes vs stack-hash unique crashes"
    ~header:
      [
        "Benchmark"; "pathafl (afl-uniq)"; "pathafl (stack5)"; "afl (afl-uniq)";
        "afl (stack5)";
      ]
    ~rows:(rows @ [ total ])

(* ------------------------------------------------------------------ *)
(* Table X (Appendix D): random-culling ablation. *)

let table10 (m : Runner.matrix) : string =
  let totals = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace totals k (v + Option.value ~default:0 (Hashtbl.find_opt totals k))
  in
  let rows =
    List.map
      (fun subject ->
        let b f = bugs m ~subject ~fuzzer:f in
        let count f =
          let n = Bug_set.cardinal (b f) in
          add f n;
          Render.i n
        in
        let pair k v = add k v; Render.i v in
        [ subject ]
        @ List.map count [ "path"; "cull_r"; "cull" ]
        @ [
            pair "path^cull_r" (inter (b "path") (b "cull_r"));
            pair "cull^cull_r" (inter (b "cull") (b "cull_r"));
            pair "path\\cull_r" (diff (b "path") (b "cull_r"));
            pair "cull_r\\path" (diff (b "cull_r") (b "path"));
            pair "cull\\cull_r" (diff (b "cull") (b "cull_r"));
            pair "cull_r\\cull" (diff (b "cull_r") (b "cull"));
          ])
      (subj_names m)
  in
  let total_row =
    [ "TOTAL" ]
    @ List.map
        (fun k -> Render.i (Option.value ~default:0 (Hashtbl.find_opt totals k)))
        [
          "path"; "cull_r"; "cull"; "path^cull_r"; "cull^cull_r"; "path\\cull_r";
          "cull_r\\path"; "cull\\cull_r"; "cull_r\\cull";
        ]
  in
  Render.table ~title:"Table X (Appendix D): culling-with-random-selection ablation"
    ~header:
      [
        "Benchmark"; "path"; "cull_r"; "cull"; "pa^cr"; "cu^cr"; "pa\\cr";
        "cr\\pa"; "cu\\cr"; "cr\\cu";
      ]
    ~rows:(rows @ [ total_row ])

(* ------------------------------------------------------------------ *)
(* Figure 1: the motivating example's CFG with Ball-Larus increments. *)

let fig1 () : string =
  let prog = Subjects.Subject.program Subjects.Motivating.subject in
  let foo = Minic.Ir.func_exn prog "foo" in
  let plan = Pathcov.Ball_larus.of_func foo in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "\nFigure 1: motivating example, path identification machinery\n";
  Buffer.add_string buf "------------------------------------------------------------\n";
  Buffer.add_string buf (Fmt.str "%a\n" Minic.Pretty.pp_func foo);
  Buffer.add_string buf
    (Printf.sprintf "\nacyclic paths: %d, instrumented transitions (probes): %d\n"
       plan.num_paths plan.probes);
  Buffer.add_string buf "edge increments (Ball-Larus values on DAG edges):\n";
  Array.iter
    (fun (e : Pathcov.Ball_larus.edge) ->
      if e.kind <> Pathcov.Ball_larus.Back && e.value <> 0 then
        Buffer.add_string buf
          (Printf.sprintf "  L%d -> %s : +%d\n" e.src
             (if e.dst = plan.nblocks then "EXIT" else "L" ^ string_of_int e.dst)
             e.value))
    plan.edges;
  Buffer.add_string buf "\npath id -> block sequence:\n";
  List.iter
    (fun (id, nodes) ->
      Buffer.add_string buf
        (Printf.sprintf "  %d: %s\n" id
           (String.concat " -> "
              (List.map
                 (fun n -> if n = plan.nblocks then "EXIT" else "L" ^ string_of_int n)
                 nodes))))
    (Pathcov.Ball_larus.enumerate plan);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 2: queue growth over time per technique, on one subject. *)

let fig2_series ?(subject = "gdk") (m : Runner.matrix) : string =
  (* Partial matrices (tests, ad-hoc runs) may not contain the paper's
     showcase subject; fall back to the first subject present. *)
  let subject =
    if
      List.exists
        (fun (s : Subjects.Subject.t) -> s.name = subject)
        m.subjects
    then subject
    else
      match m.subjects with s :: _ -> s.name | [] -> subject
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "\nFigure 2: queue size over time (%s, trial 1) — execs: queue per \
        technique\n"
       subject);
  Buffer.add_string buf "----------------------------------------------------------\n";
  List.iter
    (fun fuzzer ->
      match (Runner.cell m ~subject ~fuzzer).runs with
      | r :: _ ->
          Buffer.add_string buf (Printf.sprintf "%-8s " fuzzer);
          List.iter
            (fun (x, q) -> Buffer.add_string buf (Printf.sprintf "%d:%d " x q))
            r.queue_series;
          Buffer.add_char buf '\n'
      | [] -> ())
    [ "path"; "pcguard"; "cull"; "opp" ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

(** Render everything, in paper order. *)
let all (m : Runner.matrix) : string =
  String.concat "\n"
    [
      fig1 ();
      table1 m;
      table2 m;
      fig3_venn m;
      table3 m;
      table4 m;
      table5 m;
      table6 m;
      table7 m;
      table8 m;
      table9 m;
      table10 m;
      fig2_series m;
    ]
