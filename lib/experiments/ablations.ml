(** The ablation studies called out in DESIGN.md §4, complementing the
    paper's Appendix D:

    - the feedback *sensitivity ladder* (§VII: block ⊂ edge ⊂ n-gram ⊂
      acyclic paths) compared on bug finding and queue size;
    - the *culling criterion* (edge-preserving vs path-preserving vs
      random — the §III-B1 footnote says edges win);
    - the culling *round count* (the paper's footnote 2 sensitivity study
      on round duration: too-long rounds are detrimental).

    Each study is one {!Runner.run} over its subjects and fuzzers at half
    the matrix budget and two trials fewer, so it fans out over the same
    worker domains and engine as the paper's matrix. *)

type study = {
  title : string;
  subjects : string list;
  columns : (string * Fuzz.Strategy.fuzzer) list;  (** header, fuzzer *)
}

let studies (cfg : Config.t) : study list =
  let open Fuzz.Strategy in
  let rounds = cfg.cull_rounds in
  [
    {
      title = "Ablation A1: feedback sensitivity ladder";
      subjects = [ "gdk"; "jq"; "mp3gain"; "tiffsplit" ];
      columns =
        [
          ("block", block);
          ("edge", pcguard);
          ("ngram2", ngram 2);
          ("ngram4", ngram 4);
          ("path", path);
        ];
    };
    {
      title = "Ablation A2: culling criterion (edges vs paths vs random)";
      subjects = [ "gdk"; "pdftotext"; "infotocap" ];
      columns =
        [
          ("cull", cull ~rounds ());
          ("cull_p", cull_p ~rounds ());
          ("cull_r", cull_r ~rounds ());
        ];
    };
    {
      title = "Ablation A3: culling round count";
      subjects = [ "gdk"; "pdftotext" ];
      columns =
        List.map
          (fun r ->
            ( Printf.sprintf "%d rounds" r,
              { (cull ~rounds:r ()) with name = Printf.sprintf "cull%d" r } ))
          [ 2; 4; 8 ];
    };
  ]

(* One row per subject: cumulative bugs and median queue per fuzzer. *)
let render ?quiet ?jobs ?engine (cfg : Config.t) (s : study) : string =
  let m =
    Runner.run ?quiet ?jobs ?engine
      ~fuzzers:(List.map snd s.columns)
      ~subjects:(List.map Subjects.Registry.find_exn s.subjects)
      cfg
  in
  let rows =
    List.map
      (fun subject ->
        subject
        :: List.concat_map
             (fun (_, (fz : Fuzz.Strategy.fuzzer)) ->
               let c = Runner.cell m ~subject ~fuzzer:fz.name in
               [
                 Render.i (Fuzz.Stats.Bug_set.cardinal (Runner.cumulative_bugs c));
                 Render.f1 (Runner.median_queue c);
               ])
             s.columns)
      s.subjects
  in
  Render.table
    ~title:
      (Printf.sprintf "%s — bugs / median queue (%d execs, %d trials)" s.title
         cfg.budget cfg.trials)
    ~header:("Benchmark" :: List.concat_map (fun (h, _) -> [ h; "q" ]) s.columns)
    ~rows

let all ?quiet ?jobs ?engine (cfg : Config.t) : string =
  let cfg =
    { cfg with budget = max 1000 (cfg.budget / 2); trials = max 1 (cfg.trials - 2) }
  in
  String.concat "\n" (List.map (render ?quiet ?jobs ?engine cfg) (studies cfg))
