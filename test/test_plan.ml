(** The block-group plan both compiled engines render ([Vm.Plan]): its
    reach and segment invariants on every registry subject and on
    random chain/diamond CFGs, the fusion shape pinned per subject, and
    the native emitter's text holding exactly one function per planned
    group. *)

open Vm.Interp

let check = Alcotest.check

let all_modes =
  Pathcov.Feedback.[ Block; Edge; Ngram 4; Path; Pathafl ]

let succs = function
  | Rgoto l -> [ l ]
  | Rbranch (_, t, f, _) -> [ t; f ]
  | Rret _ -> []

(* A step list's foldable register adds, summed, and its must-fire
   probes, in order. *)
let adds steps =
  List.fold_left
    (fun a -> function
      | Vm.Plan.Probe op -> (
          match Pathcov.Feedback.fold_add (Some op) with
          | Some k -> a + k
          | None -> a)
      | _ -> a)
    0 steps

let musts steps =
  List.filter
    (function
      | Vm.Plan.Probe op -> Pathcov.Feedback.fold_add (Some op) = None
      | _ -> false)
    steps

(* Every violated invariant of [groups] as a message; [] when it holds.
   Label 0 has a group, every terminator target has one, every group is
   reached from label 0, each group is its chain's well-formed
   rendering, and each segment burns one unit per block entry and per
   instruction, with the fast steps running the same units and the
   careful probes folded. *)
let violations (f : rfunc) (groups : Vm.Plan.group list) : string list =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let by_head = Hashtbl.create 16 in
  List.iter
    (fun (g : Vm.Plan.group) -> Hashtbl.replace by_head g.head g)
    groups;
  if not (Hashtbl.mem by_head 0) then fail "label 0 has no group";
  List.iter
    (fun (g : Vm.Plan.group) ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem by_head l) then fail "target %d has no group" l)
        (succs g.term))
    groups;
  let reached = Hashtbl.create 16 in
  let rec walk l =
    match Hashtbl.find_opt by_head l with
    | Some (g : Vm.Plan.group) when not (Hashtbl.mem reached l) ->
        Hashtbl.add reached l ();
        List.iter walk (succs g.term)
    | _ -> ()
  in
  walk 0;
  List.iter
    (fun (g : Vm.Plan.group) ->
      if not (Hashtbl.mem reached g.head) then fail "group %d unreached" g.head;
      if List.hd g.blocks <> g.head then fail "group %d: chain head" g.head;
      if List.nth g.blocks (List.length g.blocks - 1) <> g.last then
        fail "group %d: last block" g.head;
      if g.term <> f.rblocks.(g.last).rterm then
        fail "group %d: terminator" g.head;
      (match g.pieces with
      | Seg { careful = Enter h :: _; _ } :: _ when h = g.head -> ()
      | _ -> fail "group %d does not open with its head's entry" g.head);
      let units = function
        | Vm.Plan.Enter b -> Some (`Enter b)
        | Instr i -> Some (`Instr i)
        | Probe _ -> None
      in
      let calls = ref 0 and entries = ref 0 and instrs = ref 0 in
      List.iter
        (function
          | Vm.Plan.Call _ -> incr calls
          | Seg s ->
              let cu = List.filter_map units s.careful in
              if List.length cu <> s.burn then
                fail "group %d: burn %d over %d units" g.head s.burn
                  (List.length cu);
              if List.filter_map units s.fast <> cu then
                fail "group %d: fast and careful units differ" g.head;
              if
                adds s.fast <> adds s.careful
                || musts s.fast <> musts s.careful
              then fail "group %d: fast probes fold other adds" g.head;
              List.iter
                (function `Enter _ -> incr entries | `Instr _ -> incr instrs)
                cu)
        g.pieces;
      let block_calls, block_instrs =
        List.fold_left
          (fun (c, n) b ->
            Array.fold_left
              (fun (c, n) i ->
                match i with Rcall _ -> (c + 1, n) | _ -> (c, n + 1))
              (c, n) f.rblocks.(b).rinstrs)
          (0, 0) g.blocks
      in
      if
        !entries <> List.length g.blocks
        || !instrs <> block_instrs || !calls <> block_calls
      then fail "group %d: pieces do not cover its blocks" g.head)
    groups;
  List.rev !errs

let plan_violations (p : prepared) mode : string list =
  let tb = Pathcov.Feedback.table mode p.prog in
  List.concat
    (List.mapi
       (fun fid f ->
         List.map
           (Printf.sprintf "%s %s: %s" f.rname
              (Pathcov.Feedback.mode_name mode))
           (violations f (Vm.Plan.func tb fid f)))
       (Array.to_list p.rfuncs))

let groups (p : prepared) mode : Vm.Plan.group list =
  let tb = Pathcov.Feedback.table mode p.prog in
  List.concat (List.mapi (Vm.Plan.func tb) (Array.to_list p.rfuncs))

let group_count (p : prepared) mode : int = List.length (groups p mode)

(* Per registry subject: the groups control can enter, then the fusion
   shape (chains, chain blocks, longest chain, duplicated instructions)
   of those groups; the chain figures are also checked against the
   groups themselves. *)
let pinned =
  [
    ("cflow", 38, (18, 55, 5, 53));
    ("exiv2", 60, (26, 58, 3, 42));
    ("ffmpeg", 61, (32, 74, 4, 49));
    ("flvmeta", 23, (10, 28, 4, 20));
    ("gdk", 64, (39, 107, 7, 72));
    ("imginfo", 43, (18, 37, 3, 14));
    ("infotocap", 115, (65, 171, 8, 116));
    ("jhead", 42, (22, 56, 4, 42));
    ("jq", 76, (37, 84, 3, 38));
    ("lame", 75, (40, 89, 5, 46));
    ("mp3gain", 28, (13, 31, 4, 24));
    ("mp42aac", 50, (23, 58, 4, 49));
    ("mujs", 83, (37, 88, 5, 58));
    ("nm_new", 37, (13, 30, 3, 17));
    ("objdump", 89, (43, 110, 5, 91));
    ("pdftotext", 87, (42, 128, 7, 120));
    ("sqlite3", 82, (41, 106, 5, 111));
    ("tiffsplit", 61, (37, 88, 4, 62));
  ]

let prepared_of (s : Subjects.Subject.t) = prepare (Subjects.Subject.program s)

let test_registry_invariants () =
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let p = prepared_of s in
      List.iter
        (fun mode ->
          check Alcotest.(list string) (s.name ^ " invariants") []
            (plan_violations p mode))
        all_modes)
    Subjects.Registry.all

let test_registry_shape () =
  check Alcotest.(list string) "pinned subjects"
    (List.map (fun (s : Subjects.Subject.t) -> s.name) Subjects.Registry.all)
    (List.map (fun (n, _, _) -> n) pinned);
  List.iter
    (fun (name, n_groups, shape) ->
      let p = prepared_of (Subjects.Registry.find_exn name) in
      check Alcotest.int (name ^ " groups") n_groups
        (group_count p Pathcov.Feedback.Path);
      let s = Vm.Plan.shape p in
      let chains =
        List.filter_map
          (fun (g : Vm.Plan.group) ->
            let n = List.length g.blocks in
            if n > 1 then Some n else None)
          (groups p Pathcov.Feedback.Path)
      in
      check
        Alcotest.(pair int int)
        (name ^ " shape counts the reached chains")
        (List.length chains, List.fold_left ( + ) 0 chains)
        (s.chains, s.chain_blocks);
      check
        Alcotest.(pair int (pair int (pair int int)))
        (name ^ " shape")
        (let a, b, c, d = shape in
         (a, (b, (c, d))))
        (s.chains, (s.chain_blocks, (s.chain_max, s.dup_instrs))))
    pinned

let prop_plan_invariants =
  QCheck.Test.make ~count:200 ~name:"plan invariants on chain/diamond CFGs"
    Gen.arbitrary_chain_ir (fun prog ->
      let p = prepare prog in
      List.for_all
        (fun mode ->
          match plan_violations p mode with
          | [] -> true
          | e :: _ -> QCheck.Test.fail_report e)
        all_modes)

(* The [b_F_L] names of [src], split into the defined ones and the
   called ones. *)
let block_functions (src : string) : string list * string list =
  let n = String.length src in
  let digits i =
    let j = ref i in
    while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
    !j
  in
  let starts_at i s =
    i + String.length s <= n && String.sub src i (String.length s) = s
  in
  let defs = ref [] and calls = ref [] in
  for i = 1 to n - 2 do
    if
      src.[i] = 'b'
      && src.[i + 1] = '_'
      && (src.[i - 1] = ' ' || src.[i - 1] = '\n')
    then begin
      let a = digits (i + 2) in
      if a > i + 2 && a < n && src.[a] = '_' then begin
        let b = digits (a + 1) in
        if b > a + 1 then begin
          let name = String.sub src i (b - i) in
          if starts_at b " (ctx : I.exec_ctx)" then defs := name :: !defs
          else if starts_at b " ctx fr" then calls := name :: !calls
        end
      end
    end
  done;
  (!defs, !calls)

let test_emit_renders_plan () =
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let p = prepared_of s in
      List.iter
        (fun mode ->
          let where = s.name ^ " " ^ Pathcov.Feedback.mode_name mode in
          let defs, calls =
            block_functions (Vm.Emit.source ~cmplog:true p mode)
          in
          check Alcotest.int (where ^ " block functions") (group_count p mode)
            (List.length defs);
          check Alcotest.bool (where ^ " jumps found") true (calls <> []);
          check Alcotest.(list string) (where ^ " undefined calls") []
            (List.sort_uniq compare
               (List.filter (fun c -> not (List.mem c defs)) calls)))
        Pathcov.Feedback.[ Edge; Path; Pathafl ])
    Subjects.Registry.all

let suite =
  [
    ( "plan",
      [
        Alcotest.test_case "registry invariants" `Quick
          test_registry_invariants;
        Alcotest.test_case "registry groups and fusion shape" `Quick
          test_registry_shape;
        Alcotest.test_case "emit renders exactly the plan" `Quick
          test_emit_renders_plan;
        QCheck_alcotest.to_alcotest prop_plan_invariants;
      ] );
  ]
