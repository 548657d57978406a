(* quote_check DOC: every fenced block of the Markdown file DOC whose
   info string names a .txt file (```` ```results/tables.txt ````, the
   path relative to DOC's directory) quotes that file: its lines occur,
   in order, as whole lines of the file. Exits 1 naming each quoted line
   that does not, and when DOC quotes nothing. *)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'

(* A fence line's indentation, or [None] for any other line. *)
let fence l =
  let t = String.trim l in
  if String.starts_with ~prefix:"```" t then
    Some (String.index l '`', String.trim (String.sub t 3 (String.length t - 3)))
  else None

(* [l] without up to [n] leading spaces (a block indented in a list). *)
let dedent n l =
  let k = ref 0 in
  while !k < n && !k < String.length l && l.[!k] = ' ' do incr k done;
  String.sub l !k (String.length l - !k)

(* The (cited file, quoted lines) of every quoting block, in order. *)
let quotes lines =
  let rec outside acc = function
    | [] -> List.rev acc
    | l :: rest -> (
        match fence l with
        | Some (indent, info) -> inside acc indent info [] rest
        | None -> outside acc rest)
  and inside acc indent info body = function
    | [] -> failwith ("unterminated block citing " ^ info)
    | l :: rest when fence l <> None ->
        let acc =
          if Filename.check_suffix info ".txt" then (info, List.rev body) :: acc
          else acc
        in
        outside acc rest
    | l :: rest -> inside acc indent info (dedent indent l :: body) rest
  in
  outside [] lines

let () =
  let doc = Sys.argv.(1) in
  let failures = ref 0 in
  let check (cited, quoted) =
    let path = Filename.concat (Filename.dirname doc) cited in
    if not (Sys.file_exists path) then begin
      Printf.eprintf "%s: cites %s, which does not exist\n" doc cited;
      incr failures
    end
    else
      (* each quoted line must occur after the previous one's match *)
      ignore
        (List.fold_left
           (fun rest q ->
             let rec find = function
               | [] ->
                   Printf.eprintf "%s: not in %s (in order): %s\n" doc cited q;
                   incr failures;
                   rest
               | l :: tl -> if String.equal l q then tl else find tl
             in
             find rest)
           (read_lines path) quoted)
  in
  match quotes (read_lines doc) with
  | [] ->
      Printf.eprintf "%s: quotes no file\n" doc;
      exit 1
  | qs ->
      List.iter check qs;
      if !failures > 0 then exit 1
