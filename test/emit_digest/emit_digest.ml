(* Digest the native engine's generated source for every registry
   subject x feedback mode x cmplog setting, one line per unit, after a
   line naming [Emit.emitter_version] and before a line digesting all
   of them. The per-unit digests pin code generation byte for byte: a
   change to the emitted text shows up as a diff against
   test/emit_source.golden.

   An intended change must come with an [Emit.emitter_version] bump, so
   warm emit caches never serve stale artifacts. Given a history file
   (lines "VERSION DIGEST", '#' comments), the run fails unless the
   current version is listed there with the current overall digest. *)

let modes =
  Pathcov.Feedback.[ Block; Edge; Ngram 4; Path; Pathafl ]

let history path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ v; d ] -> Option.map (fun v -> (v, d)) (int_of_string_opt v)
         | _ -> None)

let () =
  let version = Vm.Emit.emitter_version in
  Printf.printf "emitter_version %d\n" version;
  let digests =
    List.concat_map
      (fun (s : Subjects.Subject.t) ->
        let p = Vm.Interp.prepare (Subjects.Subject.program s) in
        List.concat_map
          (fun mode ->
            List.map
              (fun cmplog ->
                let src = Vm.Emit.source ~cmplog p mode in
                let d = Digest.to_hex (Digest.string src) in
                Printf.printf "%s %s %s %s\n" s.name
                  (Pathcov.Feedback.mode_name mode)
                  (if cmplog then "cmplog" else "plain")
                  d;
                d)
              [ true; false ])
          modes)
      Subjects.Registry.all
  in
  let all = Digest.to_hex (Digest.string (String.concat "" digests)) in
  Printf.printf "all %s\n" all;
  if Array.length Sys.argv > 1 then begin
    let file = Sys.argv.(1) in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          prerr_string m;
          exit 1)
        fmt
    in
    match List.assoc_opt version (history file) with
    | Some d when d = all -> ()
    | Some d ->
        fail
          "emit_digest: the generated source changed under emitter_version %d\n\
          \  (%s lists %d %s; the source now digests to %s).\n\
          \  Bump Vm.Emit.emitter_version, so warm emit caches never serve\n\
          \  stale units, then add its line to %s.\n"
          version file version d all file
    | None ->
        fail
          "emit_digest: emitter_version %d has no line in %s;\n\
          \  add \"%d %s\" to it.\n"
          version file version all
  end
