(* Digest the native engine's generated source for every registry
   subject x feedback mode x cmplog setting, one line per unit. The
   digests pin code generation byte for byte: a change to the emitted
   text shows up as a diff against test/emit_source.golden, and an
   intended one must come with an [Emit.emitter_version] bump so warm
   emit caches never serve stale artifacts. *)

let modes =
  Pathcov.Feedback.[ Block; Edge; Ngram 4; Path; Pathafl ]

let () =
  List.iter
    (fun (s : Subjects.Subject.t) ->
      let p = Vm.Interp.prepare (Subjects.Subject.program s) in
      List.iter
        (fun mode ->
          List.iter
            (fun cmplog ->
              let src = Vm.Emit.source ~cmplog p mode in
              Printf.printf "%s %s %s %s\n" s.name
                (Pathcov.Feedback.mode_name mode)
                (if cmplog then "cmplog" else "plain")
                (Digest.to_hex (Digest.string src)))
            [ true; false ])
        modes)
    Subjects.Registry.all
