(* Rewrite the committed goldens from the current code. Run from the
   repository root: dune exec test/golden/regen.exe *)
let () =
  let dir = Filename.concat "test" "golden" in
  List.iter
    (fun (spec, recipe) ->
      let path = Filename.concat dir (Golden.file_name spec recipe) in
      Out_channel.with_open_bin path (fun oc ->
        output_string oc (Golden.render spec recipe));
      print_endline ("wrote " ^ path))
    Golden.cases
