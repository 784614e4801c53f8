(* Bit-exact Table-1 goldens: every Table-1 design under both recipes
   must render — result record plus timing report, critical-path cell
   names included — byte for byte as the committed files under
   test/golden/ (rewrite them with test/golden/regen.exe only for an
   intended output change). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let case (spec, recipe) =
  let file = Golden.file_name spec recipe in
  Alcotest.test_case file `Slow (fun () ->
    let want = read_file (Filename.concat "golden" file) in
    Alcotest.(check string) file want (Golden.render spec recipe))

let suite = List.map case Golden.cases
