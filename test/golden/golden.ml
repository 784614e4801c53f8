module Pipeline = Core.Pipeline
module Spec = Hlsb_designs.Spec
module Style = Hlsb_ctrl.Style

let designs = List.filteri (fun i _ -> i < 9) Hlsb_designs.Suite.all
let recipes = [ Style.original; Style.optimized ]

let cases =
  List.concat_map (fun s -> List.map (fun r -> (s, r)) recipes) designs

let file_name (spec : Spec.t) recipe =
  let slug =
    String.map
      (function
        | ('a' .. 'z' | '0' .. '9') as c -> c
        | 'A' .. 'Z' as c -> Char.lowercase_ascii c
        | _ -> '_')
      spec.Spec.sp_name
  in
  Printf.sprintf "%s.%s.json" slug (Style.to_string recipe)

(* The result record, then the timing report (critical path with cell
   names), exactly as [hlsbc compile --dump-after report|sta] writes
   them. A fresh session per case, as a one-shot compile would use. *)
let render (spec : Spec.t) recipe =
  let session = Pipeline.of_spec spec in
  let dump stage =
    match Pipeline.dump_after session ~recipe stage with
    | Ok text -> text
    | Error d -> failwith (Hlsb_util.Diag.to_string d)
  in
  dump Pipeline.Report ^ dump Pipeline.Sta
