module Ast = Hlsb_frontend.Ast
module Diag = Hlsb_util.Diag

type item =
  | Source of Pass.request
  | Pragmas
  | Channel_reuse

type t = item list

let identity = []
let is_identity p = p = []

let item_to_string = function
  | Source r -> Pass.request_to_string r
  | Pragmas -> "pragmas"
  | Channel_reuse -> "channel-reuse"

let to_string p = String.concat ";" (List.map item_to_string p)

let parse_item tok =
  let open Pass in
  let err () = Error (Printf.sprintf "bad transform item %S" tok) in
  let key, value =
    match String.index_opt tok '=' with
    | Some i ->
      ( String.sub tok 0 i,
        Some (String.sub tok (i + 1) (String.length tok - i - 1)) )
    | None -> (tok, None)
  in
  let int_of s = int_of_string_opt s in
  match (key, value) with
  | "pragmas", None -> Ok Pragmas
  | "channel-reuse", None -> Ok Channel_reuse
  | "fission", None -> Ok (Source (Fission { f_loop = None }))
  | "fission", Some l when l <> "" -> Ok (Source (Fission { f_loop = Some l }))
  | "fusion", None -> Ok (Source (Fusion { fu_loop = None }))
  | "fusion", Some l when l <> "" -> Ok (Source (Fusion { fu_loop = Some l }))
  | "stream", None -> Ok (Source (Stream_insert { si_array = None }))
  | "stream", Some a when a <> "" ->
    Ok (Source (Stream_insert { si_array = Some a }))
  | "unroll", Some v -> (
    match String.split_on_char ':' v with
    | [ n ] -> (
      match int_of n with
      | Some f -> Ok (Source (Unroll { u_loop = None; u_factor = f }))
      | None -> err ())
    | [ l; n ] when l <> "" -> (
      match int_of n with
      | Some f -> Ok (Source (Unroll { u_loop = Some l; u_factor = f }))
      | None -> err ())
    | _ -> err ())
  | "partition", Some v -> (
    match String.split_on_char ':' v with
    | [ "cyclic"; n ] -> (
      match int_of n with
      | Some f -> Ok (Source (Partition { p_array = None; p_factor = f }))
      | None -> err ())
    | [ "cyclic"; a; n ] when a <> "" -> (
      match int_of n with
      | Some f -> Ok (Source (Partition { p_array = Some a; p_factor = f }))
      | None -> err ())
    | _ -> err ())
  | _ -> err ()

let of_string s =
  let toks =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
      match parse_item tok with
      | Ok item -> go (item :: acc) rest
      | Error e -> Error e)
  in
  go [] toks

let has_channel_reuse p = List.mem Channel_reuse p

let apply_source plan program =
  try
    Ok
      (List.fold_left
         (fun prog item ->
           match item with
           | Channel_reuse -> prog
           | Source r -> Pass.apply r prog
           | Pragmas ->
             let reqs, _warns = Pass.requests_of_pragmas prog in
             List.fold_left (fun prog r -> Pass.apply r prog) prog reqs)
         program plan)
  with Diag.Diagnostic d -> Error d
