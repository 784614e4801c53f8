(* The expected-outputs file: one tab-separated row per compiled
   (design, recipe) with its Fmax, critical path and cell count, written
   with every digit ([%.17g]) so a comparison is exact. Lines starting
   with '#' are comments. *)

type row = {
  e_name : string;
  e_recipe : string;
  e_fmax_mhz : float;
  e_critical_ns : float;
  e_cells : int;
}

type t = row list

let row_to_line r =
  Printf.sprintf "%s\t%s\t%.17g\t%.17g\t%d" r.e_name r.e_recipe r.e_fmax_mhz
    r.e_critical_ns r.e_cells

let parse_line line =
  match String.split_on_char '\t' line with
  | [ name; recipe; fmax; crit; cells ] -> (
    match
      (float_of_string_opt fmax, float_of_string_opt crit, int_of_string_opt cells)
    with
    | Some f, Some c, Some n ->
      Ok
        { e_name = name; e_recipe = recipe; e_fmax_mhz = f; e_critical_ns = c; e_cells = n }
    | _ -> Error ("bad numbers in expected row: " ^ line))
  | _ -> Error ("expected 5 tab-separated fields: " ^ line)

let of_string s =
  let lines =
    List.filter
      (fun l -> String.trim l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' s)
  in
  List.fold_left
    (fun acc l ->
      match (acc, parse_line l) with
      | Error e, _ | Ok _, Error e -> Error e
      | Ok rows, Ok r -> Ok (r :: rows))
    (Ok []) lines
  |> Result.map List.rev

let to_string ~header rows =
  String.concat "\n" (List.map (fun h -> "# " ^ h) header @ List.map row_to_line rows)
  ^ "\n"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* [Ok ()] when (name, recipe) is listed with exactly these figures. *)
let check t ~name ~recipe ~fmax_mhz ~critical_ns ~cells =
  match List.find_opt (fun r -> r.e_name = name && r.e_recipe = recipe) t with
  | None -> Error (Printf.sprintf "%s [%s]: no expected row" name recipe)
  | Some r ->
    if r.e_fmax_mhz = fmax_mhz && r.e_critical_ns = critical_ns && r.e_cells = cells
    then Ok ()
    else
      Error
        (Printf.sprintf
           "%s [%s]: got fmax %.17g MHz, critical %.17g ns, %d cells; expected \
            %.17g, %.17g, %d"
           name recipe fmax_mhz critical_ns cells r.e_fmax_mhz r.e_critical_ns
           r.e_cells)
