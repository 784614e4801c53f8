type pipeline_ctrl =
  | Stall
  | Skid of { min_area : bool }

type sync_strategy =
  | Sync_naive
  | Sync_pruned

type sched_mode =
  | Sched_hls
  | Sched_aware

type recipe = {
  sched : sched_mode;
  pipe : pipeline_ctrl;
  sync : sync_strategy;
}

let original = { sched = Sched_hls; pipe = Stall; sync = Sync_naive }

let optimized =
  { sched = Sched_aware; pipe = Skid { min_area = true }; sync = Sync_pruned }

let sched_only = { sched = Sched_aware; pipe = Stall; sync = Sync_naive }

let ctrl_only =
  { sched = Sched_hls; pipe = Skid { min_area = true }; sync = Sync_pruned }

(* The CLI-facing recipe names, in the order help text lists them. *)
let named =
  [
    ("original", original);
    ("optimized", optimized);
    ("sched-only", sched_only);
    ("ctrl-only", ctrl_only);
  ]

let names = List.map fst named

let label r =
  let s = match r.sched with Sched_hls -> "hls" | Sched_aware -> "aware" in
  let p =
    match r.pipe with
    | Stall -> "stall"
    | Skid { min_area = true } -> "skid-min"
    | Skid { min_area = false } -> "skid"
  in
  let y = match r.sync with Sync_naive -> "naive" | Sync_pruned -> "pruned" in
  s ^ "/" ^ p ^ "/" ^ y

let to_string r =
  match List.find_opt (fun (_, r') -> r' = r) named with
  | Some (n, _) -> n
  | None -> label r

let of_string s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) named with
  | Some r -> Ok r
  | None ->
    Error
      (Hlsb_util.Diag.error ~stage:"recipe"
         (Printf.sprintf "unknown recipe %S (expected one of: %s)" s
            (String.concat " | " names)))
