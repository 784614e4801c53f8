(* The result record: what one measuring process hands back, the
   end-to-end metrics over the pooled records of a run, and the JSON line
   the run ends with. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

(* One measuring process's set-up time and samples, all times at
   reference speed. *)
type measured = {
  me_setup_s : float;
  me_ops : float list;  (** per op; for serve an op is a block of requests *)
  me_alloc : float list;  (** MB allocated per op by the bench process *)
  me_requests : int;  (** ops, or requests for serve *)
  me_rss : float;  (** peak RSS of the working process after a fixed count of ops *)
  me_fmax : float list;
  me_cells : int;
  me_configs : int;
  me_misses : float list;
  me_hits : float list;
  me_attempted : int;
  me_failed : int;
  me_refs : float list;
}

(* The record of a process that measured nothing. *)
let nothing ~setup_s =
  {
    me_setup_s = setup_s;
    me_ops = [];
    me_alloc = [];
    me_requests = 0;
    me_rss = nan;
    me_fmax = [];
    me_cells = 0;
    me_configs = 0;
    me_misses = [];
    me_hits = [];
    me_attempted = 0;
    me_failed = 0;
    me_refs = [];
  }

let tail_of label xs =
  match Stats.tail xs with
  | Some t ->
    Printf.printf "%s: p%.1f of %d samples (%d beyond) = %.4f ms\n" label t.Stats.t_pct t.Stats.t_n
      t.Stats.t_beyond t.Stats.t_value;
    t.Stats.t_value
  | None ->
    Printf.printf "%s: only %d samples, no percentile has 10 beyond it\n" label (List.length xs);
    nan

(* The end-to-end metrics over the pooled samples of every measuring
   process; set-up time and peak RSS are medians over the processes. A
   metric without samples is [nan], which marks the record incorrect. *)
let end_to_end (mes : measured list) =
  let cat f = List.concat_map f mes in
  let sum f = List.fold_left (fun n me -> n + f me) 0 mes in
  let ops = cat (fun me -> me.me_ops) in
  let hits = cat (fun me -> me.me_hits) and misses = cat (fun me -> me.me_misses) in
  let attempted = sum (fun me -> me.me_attempted) and failed = sum (fun me -> me.me_failed) in
  let total_s = List.fold_left ( +. ) 0. ops /. 1000. in
  let per_s n = if total_s > 0. then float_of_int n /. total_s else nan in
  let op_tail = tail_of "op_ms tail" ops in
  let hit_tail = tail_of "hit_ms tail" hits in
  let miss_tail = tail_of "miss_ms tail" misses in
  let med = Stats.median_or_nan in
  [
    m "setup_s" "s" (med (List.map (fun me -> me.me_setup_s) mes));
    m "op_ms" "ms" (med ops);
    m "op_ms_tail" "ms" op_tail;
    m "alloc_mb" "MB" (med (cat (fun me -> me.me_alloc)));
    m "peak_rss_mb" "MB" (med (List.map (fun me -> me.me_rss) mes));
    m "fmax_geomean_mhz" "MHz" (Stats.geomean (cat (fun me -> me.me_fmax)));
    m "ok_ratio" "ratio" (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
    m "kcells_per_s" "kcell/s" (per_s (sum (fun me -> me.me_cells)) /. 1000.);
    m "configs_per_s" "1/s" (per_s (sum (fun me -> me.me_configs)));
    m "hit_ms" "ms" (med hits);
    m "hit_ms_tail" "ms" hit_tail;
    m "miss_ms" "ms" (med misses);
    m "miss_ms_tail" "ms" miss_tail;
    m "req_per_s" "1/s" (per_s (sum (fun me -> me.me_requests)));
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The record line. It is correct only with no failed op and every
   metric finite. *)
let result_line ~attempted ~failed metrics =
  let finite = List.for_all (fun x -> Float.is_finite x.m_value) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.m_value) x.m_unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0 && finite) attempted failed body
