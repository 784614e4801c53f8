(* Order statistics the benchmark reports. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { t_pct : float; t_value : float; t_beyond : int; t_n : int }

let min_beyond = 10

(* Above p90, a tail of store hits is decided by rare daemon GC pauses
   and host stalls: over six serve runs p90 moved 7% between runs, p95
   15% and p99 95%. *)
let max_pct = 90.

(* The highest nearest-rank percentile, at most [max_pct], with at least
   [min_beyond] samples above it: rank min (n - 10) (ceil 0.9 n). The rank
   moves by one with each sample, never jumping between distant rungs.
   [None] with 10 samples or fewer. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n <= min_beyond then None
  else
    (* the epsilon keeps 90% of 100 at rank 90, not 91 *)
    let cap = int_of_float (Float.ceil ((max_pct *. float_of_int n /. 100.) -. 1e-9)) in
    let k = min (n - min_beyond) cap in
    Some
      {
        t_pct = (if k = cap then max_pct else 100. *. float_of_int k /. float_of_int n);
        t_value = a.(k - 1);
        t_beyond = n - k;
        t_n = n;
      }

(* [nan] with no samples: a run whose every result failed has no mean,
   and its record must still be printed. *)
let median_or_nan = function [] -> nan | xs -> median xs

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))
