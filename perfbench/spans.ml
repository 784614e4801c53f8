(* In-memory spans for the traced run. Spans nest on one thread; every
   span belongs to an op group (one timed op, or one set-up or coverage
   pass) and carries the group's id. A layer's self time is its span's
   duration minus the time its child spans cover, and likewise for
   allocated bytes. Counts are recorded per group at the same
   boundaries. *)

type span = {
  sp_group : int;
  sp_name : string;
  sp_ms : float;
  sp_mb : float;
  sp_child_ms : float;
  sp_child_mb : float;
}

type frame = {
  mutable f_child_ms : float;
  mutable f_child_mb : float;
}

type t = {
  mutable spans : span list;
  mutable stack : frame list;
  counts : (int * string, float) Hashtbl.t;
}

let create () = { spans = []; stack = []; counts = Hashtbl.create 64 }

let allocated_mb () = Gc.allocated_bytes () /. 1e6

let with_span t ~group name f =
  let frame = { f_child_ms = 0.; f_child_mb = 0. } in
  t.stack <- frame :: t.stack;
  let a0 = allocated_mb () in
  let t0 = Monotonic_clock.now () in
  let finish () =
    let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
    let mb = allocated_mb () -. a0 in
    t.stack <- List.tl t.stack;
    (match t.stack with
    | parent :: _ ->
      parent.f_child_ms <- parent.f_child_ms +. ms;
      parent.f_child_mb <- parent.f_child_mb +. mb
    | [] -> ());
    t.spans <-
      {
        sp_group = group;
        sp_name = name;
        sp_ms = ms;
        sp_mb = mb;
        sp_child_ms = frame.f_child_ms;
        sp_child_mb = frame.f_child_mb;
      }
      :: t.spans
  in
  Fun.protect ~finally:finish f

let count t ~group name v =
  let k = (group, name) in
  Hashtbl.replace t.counts k (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts k))

let self_ms s = s.sp_ms -. s.sp_child_ms
let self_mb s = s.sp_mb -. s.sp_child_mb

(* Per (group, layer): summed self ms and self MB. *)
let self_by_group t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = (s.sp_group, s.sp_name) in
      let ms, mb = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (ms +. self_ms s, mb +. self_mb s))
    t.spans;
  tbl
