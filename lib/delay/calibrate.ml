open Hlsb_ir
module Device = Hlsb_device.Device
module Stats = Hlsb_util.Stats
module Metrics = Hlsb_telemetry.Metrics

type curves = {
  raw : float array;
  smoothed : float array;
}

(* Thread-safe via an immutable snapshot: the whole curve table lives in one
   immutable record behind an [Atomic], so warm lookups are a plain
   [Atomic.get] plus an assoc scan — no lock, no serialization across
   domains.  Inserts copy-and-CAS; a same-key race wastes one rebuild but
   both results are identical (characterization is deterministic), so
   whichever insert wins is indistinguishable and the loser adopts it.

   Persistence is batched: builds enqueue their cache updates and the first
   domain through [flush] drains everything queued so far into a single
   load-merge-store, so n concurrent builds cost O(1) disk round-trips, not
   n.  Flushing is still synchronous with respect to the caller — when a
   build returns, its curve is durable — which is what lets a fresh process
   over the same directory start warm. *)
type store = {
  s_ops : (string * curves) list;  (* "op/dtype" -> curves *)
  s_mem_wr : curves option;
  s_mem_rd : curves option;
}

type t = {
  dev : Device.t;
  window : int;
  cache_dir : string option;
  store : store Atomic.t;
  disk : Cal_cache.entry option Atomic.t;  (* lazily loaded once *)
  pending : (Cal_cache.entry -> Cal_cache.entry) list Atomic.t;
  persist_lock : Mutex.t;
  (* Last entry we wrote and the file signature right after writing it;
     guarded by [persist_lock]. Lets [flush] skip re-parsing the file when
     nobody else has touched it since our own store. *)
  mutable persisted : (Cal_cache.entry * (float * int)) option;
}

let factor_grid = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]
let unit_grid = [| 1; 4; 16; 64; 256; 1024; 4096 |]
let depth_grid = Array.map (fun u -> u * 512) unit_grid

let empty_store = { s_ops = []; s_mem_wr = None; s_mem_rd = None }

let create ?(window = 1) ?cache_dir dev =
  if window < 0 then invalid_arg "Calibrate.create: negative window";
  {
    dev;
    window;
    cache_dir;
    store = Atomic.make empty_store;
    disk = Atomic.make None;
    pending = Atomic.make [];
    persist_lock = Mutex.create ();
    persisted = None;
  }

let device t = t.dev
let cache_dir t = t.cache_dir

let op_key op dt = Op.to_string op ^ "/" ^ Dtype.to_string dt

(* Racing loads are fine: the file parse is idempotent, both racers produce
   the same entry, and the CAS loser just adopts the winner's copy. *)
let disk_entry t =
  match Atomic.get t.disk with
  | Some e -> e
  | None ->
    let e =
      match t.cache_dir with
      | None -> Cal_cache.empty
      | Some dir -> (
        match Cal_cache.load ~dir ~factor_grid ~unit_grid t.dev with
        | Some e -> e
        | None -> Cal_cache.empty)
    in
    if Atomic.compare_and_set t.disk None (Some e) then e
    else match Atomic.get t.disk with Some e' -> e' | None -> e

let file_sig path =
  match Unix.stat path with
  | s -> Some (s.Unix.st_mtime, s.Unix.st_size)
  | exception Unix.Unix_error _ -> None
  | exception Sys_error _ -> None

(* Drain every queued update into one load-merge-store. Merging over the
   freshest on-disk state keeps concurrent processes warming different ops
   from clobbering each other's keys; the signature check skips the reparse
   in the common case where the last writer was us. *)
let flush t dir =
  Mutex.lock t.persist_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.persist_lock)
    (fun () ->
      match List.rev (Atomic.exchange t.pending []) with
      | [] ->
        (* Whoever held the lock before us drained our update and stored it
           before releasing, so it is already durable. *)
        ()
      | updates ->
        let path = Cal_cache.file_path ~dir t.dev in
        let base =
          match t.persisted with
          | Some (e, s) when file_sig path = Some s -> e
          | _ -> (
            match Cal_cache.load ~dir ~factor_grid ~unit_grid t.dev with
            | Some e -> e
            | None -> Cal_cache.empty)
        in
        let merged = List.fold_left (fun e u -> u e) base updates in
        (match Cal_cache.store ~dir ~factor_grid ~unit_grid t.dev merged with
        | () ->
          Metrics.incr "calibrate.cache_writes";
          t.persisted <- Option.map (fun s -> (merged, s)) (file_sig path)
        | exception Sys_error _ -> ()))

let persist t update =
  match t.cache_dir with
  | None -> ()
  | Some dir ->
    let rec push () =
      let cur = Atomic.get t.pending in
      if not (Atomic.compare_and_set t.pending cur (update :: cur)) then
        push ()
    in
    push ();
    flush t dir

let smooth t raw = Stats.smooth_neighbors ~window:t.window raw

let rec insert_op t key c =
  let s = Atomic.get t.store in
  match List.assoc_opt key s.s_ops with
  | Some c' -> c'
  | None ->
    if Atomic.compare_and_set t.store s { s with s_ops = (key, c) :: s.s_ops }
    then c
    else insert_op t key c

let rec insert_mem t ~read c =
  let s = Atomic.get t.store in
  match if read then s.s_mem_rd else s.s_mem_wr with
  | Some c' -> c'
  | None ->
    let s' =
      if read then { s with s_mem_rd = Some c }
      else { s with s_mem_wr = Some c }
    in
    if Atomic.compare_and_set t.store s s' then c else insert_mem t ~read c

let op_curves t op dt =
  let key = op_key op dt in
  match List.assoc_opt key (Atomic.get t.store).s_ops with
  | Some c -> c
  | None -> (
    match List.assoc_opt key (disk_entry t).Cal_cache.e_ops with
    | Some raw ->
      Metrics.incr "calibrate.cache_hits";
      insert_op t key { raw; smoothed = smooth t raw }
    | None ->
      Metrics.incr "calibrate.curve_builds";
      if t.cache_dir <> None then Metrics.incr "calibrate.cache_misses";
      let pts = Characterize.arith_curve t.dev op dt ~factors:factor_grid in
      let raw = Array.map (fun p -> p.Characterize.measured) pts in
      let c = { raw; smoothed = smooth t raw } in
      persist t (fun e ->
        {
          e with
          Cal_cache.e_ops =
            (key, raw) :: List.remove_assoc key e.Cal_cache.e_ops;
        });
      insert_op t key c)

let mem_curves t ~read =
  let s = Atomic.get t.store in
  match if read then s.s_mem_rd else s.s_mem_wr with
  | Some c -> c
  | None -> (
    let disk = disk_entry t in
    let stored =
      if read then disk.Cal_cache.e_mem_rd else disk.Cal_cache.e_mem_wr
    in
    match stored with
    | Some raw ->
      Metrics.incr "calibrate.cache_hits";
      insert_mem t ~read { raw; smoothed = smooth t raw }
    | None ->
      Metrics.incr "calibrate.curve_builds";
      if t.cache_dir <> None then Metrics.incr "calibrate.cache_misses";
      let pts =
        if read then Characterize.mem_read_curve t.dev ~units:unit_grid
        else Characterize.mem_write_curve t.dev ~units:unit_grid
      in
      let raw = Array.map (fun p -> p.Characterize.measured) pts in
      let c = { raw; smoothed = smooth t raw } in
      persist t (fun e ->
        if read then { e with Cal_cache.e_mem_rd = Some raw }
        else { e with Cal_cache.e_mem_wr = Some raw });
      insert_mem t ~read c)

(* Log-linear interpolation over a positive grid. Clamp outside. *)
let interp grid values x =
  let n = Array.length grid in
  if x <= grid.(0) then values.(0)
  else if x >= grid.(n - 1) then values.(n - 1)
  else begin
    let rec find i = if grid.(i + 1) >= x then i else find (i + 1) in
    let i = find 0 in
    let x0 = log (float_of_int grid.(i)) and x1 = log (float_of_int grid.(i + 1)) in
    let fx = log (float_of_int x) in
    let frac = (fx -. x0) /. (x1 -. x0) in
    (values.(i) *. (1. -. frac)) +. (values.(i + 1) *. frac)
  end

let op_delay t op dt ~factor =
  if factor < 1 then invalid_arg "Calibrate.op_delay: factor < 1";
  Metrics.incr "calibrate.lookups";
  let c = op_curves t op dt in
  let measured = interp factor_grid c.smoothed factor in
  max (Oplib.predicted op dt) measured

let units_of ~width ~depth = Device.bram18_for ~width ~depth

let mem_write_delay t ~width ~depth =
  Metrics.incr "calibrate.lookups";
  let c = mem_curves t ~read:false in
  let u = units_of ~width ~depth in
  max Oplib.mem_write_predicted (interp unit_grid c.smoothed u)

let mem_read_delay t ~width ~depth =
  Metrics.incr "calibrate.lookups";
  let c = mem_curves t ~read:true in
  let u = units_of ~width ~depth in
  max Oplib.mem_read_predicted (interp unit_grid c.smoothed u)

type curve_row = {
  cr_factor : int;
  cr_predicted : float;
  cr_measured : float;
  cr_calibrated : float;
}

let op_curve t op dt =
  let c = op_curves t op dt in
  let pred = Oplib.predicted op dt in
  Array.to_list
    (Array.mapi
       (fun i f ->
         {
           cr_factor = f;
           cr_predicted = pred;
           cr_measured = c.raw.(i);
           cr_calibrated = max pred c.smoothed.(i);
         })
       factor_grid)

let mem_curve t ~width =
  ignore width;
  let c = mem_curves t ~read:false in
  Array.to_list
    (Array.mapi
       (fun i depth ->
         {
           cr_factor = depth;
           cr_predicted = Oplib.mem_write_predicted;
           cr_measured = c.raw.(i);
           cr_calibrated = max Oplib.mem_write_predicted c.smoothed.(i);
         })
       depth_grid)

(* Build (or load) every curve a set of designs is likely to touch. *)
let warm ?(ops = []) ?(mem = true) t =
  List.iter (fun (op, dt) -> ignore (op_curves t op dt)) ops;
  if mem then begin
    ignore (mem_curves t ~read:false);
    ignore (mem_curves t ~read:true)
  end

let shared_table : (string * int, t) Hashtbl.t = Hashtbl.create 4
let shared_lock = Mutex.create ()

let shared ?(window = 1) dev =
  Mutex.lock shared_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_lock)
    (fun () ->
      let key = (dev.Device.name, window) in
      match Hashtbl.find_opt shared_table key with
      | Some t -> t
      | None ->
        let t = create ~window ?cache_dir:(Cal_cache.ambient_dir ()) dev in
        Hashtbl.add shared_table key t;
        t)
