module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics

type path_step = {
  ps_cell : int;
  ps_cell_name : string;
  ps_arrival : float;
  ps_via_net : int option;
}

type report = {
  critical_ns : float;
  fmax_mhz : float;
  path : path_step list;
  worst_net : int option;
  worst_net_fanout : int;
  worst_net_class : Netlist.net_class option;
  arrivals : float array;
}

(* Allocation-free splitmix64 step, inlined from [Rng.next_int64]: the
   jitter used to spin up a fresh [Rng.t] per net per analyze, which was
   one short-lived box per net in the hottest loop of the flow. The two
   unit floats below replay the exact draws [Rng.gaussian] would make
   from [Rng.create ((seed * 1_000_003) + nid)] — state + golden, mixed,
   top 53 bits scaled — so every delay in every report stays
   bit-identical to the allocating version (Box-Muller with mu=0 reduces
   to [jitter *. z], and [0. +. x] / [x *. 1.] are float identities). *)
let golden = 0x9E3779B97F4A7C15L

(* [Stdlib.max] compares floats through the polymorphic primitive, boxing
   both arguments; this one stays on unboxed floats (same result for every
   non-NaN input). Placement keeps its own copy: a call across modules is
   not inlined, and its float result would be boxed. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* The per-net delay helpers below are [@inline]: a float returned from a
   call is boxed, and these run once per net per fill. Inlined into the
   fill loops of [prepare] and [refresh], a net's delay goes from the
   placement's coordinate arrays into [cx_ndelay] without allocating. *)
let[@inline] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] unit_float state =
  Int64.to_float (Int64.shift_right_logical (mix64 state) 11)
  /. 9007199254740992. (* 2^53 *)

let[@inline] jitter_factor ~jitter ~seed nid =
  if jitter <= 0. then 1.
  else begin
    let s1 = Int64.add (Int64.of_int ((seed * 1_000_003) + nid)) golden in
    let s2 = Int64.add s1 golden in
    let u1 = fmax 1e-12 (unit_float s1) in
    let u2 = unit_float s2 in
    let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    fmax 0.5 (1. +. (jitter *. z))
  end

(* Source-to-farthest-sink Manhattan distance plus the mean spread radius
   of the net's pins (driver first, then sinks in array order). *)
let[@inline] star_length pl nid =
  let net = Netlist.net (Placement.netlist pl) nid in
  let sinks = net.Netlist.n_sinks in
  let n_sinks = Array.length sinks in
  if n_sinks = 0 then 0.
  else begin
    let xs = Placement.xs pl and ys = Placement.ys pl in
    let radii = Placement.radii pl in
    let drv = net.Netlist.n_driver in
    let dx = xs.(drv) and dy = ys.(drv) in
    let far = ref 0. and spread = ref radii.(drv) in
    for k = 0 to n_sinks - 1 do
      let s = sinks.(k) in
      far := fmax !far (abs_float (xs.(s) -. dx) +. abs_float (ys.(s) -. dy));
      spread := !spread +. radii.(s)
    done;
    !far +. (!spread /. float_of_int (1 + n_sinks))
  end

let[@inline] net_delay (d : Device.t) nl pl ~jitter ~seed nid =
  let f = Netlist.fanout nl nid in
  if f = 0 then 0.
  else begin
    let base =
      d.t_net_base
      +. (d.t_net_fanout *. log (1. +. float_of_int f))
      +. (d.t_net_dist *. star_length pl nid)
    in
    base *. jitter_factor ~jitter ~seed nid
  end

let default_seed nl = Hashtbl.hash (Netlist.name nl) land 0xFFFFFF

(* ---- incremental STA context ---- *)

type incidence = {
  inc_off : int array;
  inc_adj : int array;
  inc_dirty : Bytes.t;
      (* per-net scratch flag for [refresh], cleared as each net is
         re-timed so the next call starts clean *)
}

type ctx = {
  cx_device : Device.t;
  cx_netlist : Netlist.t;
  cx_pl : Placement.t;
  cx_jitter : float;
  cx_seed : int;
  cx_off : int array;
  cx_arc_pred : int array;
  cx_arc_net : int array;
  cx_ndelay : float array;
  cx_snap_x : float array;  (* cell positions as of the last ndelay fill *)
  cx_snap_y : float array;
  mutable cx_inc : incidence option;
      (* cell -> incident nets CSR, built lazily on the first [refresh]
         so a one-shot [analyze] never pays for it *)
}

let prepare ?(jitter = 0.02) ?seed (d : Device.t) nl pl =
  let seed = match seed with Some s -> s | None -> default_seed nl in
  let n = Netlist.n_cells nl in
  (* Per-cell fanin arcs in CSR form (arc_pred/arc_net flat arrays sliced by
     off): this is the inner loop of every characterization point, and the
     flat int arrays avoid allocating a (pred, net) cons per arc.  Slices are
     filled back-to-front while iterating nets forward, reproducing the
     reverse-insertion order the old per-cell lists had, so tie-breaking on
     equal arrivals is unchanged. The passes over the nets are plain loops:
     an [iter_nets] callback would allocate a closure per net. *)
  let n_nets = Netlist.n_nets nl in
  let ndelay = Array.make n_nets 0. in
  let off = Array.make (n + 1) 0 in
  for nid = 0 to n_nets - 1 do
    let sinks = (Netlist.net nl nid).Netlist.n_sinks in
    for k = 0 to Array.length sinks - 1 do
      let s = sinks.(k) in
      off.(s + 1) <- off.(s + 1) + 1
    done
  done;
  for c = 0 to n - 1 do
    off.(c + 1) <- off.(c + 1) + off.(c)
  done;
  let n_arcs = off.(n) in
  let arc_pred = Array.make n_arcs 0 in
  let arc_net = Array.make n_arcs 0 in
  let cursor = Array.init n (fun c -> off.(c + 1)) in
  for nid = 0 to n_nets - 1 do
    let net = Netlist.net nl nid in
    ndelay.(nid) <- net_delay d nl pl ~jitter ~seed nid;
    let sinks = net.Netlist.n_sinks in
    for j = 0 to Array.length sinks - 1 do
      let s = sinks.(j) in
      let k = cursor.(s) - 1 in
      cursor.(s) <- k;
      arc_pred.(k) <- net.Netlist.n_driver;
      arc_net.(k) <- nid
    done
  done;
  let snap_x = Array.copy (Placement.xs pl) in
  let snap_y = Array.copy (Placement.ys pl) in
  {
    cx_device = d;
    cx_netlist = nl;
    cx_pl = pl;
    cx_jitter = jitter;
    cx_seed = seed;
    cx_off = off;
    cx_arc_pred = arc_pred;
    cx_arc_net = arc_net;
    cx_ndelay = ndelay;
    cx_snap_x = snap_x;
    cx_snap_y = snap_y;
    cx_inc = None;
  }

let incidence ctx =
  match ctx.cx_inc with
  | Some i -> i
  | None ->
    let nl = ctx.cx_netlist in
    let n = Netlist.n_cells nl in
    let inc_off = Array.make (n + 1) 0 in
    Netlist.iter_nets nl (fun _ net ->
      inc_off.(net.Netlist.n_driver + 1) <- inc_off.(net.Netlist.n_driver + 1) + 1;
      Array.iter
        (fun s -> inc_off.(s + 1) <- inc_off.(s + 1) + 1)
        net.Netlist.n_sinks);
    for c = 0 to n - 1 do
      inc_off.(c + 1) <- inc_off.(c + 1) + inc_off.(c)
    done;
    let inc_adj = Array.make inc_off.(n) 0 in
    let cursor = Array.init n (fun c -> inc_off.(c + 1)) in
    let put c nid =
      let k = cursor.(c) - 1 in
      cursor.(c) <- k;
      inc_adj.(k) <- nid
    in
    Netlist.iter_nets nl (fun nid net ->
      put net.Netlist.n_driver nid;
      Array.iter (fun s -> put s nid) net.Netlist.n_sinks);
    let i =
      { inc_off; inc_adj; inc_dirty = Bytes.make (Netlist.n_nets nl) '\000' }
    in
    ctx.cx_inc <- Some i;
    i

let refresh ctx =
  (* Re-time only the nets incident to cells whose position changed since
     the last fill: a net's delay depends solely on its own endpoints'
     positions (fanout and jitter are placement-independent), so every
     untouched net keeps a bit-identical delay and a full [prepare] after
     the same moves would produce exactly this array. Positions are read
     straight from the placement's arrays, and the dirty flags live in the
     context: a refresh allocates nothing. *)
  let nl = ctx.cx_netlist in
  let n = Netlist.n_cells nl in
  let n_nets = Array.length ctx.cx_ndelay in
  let inc = incidence ctx in
  let dirty = inc.inc_dirty in
  let xs = Placement.xs ctx.cx_pl and ys = Placement.ys ctx.cx_pl in
  let moved = ref 0 in
  for c = 0 to n - 1 do
    let x = xs.(c) and y = ys.(c) in
    if x <> ctx.cx_snap_x.(c) || y <> ctx.cx_snap_y.(c) then begin
      incr moved;
      ctx.cx_snap_x.(c) <- x;
      ctx.cx_snap_y.(c) <- y;
      for k = inc.inc_off.(c) to inc.inc_off.(c + 1) - 1 do
        Bytes.unsafe_set dirty inc.inc_adj.(k) '\001'
      done
    end
  done;
  let recomputed = ref 0 in
  if !moved > 0 then
    for nid = 0 to n_nets - 1 do
      if Bytes.unsafe_get dirty nid = '\001' then begin
        Bytes.unsafe_set dirty nid '\000';
        ctx.cx_ndelay.(nid) <-
          net_delay ctx.cx_device nl ctx.cx_pl ~jitter:ctx.cx_jitter
            ~seed:ctx.cx_seed nid;
        incr recomputed
      end
    done;
  !recomputed

let analyze_ctx ctx =
  let d = ctx.cx_device in
  let nl = ctx.cx_netlist in
  let off = ctx.cx_off in
  let arc_pred = ctx.cx_arc_pred in
  let arc_net = ctx.cx_arc_net in
  let ndelay = ctx.cx_ndelay in
  let n = Netlist.n_cells nl in
  let n_arcs = off.(n) in
  (* Arrival at each cell's *output*. Sequential cells and input ports
     launch at t_clk_q; combinational cells add their logic delay on top of
     the worst input arrival. Evaluate in dependence order via DFS with
     cycle detection — iteratively, on an explicit stack: a pipeline chain
     tens of thousands of registers deep is a legitimate netlist, and the
     natural recursive DFS overflows the OCaml stack on exactly the designs
     this tool exists to analyze.

     States: 0 unvisited, 1 on the DFS path (first visit done, inputs
     pending), 2 done. A cell is visited twice: the first visit pushes its
     unresolved predecessors (seeing a state-1 predecessor there means a
     genuine combinational cycle — state-1 cells are precisely the current
     DFS path); the revisit, once everything pushed above it has resolved,
     folds its input arrivals in the same ascending-arc order and with the
     same strict-> tie-breaking as the recursive version, so backpointers
     and arrivals are bit-identical. Duplicate stack entries (a cell
     demanded by several consumers before its first visit) are popped as
     no-ops in state 2. *)
  let arrival = Array.make n nan in
  let bp_pred = Array.make n (-1) in
  let bp_net = Array.make n (-1) in
  let state = Array.make n 0 in
  (* Every arc pushes at most one entry and each [eval] pushes one root. *)
  let stack = Array.make (n + n_arcs + 1) 0 in
  let sp = ref 0 in
  let push c =
    stack.(!sp) <- c;
    incr sp
  in
  let eval root =
    if state.(root) <> 2 then begin
      push root;
      while !sp > 0 do
        let c = stack.(!sp - 1) in
        if state.(c) = 2 then decr sp
        else if state.(c) = 0 then begin
          state.(c) <- 1;
          let cell = Netlist.cell nl c in
          match cell.Netlist.c_kind with
          | Netlist.Seq | Netlist.Mem ->
            arrival.(c) <- d.t_clk_q +. cell.Netlist.c_delay;
            state.(c) <- 2;
            decr sp
          | Netlist.Port_in ->
            arrival.(c) <- 0.;
            state.(c) <- 2;
            decr sp
          | Netlist.Port_out | Netlist.Comb ->
            let pending = ref false in
            for k = off.(c) to off.(c + 1) - 1 do
              let p = arc_pred.(k) in
              if state.(p) = 1 then failwith "Timing: combinational cycle"
              else if state.(p) = 0 then begin
                push p;
                pending := true
              end
            done;
            if not !pending then begin
              (* all inputs already resolved: finalize in place *)
              let worst = ref 0. in
              for k = off.(c) to off.(c + 1) - 1 do
                let t = arrival.(arc_pred.(k)) +. ndelay.(arc_net.(k)) in
                if t > !worst then begin
                  worst := t;
                  bp_pred.(c) <- arc_pred.(k);
                  bp_net.(c) <- arc_net.(k)
                end
              done;
              arrival.(c) <- !worst +. cell.Netlist.c_delay;
              state.(c) <- 2;
              decr sp
            end
        end
        else begin
          (* revisit: every predecessor pushed above has resolved *)
          let worst = ref 0. in
          for k = off.(c) to off.(c + 1) - 1 do
            let t = arrival.(arc_pred.(k)) +. ndelay.(arc_net.(k)) in
            if t > !worst then begin
              worst := t;
              bp_pred.(c) <- arc_pred.(k);
              bp_net.(c) <- arc_net.(k)
            end
          done;
          arrival.(c) <- !worst +. (Netlist.cell nl c).Netlist.c_delay;
          state.(c) <- 2;
          decr sp
        end
      done
    end
  in
  (* Path endpoints: arrival at the *inputs* of sequential cells and output
     ports, plus setup. *)
  let worst = ref 0. in
  (* endpoint cell, its predecessor and the net between; -1 while none *)
  let worst_end = ref (-1) and worst_pred = ref (-1) and worst_via = ref (-1) in
  (* I/O port paths are externally constrained (registered at the shell
     boundary), so like a real STA setup they are not clock endpoints. *)
  for c = 0 to n - 1 do
    let cell = Netlist.cell nl c in
    match cell.Netlist.c_kind with
    | Netlist.Seq | Netlist.Mem ->
      for k = off.(c) to off.(c + 1) - 1 do
        let p = arc_pred.(k) and nid = arc_net.(k) in
        eval p;
        let t = arrival.(p) +. ndelay.(nid) +. d.t_setup in
        if t > !worst then begin
          worst := t;
          worst_end := c;
          worst_pred := p;
          worst_via := nid
        end
      done
    | Netlist.Comb | Netlist.Port_in | Netlist.Port_out ->
      (* still force evaluation so cycles are reported deterministically *)
      eval c
  done;
  let critical = fmax !worst (d.t_clk_q +. d.t_setup) in
  (* Reconstruct the critical path by walking best_pred back. *)
  let path =
    if !worst_end < 0 then []
    else begin
      let endpoint = !worst_end and pred = !worst_pred and via = !worst_via in
      let rec back c via acc =
        let step =
          {
            ps_cell = c;
            ps_cell_name = (Netlist.cell nl c).Netlist.c_name;
            ps_arrival = arrival.(c);
            ps_via_net = via;
          }
        in
        if bp_pred.(c) >= 0 then back bp_pred.(c) (Some bp_net.(c)) (step :: acc)
        else step :: acc
      in
      let end_step =
        {
          ps_cell = endpoint;
          ps_cell_name = (Netlist.cell nl endpoint).Netlist.c_name;
          ps_arrival = arrival.(pred) +. ndelay.(via);
          ps_via_net = Some via;
        }
      in
      back pred (Some via) [ end_step ]
    end
  in
  (* Worst net along the path. *)
  let worst_net, worst_fo, worst_cls =
    List.fold_left
      (fun (wn, wf, wc) step ->
        match step.ps_via_net with
        | None -> (wn, wf, wc)
        | Some nid -> (
          match wn with
          | Some w when ndelay.(w) >= ndelay.(nid) -> (wn, wf, wc)
          | _ ->
            ( Some nid,
              Netlist.fanout nl nid,
              Some (Netlist.net nl nid).Netlist.n_class )))
      (None, 0, None) path
  in
  {
    critical_ns = critical;
    fmax_mhz = 1000. /. critical;
    path;
    worst_net;
    worst_net_fanout = worst_fo;
    worst_net_class = worst_cls;
    arrivals = arrival;
  }

let analyze ?jitter ?seed (d : Device.t) nl pl =
  analyze_ctx (prepare ?jitter ?seed d nl pl)

let run_body ?jitter ?seed d nl =
  let pl = Trace.with_span "place" (fun () -> Placement.place d nl) in
  let r = Trace.with_span "sta" (fun () -> analyze ?jitter ?seed d nl pl) in
  Metrics.incr "timing.runs";
  Metrics.set_gauge "timing.critical_ns" r.critical_ns;
  r

let run ?jitter ?seed d nl =
  if not (Trace.enabled ()) then run_body ?jitter ?seed d nl
  else
    Trace.with_span "timing"
      ~attrs:
        [
          ("netlist", Hlsb_telemetry.Json.Str (Netlist.name nl));
          ("cells", Hlsb_telemetry.Json.Int (Netlist.n_cells nl));
          ("nets", Hlsb_telemetry.Json.Int (Netlist.n_nets nl));
        ]
      (fun () -> run_body ?jitter ?seed d nl)
