(** Static timing analysis over a placed netlist.

    Arrival times propagate through the combinational subgraph; paths start
    at sequential outputs (clk->q) and input ports, and end at sequential
    inputs (setup); I/O port paths are externally constrained. Net delay is
    [t_net_base + t_net_fanout * ln(1+f) + t_net_dist * star_length]
    (source-to-farthest-sink plus sink spread), optionally
    perturbed by a small deterministic jitter that models the run-to-run
    noise of heuristic place & route (the reason §4.1 smooths measured
    delays with their neighbors). *)

type path_step = {
  ps_cell : int;
  ps_cell_name : string;
  ps_arrival : float;  (** arrival at this cell's output, ns *)
  ps_via_net : int option;  (** net taken to reach this cell *)
}

type report = {
  critical_ns : float;  (** worst register-to-register (or port) path, ns *)
  fmax_mhz : float;
  path : path_step list;  (** critical path, source first *)
  worst_net : int option;  (** highest-delay net on the critical path *)
  worst_net_fanout : int;
  worst_net_class : Hlsb_netlist.Netlist.net_class option;
  arrivals : float array;
      (** arrival time at each cell's output (ns); sequential cells report
          clk->q. Used by the characterizer to probe a specific cell. *)
}

val jitter_factor : jitter:float -> seed:int -> int -> float
(** The deterministic per-net perturbation factor ([>= 0.5], 1.0 when
    [jitter <= 0.]): an allocation-free replay of the two splitmix64
    draws [Hlsb_util.Rng.gaussian] would make from a fresh
    [Rng.create ((seed * 1_000_003) + nid)] — exposed so tests can pin
    the equivalence. *)

val star_length : Placement.t -> int -> float
(** Source-to-farthest-sink Manhattan distance plus the pins' mean spread
    radius ({!Placement.radii}) — the length of the longest branch of the
    routed net, which is what its delay follows. For two-pin nets between
    one-slice cells this is the Manhattan distance plus 1; for star-shaped
    nets it avoids the bounding-box overestimate. Dangling nets have
    length 0. *)

val net_delay :
  Hlsb_device.Device.t ->
  Hlsb_netlist.Netlist.t ->
  Placement.t ->
  jitter:float ->
  seed:int ->
  int ->
  float
(** Delay of one net under the model above. [jitter] is the relative sigma
    (0. disables); the perturbation is a deterministic function of [seed]
    and the net id. *)

val analyze :
  ?jitter:float ->
  ?seed:int ->
  Hlsb_device.Device.t ->
  Hlsb_netlist.Netlist.t ->
  Placement.t ->
  report
(** Raises [Failure] on a combinational cycle (validate the netlist
    first). Default [jitter] is [0.02], default [seed] is derived from the
    netlist name so a given design is reproducible. Equivalent to
    {!prepare} followed by {!analyze_ctx}. *)

(** {2 Incremental analysis}

    The characterize loop and ECO-style exploration re-run STA against
    placements that barely change between queries. A {!ctx} caches the
    fanin CSR and the per-net delay array for one (netlist, placement)
    pair; {!refresh} re-times only the nets whose endpoint cells moved
    (via {!Placement.set_position}) since the last fill — without
    allocating: the per-net delay is computed on unboxed floats straight
    from {!Placement.xs}/{!Placement.ys} — and {!analyze_ctx} runs the arrival propagation over the cached arrays.
    Reports are bit-identical to a fresh {!analyze} of the same
    positions. *)

type ctx

val prepare :
  ?jitter:float ->
  ?seed:int ->
  Hlsb_device.Device.t ->
  Hlsb_netlist.Netlist.t ->
  Placement.t ->
  ctx
(** Build the timing arrays for this placement (same defaults as
    {!analyze}). The context aliases the placement: later position edits
    are picked up by {!refresh}. *)

val refresh : ctx -> int
(** Re-time the nets incident to cells that moved since {!prepare} (or
    the previous [refresh]); returns how many net delays were recomputed
    (0 when nothing moved). *)

val analyze_ctx : ctx -> report
(** Arrival propagation + critical-path reconstruction over the cached
    arrays. Call after {!refresh} when positions changed. *)

val run : ?jitter:float -> ?seed:int -> Hlsb_device.Device.t -> Hlsb_netlist.Netlist.t -> report
(** Place then analyze. *)
