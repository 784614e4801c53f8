(** Topology-driven placement onto the device slice grid.

    Cells are visited in construction order (which the RTL generators emit
    in dataflow order) and packed along a Hilbert space-filling curve over
    the slice grid, so logically adjacent cells land physically adjacent —
    the outcome a timing-driven placer converges to, without its cost.

    A refinement pass then pulls light register cells to the midpoint of
    their drivers and sinks (what a timing-driven placer and phys_opt do):
    a chain of registers inserted across a long route settles at evenly
    spaced waypoints, so pipelining a broadcast genuinely divides its wire
    delay across cycles — the physical mechanism behind §4.1's register
    insertion.

    The property the timing model needs from placement is: a net whose
    sinks occupy total slice area S has a bounding box of half-perimeter
    Θ(√S) — large broadcasts spread over the die and pay wire delay that
    grows with the square root of the broadcast factor (Fig. 9). *)

type t

val hilbert_point : int -> int -> int
(** [hilbert_point side d] is the [d]-th point of the Hilbert curve over a
    [side] x [side] grid ([side] a power of two), packed as
    [x * side + y]. The packer walks this curve one slice at a time. *)

val place :
  ?max_sweeps:int ->
  ?early_exit:bool ->
  Hlsb_device.Device.t ->
  Hlsb_netlist.Netlist.t ->
  t
(** Pack, then refine with up to [max_sweeps] (default 24) alternating
    relax sweeps. With [early_exit] (default [true]) the refinement stops
    at the first sweep whose largest position update is exactly zero — a
    fixpoint, so the result is bit-identical to running every sweep;
    [~early_exit:false] forces the historical fixed-count behaviour (for
    equivalence tests). Raises [Hlsb_util.Diag.Diagnostic] (stage
    ["place"], entity [Design]) naming the device and the capacity
    constraint if the design does not fit. *)

val netlist : t -> Hlsb_netlist.Netlist.t
(** The netlist this placement places. *)

val position : t -> int -> float * float
(** Centroid of a placed cell in slice-grid units. *)

val xs : t -> float array
val ys : t -> float array
(** The placement's own x and y centroid arrays, indexed by cell: the
    allocation-free way to read every position (STA snapshots them).
    Read-only by contract; move cells with {!set_position}. *)

val radii : t -> float array
(** Per-cell spread radius, [sqrt (footprint_slices t c)]: a large cell
    is a region, and the wire-length model adds the mean radius of a
    net's pins. Read-only. *)

val set_position : t -> int -> float * float -> unit
(** Move one cell (ECO-style nudge between STA queries). The placement's
    wire-length queries see the new centroid immediately; pair with
    [Timing.refresh] to re-time only the nets the move touched. *)

val footprint_slices : t -> int -> int
(** Slices occupied by a cell (1 minimum; BRAM/DSP cells report their site
    count scaled to slice-equivalents for bbox purposes). *)

val hpwl : t -> int -> float
(** Half-perimeter wire length of a net's bounding box (driver + sinks), in
    slice-grid units. Dangling nets have hpwl 0. *)

val bbox : t -> int -> float * float * float * float
(** (xmin, ymin, xmax, ymax) of a net. *)

val overlap_free : t -> bool
(** True if no two cells share a packing slot; holds by construction
    (disjoint curve slots — refined registers are light enough to legalize
    next to their ideal point), exposed for tests. *)

val max_extent : t -> float
(** Largest coordinate used; must be within the die (tests). *)
