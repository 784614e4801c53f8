(** FPGA device models: resource capacities (for the utilization columns of
    Table 1) and the wire-delay constants of the synthetic physical backend.

    The grid abstracts the column-based layout of Xilinx parts: a [cols] x
    [rows] array of slices, with BRAM and DSP columns interleaved every few
    slice columns. Placement distances are measured in slice-grid units and
    converted to nanoseconds by [t_net_dist]. *)

type t = {
  name : string;
  family : string;
  board : string;  (** the board the paper used this part on *)
  luts : int;
  ffs : int;
  bram18 : int;  (** 18 kbit BRAM units *)
  dsps : int;
  cols : int;
  rows : int;
  lut_per_slice : int;
  ff_per_slice : int;
  bram_col_every : int;  (** a BRAM column after every N slice columns *)
  dsp_col_every : int;
  t_clk_q : float;  (** ns, register clock-to-out *)
  t_setup : float;  (** ns, register setup *)
  t_lut : float;  (** ns, one LUT level of logic *)
  t_net_base : float;  (** ns, minimum routed-net delay *)
  t_net_fanout : float;  (** ns coefficient on ln(1 + fanout) *)
  t_net_dist : float;  (** ns per slice-grid unit of half-perimeter *)
}

val ultrascale_plus : t
(** VU9P-class part, the AWS F1 instance FPGA. *)

val zynq_7z045 : t
(** ZC706 board (face detection row of Table 1). *)

val virtex7_690t : t
(** Alpha-Data board (pattern matching row of Table 1). *)

val alveo_u50 : t
(** VU35P-class HBM part (HBM stencil row of Table 1). *)

val all : t list

val n_slices : t -> int
val slices_for_luts : t -> int -> int
(** Slices needed to hold that many LUTs (ceiling). *)

val bram18_for : width:int -> depth:int -> int
(** BRAM18 units needed for a [width]-bit x [depth]-word memory, accounting
    for both total bits and the max per-unit port width (36). *)

val find : string -> t option
(** Look up a device by [name]. *)

val pp : Format.formatter -> t -> unit
