(** Macro-cell netlist: the RTL that HLS emits, at the granularity the
    timing analysis needs. A cell is one datapath operator, register bank,
    BRAM bank, DSP block, or control-logic macro; a net connects one driver
    to its sinks. Broadcast structures are simply nets with large sink
    lists — whether they came from the datapath (§3.1) or from control
    (§3.2/3.3) is recorded in [net_class] so reports can attribute timing
    failures to a broadcast category. *)

type resources = {
  r_luts : int;
  r_ffs : int;
  r_bram18 : int;
  r_dsps : int;
}

val zero_res : resources
val add_res : resources -> resources -> resources

type cell_kind =
  | Comb  (** combinational macro (operator, mux, and-tree level) *)
  | Seq  (** register bank: path endpoint + startpoint *)
  | Mem  (** BRAM bank with synchronous read: sequential for timing *)
  | Port_in
  | Port_out

type net_class =
  | Data  (** ordinary datapath net *)
  | Data_broadcast  (** datapath net known to be a §3.1 broadcast source *)
  | Ctrl_sync  (** §3.2 synchronization (done/start) net *)
  | Ctrl_pipeline  (** §3.3 pipeline flow-control (stall/enable) net *)

type cell = private {
  c_name : string;
  c_kind : cell_kind;
  c_delay : float;  (** intrinsic logic delay, ns (Seq: clk->q handled by device) *)
  c_res : resources;
}

type net = private {
  n_name : string;
  n_driver : int;
  n_sinks : int array;
  n_width : int;
  n_class : net_class;
}

type t

val create : name:string -> t
val name : t -> string

val add_cell :
  t ->
  name:string ->
  kind:cell_kind ->
  delay:float ->
  res:resources ->
  int

val add_net :
  t ->
  ?cls:net_class ->
  name:string ->
  driver:int ->
  sinks:int list ->
  width:int ->
  unit ->
  int
(** Raises [Invalid_argument] on out-of-range cells, [width < 1], or a
    driver that is an output port. Empty sink lists are allowed (dangling
    nets are legal RTL and are ignored by timing). *)

val n_cells : t -> int
val n_nets : t -> int
val cell : t -> int -> cell
val net : t -> int -> net
val iter_cells : t -> (int -> cell -> unit) -> unit
val iter_nets : t -> (int -> net -> unit) -> unit

val fanout : t -> int -> int
(** Sink count of a net. *)

val max_fanout_net : t -> ?cls:net_class -> unit -> (int * net) option
(** The highest-fanout net, optionally restricted to one class. *)

val total_resources : t -> resources

val utilization : t -> Hlsb_device.Device.t -> float * float * float * float
(** (lut, ff, bram, dsp) utilization as fractions of the device. *)

val validate : t -> (unit, string) result
(** Checks net endpoints and that no combinational cycle exists (walking
    Comb cells through nets). *)

val merge : t -> t -> int array * int array
(** [merge dst src] appends all cells/nets of [src] into [dst]; returns the
    (cell, net) id translation arrays. Used to stitch per-kernel netlists
    into a top-level design. *)
