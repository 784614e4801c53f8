(** Calibrated delay model (§4.1): for each (operator, datatype) the
    measured broadcast-delay curve is sampled on a log-spaced factor grid,
    each point is averaged with its neighbours to suppress backend noise,
    and the calibrated delay is

      max(HLS-predicted, smoothed measurement)

    — matching the paper's choice ("we choose the maximum between the
    HLS-predicted delay and our experimented results"), which keeps the
    tool conservative where the vendor model already is (float multiply)
    and fixes it where it is blind (large broadcasts). *)

open Hlsb_ir

type t

val create : ?window:int -> ?cache_dir:string -> Hlsb_device.Device.t -> t
(** [window] is the neighbour-smoothing half-width (default 1). Curves are
    characterized lazily and cached per (op, dtype). When [cache_dir] is
    given, raw curves are also persisted there (see {!Cal_cache}) and
    reloaded on later runs instead of being re-characterized. *)

val device : t -> Hlsb_device.Device.t

val cache_dir : t -> string option
(** The on-disk cache directory this instance persists to, if any. *)

val factor_grid : int array
(** The log-spaced broadcast factors at which curves are sampled. *)

val unit_grid : int array
(** BRAM18 unit counts at which memory curves are sampled (once per device
    — the unit count, not the width/depth split, sets the broadcast cost). *)

val op_delay : t -> Op.t -> Dtype.t -> factor:int -> float
(** Calibrated delay at any factor >= 1 (log-interpolated between grid
    points, clamped beyond). *)

val mem_write_delay : t -> width:int -> depth:int -> float
(** Calibrated store delay for a buffer of the given geometry. *)

val mem_read_delay : t -> width:int -> depth:int -> float

type curve_row = {
  cr_factor : int;
  cr_predicted : float;
  cr_measured : float;
  cr_calibrated : float;
}

val op_curve : t -> Op.t -> Dtype.t -> curve_row list
(** The Fig. 9 series for one operator. *)

val mem_curve : t -> width:int -> curve_row list
(** The Fig. 9 BRAM-access series; [cr_factor] is the equivalent 36-bit
    buffer depth in words. Uses the write path (the harsher of the two). *)

val warm : ?ops:(Op.t * Dtype.t) list -> ?mem:bool -> t -> unit
(** Force characterization (or cache load) of the given operator curves and,
    when [mem] is true (default), the memory curves — used by
    [hlsbc calibrate --warm] to populate the persistent cache ahead of
    time. *)

val shared : ?window:int -> Hlsb_device.Device.t -> t
(** A process-wide memoized instance per (device, window): characterization
    curves are expensive, and every design on the same device can reuse
    them. Shared instances persist to the ambient cache directory
    ({!Cal_cache.ambient_dir}) when one is available. Thread-safe. *)
