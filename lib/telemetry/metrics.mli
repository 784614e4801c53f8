(** Metrics registry: named counters, gauges, and fixed-bucket
    histograms, with a snapshot/diff API and JSON export.

    Instrumentation sites call the global no-argument-registry functions
    ({!incr}, {!set_gauge}, {!observe_int}, …); they act on the
    registry installed with {!install} and are no-ops otherwise. The
    disabled path is one [ref] dereference and a branch — no
    allocation — so library code can instrument per-node and per-cycle
    loops unconditionally. Integer-flavoured entry points exist
    precisely so hot paths never box a float while disabled.

    Well-known metric names emitted by the compile flow:
    - ["sched.broadcast_factor"] (histogram) — input-side broadcast
      factor of every scheduled operation (§4.1).
    - ["sched.fanout_after_split"] (histogram) — same nodes after
      broadcast-distribution trees cap the leaf fanout.
    - ["sched.registers_inserted"] (counter) — pipeline + distribution
      registers added by the broadcast-aware schedule.
    - ["sync.edges_pruned"] (counter) — done-wait edges removed by the
      §4.2 longest-static-latency pruning.
    - ["sync.groups_split"] (counter) — extra controllers created by
      splitting independent sync groups.
    - ["sync.controllers"] (counter), ["sync.max_start_fanout"] (gauge).
    - ["calibrate.lookups"] (counter), ["calibrate.curve_builds"]
      (counter) — delay-calibration table traffic.
    - ["timing.runs"] (counter), ["timing.critical_ns"] (gauge).
    - ["netlist.cells"], ["netlist.nets"] (counters) — emitted size.
    - ["lower.registers_added"], ["lower.skid_bits"] (counters).
    - ["sim.skid_occupancy"] (histogram) — per-cycle skid-buffer fill
      (§4.3); ["sim.cycles"] (counter). *)

type t

val create : unit -> t

(** {1 Global installation}

    Installation is process-wide: every domain — in particular pool worker
    domains running inside a parallel region — records into the installed
    registry. Each domain writes to a private shard (no locks or
    cross-domain contention on the hot path); shards are merged when the
    registry is read ({!snapshot}, {!counter_value}, {!gauge_value}).
    Counters and histograms merge additively; a gauge recorded by several
    domains keeps the earliest-recording domain's value. *)

val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option
val enabled : unit -> bool

val with_registry : t -> (unit -> 'a) -> 'a
(** Install [t], run the thunk, restore the previous registry (also on
    exceptions). *)

(** {1 Instrumentation entry points (no-ops when nothing installed)} *)

val incr : ?by:int -> string -> unit
val set_gauge : string -> float -> unit
val set_gauge_int : string -> int -> unit

val observe : ?buckets:float array -> string -> float -> unit
(** Record a histogram sample. [buckets] (upper bounds, ascending) only
    takes effect on the sample that creates the histogram; later calls
    reuse the existing buckets. Default buckets are powers of two
    1,2,4,…,1024 — the natural grid for broadcast factors, fanouts and
    FIFO occupancies. *)

val observe_int : string -> int -> unit

(** {1 Direct registry access} *)

val counter_value : t -> string -> int
(** 0 if the counter was never incremented. *)

val gauge_value : t -> string -> float option

(** {1 Snapshots} *)

type hist_snap = {
  hs_buckets : float array;  (** upper bounds, ascending; implicit +inf last *)
  hs_counts : int array;  (** length = length hs_buckets + 1 (overflow) *)
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** nan when empty *)
  hs_max : float;  (** nan when empty *)
}

type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name *)
  sn_gauges : (string * float) list;
  sn_hists : (string * hist_snap) list;
}

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counters and histogram counts/sums subtract; gauges are taken from
    [after]. Histogram min/max are taken from [after] when the interval
    added at least one sample — they are running extrema, so they may
    still predate the interval — and are [nan] when the count delta is
    zero (no samples in the interval means no extrema, not stale ones).
    Entries only in [after] pass through; entries only in [before] are
    dropped. *)

val quantile : hist_snap -> float -> float
(** [quantile h p] estimates the [p]-quantile ([0. <= p <= 1.]) from the
    bucket counts: the bucket containing rank [p * count] is found and
    the value is interpolated linearly inside it, with bucket edges
    clamped to the observed [hs_min]/[hs_max] (the overflow bucket uses
    [hs_max] as its upper edge). [p <= 0.] returns [hs_min], [p >= 1.]
    returns [hs_max]; nan when the histogram is empty. Exact whenever
    samples are uniformly spread inside their buckets; always within the
    containing bucket's clamped bounds. *)

val to_json : snapshot -> Json.t
val render : snapshot -> string
(** Human-readable table of all metrics. *)
