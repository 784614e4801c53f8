(** Minimal directed-graph algorithms over nodes [0 .. n-1], used for
    dataflow connectivity, netlist traversal and schedule dependence
    checks. *)

type t
(** A directed graph with a fixed number of nodes. *)

val create : int -> t
(** [create n] is an edgeless graph on [n] nodes. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds a directed edge u -> v (duplicates allowed, kept).
    Raises [Invalid_argument] on out-of-range nodes. *)

val n_nodes : t -> int

val topological_order : t -> int list option
(** [Some order] with every edge going forward in [order], or [None] if the
    graph has a cycle. *)

val connected_components : t -> int array
(** Weakly-connected component index per node; components are numbered
    densely from 0 in order of first appearance. *)

val longest_path_lengths : t -> weight:(int -> float) -> float array option
(** [longest_path_lengths g ~weight] is, per node, the largest sum of node
    weights over paths ending at that node (inclusive). [None] on cycles. *)

val reachable_from : t -> int list -> bool array
(** Forward reachability from a set of sources (sources included). *)
