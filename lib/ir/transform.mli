(** Front-end transforms that *create* the implicit broadcasts (§3.1): loop
    unrolling replicates the body around shared loop-invariant values;
    array partitioning multiplies the number of physical memories a data
    source must reach. *)

val unrolled :
  Dag.t -> factor:int -> (int -> unit) -> unit
(** [unrolled dag ~factor body] invokes [body j] for [j = 0 .. factor-1].
    Values the caller captured from outside become shared broadcast sources,
    exactly like [source] in Fig. 1. Raises [Invalid_argument] if
    [factor < 1]. This is deliberately just structured iteration — the
    broadcast arises from sharing, not from any special marker. *)

val partitioned_buffers :
  Dag.t ->
  name:string ->
  dtype:Dtype.t ->
  depth:int ->
  factor:int ->
  int array
(** Cyclic array partitioning: declares [factor] buffers of [depth/factor]
    words each (rounded up) and returns their ids. Mirrors
    [#pragma HLS array_partition cyclic factor=N]. *)

val reduce_tree :
  Dag.t -> op:Op.t -> dtype:Dtype.t -> Dag.node list -> Dag.node
(** Balanced binary reduction (the adder tree HLS infers for dot products,
    Fig. 17). Raises [Invalid_argument] on the empty list. *)
