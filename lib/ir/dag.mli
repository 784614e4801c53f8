(** The operation DAG of one (pipelined) loop body after inlining and
    unrolling — the unit the HLS scheduler works on. Nodes are created in
    topological order (an argument must already exist), so node ids double
    as a topological order.

    Broadcast structure is implicit here exactly as in the paper: a node
    consumed by many later nodes (a loop-invariant value referenced by every
    unrolled body instance, a register feeding every BRAM unit of a large
    buffer) is a data broadcast even though nothing in the builder API says
    "broadcast". *)

type t
type node = int

type buffer = {
  b_name : string;
  b_dtype : Dtype.t;
  b_depth : int;  (** words *)
  b_partition : int;  (** cyclic partition factor; 1 = monolithic *)
}

type fifo = {
  f_name : string;
  f_dtype : Dtype.t;
  f_depth : int;
}

type kind =
  | Input of string
  | Const of int64
  | Operation of Op.t
  | Load of int  (** buffer id; args = [index] *)
  | Store of int  (** buffer id; args = [index; value] *)
  | Fifo_read of int  (** fifo id *)
  | Fifo_write of int  (** fifo id; args = [value] *)
  | Output of string  (** args = [value] *)

val create : unit -> t

(** {2 Declarations} *)

val add_buffer : t -> name:string -> dtype:Dtype.t -> depth:int -> partition:int -> int
val add_fifo : t -> name:string -> dtype:Dtype.t -> depth:int -> int

(** {2 Node constructors} *)

val input : t -> name:string -> dtype:Dtype.t -> node
val const : t -> dtype:Dtype.t -> int64 -> node
val op : t -> Op.t -> dtype:Dtype.t -> node list -> node
(** Raises [Invalid_argument] on arity mismatch or forward references. *)

val load : t -> buffer:int -> index:node -> node
val store : t -> buffer:int -> index:node -> value:node -> node
val fifo_read : t -> fifo:int -> node
val fifo_write : t -> fifo:int -> value:node -> node
val output : t -> name:string -> value:node -> node

(** {2 Accessors} *)

val n_nodes : t -> int
val kind : t -> node -> kind
val dtype : t -> node -> Dtype.t
val args : t -> node -> node list
val node_name : t -> node -> string
val buffers : t -> buffer array
val fifos : t -> fifo array
val buffer : t -> int -> buffer
val fifo : t -> int -> fifo

val consumers : t -> node -> node list
(** Nodes that read this node's value (deduplicated, ascending). *)

val reads : t -> node -> node list
(** Nodes that read this node's value, one entry per argument slot that
    reads it, ascending (a node reading the value twice appears twice, in
    a row): {!consumers} with multiplicity. Cached; no allocation. *)

val broadcast_factor : t -> node -> int
(** Number of argument slots in which this node's value is read — the "how
    many times a variable is read by later instructions" count of §4.1.
    A [Store] to a partitioned/multi-BRAM buffer additionally multiplies
    the *value* operand's physical fanout; that physical effect is accounted
    for in netlist generation, not here. *)

val iter : t -> (node -> unit) -> unit
(** In topological (= id) order. *)

val validate : t -> (unit, string) result
(** Structural checks: arities, arg ranges, buffer/fifo ids, dtype of
    comparison results, store value width matches buffer width. *)

val op_histogram : t -> (string * int) list
(** Operator name -> count, sorted by name; for reports. *)

val pp : Format.formatter -> t -> unit
