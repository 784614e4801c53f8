(** Top-level RTL generation for a dataflow design: schedules every kernel,
    lowers them into one netlist, wires cross-kernel FIFO channels by name,
    and emits the synchronization controllers — naive (one AND-tree over
    every done in a sync group, one start broadcast to every member,
    Fig. 6) or pruned (§4.2: independent flows get their own controller;
    parallel modules wait only on the longest static latency).

    The work is split into the three stage functions the compile pipeline
    ([Core.Pipeline]) runs and caches individually, after it has
    validated the network: {!schedule_processes} (pure per-kernel
    scheduling, reusable across recipes that share a [sched_mode]),
    {!lower_processes} (netlist emission + channel wiring) and
    {!emit_sync} (controller emission, completing a {!t}). *)

type kernel_info = {
  ki_name : string;
  ki_depth : int;
  ki_registers_added : int;
  ki_skid_bits : int;
}

type t = {
  netlist : Hlsb_netlist.Netlist.t;
  device : Hlsb_device.Device.t;
  recipe : Hlsb_ctrl.Style.recipe;
  kernels : kernel_info list;
  sync_groups_emitted : int;
  max_sync_fanout : int;  (** largest start-broadcast fanout emitted *)
}

type datapath = {
  dp_netlist : Hlsb_netlist.Netlist.t;
  dp_lowered : Lower.t option array;  (** indexed by process id *)
}
(** Artifact of the [lower] stage: the netlist holding every kernel's
    datapath with channels wired, before synchronization controllers.
    [emit_sync] appends to [dp_netlist] in place — a datapath feeds
    exactly one {!emit_sync} call. *)

val schedule_processes :
  ?target_mhz:float ->
  ?inject:Hlsb_sched.Schedule.inject ->
  device:Hlsb_device.Device.t ->
  recipe:Hlsb_ctrl.Style.recipe ->
  Hlsb_ir.Dataflow.t ->
  Hlsb_sched.Schedule.t option array
(** Schedule every kernel process ([None] for kernel-less processes).
    Depends only on the recipe's [sched] mode (plus the target clock and
    any register injection), so the pipeline reuses the result across
    recipes that agree on them. *)

val lower_processes :
  device:Hlsb_device.Device.t ->
  recipe:Hlsb_ctrl.Style.recipe ->
  name:string ->
  Hlsb_ir.Dataflow.t ->
  Hlsb_sched.Schedule.t option array ->
  datapath
(** Lower the scheduled kernels into a fresh netlist and wire the
    cross-kernel FIFO channels. Raises {!Hlsb_util.Diag.Diagnostic}
    (stage ["lower"], entity [Channel]) naming both the channel and the
    offending kernel when an endpoint lacks the matching FIFO interface. *)

val emit_sync :
  device:Hlsb_device.Device.t ->
  recipe:Hlsb_ctrl.Style.recipe ->
  Hlsb_ir.Dataflow.t ->
  datapath ->
  t
(** Emit the synchronization controllers into the datapath's netlist and
    assemble the design record. *)

val kernel_dataflow : Hlsb_ir.Kernel.t -> Hlsb_ir.Dataflow.t
(** Wrap one kernel in a single-process dataflow network (with the anchor
    input channel that makes it validate) — what a single-kernel
    pipeline session ([Core.Pipeline.of_kernel]) elaborates. *)
