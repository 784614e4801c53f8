(* RTL generation tests: lowered netlist structure, control styles, sync
   controllers. *)

open Hlsb_ir
module Netlist = Hlsb_netlist.Netlist
module Schedule = Hlsb_sched.Schedule
module Calibrate = Hlsb_delay.Calibrate
module Lower = Hlsb_rtlgen.Lower
module Design = Hlsb_rtlgen.Design
module Style = Hlsb_ctrl.Style
module Device = Hlsb_device.Device
module Pipeline = Core.Pipeline

let dev = Device.ultrascale_plus
let i32 = Dtype.Int 32

let streaming_kernel ?(unroll = 8) name =
  let dag = Dag.create () in
  let fin = Dag.add_fifo dag ~name:(name ^ "_in") ~dtype:i32 ~depth:8 in
  let fout = Dag.add_fifo dag ~name:(name ^ "_out") ~dtype:i32 ~depth:8 in
  let x = Dag.fifo_read dag ~fifo:fin in
  let acc = ref [] in
  Transform.unrolled dag ~factor:unroll (fun j ->
    let p = Dag.input dag ~name:(Printf.sprintf "%s_p%d" name j) ~dtype:i32 in
    acc := Dag.op dag Op.Add ~dtype:i32 [ x; p ] :: !acc);
  let sum = Transform.reduce_tree dag ~op:Op.Add ~dtype:i32 !acc in
  ignore (Dag.fifo_write dag ~fifo:fout ~value:sum);
  Kernel.create ~name dag

let lower_one ~pipe ~fanout_trees kernel =
  let nl = Netlist.create ~name:"t" in
  let mode =
    if fanout_trees then Schedule.Broadcast_aware (Calibrate.shared dev)
    else Schedule.Baseline
  in
  let sched = Schedule.run mode kernel in
  let lw = Lower.lower dev nl ~pipe ~fanout_trees sched in
  (nl, lw, sched)

let test_lower_valid_netlist () =
  List.iter
    (fun (pipe, trees) ->
      let nl, _, _ = lower_one ~pipe ~fanout_trees:trees (streaming_kernel "k") in
      match Netlist.validate nl with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [
      (Style.Stall, false);
      (Style.Skid { min_area = false }, true);
      (Style.Skid { min_area = true }, true);
    ]

let test_stall_net_fanout () =
  let nl, lw, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  (* the stall net reaches every sequential cell of the kernel (Fig. 8) *)
  match Netlist.max_fanout_net nl ~cls:Netlist.Ctrl_pipeline () with
  | None -> Alcotest.fail "no stall net"
  | Some (_, n) ->
    Alcotest.(check int) "stall fanout = all seq cells"
      (List.length lw.Lower.lw_seq_cells)
      (Array.length n.Netlist.n_sinks)

let test_skid_has_no_global_stall () =
  let nl, lw, _ =
    lower_one
      ~pipe:(Style.Skid { min_area = true })
      ~fanout_trees:true (streaming_kernel "k")
  in
  (* no single control net reaches a large share of the sequential cells *)
  let seq = List.length lw.Lower.lw_seq_cells in
  (match Netlist.max_fanout_net nl ~cls:Netlist.Ctrl_pipeline () with
  | None -> ()
  | Some (_, n) ->
    Alcotest.(check bool) "control nets local" true
      (Array.length n.Netlist.n_sinks < max 4 (seq / 4)));
  Alcotest.(check bool) "skid buffer bits allocated" true (lw.Lower.lw_skid_bits > 0)

let test_stall_has_no_skid () =
  let _, lw, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  Alcotest.(check int) "no skid bits" 0 lw.Lower.lw_skid_bits

let test_baseline_raw_broadcast () =
  let nl, _, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false
      (streaming_kernel ~unroll:32 "k")
  in
  (* the fifo word feeds all 32 adders on one raw net *)
  match Netlist.max_fanout_net nl ~cls:Netlist.Data_broadcast () with
  | None -> Alcotest.fail "expected a data broadcast net"
  | Some (_, n) ->
    Alcotest.(check bool) "raw fanout ~ unroll" true
      (Array.length n.Netlist.n_sinks >= 32)

let test_aware_bounded_fanout () =
  let nl, _, _ =
    lower_one
      ~pipe:(Style.Skid { min_area = true })
      ~fanout_trees:true
      (streaming_kernel ~unroll:64 "k")
  in
  (* distribution trees cap every net's fanout *)
  match Netlist.max_fanout_net nl () with
  | None -> Alcotest.fail "no nets"
  | Some (_, n) ->
    Alcotest.(check bool) "fanout bounded by tree leaves" true
      (Array.length n.Netlist.n_sinks <= 16)

let test_registers_added_accounting () =
  let _, lw_base, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false
      (streaming_kernel ~unroll:64 "k")
  in
  let _, lw_opt, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:true
      (streaming_kernel ~unroll:64 "k")
  in
  Alcotest.(check int) "baseline adds none" 0 lw_base.Lower.lw_registers_added;
  Alcotest.(check bool) "aware adds some" true (lw_opt.Lower.lw_registers_added > 0)

let test_depth_matches_schedule () =
  let _, lw, sched =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  Alcotest.(check int) "depth" sched.Schedule.depth lw.Lower.lw_depth

let test_fifo_interfaces_reported () =
  let _, lw, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  Alcotest.(check int) "one read iface" 1 (List.length lw.Lower.lw_fifo_read_ifaces);
  Alcotest.(check int) "one write iface" 1 (List.length lw.Lower.lw_fifo_write_ifaces);
  let rname, _, w = List.hd lw.Lower.lw_fifo_read_ifaces in
  Alcotest.(check string) "read name" "k_in" rname;
  Alcotest.(check int) "width" 32 w

(* ---- Design level ---- *)

let two_kernel_df () =
  let df = Dataflow.create () in
  let a = streaming_kernel "ka" in
  let b =
    (* consumer: reads ka_out *)
    let dag = Dag.create () in
    let fin = Dag.add_fifo dag ~name:"ka_out" ~dtype:i32 ~depth:8 in
    let fout = Dag.add_fifo dag ~name:"kb_out" ~dtype:i32 ~depth:8 in
    let x = Dag.fifo_read dag ~fifo:fin in
    let y = Dag.op dag Op.Add ~dtype:i32 [ x; x ] in
    ignore (Dag.fifo_write dag ~fifo:fout ~value:y);
    Kernel.create ~name:"kb" dag
  in
  let pa = Dataflow.add_process df ~name:"ka" ~kernel:a ~latency:9 () in
  let pb = Dataflow.add_process df ~name:"kb" ~kernel:b ~latency:4 () in
  ignore (Dataflow.add_channel df ~name:"ka_in" ~src:(-1) ~dst:pa ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"ka_out" ~src:pa ~dst:pb ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"kb_out" ~src:pb ~dst:(-1) ~dtype:i32 ());
  Dataflow.add_sync_group df [ pa; pb ];
  df

(* Compile a dataflow network through the pipeline, raising the stage's
   [Diag.Diagnostic] on failure. *)
let compile ~recipe ~name df =
  Pipeline.run_exn ~recipe
    (Pipeline.create ~device:dev ~name ~build:(fun () -> df) ())

let compile_kernel ~recipe kernel =
  Pipeline.run_exn ~recipe (Pipeline.of_kernel ~device:dev kernel)

let test_two_kernel_design () =
  let des =
    (compile ~recipe:Style.original ~name:"two" (two_kernel_df ()))
      .Pipeline.fr_design
  in
  (match Netlist.validate des.Design.netlist with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "two kernels" 2 (List.length des.Design.kernels);
  Alcotest.(check int) "one sync controller" 1 des.Design.sync_groups_emitted

let test_design_channel_wired () =
  let des =
    (compile ~recipe:Style.original ~name:"two" (two_kernel_df ()))
      .Pipeline.fr_design
  in
  let found = ref false in
  Netlist.iter_nets des.Design.netlist (fun _ n ->
    if n.Netlist.n_name = "chan_ka_out" then found := true);
  Alcotest.(check bool) "cross-kernel channel net" true !found

let test_design_missing_fifo_rejected () =
  let df = Dataflow.create () in
  let a = streaming_kernel "ka" in
  let pa = Dataflow.add_process df ~name:"ka" ~kernel:a () in
  ignore
    (Dataflow.add_channel df ~name:"nonexistent" ~src:pa ~dst:(-1) ~dtype:i32 ());
  (* the diagnostic must survive with its structure intact (stage +
     offending entity), not be flattened into an Invalid_argument string *)
  match compile ~recipe:Style.original ~name:"x" df with
  | _ -> Alcotest.fail "bad channel accepted"
  | exception Hlsb_util.Diag.Diagnostic d ->
    Alcotest.(check string) "stage" "lower" d.Hlsb_util.Diag.d_stage;
    Alcotest.(check bool) "entity carried" true
      (match d.Hlsb_util.Diag.d_entity with
      | Some (Hlsb_util.Diag.Channel _) | Some (Hlsb_util.Diag.Kernel _) -> true
      | _ -> false)

let test_design_sync_pruned_uses_latency () =
  (* pruned sync reduces the done-reduce inputs *)
  let naive =
    (compile ~recipe:Style.original ~name:"n" (two_kernel_df ()))
      .Pipeline.fr_design
  in
  let pruned =
    (compile
       ~recipe:{ Style.original with Style.sync = Style.Sync_pruned }
       ~name:"p" (two_kernel_df ()))
      .Pipeline.fr_design
  in
  let count_sync_nets (d : Design.t) =
    let c = ref 0 in
    Netlist.iter_nets d.Design.netlist (fun _ n ->
      if n.Netlist.n_class = Netlist.Ctrl_sync then incr c);
    !c
  in
  Alcotest.(check bool) "pruned has fewer sync nets" true
    (count_sync_nets pruned <= count_sync_nets naive)

let test_single_kernel_session () =
  let des =
    (compile_kernel ~recipe:Style.optimized (streaming_kernel "solo"))
      .Pipeline.fr_design
  in
  Alcotest.(check int) "one kernel" 1 (List.length des.Design.kernels);
  match Netlist.validate des.Design.netlist with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "lowered netlists validate" `Quick test_lower_valid_netlist;
    Alcotest.test_case "stall net fanout" `Quick test_stall_net_fanout;
    Alcotest.test_case "skid has no global stall" `Quick test_skid_has_no_global_stall;
    Alcotest.test_case "stall has no skid" `Quick test_stall_has_no_skid;
    Alcotest.test_case "baseline raw broadcast" `Quick test_baseline_raw_broadcast;
    Alcotest.test_case "aware bounded fanout" `Quick test_aware_bounded_fanout;
    Alcotest.test_case "registers-added accounting" `Quick
      test_registers_added_accounting;
    Alcotest.test_case "depth matches schedule" `Quick test_depth_matches_schedule;
    Alcotest.test_case "fifo interfaces" `Quick test_fifo_interfaces_reported;
    Alcotest.test_case "design generate" `Quick test_two_kernel_design;
    Alcotest.test_case "design channel wired" `Quick test_design_channel_wired;
    Alcotest.test_case "missing fifo rejected" `Quick test_design_missing_fifo_rejected;
    Alcotest.test_case "sync pruned smaller" `Quick test_design_sync_pruned_uses_latency;
    Alcotest.test_case "single kernel wrapper" `Quick test_single_kernel_session;
  ]

(* ---- end-to-end fuzz: random kernels survive the whole flow ---- *)

let random_kernel seed =
  let rng = Hlsb_util.Rng.create seed in
  let dag = Dag.create () in
  let fin = Dag.add_fifo dag ~name:"fz_in" ~dtype:i32 ~depth:8 in
  let fout = Dag.add_fifo dag ~name:"fz_out" ~dtype:i32 ~depth:8 in
  let pool = ref [ Dag.fifo_read dag ~fifo:fin ] in
  let pick () =
    List.nth !pool (Hlsb_util.Rng.int rng (List.length !pool))
  in
  (* maybe a buffer *)
  let buf =
    if Hlsb_util.Rng.bool rng then
      Some
        (Dag.add_buffer dag ~name:"fz_buf" ~dtype:i32
           ~depth:(256 lsl Hlsb_util.Rng.int rng 8)
           ~partition:1)
    else None
  in
  let n_ops = 10 + Hlsb_util.Rng.int rng 120 in
  for i = 0 to n_ops - 1 do
    let choice = Hlsb_util.Rng.int rng 10 in
    let node =
      if choice < 5 then
        let op =
          match Hlsb_util.Rng.int rng 5 with
          | 0 -> Op.Add
          | 1 -> Op.Sub
          | 2 -> Op.Min
          | 3 -> Op.Xor
          | _ -> Op.Mul
        in
        Dag.op dag op ~dtype:i32 [ pick (); pick () ]
      else if choice < 7 then
        Dag.op dag Op.Select ~dtype:i32
          [ Dag.op dag (Op.Icmp Op.Lt) ~dtype:Dtype.Bool [ pick (); pick () ];
            pick (); pick () ]
      else if choice < 8 then
        Dag.input dag ~name:(Printf.sprintf "fz_x%d" i) ~dtype:i32
      else
        match buf with
        | Some b when choice = 8 -> Dag.load dag ~buffer:b ~index:(pick ())
        | Some b ->
          ignore (Dag.store dag ~buffer:b ~index:(pick ()) ~value:(pick ()));
          pick ()
        | None -> Dag.op dag Op.Abs ~dtype:i32 [ pick () ]
    in
    pool := node :: !pool
  done;
  ignore (Dag.fifo_write dag ~fifo:fout ~value:(pick ()));
  Kernel.create ~name:(Printf.sprintf "fuzz%d" seed) dag

let prop_flow_fuzz =
  QCheck.Test.make ~count:40
    ~name:"random kernels: schedule, lower, validate, place, STA"
    QCheck.(pair small_nat bool)
    (fun (seed, optimized) ->
      let recipe =
        if optimized then Style.optimized else Style.original
      in
      let r = compile_kernel ~recipe (random_kernel seed) in
      (match Netlist.validate r.Pipeline.fr_design.Design.netlist with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid netlist: %s" e);
      r.Pipeline.fr_fmax_mhz > 10. && r.Pipeline.fr_fmax_mhz < 2000.)

let prop_opt_never_much_worse =
  QCheck.Test.make ~count:15
    ~name:"optimized flow within 25% of baseline on random kernels"
    QCheck.small_nat
    (fun seed ->
      let fmax recipe =
        (compile_kernel ~recipe (random_kernel seed)).Pipeline.fr_fmax_mhz
      in
      fmax Style.optimized >= 0.75 *. fmax Style.original)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest [ prop_flow_fuzz; prop_opt_never_much_worse ]
