(* Benchmark-generator tests: every Table-1 design builds, validates, has
   the broadcast structure its paper row claims, and fits its device. *)

open Hlsb_ir
module Spec = Hlsb_designs.Spec
module Suite = Hlsb_designs.Suite
module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Design = Hlsb_rtlgen.Design
module Style = Hlsb_ctrl.Style
module Pipeline = Core.Pipeline

(* Compile [build ()] on UltraScale+ under the original recipe. *)
let compile ~name build =
  Pipeline.run_exn ~recipe:Style.original
    (Pipeline.create ~device:Device.ultrascale_plus ~name ~build ())

let compile_kernel kernel =
  (Pipeline.run_exn ~recipe:Style.original
     (Pipeline.of_kernel ~device:Device.ultrascale_plus kernel))
    .Pipeline.fr_design

let test_ten_designs () =
  (* the nine Table-1 rows plus the wide-arithmetic modular squarer *)
  Alcotest.(check int) "ten benchmarks" 10 (List.length Suite.all)

let test_find () =
  Alcotest.(check bool) "stencil present" true (Suite.find "Stencil" <> None);
  Alcotest.(check bool) "unknown absent" true (Suite.find "nope" = None)

let test_all_networks_validate () =
  List.iter
    (fun (s : Spec.t) ->
      match Dataflow.validate (s.Spec.sp_build ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (s.Spec.sp_name ^ ": " ^ e))
    Suite.all

let test_paper_rows_sane () =
  List.iter
    (fun (s : Spec.t) ->
      let o, p = s.Spec.sp_paper.Spec.p_freq in
      Alcotest.(check bool) (s.Spec.sp_name ^ " freq gain") true (p > o))
    Suite.all

let test_genome_broadcast_structure () =
  let k = Hlsb_designs.Genome.kernel ~back_search_count:32 ~lane:0 () in
  let dag = k.Kernel.dag in
  (* some value (curr.x/y slices) must be read 32 times *)
  let max_reads = ref 0 in
  Dag.iter dag (fun v -> max_reads := max !max_reads (Dag.broadcast_factor dag v));
  Alcotest.(check bool) "32-way data broadcast" true (!max_reads >= 32)

let test_genome_lane_scaling () =
  let small = Hlsb_designs.Genome.kernel ~back_search_count:8 ~lane:0 () in
  let big = Hlsb_designs.Genome.kernel ~back_search_count:64 ~lane:0 () in
  Alcotest.(check bool) "unroll scales node count" true
    (Dag.n_nodes big.Kernel.dag > 4 * Dag.n_nodes small.Kernel.dag)

let test_stream_buffer_bram_bound () =
  let des =
    (compile ~name:"sb" (fun () -> Hlsb_designs.Stream_buffer.dataflow ()))
      .Pipeline.fr_design
  in
  let _, _, bram, _ = Netlist.utilization des.Design.netlist Device.ultrascale_plus in
  (* the paper's row: 95% BRAM; ours must be large and below 100% *)
  Alcotest.(check bool) "BRAM-dominated" true (bram > 0.5 && bram <= 1.0)

let test_stencil_depth_scales () =
  let d1 = compile_kernel (Hlsb_designs.Stencil.kernel ~iterations:1 ()) in
  let d4 = compile_kernel (Hlsb_designs.Stencil.kernel ~iterations:4 ()) in
  let depth (d : Design.t) =
    List.fold_left (fun acc k -> acc + k.Design.ki_depth) 0 d.Design.kernels
  in
  Alcotest.(check bool) "deeper super-pipeline" true (depth d4 > 2 * depth d1)

let test_hbm_sync_group () =
  let df = Hlsb_designs.Hbm_stencil.dataflow ~ports:12 () in
  (match Dataflow.sync_groups df with
  | [ g ] -> Alcotest.(check int) "all ports glued" 12 (List.length g)
  | _ -> Alcotest.fail "expected one sync group");
  (* the flows are channel-independent: pruning splits them all *)
  let pruned = Hlsb_ctrl.Sync.split_independent df in
  Alcotest.(check int) "pruned to one group per port" 12
    (List.length (Dataflow.sync_groups pruned))

let test_vector_sync_connected () =
  (* vector arith's PEs all feed the combiner: one connectivity component,
     so case-1 splitting alone cannot help; case-2 (latency) pruning must *)
  let df = Hlsb_designs.Vector_arith.dataflow ~width:64 ~pes:4 () in
  let pruned = Hlsb_ctrl.Sync.split_independent df in
  Alcotest.(check int) "still one group" 1
    (List.length (Dataflow.sync_groups pruned));
  match Dataflow.sync_groups df with
  | [ g ] ->
    let w = Hlsb_ctrl.Sync.longest_latency_wait df g in
    Alcotest.(check bool) "latency pruning drops members" true
      (List.length w.Hlsb_ctrl.Sync.skipped > 0)
  | _ -> Alcotest.fail "expected one group"

let test_pattern_pe_latencies_differ () =
  let df = Hlsb_designs.Pattern_match.dataflow ~pes:8 () in
  let lats =
    Array.to_list (Dataflow.processes df)
    |> List.filter_map (fun p -> p.Dataflow.p_latency)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "heterogeneous latencies" true (List.length lats > 1)

module Bigmul = Hlsb_designs.Bigmul
module Timing = Hlsb_physical.Timing

let bigmul_result ~bits ~limb ~lanes =
  compile
    ~name:(Printf.sprintf "bm%dx%d" bits lanes)
    (fun () -> Bigmul.dataflow ~bits ~limb ~lanes ())

let bigmul_netlist ~bits ~limb ~lanes =
  (bigmul_result ~bits ~limb ~lanes).Pipeline.fr_design.Design.netlist

let test_bigmul_deterministic () =
  (* same parameters => byte-identical netlist, at any job count *)
  let emit jobs =
    let saved = Hlsb_util.Pool.default_jobs () in
    Hlsb_util.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Hlsb_util.Pool.set_default_jobs saved)
      (fun () ->
        Hlsb_netlist.Export.to_verilog
          (bigmul_netlist ~bits:128 ~limb:8 ~lanes:1))
  in
  Alcotest.(check bool) "jobs=1 == jobs=4" true (String.equal (emit 1) (emit 4))

let test_bigmul_broadcast_structure () =
  (* squaring reads each a-limb across a whole partial-product row and
     column: a >= 2n-way implicit data broadcast *)
  let k = Bigmul.kernel ~bits:128 ~limb:8 () in
  let dag = k.Kernel.dag in
  let n = 128 / 8 in
  let max_reads = ref 0 in
  Dag.iter dag (fun v -> max_reads := max !max_reads (Dag.broadcast_factor dag v));
  Alcotest.(check bool) "2n-way limb broadcast" true (!max_reads >= 2 * n)

let test_bigmul_scaling () =
  (* doubling the width quadruples the partial-product grid *)
  let nodes bits = Dag.n_nodes (Bigmul.kernel ~bits ~limb:8 ()).Kernel.dag in
  Alcotest.(check bool) "node count quadratic in width" true
    (nodes 256 > 3 * nodes 128);
  (* lanes replicate the datapath: cells and nets scale linearly *)
  let one = bigmul_netlist ~bits:128 ~limb:8 ~lanes:1 in
  let two = bigmul_netlist ~bits:128 ~limb:8 ~lanes:2 in
  let ratio =
    float_of_int (Netlist.n_cells two) /. float_of_int (Netlist.n_cells one)
  in
  Alcotest.(check bool) "two lanes ~ 2x cells" true (ratio > 1.8 && ratio < 2.3);
  Alcotest.(check bool) "nets track cells" true
    (Netlist.n_nets two > Netlist.n_nets one);
  (* the measured-coefficient estimator is in the right ballpark *)
  let est = Bigmul.approx_cells ~bits:128 ~limb:8 ~lanes:1 in
  let act = Netlist.n_cells one in
  Alcotest.(check bool) "approx_cells within 2x" true
    (est > act / 2 && est < act * 2)

let test_bigmul_100k_smoke () =
  (* the acceptance point: a >=100k-cell netlist goes through place + STA *)
  let r = bigmul_result ~bits:420 ~limb:7 ~lanes:2 in
  let nl = r.Pipeline.fr_design.Design.netlist in
  Alcotest.(check bool) "past 100k cells" true (Netlist.n_cells nl >= 100_000);
  let t = r.Pipeline.fr_timing in
  Alcotest.(check bool) "finite critical path" true
    (t.Timing.critical_ns > 0. && t.Timing.fmax_mhz > 0.)

let test_all_fit_their_devices () =
  (* the expensive end-to-end check: both recipes of every benchmark
     lower to a valid netlist, place on the paper's device and time to a
     finite, positive Fmax *)
  List.iter
    (fun (s : Spec.t) ->
      let session = Pipeline.of_spec s in
      List.iter
        (fun recipe ->
          let r = Pipeline.run_exn session ~recipe in
          let what = r.Pipeline.fr_label in
          (match Netlist.validate r.Pipeline.fr_design.Design.netlist with
          | Ok () -> ()
          | Error e -> Alcotest.fail (what ^ ": " ^ e));
          let fmax = r.Pipeline.fr_fmax_mhz in
          if not (Float.is_finite fmax && fmax > 0.) then
            Alcotest.failf "%s: Fmax %g MHz" what fmax)
        [ Style.original; Style.optimized ])
    Suite.all

let suite =
  [
    Alcotest.test_case "ten designs" `Quick test_ten_designs;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "networks validate" `Quick test_all_networks_validate;
    Alcotest.test_case "paper rows sane" `Quick test_paper_rows_sane;
    Alcotest.test_case "genome broadcast" `Quick test_genome_broadcast_structure;
    Alcotest.test_case "genome scaling" `Quick test_genome_lane_scaling;
    Alcotest.test_case "stream buffer bram" `Quick test_stream_buffer_bram_bound;
    Alcotest.test_case "stencil depth scales" `Quick test_stencil_depth_scales;
    Alcotest.test_case "hbm sync group" `Quick test_hbm_sync_group;
    Alcotest.test_case "vector sync structure" `Quick test_vector_sync_connected;
    Alcotest.test_case "pattern latencies" `Quick test_pattern_pe_latencies_differ;
    Alcotest.test_case "bigmul deterministic" `Quick test_bigmul_deterministic;
    Alcotest.test_case "bigmul broadcast" `Quick test_bigmul_broadcast_structure;
    Alcotest.test_case "bigmul scaling" `Quick test_bigmul_scaling;
    Alcotest.test_case "bigmul 100k smoke" `Slow test_bigmul_100k_smoke;
    Alcotest.test_case "all fit devices" `Slow test_all_fit_their_devices;
  ]
