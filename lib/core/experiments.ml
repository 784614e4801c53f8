open Hlsb_ir
module Device = Hlsb_device.Device
module Calibrate = Hlsb_delay.Calibrate
module Schedule = Hlsb_sched.Schedule
module Sched_report = Hlsb_sched.Report
module Style = Hlsb_ctrl.Style
module Skid = Hlsb_ctrl.Skid
module Timing = Hlsb_physical.Timing
module Design = Hlsb_rtlgen.Design
module Spec = Hlsb_designs.Spec
module Table = Hlsb_util.Table
module Pool = Hlsb_util.Pool

(* ---------- Table 1 ---------- *)

type table1_row = {
  t1_name : string;
  t1_broadcast : string;
  t1_device : string;
  t1_orig : Pipeline.result;
  t1_opt : Pipeline.result;
  t1_paper : Spec.paper_numbers;
}

let run_table1 ?subset ?jobs () =
  let specs =
    match subset with
    | None -> Hlsb_designs.Suite.all
    | Some names ->
      List.filter
        (fun s -> List.mem s.Spec.sp_name names)
        Hlsb_designs.Suite.all
  in
  (* Each benchmark compiles twice (original/optimized recipes) through
     one pipeline session, so elaboration is shared; rows are
     independent, so fan them out across the pool. *)
  Pool.map_list ?jobs
    (fun spec ->
      let session = Pipeline.of_spec spec in
      let orig = Pipeline.run_exn session ~recipe:Style.original in
      let opt = Pipeline.run_exn session ~recipe:Style.optimized in
      {
        t1_name = spec.Spec.sp_name;
        t1_broadcast = spec.Spec.sp_broadcast;
        t1_device = spec.Spec.sp_device.Device.board;
        t1_orig = orig;
        t1_opt = opt;
        t1_paper = spec.Spec.sp_paper;
      })
    specs

let pct v = Printf.sprintf "%.0f" v
let mhz v = Printf.sprintf "%.0f" v

let render_table1 rows =
  let t =
    Table.create
      ~headers:
        [
          ("Application", Table.Left);
          ("Broadcast type", Table.Left);
          ("Target FPGA", Table.Left);
          ("LUT O/P", Table.Right);
          ("FF O/P", Table.Right);
          ("BRAM O/P", Table.Right);
          ("DSP O/P", Table.Right);
          ("Freq Orig", Table.Right);
          ("Freq Opt", Table.Right);
          ("Diff", Table.Right);
          ("Paper O->P", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      let po, pp = r.t1_paper.Spec.p_freq in
      Table.add_row t
        [
          r.t1_name;
          r.t1_broadcast;
          r.t1_device;
          pct r.t1_orig.Pipeline.fr_lut_pct ^ "/" ^ pct r.t1_opt.Pipeline.fr_lut_pct;
          pct r.t1_orig.Pipeline.fr_ff_pct ^ "/" ^ pct r.t1_opt.Pipeline.fr_ff_pct;
          pct r.t1_orig.Pipeline.fr_bram_pct ^ "/" ^ pct r.t1_opt.Pipeline.fr_bram_pct;
          pct r.t1_orig.Pipeline.fr_dsp_pct ^ "/" ^ pct r.t1_opt.Pipeline.fr_dsp_pct;
          mhz r.t1_orig.Pipeline.fr_fmax_mhz;
          mhz r.t1_opt.Pipeline.fr_fmax_mhz;
          Printf.sprintf "%.0f%%"
            (Pipeline.improvement_pct ~orig:r.t1_orig ~opt:r.t1_opt);
          Printf.sprintf "%d->%d (%d%%)" po pp (100 * (pp - po) / po);
        ])
    rows;
  Table.render t

(* ---------- Tables 2 and 3 ---------- *)

type variant_row = {
  vr_label : string;
  vr_result : Pipeline.result;
  vr_paper_mhz : int option;
}

let run_table2 ?(width = 512) () =
  let build () = Hlsb_designs.Vector_arith.dataflow ~width () in
  let dev = Device.ultrascale_plus in
  (* one session: all three variants are Sched_aware, so they share both
     the elaboration and the schedule artifact *)
  let session =
    Pipeline.create ~device:dev ~name:"vector_arith" ~build ()
  in
  let compile recipe = Pipeline.run_exn session ~recipe in
  [
    {
      vr_label = "Stall";
      vr_result =
        compile { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive };
      vr_paper_mhz = Some 195;
    };
    {
      vr_label = "Skid Buffer";
      vr_result =
        compile
          {
            Style.sched = Style.Sched_aware;
            pipe = Style.Skid { min_area = false };
            sync = Style.Sync_pruned;
          };
      vr_paper_mhz = Some 299;
    };
    {
      vr_label = "Min-Area Skid Buf.";
      vr_result =
        compile
          {
            Style.sched = Style.Sched_aware;
            pipe = Style.Skid { min_area = true };
            sync = Style.Sync_pruned;
          };
      vr_paper_mhz = Some 301;
    };
  ]

let run_table3 () =
  let dev = Device.virtex7_690t in
  let session =
    Pipeline.create ~device:dev ~name:"pattern_match"
      ~build:(fun () -> Hlsb_designs.Pattern_match.dataflow ())
      ()
  in
  let compile recipe = Pipeline.run_exn session ~recipe in
  [
    {
      vr_label = "Original";
      vr_result = compile Style.original;
      vr_paper_mhz = Some 187;
    };
    {
      vr_label = "Opt. Data";
      vr_result =
        compile
          { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive };
      vr_paper_mhz = Some 208;
    };
    {
      vr_label = "Opt. Data & Ctrl";
      vr_result = compile Style.optimized;
      vr_paper_mhz = Some 278;
    };
  ]

let render_variants ~title rows =
  let t =
    Table.create
      ~headers:
        [
          ("Implementation", Table.Left);
          ("Frequency", Table.Right);
          ("LUT", Table.Right);
          ("FF", Table.Right);
          ("BRAM", Table.Right);
          ("DSP", Table.Right);
          ("Paper MHz", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.vr_label;
          Printf.sprintf "%.0f MHz" r.vr_result.Pipeline.fr_fmax_mhz;
          Printf.sprintf "%.1f%%" r.vr_result.Pipeline.fr_lut_pct;
          Printf.sprintf "%.1f%%" r.vr_result.Pipeline.fr_ff_pct;
          Printf.sprintf "%.2f%%" r.vr_result.Pipeline.fr_bram_pct;
          Printf.sprintf "%.1f%%" r.vr_result.Pipeline.fr_dsp_pct;
          (match r.vr_paper_mhz with Some m -> string_of_int m | None -> "-");
        ])
    rows;
  title ^ "\n" ^ Table.render t

(* ---------- Fig. 9 ---------- *)

type fig9_series = {
  f9_label : string;
  f9_rows : Calibrate.curve_row list;
}

let run_fig9 ?(device = Device.ultrascale_plus) ?jobs () =
  let cal = Calibrate.shared device in
  (* The three curve families are distinct calibration keys, so they
     characterize concurrently on the shared instance. *)
  Pool.map_list ?jobs
    (fun (label, build) -> { f9_label = label; f9_rows = build () })
    [
      ("add (int32)", fun () -> Calibrate.op_curve cal Op.Add (Dtype.Int 32));
      ("BRAM write (int32 buffer)", fun () -> Calibrate.mem_curve cal ~width:32);
      ("mul (float32)", fun () -> Calibrate.op_curve cal Op.Fmul Dtype.Float32);
    ]

let render_fig9 series =
  String.concat "\n"
    (List.map
       (fun s ->
         let t =
           Table.create
             ~headers:
               [
                 ("factor", Table.Right);
                 ("HLS est (ns)", Table.Right);
                 ("measured (ns)", Table.Right);
                 ("calibrated (ns)", Table.Right);
               ]
         in
         List.iter
           (fun (r : Calibrate.curve_row) ->
             Table.add_row t
               [
                 string_of_int r.Calibrate.cr_factor;
                 Printf.sprintf "%.2f" r.Calibrate.cr_predicted;
                 Printf.sprintf "%.2f" r.Calibrate.cr_measured;
                 Printf.sprintf "%.2f" r.Calibrate.cr_calibrated;
               ])
           s.f9_rows;
         s.f9_label ^ "\n" ^ Table.render t)
       series)

(* ---------- Fig. 15 ---------- *)

type fig15_row = {
  f15_unroll : int;
  f15_hls_est_ns : float;
  f15_our_est_ns : float;
  f15_actual_ns : float;
  f15_orig_mhz : float;
  f15_opt_mhz : float;
}

let array_max a = Array.fold_left max 0. a

let run_fig15 ?(factors = [ 8; 16; 32; 64; 128 ]) ?jobs () =
  let dev = Device.ultrascale_plus in
  let cal = Calibrate.shared dev in
  (* Shared calibrate is warmed by the first unroll point; the per-factor
     schedule + compile pairs are independent. *)
  Pool.map_list ?jobs
    (fun unroll ->
      let kernel () =
        Hlsb_designs.Genome.kernel ~back_search_count:unroll ~lane:0 ()
      in
      let baseline = Schedule.run Schedule.Baseline (kernel ()) in
      let hls_est = array_max (Sched_report.chain_delays baseline) in
      let our_est =
        array_max (Sched_report.chain_delays_calibrated cal baseline)
      in
      (* actual delay of the baseline schedule's critical path, post route;
         pipeline control held fixed (skid) to isolate the data broadcast *)
      let pipe = Style.Skid { min_area = true } in
      let session = Pipeline.of_kernel ~device:dev (kernel ()) in
      let orig =
        Pipeline.run_exn session
          ~recipe:{ Style.sched = Style.Sched_hls; pipe; sync = Style.Sync_naive }
      in
      let opt =
        Pipeline.run_exn session
          ~recipe:{ Style.sched = Style.Sched_aware; pipe; sync = Style.Sync_naive }
      in
      {
        f15_unroll = unroll;
        f15_hls_est_ns = hls_est;
        f15_our_est_ns = our_est;
        f15_actual_ns = orig.Pipeline.fr_critical_ns;
        f15_orig_mhz = orig.Pipeline.fr_fmax_mhz;
        f15_opt_mhz = opt.Pipeline.fr_fmax_mhz;
      })
    factors

let render_fig15 rows =
  let t =
    Table.create
      ~headers:
        [
          ("unroll", Table.Right);
          ("HLS est (ns)", Table.Right);
          ("our est (ns)", Table.Right);
          ("actual (ns)", Table.Right);
          ("Fmax HLS sched", Table.Right);
          ("Fmax our sched", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.f15_unroll;
          Printf.sprintf "%.2f" r.f15_hls_est_ns;
          Printf.sprintf "%.2f" r.f15_our_est_ns;
          Printf.sprintf "%.2f" r.f15_actual_ns;
          Printf.sprintf "%.0f MHz" r.f15_orig_mhz;
          Printf.sprintf "%.0f MHz" r.f15_opt_mhz;
        ])
    rows;
  Table.render t

(* ---------- Fig. 16 ---------- *)

type fig16_row = {
  f16_iterations : int;
  f16_stages : int;
  f16_stall_mhz : float;
  f16_skid_mhz : float;
}

let run_fig16 ?(iterations = [ 1; 2; 4; 8 ]) ?jobs () =
  let dev = Device.ultrascale_plus in
  Pool.map_list ?jobs
    (fun iters ->
      (* stall and skid agree on Sched_aware, so the session reuses both
         the elaborated network and the schedule between them *)
      let session =
        Pipeline.create ~device:dev
          ~name:(Printf.sprintf "stencil_x%d" iters)
          ~build:(fun () -> Hlsb_designs.Stencil.dataflow ~iterations:iters ())
          ()
      in
      let stall =
        Pipeline.run_exn session
          ~recipe:{ Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
      in
      let skid =
        Pipeline.run_exn session
          ~recipe:
            {
              Style.sched = Style.Sched_aware;
              pipe = Style.Skid { min_area = true };
              sync = Style.Sync_naive;
            }
      in
      let stages =
        List.fold_left
          (fun acc (k : Design.kernel_info) -> acc + k.Design.ki_depth)
          0 stall.Pipeline.fr_design.Design.kernels
      in
      {
        f16_iterations = iters;
        f16_stages = stages;
        f16_stall_mhz = stall.Pipeline.fr_fmax_mhz;
        f16_skid_mhz = skid.Pipeline.fr_fmax_mhz;
      })
    iterations

let render_fig16 rows =
  let t =
    Table.create
      ~headers:
        [
          ("iterations", Table.Right);
          ("stages", Table.Right);
          ("stall Fmax", Table.Right);
          ("skid Fmax", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.f16_iterations;
          string_of_int r.f16_stages;
          Printf.sprintf "%.0f MHz" r.f16_stall_mhz;
          Printf.sprintf "%.0f MHz" r.f16_skid_mhz;
        ])
    rows;
  Table.render t

(* ---------- Fig. 17 ---------- *)

type fig17_result = {
  f17_widths : int array;
  f17_out_width : int;
  f17_end_only_bits : int;
  f17_min_area_bits : int;
  f17_cuts : int list;
}

let run_fig17 ?(width = 32) () =
  let dev = Device.ultrascale_plus in
  let kernel = Hlsb_designs.Vector_arith.single_kernel ~width () in
  let sched =
    Schedule.run (Schedule.Broadcast_aware (Calibrate.shared dev)) kernel
  in
  let widths = Sched_report.stage_widths sched in
  let out_width = max 1 (Kernel.data_width_out kernel) in
  let end_only = Skid.end_only ~widths ~out_width in
  let best = Skid.min_area ~widths ~out_width in
  {
    f17_widths = widths;
    f17_out_width = out_width;
    f17_end_only_bits = end_only.Skid.cost_bits;
    f17_min_area_bits = best.Skid.cost_bits;
    f17_cuts = best.Skid.cuts;
  }

let render_fig17 r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "live bits per stage boundary:\n  ";
  Array.iteri
    (fun i w ->
      Buffer.add_string buf (Printf.sprintf "%d:%d " (i + 1) w);
      if (i + 1) mod 12 = 0 then Buffer.add_string buf "\n  ")
    r.f17_widths;
  Buffer.add_string buf
    (Printf.sprintf "\noutput width: %d bits\n" r.f17_out_width);
  Buffer.add_string buf
    (Printf.sprintf "end-only skid buffer: %d bits\n" r.f17_end_only_bits);
  Buffer.add_string buf
    (Printf.sprintf "min-area skid buffers: %d bits (cuts at %s) -> %.1fx smaller\n"
       r.f17_min_area_bits
       (String.concat ", " (List.map string_of_int r.f17_cuts))
       (float_of_int r.f17_end_only_bits /. float_of_int (max 1 r.f17_min_area_bits)));
  Buffer.contents buf

(* ---------- Fig. 19 ---------- *)

type fig19_row = {
  f19_words : int;
  f19_bram_pct : float;
  f19_orig_mhz : float;
  f19_data_opt_mhz : float;
  f19_full_opt_mhz : float;
}

let run_fig19 ?(sizes = [ 8192; 16384; 32768; 65536; 131072 ]) ?jobs () =
  let dev = Device.ultrascale_plus in
  Pool.map_list ?jobs
    (fun words ->
      let session =
        Pipeline.create ~device:dev
          ~name:(Printf.sprintf "stream_buffer_%d" words)
          ~build:(fun () ->
            Hlsb_designs.Stream_buffer.dataflow ~depth_words:words ())
          ()
      in
      let compile recipe name =
        Pipeline.run_exn session ~recipe
          ~name:(Printf.sprintf "stream_buffer_%d_%s" words name)
      in
      let orig = compile Style.original "orig" in
      let data_opt =
        compile
          { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
          "dataopt"
      in
      let full = compile Style.optimized "fullopt" in
      {
        f19_words = words;
        f19_bram_pct = full.Pipeline.fr_bram_pct;
        f19_orig_mhz = orig.Pipeline.fr_fmax_mhz;
        f19_data_opt_mhz = data_opt.Pipeline.fr_fmax_mhz;
        f19_full_opt_mhz = full.Pipeline.fr_fmax_mhz;
      })
    sizes

let render_fig19 rows =
  let t =
    Table.create
      ~headers:
        [
          ("buffer (512b words)", Table.Right);
          ("BRAM %", Table.Right);
          ("original", Table.Right);
          ("data opt only", Table.Right);
          ("data+ctrl opt", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.f19_words;
          Printf.sprintf "%.0f%%" r.f19_bram_pct;
          Printf.sprintf "%.0f MHz" r.f19_orig_mhz;
          Printf.sprintf "%.0f MHz" r.f19_data_opt_mhz;
          Printf.sprintf "%.0f MHz" r.f19_full_opt_mhz;
        ])
    rows;
  Table.render t

(* ---------- Ablations ---------- *)

type ablation_row = {
  ab_label : string;
  ab_value : float;
  ab_unit : string;
}

let run_ablations () =
  let dev = Device.ultrascale_plus in
  let rows = ref [] in
  let push label value unit_ = rows := { ab_label = label; ab_value = value; ab_unit = unit_ } :: !rows in
  (* 1. smoothing window: registers inserted + Fmax on genome *)
  List.iter
    (fun window ->
      (* shared, cache-backed instances: one per (device, window) *)
      let cal = Calibrate.shared ~window dev in
      let kernel = Hlsb_designs.Genome.kernel ~lane:0 () in
      let sched = Schedule.run (Schedule.Broadcast_aware cal) kernel in
      push
        (Printf.sprintf "smoothing window %d: registers inserted" window)
        (float_of_int (Schedule.registers_inserted sched))
        "regs")
    [ 0; 1; 2 ];
  (* 2. skid placement: end-only vs min-area buffer bits on Fig. 17 *)
  let f17 = run_fig17 () in
  push "skid end-only buffer" (float_of_int f17.f17_end_only_bits) "bits";
  push "skid min-area buffer" (float_of_int f17.f17_min_area_bits) "bits";
  (* 3. sync pruning granularity on the HBM stencil *)
  let hbm_session =
    Pipeline.create ~device:Device.alveo_u50 ~name:"hbm_stencil"
      ~build:(fun () -> Hlsb_designs.Hbm_stencil.dataflow ())
      ()
  in
  let compile recipe name = Pipeline.run_exn hbm_session ~recipe ~name in
  let naive =
    compile
      { Style.sched = Style.Sched_aware; pipe = Style.Skid { min_area = true }; sync = Style.Sync_naive }
      "hbm_naive"
  in
  let pruned = compile Style.optimized "hbm_pruned" in
  push "hbm stencil, naive sync" naive.Pipeline.fr_fmax_mhz "MHz";
  push "hbm stencil, pruned sync" pruned.Pipeline.fr_fmax_mhz "MHz";
  List.rev !rows

let render_ablations rows =
  let t =
    Table.create
      ~headers:[ ("ablation", Table.Left); ("value", Table.Right); ("unit", Table.Left) ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.ab_label; Printf.sprintf "%.1f" r.ab_value; r.ab_unit ])
    rows;
  Table.render t

(* ---------- Scale: wide-arithmetic 100k-cell workloads ---------- *)

module Placement = Hlsb_physical.Placement
module Netlist = Hlsb_netlist.Netlist

type scale_row = {
  sc_label : string;
  sc_bits : int;
  sc_limb : int;
  sc_lanes : int;
  sc_cells : int;
  sc_nets : int;
  sc_fmax_mhz : float;
  sc_stage_ms : (string * float) list;
  sc_total_ms : float;
  sc_cells_per_sec : float;
  sc_sta_full_ms : float;
  sc_sta_refresh_ms : float;
  sc_refreshed_nets : int;
}

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

let run_scale ?(points = Hlsb_designs.Bigmul.sweep) ?jobs () =
  let dev = Device.ultrascale_plus in
  Pool.map_list ?jobs
    (fun (label, (bits, limb, lanes)) ->
      let session =
        Pipeline.create ~device:dev ~name:label
          ~build:(fun () ->
            Hlsb_designs.Bigmul.build_point ~bits ~limb ~lanes ())
          ()
      in
      let res = Pipeline.run_exn session ~recipe:Style.original in
      let stage_ms =
        List.filter_map
          (fun (sr : Pipeline.stage_record) ->
            if sr.Pipeline.sr_status = Pipeline.Ran then
              Some (Pipeline.stage_name sr.Pipeline.sr_stage, sr.Pipeline.sr_ms)
            else None)
          (Pipeline.last_run session)
      in
      let total_ms =
        List.fold_left (fun acc (_, ms) -> acc +. ms) 0. stage_ms
      in
      let nl = res.Pipeline.fr_design.Design.netlist in
      let cells = Netlist.n_cells nl in
      (* The incremental-STA hot path: prepare a timing context once, then
         an ECO-style nudge of a handful of cells re-times only the nets
         those cells touch instead of the whole design. *)
      let pl = Placement.place dev nl in
      let ctx = Timing.prepare dev nl pl in
      (* per-query cost without a context: rebuild the arrays, re-time
         every net, propagate *)
      let full, full_ms = wall_ms (fun () -> Timing.analyze dev nl pl) in
      let nudged =
        List.sort_uniq compare [ 0; cells / 3; cells / 2; cells - 1 ]
      in
      List.iter
        (fun c ->
          let x, y = Placement.position pl c in
          Placement.set_position pl c (x +. 0.5, y +. 0.5))
        nudged;
      let (dirty, incr), refresh_ms =
        wall_ms (fun () ->
          let d = Timing.refresh ctx in
          (d, Timing.analyze_ctx ctx))
      in
      (* a nudge this small must not lose timing visibility *)
      assert (incr.Timing.critical_ns > 0. && full.Timing.critical_ns > 0.);
      {
        sc_label = label;
        sc_bits = bits;
        sc_limb = limb;
        sc_lanes = lanes;
        sc_cells = cells;
        sc_nets = Netlist.n_nets nl;
        sc_fmax_mhz = res.Pipeline.fr_fmax_mhz;
        sc_stage_ms = stage_ms;
        sc_total_ms = total_ms;
        sc_cells_per_sec =
          (if total_ms > 0. then float_of_int cells /. (total_ms /. 1e3)
           else 0.);
        sc_sta_full_ms = full_ms;
        sc_sta_refresh_ms = refresh_ms;
        sc_refreshed_nets = dirty;
      })
    points

let render_scale rows =
  let stage ms_list name =
    match List.assoc_opt name ms_list with
    | Some ms -> Printf.sprintf "%.1f" ms
    | None -> "-"
  in
  let t =
    Table.create
      ~headers:
        [
          ("workload", Table.Left);
          ("bits x lanes", Table.Right);
          ("cells", Table.Right);
          ("nets", Table.Right);
          ("Fmax", Table.Right);
          ("lower ms", Table.Right);
          ("place ms", Table.Right);
          ("sta ms", Table.Right);
          ("total ms", Table.Right);
          ("kcells/s", Table.Right);
          ("STA full ms", Table.Right);
          ("STA incr ms", Table.Right);
          ("nets re-timed", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.sc_label;
          Printf.sprintf "%dx%d" r.sc_bits r.sc_lanes;
          string_of_int r.sc_cells;
          string_of_int r.sc_nets;
          Printf.sprintf "%.0f MHz" r.sc_fmax_mhz;
          stage r.sc_stage_ms "lower";
          stage r.sc_stage_ms "place";
          stage r.sc_stage_ms "sta";
          Printf.sprintf "%.1f" r.sc_total_ms;
          Printf.sprintf "%.0f" (r.sc_cells_per_sec /. 1e3);
          Printf.sprintf "%.2f" r.sc_sta_full_ms;
          Printf.sprintf "%.2f" r.sc_sta_refresh_ms;
          string_of_int r.sc_refreshed_nets;
        ])
    rows;
  Table.render t
