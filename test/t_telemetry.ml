(* Telemetry subsystem tests: JSON round-trips, span nesting on a
   deterministic clock, histogram bucketing, snapshot/diff, Chrome
   trace_event export shape, and the load-bearing property that
   installing collectors does not change compilation results. *)

module Json = Hlsb_telemetry.Json
module Clock = Hlsb_telemetry.Clock
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style

(* A fake clock advancing 1 us per read keeps span durations exact. *)
let with_fake_clock f =
  let t = ref 0L in
  Clock.set_source (fun () ->
    t := Int64.add !t 1_000L;
    !t);
  Fun.protect ~finally:Clock.reset_source f

let uninstall_all () =
  Trace.uninstall ();
  Metrics.uninstall ()

(* ---- Json ---- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("bool", Json.Bool true);
      ("int", Json.Int (-42));
      ("float", Json.Float 2.5);
      ("big", Json.Float 1.2345678901234e17);
      ("str", Json.Str "a \"quoted\"\\\n\ttab\x01");
      ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.List [] ]);
      ("obj", Json.Obj [ ("nested", Json.Obj []) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun minify ->
      match Json.of_string (Json.to_string ~minify sample_json) with
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip minify=%b" minify)
          true (Json.equal v sample_json)
      | Error e -> Alcotest.fail e)
    [ true; false ]

let test_json_numbers () =
  (* Integral floats keep a '.' so they come back as Float, not Int. *)
  (match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 0.)) "3.0" 3.0 f
  | _ -> Alcotest.fail "expected Float");
  (match Json.of_string "17" with
  | Ok (Json.Int 17) -> ()
  | _ -> Alcotest.fail "expected Int 17");
  match Json.of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_json_member () =
  Alcotest.(check bool) "member" true
    (Json.member "int" sample_json = Some (Json.Int (-42)));
  Alcotest.(check bool) "missing" true (Json.member "nope" sample_json = None)

(* ---- Trace ---- *)

let test_span_nesting () =
  with_fake_clock (fun () ->
    let t = Trace.create () in
    Trace.with_collector t (fun () ->
      Trace.with_span "root" (fun () ->
        Trace.with_span "child1" (fun () -> ());
        Trace.with_span "child2" (fun () ->
          Trace.add_attr "k" (Json.Int 7);
          Trace.with_span "grandchild" (fun () -> ()))));
    let spans = Trace.spans t in
    Alcotest.(check int) "span count" 4 (List.length spans);
    let names = List.map (fun s -> s.Trace.sp_name) spans in
    Alcotest.(check (list string)) "start order"
      [ "root"; "child1"; "child2"; "grandchild" ]
      names;
    let by_name n = List.find (fun s -> s.Trace.sp_name = n) spans in
    let root = by_name "root" in
    let c1 = by_name "child1" in
    let c2 = by_name "child2" in
    let gc = by_name "grandchild" in
    Alcotest.(check int) "root is root" (-1) root.Trace.sp_parent;
    Alcotest.(check int) "child1 parent" root.Trace.sp_id c1.Trace.sp_parent;
    Alcotest.(check int) "child2 parent" root.Trace.sp_id c2.Trace.sp_parent;
    Alcotest.(check int) "grandchild parent" c2.Trace.sp_id gc.Trace.sp_parent;
    Alcotest.(check int) "depths" 2 gc.Trace.sp_depth;
    Alcotest.(check bool) "attr recorded" true
      (List.mem_assoc "k" c2.Trace.sp_attrs);
    (* children are contained in the parent interval *)
    List.iter
      (fun c ->
        Alcotest.(check bool) "contained" true
          (c.Trace.sp_start_ns >= root.Trace.sp_start_ns
          && c.Trace.sp_stop_ns <= root.Trace.sp_stop_ns))
      [ c1; c2; gc ])

let test_span_exception_safety () =
  with_fake_clock (fun () ->
    let t = Trace.create () in
    (try
       Trace.with_collector t (fun () ->
         Trace.with_span "outer" (fun () ->
           Trace.with_span "thrower" (fun () -> failwith "boom")))
     with Failure _ -> ());
    Alcotest.(check int) "both spans closed" 2 (List.length (Trace.spans t));
    Alcotest.(check bool) "collector uninstalled" false (Trace.enabled ()))

let test_span_disabled_noop () =
  uninstall_all ();
  (* no collector: with_span is the identity on the thunk *)
  Alcotest.(check int) "passthrough" 41 (Trace.with_span "x" (fun () -> 41));
  Trace.add_attr "ignored" Json.Null;
  Metrics.incr "ignored";
  Metrics.observe_int "ignored" 3;
  Alcotest.(check bool) "nothing installed" true
    ((not (Trace.enabled ())) && not (Metrics.enabled ()))

let test_chrome_export_shape () =
  with_fake_clock (fun () ->
    let t = Trace.create () in
    Trace.with_collector t (fun () ->
      Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ())));
    let j = Trace.to_chrome_json ~process_name:"test" t in
    (* must survive an encode/decode cycle *)
    let j =
      match Json.of_string (Json.to_string j) with
      | Ok v -> v
      | Error e -> Alcotest.fail e
    in
    match Json.member "traceEvents" j with
    | Some (Json.List events) ->
      (* process_name + one thread_name per domain, then one complete
         event per span *)
      Alcotest.(check int) "event count" 4 (List.length events);
      let phases =
        List.filter_map
          (fun e ->
            match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
          events
      in
      Alcotest.(check (list string)) "phases" [ "M"; "M"; "X"; "X" ] phases;
      List.iter
        (fun e ->
          match (Json.member "ts" e, Json.member "dur" e) with
          | Some (Json.Float ts), Some (Json.Float dur) ->
            Alcotest.(check bool) "non-negative times" true (ts >= 0. && dur >= 0.)
          | _ -> (
            match Json.member "ph" e with
            | Some (Json.Str "M") -> ()
            | _ -> Alcotest.fail "event missing ts/dur"))
        events
    | _ -> Alcotest.fail "no traceEvents list")

(* ---- Metrics ---- *)

let test_counters_gauges () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Metrics.incr "c";
    Metrics.incr ~by:4 "c";
    Metrics.set_gauge "g" 1.5;
    Metrics.set_gauge "g" 2.5);
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "c");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter_value m "nope");
  Alcotest.(check bool) "gauge last-wins" true (Metrics.gauge_value m "g" = Some 2.5)

let test_histogram_bucketing () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    (* default power-of-two buckets: 1,2,4,...,1024 *)
    List.iter (Metrics.observe_int "h") [ 1; 1; 2; 3; 9; 1024; 5000 ]);
  let snap = Metrics.snapshot m in
  match List.assoc_opt "h" snap.Metrics.sn_hists with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 7 h.Metrics.hs_count;
    Alcotest.(check (float 0.)) "min" 1. h.Metrics.hs_min;
    Alcotest.(check (float 0.)) "max" 5000. h.Metrics.hs_max;
    let bucket upper =
      let rec idx i =
        if i >= Array.length h.Metrics.hs_buckets then i
        else if h.Metrics.hs_buckets.(i) = upper then i
        else idx (i + 1)
      in
      h.Metrics.hs_counts.(idx 0)
    in
    Alcotest.(check int) "<=1" 2 (bucket 1.);
    Alcotest.(check int) "<=2" 1 (bucket 2.);
    Alcotest.(check int) "<=4" 1 (bucket 4.);
    Alcotest.(check int) "<=16" 1 (bucket 16.);
    Alcotest.(check int) "<=1024" 1 (bucket 1024.);
    Alcotest.(check int) "overflow" 1
      h.Metrics.hs_counts.(Array.length h.Metrics.hs_buckets)

let test_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Metrics.incr ~by:10 "c";
    Metrics.observe_int "h" 4;
    Metrics.set_gauge "g" 1.);
  let before = Metrics.snapshot m in
  Metrics.with_registry m (fun () ->
    Metrics.incr ~by:7 "c";
    Metrics.incr ~by:2 "fresh";
    Metrics.observe_int "h" 8;
    Metrics.observe_int "h" 8;
    Metrics.set_gauge "g" 5.);
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check bool) "counter delta" true
    (List.assoc "c" d.Metrics.sn_counters = 7);
  Alcotest.(check bool) "fresh passes through" true
    (List.assoc "fresh" d.Metrics.sn_counters = 2);
  Alcotest.(check bool) "gauge from after" true
    (List.assoc "g" d.Metrics.sn_gauges = 5.);
  let h = List.assoc "h" d.Metrics.sn_hists in
  Alcotest.(check int) "hist count delta" 2 h.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "hist sum delta" 16. h.Metrics.hs_sum

let test_metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Metrics.incr "c";
    Metrics.set_gauge "g" 0.5;
    Metrics.observe_int "h" 3);
  let j = Metrics.to_json (Metrics.snapshot m) in
  let j =
    match Json.of_string (Json.to_string ~minify:false j) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  (match Json.member "counters" j with
  | Some (Json.Obj [ ("c", Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "counters shape");
  match Option.bind (Json.member "histograms" j) (Json.member "h") with
  | Some h ->
    Alcotest.(check bool) "hist count" true (Json.member "count" h = Some (Json.Int 1));
    (match Json.member "buckets" h with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "buckets list")
  | None -> Alcotest.fail "histogram missing in JSON"

(* ---- Telemetry does not perturb compilation ---- *)

let compile_fingerprint r =
  ( r.Pipeline.fr_fmax_mhz,
    r.Pipeline.fr_critical_ns,
    ( r.Pipeline.fr_lut_pct,
      r.Pipeline.fr_ff_pct,
      r.Pipeline.fr_bram_pct,
      r.Pipeline.fr_dsp_pct ),
    Hlsb_netlist.Netlist.n_cells r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist,
    Hlsb_netlist.Netlist.n_nets r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist )

let prop_telemetry_transparent =
  QCheck.Test.make ~count:6 ~name:"telemetry does not change compile results"
    QCheck.(pair (int_range 1 3) bool)
    (fun (pes, optimized) ->
      uninstall_all ();
      let width = pes * 8 in
      let device = Hlsb_device.Device.ultrascale_plus in
      let recipe = if optimized then Style.optimized else Style.original in
      let compile () =
        Pipeline.run_exn ~recipe
          (Pipeline.create ~device ~name:"qcheck_va"
             ~build:(fun () -> Hlsb_designs.Vector_arith.dataflow ~width ~pes ())
             ())
      in
      let bare = compile () in
      let traced =
        Trace.with_collector (Trace.create ()) (fun () ->
          Metrics.with_registry (Metrics.create ()) compile)
      in
      compile_fingerprint bare = compile_fingerprint traced)

let test_instrumentation_populates () =
  let trace = Trace.create () in
  let m = Metrics.create () in
  let _r =
    Trace.with_collector trace (fun () ->
      Metrics.with_registry m (fun () ->
        Pipeline.run_exn ~recipe:Style.optimized
          (Pipeline.create ~device:Hlsb_device.Device.ultrascale_plus
             ~name:"probe_va"
             ~build:(fun () ->
               Hlsb_designs.Vector_arith.dataflow ~width:16 ~pes:2 ())
             ())))
  in
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans trace) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [
      "pipeline";
      "stage.schedule";
      "schedule";
      "stage.lower";
      "lower";
      "stage.place";
      "stage.sta";
    ];
  let snap = Metrics.snapshot m in
  Alcotest.(check bool) "broadcast factor histogram non-empty" true
    (match List.assoc_opt "sched.broadcast_factor" snap.Metrics.sn_hists with
    | Some h -> h.Metrics.hs_count > 0
    | None -> false);
  Alcotest.(check bool) "calibrate lookups counted" true
    (Metrics.counter_value m "calibrate.lookups" > 0)

let test_sim_occupancy_series () =
  let m = Metrics.create () in
  let r =
    Metrics.with_registry m (fun () ->
      Hlsb_sim.Pipeline.run_skid ~stages:4 ~skid_depth:5 ~ctrl_delay:0
        ~gate:Hlsb_sim.Pipeline.Gate_empty
        ~inputs:(List.init 32 Fun.id)
        ~ready:(fun c -> c mod 3 <> 0)
        ~f:Fun.id)
  in
  let snap = Metrics.snapshot m in
  match List.assoc_opt "sim.skid_occupancy" snap.Metrics.sn_hists with
  | None -> Alcotest.fail "no occupancy histogram"
  | Some h ->
    Alcotest.(check int) "one sample per cycle" r.Hlsb_sim.Pipeline.cycles
      h.Metrics.hs_count;
    Alcotest.(check bool) "max within skid depth" true (h.Metrics.hs_max <= 5.)

let test_diff_empty_interval_minmax () =
  (* Histogram min/max are running extrema; an interval that added no
     samples has no extrema, so diff must report nan, not stale values. *)
  let m = Metrics.create () in
  Metrics.with_registry m (fun () -> Metrics.observe_int "h" 4);
  let before = Metrics.snapshot m in
  Metrics.with_registry m (fun () -> Metrics.incr "c");
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  let h = List.assoc "h" d.Metrics.sn_hists in
  Alcotest.(check int) "no samples in interval" 0 h.Metrics.hs_count;
  Alcotest.(check bool) "min is nan" true (Float.is_nan h.Metrics.hs_min);
  Alcotest.(check bool) "max is nan" true (Float.is_nan h.Metrics.hs_max);
  (* an interval that did sample keeps real extrema *)
  Metrics.with_registry m (fun () -> Metrics.observe_int "h" 9);
  let d = Metrics.diff ~before ~after:(Metrics.snapshot m) in
  let h = List.assoc "h" d.Metrics.sn_hists in
  Alcotest.(check int) "one new sample" 1 h.Metrics.hs_count;
  Alcotest.(check bool) "extrema kept" true (not (Float.is_nan h.Metrics.hs_max))

let test_trace_domain_safety () =
  (* Installation is process-wide: a span recorded inside a spawned
     domain lands in that domain's shard, carries its domain id, and is
     a root of its own track (parentage never crosses domains). *)
  let t = Trace.create () in
  Trace.with_collector t (fun () ->
    Trace.with_span "main_root" (fun () ->
      Domain.join
        (Domain.spawn (fun () ->
           Trace.with_span "worker_span" (fun () ->
             Trace.with_span "worker_child" (fun () -> ()))))));
  let spans = Trace.spans t in
  Alcotest.(check int) "all three spans recorded" 3 (List.length spans);
  let by_name n = List.find (fun s -> s.Trace.sp_name = n) spans in
  let root = by_name "main_root" in
  let w = by_name "worker_span" in
  let wc = by_name "worker_child" in
  Alcotest.(check bool) "worker has its own tid" true
    (root.Trace.sp_tid <> w.Trace.sp_tid);
  Alcotest.(check int) "worker span roots its track" (-1) w.Trace.sp_parent;
  Alcotest.(check int) "worker-side nesting kept" w.Trace.sp_id
    wc.Trace.sp_parent;
  let ids = List.map (fun s -> s.Trace.sp_id) spans in
  Alcotest.(check int) "ids unique across domains" 3
    (List.length (List.sort_uniq compare ids));
  (* worker roots overlap the owner's roots and must not double-count *)
  Alcotest.(check bool) "total_ns counts owner roots only" true
    (Trace.total_ns t = Trace.duration_ns root)

let test_trace_parallel_spans_race_free () =
  (* Many spans opened concurrently from pool workers: all recorded, no
     crash, every span well-formed. *)
  let t = Trace.create () in
  Trace.with_collector t (fun () ->
    Hlsb_util.Pool.iter ~jobs:4
      (fun i ->
        Trace.with_span "w" (fun () ->
          Trace.add_attr "i" (Json.Int i);
          Trace.with_span "inner" (fun () -> ())))
      (Array.init 64 (fun i -> i)));
  let spans = Trace.spans t in
  Alcotest.(check int) "two spans per task" 128 (List.length spans);
  List.iter
    (fun s ->
      Alcotest.(check bool) "span closed" true
        (s.Trace.sp_stop_ns >= s.Trace.sp_start_ns))
    spans

let test_metrics_merge_across_domains () =
  (* Each domain writes to its own shard; the registry only merges at read
     time. Increments from pool worker domains must sum with the caller's. *)
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Hlsb_util.Pool.iter ~jobs:4
      (fun i ->
        Metrics.incr "t.shard_counter";
        Metrics.set_gauge "t.shard_gauge" (float_of_int i))
      (Array.init 100 (fun i -> i)));
  Alcotest.(check int) "counter sums across shards" 100
    (Metrics.counter_value m "t.shard_counter");
  Alcotest.(check bool) "gauge visible from some shard" true
    (Metrics.gauge_value m "t.shard_gauge" <> None)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json member" `Quick test_json_member;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled is no-op" `Quick test_span_disabled_noop;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
    Alcotest.test_case "diff empty-interval min/max" `Quick
      test_diff_empty_interval_minmax;
    Alcotest.test_case "trace domain safety" `Quick test_trace_domain_safety;
    Alcotest.test_case "trace parallel spans" `Quick
      test_trace_parallel_spans_race_free;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "instrumentation populates" `Quick
      test_instrumentation_populates;
    Alcotest.test_case "sim occupancy series" `Quick test_sim_occupancy_series;
    Alcotest.test_case "metrics merge across domains" `Quick
      test_metrics_merge_across_domains;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_telemetry_transparent ]
