(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (printed in the paper's layout, with the paper's
   numbers alongside), then times each experiment driver with Bechamel.

   The whole run is executed under an installed telemetry collector:
   every experiment driver is a span (the single source of truth for the
   per-experiment times printed below), and on exit a machine-readable
   profile is written — a Chrome trace_event file plus a metrics
   snapshot. Set HLSB_PROFILE_DIR to choose the output directory
   (default: current directory); set it to the empty string to skip.

   Options:
     --jobs N        worker domains for parallel sections (default:
                     HLSB_JOBS, then the core count)
     --only a,b,c    run only the named sections
     --json PATH     append a run record (per-section wall-clock from the
                     telemetry spans, plus calibration-cache counters) to
                     PATH; the file accumulates runs so cold/warm and
                     sequential/parallel runs can sit side by side
     --label STR     free-form label stored in the run record
     --no-bechamel   skip the Bechamel micro-timing pass
     --sweep-jobs 1,2,4
                     scaling self-check: run the selected sections once per
                     job count (fresh trace + metrics each, Bechamel
                     skipped), append one labelled record per run to
                     --json, and print a scaling table; exits non-zero if
                     any parallel run is more than 1.25x the first
                     (baseline) run — run against a warm calibration cache
                     so characterization noise does not drown the signal

   Sections:
     table1  - Table 1: nine benchmarks, original vs optimized
     table2  - Table 2: 512-wide vector product control variants
     table3  - Table 3: pattern matching optimization steps
     fig9    - delay vs broadcast factor calibration curves
     fig15   - genome case study: estimates and Fmax vs unroll factor
     fig16   - Jacobi super-pipeline: stall vs skid control
     fig17   - per-stage widths + min-area skid buffer DP
     fig19   - stream buffer Fmax vs size, three optimization levels
     ablation- design-choice ablations from DESIGN.md section 8
     scale   - wide-arithmetic modular-squaring sweep (up to >100k cells):
               per-stage compile wall-clock, cells/sec, and the
               incremental-STA refresh cost, also exported as
               "scale."-prefixed gauges into the run record and ledger
     explore - search-driven Fmax auto-tuning of two Table-1 designs:
               configurations/sec and session cache reuse, exported as
               "explore."-prefixed gauges into the run record and ledger *)

module Experiments = Core.Experiments
module Explore = Hlsb_explore.Explore
module Explore_experiments = Hlsb_explore.Experiments
module Pool = Hlsb_util.Pool
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics
module Json = Hlsb_telemetry.Json
module Ledger = Hlsb_obs.Ledger

let section title = Printf.printf "\n===== %s =====\n%!" title

(* Span-based timing: the experiment runs inside a span on the installed
   collector, and the printed time is read back from that span. *)
let timed name f =
  let r = Trace.with_span name f in
  (match Trace.installed () with
  | None -> ()
  | Some t -> (
    match List.rev (Trace.find t name) with
    | s :: _ ->
      Printf.printf "[%s completed in %.1fs]\n%!" name
        (Trace.duration_ms s /. 1e3)
    | [] -> ()));
  r

(* Each section is (name, title, body); the body prints its own tables so
   the default full run keeps the paper's layout and ordering. *)
let sections =
  [
    ( "table1",
      "Table 1: timing improvements and post-implementation resources",
      fun () ->
        let t1 = Experiments.run_table1 () in
        print_string (Experiments.render_table1 t1);
        Printf.printf
          "paper: 53%% average frequency gain; measured average: %.0f%%\n"
          (List.fold_left
             (fun acc (r : Experiments.table1_row) ->
               acc
               +. Core.Pipeline.improvement_pct ~orig:r.Experiments.t1_orig
                    ~opt:r.Experiments.t1_opt)
             0. t1
          /. float_of_int (List.length t1)) );
    ( "table2",
      "Table 2: 512-wide vector product (stall / skid / min-area skid)",
      fun () ->
        print_string
          (Experiments.render_variants ~title:"(paper: 195 / 299 / 301 MHz)"
             (Experiments.run_table2 ())) );
    ( "table3",
      "Table 3: pattern matching (original / data opt / data+ctrl opt)",
      fun () ->
        print_string
          (Experiments.render_variants ~title:"(paper: 187 / 208 / 278 MHz)"
             (Experiments.run_table3 ())) );
    ( "fig9",
      "Figure 9: delay vs broadcast factor (HLS est / measured / calibrated)",
      fun () -> print_string (Experiments.render_fig9 (Experiments.run_fig9 ())) );
    ( "fig15",
      "Figure 15: genome case study (delay estimates and Fmax vs unroll)",
      fun () ->
        print_string (Experiments.render_fig15 (Experiments.run_fig15 ()));
        print_string
          "(paper Fig. 15b: HLS schedule degrades with unroll; the \
           broadcast-aware\n\
          \ schedule holds its frequency — orig 264 -> opt 341 MHz at unroll \
           64)\n" );
    ( "fig16",
      "Figure 16: Jacobi super-pipeline Fmax vs iterations (stall vs skid)",
      fun () ->
        print_string (Experiments.render_fig16 (Experiments.run_fig16 ()));
        print_string
          "(paper: stall falls to 120 MHz by 8 iterations; skid holds ~253 \
           MHz)\n" );
    ( "fig17",
      "Figure 17: stage widths and min-area skid buffers (32-wide (a.b)*c)",
      fun () ->
        print_string (Experiments.render_fig17 (Experiments.run_fig17 ()));
        print_string "(paper: 63488 bits end-only vs 7968 bits split = 8.0x)\n" );
    ( "fig19",
      "Figure 19: stream buffer Fmax vs buffer size",
      fun () ->
        print_string (Experiments.render_fig19 (Experiments.run_fig19 ()));
        print_string
          "(paper: original collapses with size; only data+ctrl optimization \
           scales)\n" );
    ( "ablation",
      "Ablations (DESIGN.md section 8)",
      fun () ->
        print_string (Experiments.render_ablations (Experiments.run_ablations ()))
    );
    ( "scale",
      "Scale: wide-arithmetic workloads through the place/STA hot path",
      fun () ->
        let rows = Experiments.run_scale () in
        print_string (Experiments.render_scale rows);
        (* export as gauges so the run record and the ledger carry the
           compile-throughput numbers machine-readably *)
        List.iter
          (fun (r : Experiments.scale_row) ->
            let g k v =
              Metrics.set_gauge
                (Printf.sprintf "scale.%s.%s" r.Experiments.sc_label k)
                v
            in
            g "cells" (float_of_int r.Experiments.sc_cells);
            g "nets" (float_of_int r.Experiments.sc_nets);
            g "fmax_mhz" r.Experiments.sc_fmax_mhz;
            g "total_ms" r.Experiments.sc_total_ms;
            g "cells_per_sec" r.Experiments.sc_cells_per_sec;
            g "sta_full_ms" r.Experiments.sc_sta_full_ms;
            g "sta_refresh_ms" r.Experiments.sc_sta_refresh_ms;
            g "refreshed_nets" (float_of_int r.Experiments.sc_refreshed_nets);
            List.iter
              (fun (stage, ms) -> g (stage ^ "_ms") ms)
              r.Experiments.sc_stage_ms)
          rows );
    ( "explore",
      "Explore: search-driven Fmax auto-tuning (recipes x injection)",
      fun () ->
        let reports =
          Explore_experiments.run_explore
            ~subset:[ "Vector Arithmetic"; "Pattern Matching" ]
            ~budget:4 ~max_probes:3 ()
        in
        print_string (Explore_experiments.render_explore reports);
        (* run_design already published the explore.* gauges; add the
           search throughput so run records can compare machines *)
        List.iter
          (fun (rp : Explore.report) ->
            if rp.Explore.ep_ms > 0. then
              Metrics.set_gauge
                (Printf.sprintf "explore.%s.configs_per_sec"
                   (Explore.slug rp.Explore.ep_design))
                (1e3
                *. float_of_int (List.length rp.Explore.ep_configs)
                /. rp.Explore.ep_ms))
          reports );
  ]

let run_all_experiments ~only () =
  List.iter
    (fun (name, title, body) ->
      if only = [] || List.mem name only then begin
        section title;
        timed name body
      end)
    sections

(* ---- Bechamel micro-timing of each experiment driver ---- *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  section "Bechamel: wall-time of each experiment driver (reduced sizes)";
  let tests =
    Test.make_grouped ~name:"experiments"
      [
        Test.make ~name:"table1_row" (Staged.stage (fun () ->
          ignore (Experiments.run_table1 ~subset:[ "LSTM Network" ] ())));
        Test.make ~name:"table2" (Staged.stage (fun () ->
          ignore (Experiments.run_table2 ~width:64 ())));
        Test.make ~name:"table3" (Staged.stage (fun () ->
          ignore (Experiments.run_table3 ())));
        Test.make ~name:"fig9" (Staged.stage (fun () ->
          ignore (Experiments.run_fig9 ())));
        Test.make ~name:"fig15" (Staged.stage (fun () ->
          ignore (Experiments.run_fig15 ~factors:[ 16 ] ())));
        Test.make ~name:"fig16" (Staged.stage (fun () ->
          ignore (Experiments.run_fig16 ~iterations:[ 1 ] ())));
        Test.make ~name:"fig17" (Staged.stage (fun () ->
          ignore (Experiments.run_fig17 ())));
        Test.make ~name:"fig19" (Staged.stage (fun () ->
          ignore (Experiments.run_fig19 ~sizes:[ 8192 ] ())));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:8 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est /. 1e6) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ms) -> Printf.printf "  %-28s %10.2f ms/run\n" name ms)
    (List.sort compare !rows)

let write_text ~path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let write_profile trace registry =
  match Sys.getenv_opt "HLSB_PROFILE_DIR" with
  | Some "" -> ()
  | dir ->
    let dir = Option.value ~default:"." dir in
    let trace_path = Filename.concat dir "bench-profile.trace.json" in
    let metrics_path = Filename.concat dir "bench-profile.metrics.json" in
    write_text ~path:trace_path
      (Json.to_string (Trace.to_chrome_json ~process_name:"hlsb bench" trace));
    write_text ~path:metrics_path
      (Json.to_string ~minify:false (Metrics.to_json (Metrics.snapshot registry)));
    Printf.printf "profile: %s (chrome://tracing / Perfetto), %s\n" trace_path
      metrics_path

(* ---- Run record: per-section wall-clock appended to a JSON file ---- *)

let section_times trace =
  List.filter_map
    (fun (name, _, _) ->
      match Trace.find trace name with
      | [] -> None
      | spans ->
        let ms =
          List.fold_left (fun acc s -> acc +. Trace.duration_ms s) 0. spans
        in
        Some (name, ms))
    sections

let run_record ~label ~jobs trace registry =
  let snap = Metrics.snapshot registry in
  let counter name =
    List.assoc_opt name snap.Metrics.sn_counters |> Option.value ~default:0
  in
  Json.Obj
    [
      ("label", Json.Str label);
      ("jobs", Json.Int jobs);
      ("effective_jobs", Json.Int (Pool.default_jobs ()));
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ( "cache_dir",
        match Hlsb_delay.Cal_cache.ambient_dir () with
        | Some d -> Json.Str d
        | None -> Json.Null );
      ( "sections_s",
        Json.Obj
          (List.map (fun (n, ms) -> (n, Json.Float (ms /. 1e3))) (section_times trace)) );
      ("total_s", Json.Float (Int64.to_float (Trace.total_ns trace) /. 1e9));
      ( "calibrate",
        Json.Obj
          [
            ("curve_builds", Json.Int (counter "calibrate.curve_builds"));
            ("cache_hits", Json.Int (counter "calibrate.cache_hits"));
            ("cache_misses", Json.Int (counter "calibrate.cache_misses"));
            ("cache_writes", Json.Int (counter "calibrate.cache_writes"));
          ] );
      ( "pipeline",
        Json.Obj
          (("stage_runs", Json.Int (counter "pipeline.stage_runs"))
           :: ("cache_hits", Json.Int (counter "pipeline.cache_hits"))
           :: ("cache_misses", Json.Int (counter "pipeline.cache_misses"))
           :: List.map
                (fun stage ->
                  let name = Core.Pipeline.stage_name stage in
                  (name, Json.Int (counter ("pipeline.stage_runs." ^ name))))
                Core.Pipeline.stages) );
      ( "scale",
        Json.Obj
          (List.filter_map
             (fun (name, v) ->
               if String.starts_with ~prefix:"scale." name then
                 Some
                   ( String.sub name 6 (String.length name - 6),
                     Json.Float v )
               else None)
             snap.Metrics.sn_gauges) );
      ( "explore",
        Json.Obj
          (List.filter_map
             (fun (name, v) ->
               if String.starts_with ~prefix:"explore." name then
                 Some
                   ( String.sub name 8 (String.length name - 8),
                     Json.Float v )
               else None)
             snap.Metrics.sn_gauges) );
    ]

(* Every bench invocation also leaves one hlsb-run/1 record in the shared
   run ledger (unless HLSB_LEDGER=off): sections become "ran" stages, so
   [hlsbc obs diff/regress] can compare bench passes against compiles and
   against each other. *)
let append_ledger_record ~label trace registry =
  if Ledger.enabled () then begin
    let snap = Metrics.snapshot registry in
    let stages =
      List.map
        (fun (n, ms) -> { Ledger.st_name = n; st_status = "ran"; st_ms = ms })
        (section_times trace)
    in
    let cache =
      List.filter
        (fun (name, _) ->
          String.starts_with ~prefix:"pipeline.cache" name
          || String.starts_with ~prefix:"calibrate." name)
        snap.Metrics.sn_counters
    in
    let record =
      Ledger.make ~stages ~cache ~metrics:(Metrics.to_json snap) ~cmd:"bench"
        ~label ()
    in
    match Ledger.append record with
    | Ok path ->
      Printf.printf "run ledger: appended %s to %s\n" record.Ledger.r_id path
    | Error msg -> Printf.eprintf "run ledger: %s\n" msg
  end

let append_run_record ~path record =
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string text with
      | Ok (Json.Obj fields) -> (
        match List.assoc_opt "runs" fields with
        | Some (Json.List runs) -> runs
        | _ -> [])
      | _ -> []
    end
    else []
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hlsb-bench/1");
        ("runs", Json.List (existing @ [ record ]));
      ]
  in
  write_text ~path (Json.to_string ~minify:false doc ^ "\n");
  Printf.printf "bench record appended to %s\n" path

(* One full pass over the selected sections under a fresh trace + metrics
   registry, so repeated passes (the jobs sweep) never smear into each
   other's timings or counters. *)
let run_suite ~only ~no_bechamel () =
  let trace = Trace.create () in
  let registry = Metrics.create () in
  Trace.with_collector trace (fun () ->
    Metrics.with_registry registry (fun () ->
      Trace.with_span "evaluation" (run_all_experiments ~only);
      if not no_bechamel then Trace.with_span "bechamel" bechamel_suite));
  (trace, registry)

let total_s trace = Int64.to_float (Trace.total_ns trace) /. 1e9

(* The parallel regression guard, runnable locally: the whole point of a
   persistent pool + lock-free calibrate + sharded metrics is that adding
   workers must never make a warm run slower. 1.25x leaves room for
   machine noise (and for 1-core machines, where parallelism can only
   break even) while still catching contention collapses like the 2.2x
   slowdown this check was written against. *)
let sweep_max_ratio = 1.25

let run_sweep ~only ~json_path ~label sweep =
  let base_label = if label <> "" then label else "sweep" in
  let results =
    List.map
      (fun j ->
        Pool.set_default_jobs j;
        let eff = Pool.default_jobs () in
        if eff = j then Printf.printf "\n##### jobs sweep: %d job(s) #####\n%!" j
        else
          Printf.printf
            "\n##### jobs sweep: %d job(s) (capped to %d: machine has %d \
             core(s)) #####\n\
             %!"
            j eff
            (Domain.recommended_domain_count ());
        let trace, registry = run_suite ~only ~no_bechamel:true () in
        let total = total_s trace in
        Printf.printf "\n[jobs=%d total %.2fs]\n%!" j total;
        if json_path <> "" then
          append_run_record ~path:json_path
            (run_record
               ~label:(Printf.sprintf "%s-jobs%d" base_label j)
               ~jobs:j trace registry);
        append_ledger_record
          ~label:(Printf.sprintf "%s-jobs%d" base_label j)
          trace registry;
        (j, total))
      sweep
  in
  match results with
  | [] -> ()
  | (base_jobs, base_total) :: rest ->
    Printf.printf "\n===== scaling (cores: %d) =====\n"
      (Domain.recommended_domain_count ());
    Printf.printf "  %5s %10s %8s\n" "jobs" "total_s" "ratio";
    List.iter
      (fun (j, t) -> Printf.printf "  %5d %10.2f %8.2f\n" j t (t /. base_total))
      results;
    let failures =
      List.filter (fun (_, t) -> t > sweep_max_ratio *. base_total) rest
    in
    if failures = [] then
      Printf.printf
        "scaling self-check: PASS (no run above %.2fx the jobs=%d baseline)\n"
        sweep_max_ratio base_jobs
    else begin
      List.iter
        (fun (j, t) ->
          Printf.printf
            "scaling self-check: FAIL jobs=%d took %.2fs = %.2fx jobs=%d \
             (limit %.2fx)\n"
            j t (t /. base_total) base_jobs sweep_max_ratio)
        failures;
      exit 3
    end

let () =
  let jobs = ref 0 in
  let only = ref [] in
  let json_path = ref "" in
  let label = ref "" in
  let no_bechamel = ref false in
  let sweep = ref [] in
  let split_csv s = String.split_on_char ',' s |> List.filter (( <> ) "") in
  let parse_sweep s =
    sweep :=
      List.map
        (fun v ->
          match int_of_string_opt v with
          | Some j when j >= 1 -> j
          | _ -> raise (Arg.Bad ("bad --sweep-jobs value " ^ v)))
        (split_csv s)
  in
  Arg.parse
    [
      ("--jobs", Arg.Set_int jobs, "N  worker domains for parallel sections");
      ( "--only",
        Arg.String (fun s -> only := split_csv s),
        "a,b,c  run only the named sections" );
      ("--json", Arg.Set_string json_path, "PATH  append a run record to PATH");
      ("--label", Arg.Set_string label, "STR  label stored in the run record");
      ("--no-bechamel", Arg.Set no_bechamel, "  skip the Bechamel pass");
      ( "--sweep-jobs",
        Arg.String parse_sweep,
        "1,2,4  run once per job count and print a scaling table" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--jobs N] [--only sections] [--json PATH] [--label STR] \
     [--no-bechamel] [--sweep-jobs 1,2,4]";
  if !jobs > 0 then Pool.set_default_jobs !jobs;
  List.iter
    (fun s ->
      if not (List.exists (fun (n, _, _) -> n = s) sections) then begin
        Printf.eprintf "unknown section %S\n" s;
        exit 2
      end)
    !only;
  Printf.printf
    "Broadcast-aware HLS timing optimization - evaluation reproduction\n\
     (DAC 2020: Analysis and Optimization of the Implicit Broadcasts in\n\
    \ FPGA HLS to Improve Maximum Frequency)\n";
  if !sweep <> [] then run_sweep ~only:!only ~json_path:!json_path ~label:!label !sweep
  else begin
    Printf.printf "jobs: %d\n" (Pool.default_jobs ());
    let trace, registry = run_suite ~only:!only ~no_bechamel:!no_bechamel () in
    Printf.printf "\nTotal evaluation time: %.1fs\n" (total_s trace);
    write_profile trace registry;
    let label = if !label <> "" then !label else "run" in
    append_ledger_record ~label trace registry;
    if !json_path <> "" then
      append_run_record ~path:!json_path
        (run_record ~label ~jobs:(Pool.default_jobs ()) trace registry)
  end
