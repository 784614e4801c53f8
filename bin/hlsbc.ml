(* hlsbc — command-line front end for the broadcast-aware HLS flow.

   Subcommands:
     list                     benchmark designs and devices
     passes                   stages of the compile pipeline
     classify  DESIGN         source-level broadcast report (section 3)
     compile   DESIGN         compile under a recipe, print Fmax/resources
                              (--dump-after STAGE, --explain)
     explore                  search-driven Fmax auto-tuner over recipes x
                              transform plans x register injection
     profile   DESIGN         compile with telemetry: spans + metrics
     path      DESIGN         critical path under a recipe
     schedule  DESIGN         schedule report of the design's first kernel
     calibrate                warm / inspect / clear the calibration cache
     obs                      run ledger: list | report | diff | regress | prom
     table1|table2|table3     regenerate the paper's tables
     fig9|fig15|fig16|fig17|fig19   regenerate the paper's figures
     ablation                 design-choice ablations *)

module Experiments = Core.Experiments
module Pipeline = Core.Pipeline
module Explore = Hlsb_explore.Explore
module Explore_driver = Hlsb_explore.Experiments
module Diag = Hlsb_util.Diag
module Pool = Hlsb_util.Pool
module Calibrate = Hlsb_delay.Calibrate
module Cal_cache = Hlsb_delay.Cal_cache
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Timing = Hlsb_physical.Timing
module Netlist = Hlsb_netlist.Netlist
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics
module Json = Hlsb_telemetry.Json
module Log = Hlsb_obs.Log
module Serve_client = Hlsb_serve.Client
module Serve_protocol = Hlsb_serve.Protocol
module Ledger = Hlsb_obs.Ledger
module Obs_report = Hlsb_obs.Report
module Prom = Hlsb_obs.Prom
open Cmdliner

(* Designs can be named exactly ("Vector Arithmetic") or in a relaxed
   form: case-insensitive with spaces/dashes/underscores ignored, and a
   unique prefix suffices ("vector-arithmetic", "vector_arith", "lstm"). *)
let normalize name =
  String.to_seq name
  |> Seq.filter_map (fun c ->
       match c with
       | 'A' .. 'Z' -> Some (Char.lowercase_ascii c)
       | 'a' .. 'z' | '0' .. '9' -> Some c
       | _ -> None)
  |> String.of_seq

let find_design name =
  let exact = Hlsb_designs.Suite.find name in
  let relaxed () =
    let n = normalize name in
    let matches p =
      List.filter (fun s -> p (normalize s.Spec.sp_name)) Hlsb_designs.Suite.all
    in
    match matches (String.equal n) with
    | [ s ] -> Some s
    | _ -> (
      match matches (fun cand -> String.starts_with ~prefix:n cand) with
      | [ s ] when n <> "" -> Some s
      | _ -> None)
  in
  match if exact <> None then exact else relaxed () with
  | Some s -> s
  | None ->
    let names =
      Hlsb_designs.Suite.all
      |> List.map (fun s -> "  " ^ s.Spec.sp_name)
      |> String.concat "\n"
    in
    Printf.eprintf "unknown design %S; available:\n%s\n" name names;
    exit 1

(* The one recipe-name parser, shared with explore/cc/fuzz via
   [Style.of_string]; unknown names carry a structured diagnostic. *)
let recipe_of s =
  match Style.of_string s with
  | Ok r -> r
  | Error d ->
    Printf.eprintf "%s\n" (Diag.to_string d);
    exit 1

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN")

let recipe_arg =
  Arg.(
    value
    & opt string "optimized"
    & info [ "r"; "recipe" ] ~docv:"RECIPE"
        ~doc:(String.concat " | " Style.names))

(* Shared --jobs term: a positive value overrides HLSB_JOBS for the whole
   process (characterization fan-out and parallel experiment drivers). *)
let jobs_term =
  let arg =
    Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel characterization (default: \
             \\$(b,HLSB_JOBS), then the core count).")
  in
  Term.(const (fun n -> if n > 0 then Pool.set_default_jobs n) $ arg)

(* Shared --log-level term: overrides HLSB_LOG for this invocation. The
   full spec grammar is accepted, so "--log-level debug,json" switches
   both the threshold and the record format. *)
let log_term =
  let arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold: debug | info | warn | error | off, \
             optionally with a format (text | json), comma-separated \
             (default: \\$(b,HLSB_LOG), then warn,text).")
  in
  let apply = function
    | None -> ()
    | Some s -> (
      match Log.parse_spec s with
      | Ok (lvl, fmt) ->
        Option.iter Log.set_level lvl;
        Option.iter Log.set_format fmt
      | Error msg ->
        Printf.eprintf "--log-level: %s\n" msg;
        exit 2)
  in
  Term.(const apply $ arg)

let common_term = Term.(const (fun () () -> ()) $ jobs_term $ log_term)

let cmd_list =
  let run () =
    print_endline "benchmark designs (Table 1):";
    List.iter
      (fun (s : Spec.t) ->
        Printf.printf "  %-20s %-22s %s\n" s.Spec.sp_name s.Spec.sp_broadcast
          s.Spec.sp_device.Hlsb_device.Device.board)
      Hlsb_designs.Suite.all;
    print_endline "\ndevices:";
    List.iter
      (fun d -> Format.printf "  %a@." Hlsb_device.Device.pp d)
      Hlsb_device.Device.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark designs and devices")
    Term.(const run $ const ())

let cmd_classify =
  let run name =
    let s = find_design name in
    print_string
      (Core.Classify.to_string
         (Core.Classify.analyze ~device:s.Spec.sp_device (s.Spec.sp_build ())))
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Source-level broadcast classification")
    Term.(const run $ design_arg)

let write_text ~path text =
  match open_out path with
  | exception Sys_error msg ->
    Printf.eprintf "cannot write output file: %s\n" msg;
    exit 1
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)

(* Structured diagnostics (stage + offending entity) render through the
   event log (so --log-level json gives a machine-readable failure
   record) with a non-zero exit, instead of an Invalid_argument
   backtrace. *)
let fail_diag d =
  Log.error "%s" (Diag.to_string d);
  exit 1

let compile name recipe =
  let session = Pipeline.of_spec (find_design name) in
  match Pipeline.run session ~recipe:(recipe_of recipe) with
  | Ok r -> r
  | Error d -> fail_diag d

(* ---- hlsbd client mode ---------------------------------------------- *)

(* Daemon mode engages on --daemon or whenever HLSBD_SOCKET names a
   socket. Output discipline: the artifact bytes (and nothing else) go
   to stdout, hit/miss routing to stderr — so two invocations of the
   same compile can be compared byte for byte, daemon or not. *)
let daemon_env_set () =
  match Sys.getenv_opt Hlsb_serve.Daemon.socket_env_var with
  | Some s -> s <> ""
  | None -> false

(* Send the verb to the daemon; when no daemon answers, fall back to the
   in-process thunk, which must print byte-identical artifact bytes. *)
let daemon_or_fallback verb fallback =
  match Serve_client.call verb with
  | Ok resp -> (
    match resp.Serve_protocol.p_error with
    | Some d -> fail_diag d
    | None ->
      Printf.eprintf "[hlsbd] %s %s key=%s\n%!"
        (if resp.Serve_protocol.p_hit then "hit" else "miss")
        (Serve_protocol.verb_name verb)
        resp.Serve_protocol.p_key;
      print_string resp.Serve_protocol.p_artifact)
  | Error msg ->
    Log.info "hlsbd unavailable (%s); compiling in-process" msg;
    Printf.eprintf "[hlsbd] in-process fallback\n%!";
    fallback ()

(* The in-process spelling of the daemon's compile artifact: the same
   result record, rendered by the same encoder, newline-terminated. *)
let print_result_artifact r =
  print_string (Json.to_string ~minify:false (Pipeline.result_to_json r) ^ "\n")

let daemon_arg =
  Arg.(
    value & flag
    & info [ "daemon" ]
        ~doc:
          "Route the compile through a running $(b,hlsbd) daemon \
           (\\$(b,HLSBD_SOCKET), default $(b,.hlsb/hlsbd.sock)): the \
           artifact-record JSON is printed to stdout, served from the \
           daemon's content-addressed store when it has the bytes. Falls \
           back to an in-process compile (same bytes) when no daemon \
           answers. Implied by setting \\$(b,HLSBD_SOCKET).")

(* ---- run-ledger assembly shared by compile / cc / profile / fuzz ---- *)

let stage_ms_of_session session =
  List.map
    (fun (r : Pipeline.stage_record) ->
      {
        Ledger.st_name = Pipeline.stage_name r.Pipeline.sr_stage;
        st_status = Pipeline.status_label r.Pipeline.sr_status;
        st_ms = r.Pipeline.sr_ms;
      })
    (Pipeline.last_run session)

let stage_mb_of_session session =
  List.filter_map
    (fun (r : Pipeline.stage_record) ->
      if r.Pipeline.sr_status = Pipeline.Ran then
        Some (Pipeline.stage_name r.Pipeline.sr_stage, r.Pipeline.sr_alloc_mb)
      else None)
    (Pipeline.last_run session)

let cache_counters (snap : Metrics.snapshot) =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"pipeline.cache" name
      || String.starts_with ~prefix:"calibrate." name)
    snap.Metrics.sn_counters

(* Ledger failures must never take a compile down: log and move on. *)
let append_ledger record =
  match Ledger.append record with
  | Ok path ->
    Log.debug ~attrs:[ ("run", Json.Str record.Ledger.r_id) ]
      "appended run record to %s" path
  | Error msg -> Log.warn "run ledger: %s" msg

let stage_of_string s =
  match Pipeline.stage_of_name (String.lowercase_ascii (String.trim s)) with
  | Some st -> st
  | None ->
    Printf.eprintf "unknown stage %S (stages: %s)\n" s
      (String.concat " | " (List.map Pipeline.stage_name Pipeline.stages));
    exit 1

let sanitize_filename name =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

let cmd_passes =
  let run () =
    print_endline "compile pipeline stages (in order):";
    List.iter
      (fun st ->
        Printf.printf "  %-10s .%-4s  %s\n" (Pipeline.stage_name st)
          (Pipeline.dump_extension st) (Pipeline.describe st))
      Pipeline.stages;
    print_endline
      "\ndump any stage's artifact with: hlsbc compile DESIGN --dump-after STAGE"
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the compile pipeline's stages and their dump formats")
    Term.(const run $ const ())

let cmd_compile =
  let run () name recipe json dump_after explain daemon =
    let s = find_design name in
    let recipe = recipe_of recipe in
    if daemon || daemon_env_set () then
      daemon_or_fallback
        (Serve_protocol.Compile
           {
             Serve_protocol.cp_design = s.Spec.sp_name;
             cp_recipe = recipe;
             cp_target_mhz = None;
             cp_inject = None;
           })
        (fun () ->
          let session = Pipeline.of_spec s in
          match Pipeline.run session ~recipe with
          | Error d -> fail_diag d
          | Ok r -> print_result_artifact r)
    else
    let session = Pipeline.of_spec s in
    (* The ledger wants the full metrics snapshot, which needs a registry
       installed around the compile. With HLSB_LEDGER=off none of this
       runs and the compile path is exactly what it was. *)
    let registry = if Ledger.enabled () then Some (Metrics.create ()) else None in
    let outcome =
      match registry with
      | Some reg ->
        Metrics.with_registry reg (fun () -> Pipeline.run session ~recipe)
      | None -> Pipeline.run session ~recipe
    in
    match outcome with
    | Error d -> fail_diag d
    | Ok r ->
      let record =
        match registry with
        | None -> None
        | Some reg ->
          let snap = Metrics.snapshot reg in
          let record =
            Ledger.make
              ~device:s.Spec.sp_device.Hlsb_device.Device.name
              ~fingerprint:(Cal_cache.fingerprint s.Spec.sp_device)
              ~recipe:(Style.label recipe)
              ~stages:(stage_ms_of_session session)
              ~stage_mb:(stage_mb_of_session session)
              ~results:[ Pipeline.result_to_json r ]
              ~cache:(cache_counters snap)
              ~metrics:(Metrics.to_json snap) ~cmd:"compile"
              ~label:s.Spec.sp_name ()
          in
          append_ledger record;
          Some record
      in
      if json then begin
        let base = Pipeline.result_to_json r in
        let full =
          match (base, record) with
          | Json.Obj fields, Some rc ->
            Json.Obj (fields @ [ ("run", Ledger.to_json rc) ])
          | _ -> base
        in
        print_endline (Json.to_string ~minify:false full)
      end
      else print_endline (Pipeline.summary r);
      (match dump_after with
      | None -> ()
      | Some stage_s -> (
        let stage = stage_of_string stage_s in
        match Pipeline.dump_after session ~recipe stage with
        | Error d -> fail_diag d
        | Ok text ->
          let path =
            Printf.sprintf "%s.%s.dump.%s"
              (sanitize_filename s.Spec.sp_name)
              (Pipeline.stage_name stage)
              (Pipeline.dump_extension stage)
          in
          write_text ~path text;
          Printf.printf "wrote %s\n" path));
      if explain then begin
        print_newline ();
        print_string (Pipeline.explain session)
      end
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the result record as JSON instead of text.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"STAGE"
          ~doc:
            "Write the named stage's artifact (dataflow/schedule/netlist/\
             timing dump) to $(b,DESIGN.STAGE.dump.EXT) in the current \
             directory. See $(b,hlsbc passes) for the stage list.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "After compiling, print the per-stage table of the run (ran / \
             cached / skipped, wall-clock) and any diagnostics.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a benchmark and report Fmax/resources")
    Term.(
      const run $ common_term $ design_arg $ recipe_arg $ json_arg $ dump_arg
      $ explain_arg $ daemon_arg)

let cmd_profile =
  let run () name recipe trace_out metrics_out quiet =
    let s = find_design name in
    let trace = Trace.create () in
    let registry = Metrics.create () in
    let session = Pipeline.of_spec s in
    let r =
      Trace.with_collector trace (fun () ->
        Metrics.with_registry registry (fun () ->
          let r =
            match Pipeline.run session ~recipe:(recipe_of recipe) with
            | Ok r -> r
            | Error d -> fail_diag d
          in
          (* Drive the behavioral skid model under bursty back-pressure so
             the profile also carries the §4.3 occupancy series. *)
          let stages =
            List.fold_left
              (fun acc (k : Hlsb_rtlgen.Design.kernel_info) ->
                max acc k.Hlsb_rtlgen.Design.ki_depth)
              1 r.Pipeline.fr_design.Hlsb_rtlgen.Design.kernels
            |> min 64
          in
          let skid_depth =
            Hlsb_ctrl.Skid.required_depth ~pipeline_depth:stages ()
          in
          Trace.with_span "occupancy_sim"
            ~attrs:[ ("stages", Json.Int stages) ]
            (fun () ->
              ignore
                (Hlsb_sim.Pipeline.run_skid ~stages ~skid_depth ~ctrl_delay:0
                   ~gate:Hlsb_sim.Pipeline.Gate_empty
                   ~inputs:(List.init 256 Fun.id)
                   ~ready:(fun c -> c mod 7 <> 0 && c mod 13 <> 1)
                   ~f:Fun.id));
          r))
    in
    let snap = Metrics.snapshot registry in
    (* Profile is inherently instrumented, so the record is assembled
       regardless; HLSB_LEDGER only controls whether it is persisted.
       The --metrics file is that same record — one format everywhere
       (satellite requirement). *)
    let record =
      Ledger.make
        ~device:s.Spec.sp_device.Hlsb_device.Device.name
        ~fingerprint:(Cal_cache.fingerprint s.Spec.sp_device)
        ~recipe:(Style.label (recipe_of recipe))
        ~stages:(stage_ms_of_session session)
        ~stage_mb:(stage_mb_of_session session)
        ~results:[ Pipeline.result_to_json r ]
        ~cache:(cache_counters snap)
        ~metrics:(Metrics.to_json snap) ~cmd:"profile" ~label:s.Spec.sp_name ()
    in
    if Ledger.enabled () then append_ledger record;
    if not quiet then begin
      print_endline (Pipeline.summary r);
      print_newline ();
      print_endline "spans:";
      print_string (Trace.render trace);
      print_newline ();
      print_string (Metrics.render snap)
    end;
    (match trace_out with
    | None -> ()
    | Some path ->
      write_text ~path
        (Json.to_string
           (Trace.to_chrome_json ~process_name:("hlsbc " ^ s.Spec.sp_name) trace));
      if not quiet then
        Printf.printf "wrote trace to %s (load in chrome://tracing or Perfetto)\n"
          path);
    match metrics_out with
    | None -> ()
    | Some path ->
      write_text ~path
        (Json.to_string ~minify:false (Ledger.to_json record) ^ "\n");
      if not quiet then Printf.printf "wrote run record to %s\n" path
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:"Write a Chrome trace_event JSON profile to $(docv).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"OUT.json"
          ~doc:
            "Write the hlsb-run/1 record (stage timings, compile result, \
             full metrics snapshot) to $(docv) — the same record the run \
             ledger receives.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress the summary table and span tree.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile a benchmark with telemetry enabled: a pipeline span over \
          stage.elaborate ... stage.report, nesting per-kernel schedule and \
          lower, wire_channels, sync_controllers and utilization, then an \
          occupancy_sim span, plus broadcast/occupancy metrics")
    Term.(
      const run $ common_term $ design_arg $ recipe_arg $ trace_arg $ metrics_arg
      $ quiet_arg)

let cmd_path =
  let run name recipe =
    let r = compile name recipe in
    print_endline (Pipeline.summary r);
    let nl = r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist in
    List.iter
      (fun (st : Timing.path_step) ->
        Printf.printf "  %-34s arrival %7.3f ns  %s\n" st.Timing.ps_cell_name
          st.Timing.ps_arrival
          (match st.Timing.ps_via_net with
          | None -> ""
          | Some n ->
            let net = Netlist.net nl n in
            Printf.sprintf "via %s (fanout %d)" net.Netlist.n_name
              (Array.length net.Netlist.n_sinks)))
      r.Pipeline.fr_timing.Timing.path
  in
  Cmd.v
    (Cmd.info "path" ~doc:"Show the critical path of a compiled benchmark")
    Term.(const run $ design_arg $ recipe_arg)

let cmd_schedule =
  let run name recipe =
    let s = find_design name in
    let df = s.Spec.sp_build () in
    let kernel =
      let rec first i =
        if i >= Hlsb_ir.Dataflow.n_processes df then None
        else
          match (Hlsb_ir.Dataflow.process df i).Hlsb_ir.Dataflow.p_kernel with
          | Some k -> Some k
          | None -> first (i + 1)
      in
      first 0
    in
    match kernel with
    | None -> print_endline "design has no kernels"
    | Some k ->
      let mode =
        match (recipe_of recipe).Style.sched with
        | Style.Sched_hls -> Hlsb_sched.Schedule.Baseline
        | Style.Sched_aware ->
          Hlsb_sched.Schedule.Broadcast_aware
            (Hlsb_delay.Calibrate.shared s.Spec.sp_device)
      in
      print_string
        (Hlsb_sched.Report.to_string (Hlsb_sched.Schedule.run mode k))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print the schedule report of the first kernel")
    Term.(const run $ design_arg $ recipe_arg)

let cmd_cc =
  let run () file recipe transform dump_after explain daemon =
    let src =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let plan =
      match Hlsb_transform.Plan.of_string transform with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf
          "%s (plan grammar: unroll=N | unroll=LOOP:N | partition=cyclic:N | \
           partition=cyclic:ARRAY:N | fission[=LOOP] | fusion[=LOOP] | \
           stream[=ARRAY] | pragmas | channel-reuse, ';'-separated)\n"
          msg;
        exit 1
    in
    if daemon || daemon_env_set () then
      let name = Filename.remove_extension (Filename.basename file) in
      daemon_or_fallback
        (Serve_protocol.Cc
           {
             Serve_protocol.cc_name = name;
             cc_source = src;
             cc_recipe = recipe_of recipe;
             cc_plan = plan;
           })
        (fun () ->
          match Hlsb_frontend.Frontend.parse src with
          | Error e ->
            Format.eprintf "%s: %a@." file Hlsb_frontend.Frontend.pp_error e;
            exit 1
          | Ok program -> (
            let device = Hlsb_device.Device.ultrascale_plus in
            let session = Pipeline.of_program ~device ~name program in
            match Pipeline.run ~plan session ~recipe:(recipe_of recipe) with
            | Error d -> fail_diag d
            | Ok r -> print_result_artifact r))
    else
    match Hlsb_frontend.Frontend.parse src with
    | Error e ->
      Format.eprintf "%s: %a@." file Hlsb_frontend.Frontend.pp_error e;
      exit 1
    | Ok program -> (
      let device = Hlsb_device.Device.ultrascale_plus in
      let name = Filename.remove_extension (Filename.basename file) in
      let session = Pipeline.of_program ~device ~name program in
      (match Pipeline.classify_report ~plan session with
      | report -> print_string (Core.Classify.to_string report)
      | exception Diag.Diagnostic d -> fail_diag d);
      let recipe = recipe_of recipe in
      let registry =
        if Ledger.enabled () then Some (Metrics.create ()) else None
      in
      let outcome =
        match registry with
        | Some reg ->
          Metrics.with_registry reg (fun () ->
            Pipeline.run ~plan session ~recipe)
        | None -> Pipeline.run ~plan session ~recipe
      in
      match outcome with
      | Error d -> fail_diag d
      | Ok r ->
        (match registry with
        | None -> ()
        | Some reg ->
          let label =
            match Hlsb_transform.Plan.to_string plan with
            | "" -> name
            | p -> name ^ " [" ^ p ^ "]"
          in
          let snap = Metrics.snapshot reg in
          append_ledger
            (Ledger.make ~device:device.Hlsb_device.Device.name
               ~fingerprint:(Cal_cache.fingerprint device)
               ~recipe:(Style.label recipe)
               ~stages:(stage_ms_of_session session)
               ~stage_mb:(stage_mb_of_session session)
               ~results:[ Pipeline.result_to_json r ]
               ~cache:(cache_counters snap)
               ~metrics:(Metrics.to_json snap) ~cmd:"cc" ~label ()));
        print_endline (Pipeline.summary r);
        (match dump_after with
        | None -> ()
        | Some stage_s -> (
          let stage = stage_of_string stage_s in
          match Pipeline.dump_after ~plan session ~recipe stage with
          | Error d -> fail_diag d
          | Ok text ->
            let path =
              Printf.sprintf "%s.%s.dump.%s" (sanitize_filename name)
                (Pipeline.stage_name stage)
                (Pipeline.dump_extension stage)
            in
            write_text ~path text;
            Printf.printf "wrote %s\n" path));
        if explain then begin
          print_newline ();
          print_string (Pipeline.explain session)
        end)
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")
  in
  let transform_arg =
    Arg.(
      value & opt string ""
      & info [ "transform" ] ~docv:"PLAN"
          ~doc:
            "Source-to-source transform plan applied before elaboration: \
             ';'-separated items, e.g. \
             $(b,unroll=4;partition=cyclic:4;fission). $(b,channel-reuse) \
             additionally merges duplicate-value channels in the elaborated \
             network. Empty (default) compiles the source as written.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"STAGE"
          ~doc:
            "Write the named stage's artifact to \
             $(b,NAME.STAGE.dump.EXT) in the current directory \
             ($(b,transform) dumps the transformed C source). See \
             $(b,hlsbc passes) for the stage list.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "After compiling, print the per-stage table of the run (ran / \
             cached / skipped, wall-clock) and any diagnostics.")
  in
  Cmd.v
    (Cmd.info "cc" ~doc:"Compile a C-subset source file through the flow")
    Term.(
      const run $ common_term $ file_arg $ recipe_arg $ transform_arg $ dump_arg
      $ explain_arg $ daemon_arg)

let cmd_emit =
  let run name recipe fmt out =
    let r = compile name recipe in
    let nl = r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist in
    let text =
      match fmt with
      | "dot" -> Hlsb_netlist.Export.to_dot nl
      | "verilog" | "v" -> Hlsb_netlist.Export.to_verilog nl
      | f ->
        Printf.eprintf "unknown format %S (dot | verilog)\n" f;
        exit 1
    in
    match out with
    | None -> print_string text
    | Some path ->
      Hlsb_netlist.Export.write_file ~path text;
      Printf.printf "wrote %s\n" path
  in
  let fmt_arg =
    Arg.(value & opt string "dot" & info [ "f"; "format" ] ~docv:"FMT"
           ~doc:"dot | verilog")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Export a compiled benchmark's netlist (DOT/Verilog)")
    Term.(const run $ design_arg $ recipe_arg $ fmt_arg $ out_arg)

let cmd_calibrate =
  let warm_ops =
    (* everything the benchmark suite's schedules actually look up *)
    let open Hlsb_ir in
    [
      (Op.Add, Dtype.Int 32);
      (Op.Sub, Dtype.Int 32);
      (Op.Mul, Dtype.Int 32);
      (Op.Fadd, Dtype.Float32);
      (Op.Fmul, Dtype.Float32);
    ]
  in
  let devices_of = function
    | None -> Hlsb_device.Device.all
    | Some name -> (
      match Hlsb_device.Device.find name with
      | Some d -> [ d ]
      | None ->
        Printf.eprintf "unknown device %S; available:\n" name;
        List.iter
          (fun (d : Hlsb_device.Device.t) ->
            Printf.eprintf "  %s\n" d.Hlsb_device.Device.name)
          Hlsb_device.Device.all;
        exit 1)
  in
  let inspect dir =
    Printf.printf "calibration cache: %s\n" dir;
    let paths = Cal_cache.entries ~dir in
    if paths = [] then print_endline "  (empty)"
    else
      List.iter
        (fun path ->
          match
            Cal_cache.summarize ~factor_grid:Calibrate.factor_grid
              ~unit_grid:Calibrate.unit_grid path
          with
          | None -> Printf.printf "  %s: unreadable\n" (Filename.basename path)
          | Some s ->
            Printf.printf "  %s: device %s, schema v%d, %s\n"
              (Filename.basename path) s.Cal_cache.s_device s.Cal_cache.s_schema
              (if not s.Cal_cache.s_valid then "STALE (will re-characterize)"
               else
                 Printf.sprintf "%d op curve(s)%s%s"
                   (List.length s.Cal_cache.s_ops)
                   (if s.Cal_cache.s_has_mem_wr then " + mem write" else "")
                   (if s.Cal_cache.s_has_mem_rd then " + mem read" else ""));
            if s.Cal_cache.s_valid && s.Cal_cache.s_ops <> [] then
              Printf.printf "      ops: %s\n"
                (String.concat ", " s.Cal_cache.s_ops))
        paths
  in
  let run () dir_flag warm clear device =
    let dir =
      match dir_flag with
      | Some d -> Some d
      | None -> Cal_cache.ambient_dir ()
    in
    match dir with
    | None ->
      Printf.eprintf
        "calibration cache disabled (HLSB_CACHE_DIR is empty and no HOME); \
         pass --dir\n";
      exit 1
    | Some dir ->
      if clear then begin
        let n = Cal_cache.clear ~dir in
        Printf.printf "removed %d cache file(s) from %s\n" n dir
      end;
      if warm then
        List.iter
          (fun (d : Hlsb_device.Device.t) ->
            let cal = Calibrate.create ~cache_dir:dir d in
            Printf.printf "warming %s (%d ops + mem curves)...%!"
              d.Hlsb_device.Device.name (List.length warm_ops);
            Calibrate.warm ~ops:warm_ops ~mem:true cal;
            Printf.printf " done\n%!")
          (devices_of device);
      if not (warm || clear) then inspect dir
      else if warm then inspect dir
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Cache directory (default: \\$(b,HLSB_CACHE_DIR), then \
                \\$(b,XDG_CACHE_HOME)/hlsb).")
  in
  let warm_arg =
    Arg.(
      value & flag
      & info [ "warm" ]
          ~doc:"Characterize the standard op and memory curves into the cache.")
  in
  let clear_arg =
    Arg.(value & flag & info [ "clear" ] ~doc:"Remove all cache files.")
  in
  let device_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "d"; "device" ] ~docv:"DEVICE"
          ~doc:"Warm only this device (default: all devices).")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Inspect, warm, or clear the persistent calibration cache \
          (post-route delay curves keyed by device fingerprint)")
    Term.(
      const run $ common_term $ dir_arg $ warm_arg $ clear_arg $ device_arg)

let cmd_fuzz =
  let module Campaign = Hlsb_fuzz.Campaign in
  let module Oracle = Hlsb_fuzz.Oracle in
  let module Gen = Hlsb_fuzz.Gen in
  let parse_oracles = function
    | None -> Oracle.all
    | Some spec ->
      String.split_on_char ',' spec
      |> List.filter_map (fun s ->
           let s = String.trim s in
           if s = "" then None else Some s)
      |> List.map (fun s ->
           match Oracle.of_string s with
           | Some o -> o
           | None ->
             Printf.eprintf "unknown oracle %S (%s)\n" s
               (String.concat " | " (List.map Oracle.to_string Oracle.all));
             exit 1)
  in
  let replay path =
    match Campaign.replay_file path with
    | Error msg ->
      Printf.eprintf "cannot replay %s: %s\n" path msg;
      exit 1
    | Ok (fl, verdict) -> (
      Printf.printf "replaying %s\n  oracle: %s\n  case:   %s\n" path
        (Oracle.to_string fl.Campaign.fl_oracle)
        (Gen.to_string fl.Campaign.fl_case);
      match verdict with
      | Oracle.Fail msg ->
        Printf.printf "still FAILS: %s\n" msg;
        exit 1
      | Oracle.Pass ->
        Printf.printf "PASSES: the recorded bug no longer reproduces\n";
        (* recorded message helps relate the fix to the original failure *)
        Printf.printf "  (was: %s)\n" fl.Campaign.fl_message)
  in
  let campaign seed runs oracles out =
    let registry = Metrics.create () in
    let report =
      Metrics.with_registry registry (fun () ->
        Campaign.run ~oracles ~log:print_endline ~seed ~runs ())
    in
    print_string (Campaign.summary report);
    let snap = Metrics.snapshot registry in
    if Ledger.enabled () then
      append_ledger
        (Ledger.make ~cache:(cache_counters snap)
           ~metrics:(Metrics.to_json snap) ~cmd:"fuzz"
           ~label:
             (Printf.sprintf "seed=%d runs=%d failures=%d" seed runs
                (List.length report.Campaign.rp_failures))
           ());
    List.iter
      (fun (name, v) ->
        if String.starts_with ~prefix:"fuzz." name then
          Printf.printf "  %-24s %d\n" name v)
      snap.Metrics.sn_counters;
    if report.Campaign.rp_failures <> [] then begin
      let paths = Campaign.write_repros ~dir:out report in
      List.iter (Printf.printf "wrote reproducer %s\n") paths;
      Printf.printf "replay with: hlsbc fuzz --replay %s\n" (List.hd paths);
      exit 1
    end
  in
  let run () seed runs oracle_spec out replay_path =
    match replay_path with
    | Some path -> replay path
    | None -> campaign seed runs (parse_oracles oracle_spec) out
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (deterministic).")
  in
  let runs_arg =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let oracle_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated oracle subset: stall-skid | network | cache | \
             jobs (default: all).")
  in
  let out_arg =
    Arg.(
      value & opt string "fuzz"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for minimized reproducer files.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE.json"
          ~doc:"Re-run the oracle of a recorded reproducer instead of fuzzing.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random designs checked by cross-layer oracles \
          (stall vs skid, network conservation, compile cache, job-count \
          invariance), with greedy shrinking of failures")
    Term.(
      const run $ common_term $ seed_arg $ runs_arg $ oracle_arg $ out_arg
      $ replay_arg)

(* ---------------- the explore subcommand ---------------- *)

let cmd_explore =
  let run () designs source plans_s budget t0 tol max_probes out =
    let plans =
      match plans_s with
      | None -> []
      | Some s ->
        String.split_on_char ',' s
        |> List.map (fun p ->
             match Hlsb_transform.Plan.of_string (String.trim p) with
             | Ok pl -> pl
             | Error msg ->
               Printf.eprintf "bad plan %S: %s\n" p msg;
               exit 1)
    in
    if plans <> [] && source = None then begin
      Printf.eprintf
        "--plans transforms source, so it needs --source FILE.c (IR-level \
         suite designs explore recipes and register injection only)\n";
      exit 1
    end;
    let registry = Metrics.create () in
    let reports =
      Metrics.with_registry registry (fun () ->
        match source with
        | Some file -> (
          let src =
            let ic = open_in file in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Hlsb_frontend.Frontend.parse src with
          | Error e ->
            Format.eprintf "%s: %a@." file Hlsb_frontend.Frontend.pp_error e;
            exit 1
          | Ok program -> (
            let device = Hlsb_device.Device.ultrascale_plus in
            let name = Filename.remove_extension (Filename.basename file) in
            let session = Pipeline.of_program ~device ~name program in
            match
              Explore.run_design ~budget ~t0 ~tol ~max_probes ~plans session
                ~name
            with
            | rp -> [ rp ]
            | exception Diag.Diagnostic d -> fail_diag d))
        | None -> (
          let subset =
            match designs with
            | None -> None
            | Some s ->
              Some
                (String.split_on_char ',' s
                |> List.filter_map (fun n ->
                     let n = String.trim n in
                     if n = "" then None
                     else Some (find_design n).Spec.sp_name))
          in
          match Explore_driver.run_explore ?subset ~budget ~t0 ~tol ~max_probes () with
          | rps -> rps
          | exception Diag.Diagnostic d -> fail_diag d))
    in
    print_string (Explore_driver.render_explore reports);
    List.iter
      (fun rp ->
        print_newline ();
        print_string (Explore.summary rp))
      reports;
    (match out with
    | None -> ()
    | Some dir ->
      List.iter
        (fun rp ->
          let paths = Explore.write_logs ~dir rp in
          Printf.printf "wrote %d file(s) for %s under %s\n"
            (List.length paths) rp.Explore.ep_design dir)
        reports);
    if Ledger.enabled () then begin
      let snap = Metrics.snapshot registry in
      let stages =
        List.map
          (fun rp ->
            {
              Ledger.st_name = rp.Explore.ep_design;
              st_status = "ran";
              st_ms = rp.Explore.ep_ms;
            })
          reports
      in
      let results =
        List.map
          (fun rp ->
            Pipeline.result_to_json
              rp.Explore.ep_winner.Explore.cr_result)
          reports
      in
      let probes =
        List.fold_left (fun acc rp -> acc + rp.Explore.ep_probes) 0 reports
      in
      append_ledger
        (Ledger.make ~stages ~results ~cache:(cache_counters snap)
           ~metrics:(Metrics.to_json snap) ~cmd:"explore"
           ~label:
             (Printf.sprintf "budget=%d designs=%d probes=%d" budget
                (List.length reports) probes)
           ())
    end
  in
  let designs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "designs" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated Table-1 designs to explore (relaxed names \
             accepted, see $(b,hlsbc list)); default: all of them.")
  in
  let source_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "source" ] ~docv:"FILE.c"
          ~doc:
            "Explore a C-subset source file instead of suite designs; \
             enables the $(b,--plans) transform axis.")
  in
  let plans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plans" ] ~docv:"PLANS"
          ~doc:
            "Comma-separated transform plans to add to the configuration \
             space (each in the $(b,hlsbc cc --transform) grammar; the \
             identity plan is always included). Requires $(b,--source).")
  in
  let budget_arg =
    Arg.(
      value & opt int 8
      & info [ "budget" ] ~docv:"N"
          ~doc:"Most configurations to try per design.")
  in
  let t0_arg =
    Arg.(
      value & opt float 300.
      & info [ "t0" ] ~docv:"MHZ"
          ~doc:
            "Starting target frequency (default 300, the pipeline's static \
             schedule target, so the first probe reproduces the static \
             compile).")
  in
  let tol_arg =
    Arg.(
      value & opt float 0.02
      & info [ "tol" ] ~docv:"FRAC"
          ~doc:"Relative convergence tolerance of the target search.")
  in
  let max_probes_arg =
    Arg.(
      value & opt int 5
      & info [ "max-probes" ] ~docv:"N"
          ~doc:"Most compiles the target search may spend per configuration.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write per-configuration $(b,frequency_log/) probe logs and a \
             per-design summary JSON under $(docv).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Search-driven Fmax auto-tuning: binary-search the target \
          frequency per configuration over recipes x transform plans x \
          register injection, inside one cached compile session per design")
    Term.(
      const run $ common_term $ designs_arg $ source_arg $ plans_arg
      $ budget_arg $ t0_arg $ tol_arg $ max_probes_arg $ out_arg)

(* ---------------- the obs subcommand family ---------------- *)

let cmd_obs =
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"PATH"
          ~doc:
            "Ledger file to read (default: \\$(b,HLSB_LEDGER), then \
             .hlsb/ledger.jsonl).")
  in
  let ledger_path flag =
    match flag with
    | Some p -> p
    | None -> Option.value ~default:Ledger.default_path (Ledger.ambient_path ())
  in
  let usage msg =
    Printf.eprintf "%s\n" msg;
    exit 2
  in
  let load_runs path =
    match Ledger.load ~path with
    | Error msg -> usage msg
    | Ok [] -> usage (Printf.sprintf "ledger %s has no runs" path)
    | Ok runs -> runs
  in
  let resolve_run runs ref_ =
    match Ledger.resolve runs ref_ with Ok r -> r | Error msg -> usage msg
  in
  (* A REF can also name a file — a JSONL ledger or a one-record JSON
     file (ci/baseline-ledger.json); its newest record wins. *)
  let run_of_ref ~runs ref_ =
    if Sys.file_exists ref_ then
      match Ledger.load ~path:ref_ with
      | Ok (_ :: _ as rs) -> List.nth rs (List.length rs - 1)
      | Ok [] -> usage (Printf.sprintf "%s holds no hlsb-run/1 records" ref_)
      | Error msg -> usage msg
    else resolve_run runs ref_
  in
  let run_arg =
    Arg.(
      value & pos 0 string "last"
      & info [] ~docv:"RUN"
          ~doc:
            "last | a 1-based index from the oldest (negative counts from \
             the newest) | a run-id prefix")
  in
  let cmd_report =
    let run ledger ref_ top =
      let runs = load_runs (ledger_path ledger) in
      print_string (Obs_report.report ~top (run_of_ref ~runs ref_))
    in
    let top_arg =
      Arg.(
        value & opt int 12
        & info [ "top" ] ~docv:"N"
            ~doc:"How many metric counters/histograms to show.")
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Render one run record: stage timings, per-design Fmax, cache \
            traffic, and metric quantiles (p50/p95/p99)")
      Term.(const run $ ledger_arg $ run_arg $ top_arg)
  in
  let cmd_list_runs =
    let run ledger =
      let path = ledger_path ledger in
      match Ledger.load ~path with
      | Error msg -> usage msg
      | Ok [] -> Printf.printf "ledger %s has no runs\n" path
      | Ok runs ->
        List.iteri
          (fun i r ->
            Printf.printf "%4d  %s\n" (i + 1) (Obs_report.summary_line r))
          runs
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the ledger's runs, oldest first")
      Term.(const run $ ledger_arg)
  in
  let cmd_diff =
    let run ledger ref_a ref_b =
      let runs = load_runs (ledger_path ledger) in
      print_string
        (Obs_report.diff (run_of_ref ~runs ref_a) (run_of_ref ~runs ref_b))
    in
    let a_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A")
    in
    let b_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN_B")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Compare two runs stage by stage (timings, totals, Fmax)")
      Term.(const run $ ledger_arg $ a_arg $ b_arg)
  in
  let cmd_regress =
    let run ledger baseline_ref ref_ pct min_ms =
      let path = ledger_path ledger in
      let runs =
        match Ledger.load ~path with Ok rs -> rs | Error msg -> usage msg
      in
      let baseline = run_of_ref ~runs baseline_ref in
      let current = run_of_ref ~runs ref_ in
      let v =
        Obs_report.regress ~min_ms ~baseline ~current ~max_slowdown_pct:pct ()
      in
      print_string v.Obs_report.v_table;
      if v.Obs_report.v_ok then
        print_endline "OK: no regression beyond the threshold"
      else begin
        print_newline ();
        List.iter
          (fun m -> Printf.printf "REGRESSION: %s\n" m)
          v.Obs_report.v_failures;
        exit 1
      end
    in
    let baseline_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "baseline" ] ~docv:"REF"
            ~doc:
              "Baseline run: a ledger reference or a file holding \
               hlsb-run/1 record(s).")
    in
    let run_flag_arg =
      Arg.(
        value & opt string "last"
        & info [ "run" ] ~docv:"REF"
            ~doc:"Run under test (default: the newest ledger record).")
    in
    let pct_arg =
      Arg.(
        value & opt float 25.
        & info [ "max-slowdown" ] ~docv:"PCT"
            ~doc:
              "Fail when any comparable stage (or the total) is more than \
               $(docv) percent slower than the baseline, or a shared \
               design's Fmax drops by more than the same margin.")
    in
    let min_ms_arg =
      Arg.(
        value & opt float 1.0
        & info [ "min-ms" ] ~docv:"MS"
            ~doc:
              "Ignore stages whose baseline time is below $(docv) \
               (sub-millisecond stages are timer noise).")
    in
    Cmd.v
      (Cmd.info "regress"
         ~doc:
           "Perf-regression sentinel: exit 1 when the current run is more \
            than --max-slowdown percent slower than the baseline (the CI \
            gate)")
      Term.(
        const run $ ledger_arg $ baseline_arg $ run_flag_arg $ pct_arg
        $ min_ms_arg)
  in
  let cmd_prom =
    let run ledger ref_ =
      let runs = load_runs (ledger_path ledger) in
      let r = run_of_ref ~runs ref_ in
      match Obs_report.snapshot_of_run r with
      | None ->
        usage
          (Printf.sprintf "run %s carries no metrics snapshot" r.Ledger.r_id)
      | Some snap -> print_string (Prom.of_snapshot snap)
    in
    Cmd.v
      (Cmd.info "prom"
         ~doc:
           "Prometheus text-format exposition of a run's metrics snapshot")
      Term.(const run $ ledger_arg $ run_arg)
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "The run ledger: list, report, diff, Prometheus export, and the \
          perf-regression gate")
    [ cmd_list_runs; cmd_report; cmd_diff; cmd_regress; cmd_prom ]

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let cmd_table1 =
  simple "table1" "Regenerate Table 1" (fun () ->
    print_string (Experiments.render_table1 (Experiments.run_table1 ())))

let cmd_table2 =
  simple "table2" "Regenerate Table 2" (fun () ->
    print_string
      (Experiments.render_variants ~title:"Table 2 (paper: 195/299/301 MHz)"
         (Experiments.run_table2 ())))

let cmd_table3 =
  simple "table3" "Regenerate Table 3" (fun () ->
    print_string
      (Experiments.render_variants ~title:"Table 3 (paper: 187/208/278 MHz)"
         (Experiments.run_table3 ())))

let cmd_fig9 =
  simple "fig9" "Regenerate Figure 9" (fun () ->
    print_string (Experiments.render_fig9 (Experiments.run_fig9 ())))

let cmd_fig15 =
  simple "fig15" "Regenerate Figure 15" (fun () ->
    print_string (Experiments.render_fig15 (Experiments.run_fig15 ())))

let cmd_fig16 =
  simple "fig16" "Regenerate Figure 16" (fun () ->
    print_string (Experiments.render_fig16 (Experiments.run_fig16 ())))

let cmd_fig17 =
  simple "fig17" "Regenerate Figure 17" (fun () ->
    print_string (Experiments.render_fig17 (Experiments.run_fig17 ())))

let cmd_fig19 =
  simple "fig19" "Regenerate Figure 19" (fun () ->
    print_string (Experiments.render_fig19 (Experiments.run_fig19 ())))

let cmd_ablation =
  simple "ablation" "Run the design-choice ablations" (fun () ->
    print_string (Experiments.render_ablations (Experiments.run_ablations ())))

let () =
  let info =
    Cmd.info "hlsbc" ~version:"1.0.0"
      ~doc:"Broadcast-aware HLS timing optimization (DAC 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_list;
            cmd_passes;
            cmd_classify;
            cmd_compile;
            cmd_profile;
            cmd_calibrate;
            cmd_path;
            cmd_schedule;
            cmd_cc;
            cmd_emit;
            cmd_fuzz;
            cmd_explore;
            cmd_obs;
            cmd_table1;
            cmd_table2;
            cmd_table3;
            cmd_fig9;
            cmd_fig15;
            cmd_fig16;
            cmd_fig17;
            cmd_fig19;
            cmd_ablation;
          ]))
