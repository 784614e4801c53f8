(* Staged pipeline tests: a session shared across recipes must compute
   exactly what a fresh single-recipe session computes on every Table-1
   benchmark under both recipes (the committed goldens pin those fresh
   bytes), cross-recipe sessions must actually share upstream artifacts
   (one elaboration, schedule reuse per sched mode), cached-artifact
   reuse must never change a timing report, and malformed inputs must
   surface as structured diagnostics — never as a bare
   [Invalid_argument]/[Failure] escaping [Pipeline.run]. *)

open Hlsb_ir
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Device = Hlsb_device.Device
module Design = Hlsb_rtlgen.Design
module Netlist = Hlsb_netlist.Netlist
module Timing = Hlsb_physical.Timing
module Diag = Hlsb_util.Diag
module Spec = Hlsb_designs.Spec
module Json = Hlsb_telemetry.Json
module Log = Hlsb_obs.Log
module Explore = Hlsb_explore.Explore

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Everything a compile produces that a caller could observe: the result
   record's scalars, per-kernel info, sync-controller stats, netlist
   size, and the full critical path. Two results with equal fingerprints
   went through indistinguishable compiles. *)
let fingerprint (r : Pipeline.result) =
  ( r.Pipeline.fr_label,
    Style.label r.Pipeline.fr_recipe,
    ( r.Pipeline.fr_fmax_mhz,
      r.Pipeline.fr_critical_ns,
      r.Pipeline.fr_lut_pct,
      r.Pipeline.fr_ff_pct,
      r.Pipeline.fr_bram_pct,
      r.Pipeline.fr_dsp_pct ),
    List.map
      (fun (k : Design.kernel_info) ->
        (k.Design.ki_name, k.ki_depth, k.ki_registers_added, k.ki_skid_bits))
      r.Pipeline.fr_design.Design.kernels,
    ( r.Pipeline.fr_design.Design.sync_groups_emitted,
      r.Pipeline.fr_design.Design.max_sync_fanout ),
    ( Netlist.n_cells r.Pipeline.fr_design.Design.netlist,
      Netlist.n_nets r.Pipeline.fr_design.Design.netlist ),
    ( r.Pipeline.fr_timing.Timing.worst_net_fanout,
      List.map
        (fun (st : Timing.path_step) ->
          (st.Timing.ps_cell_name, st.Timing.ps_arrival))
        r.Pipeline.fr_timing.Timing.path ) )

(* For every Table-1 spec and both recipes, one shared session computes
   exactly what a fresh [Pipeline.of_spec] session per recipe computes. *)
let test_shared_equals_fresh () =
  List.iter
    (fun (s : Spec.t) ->
      let session = Pipeline.of_spec s in
      List.iter
        (fun recipe ->
          let shared = Pipeline.run_exn session ~recipe in
          let fresh = Pipeline.run_exn (Pipeline.of_spec s) ~recipe in
          Alcotest.(check bool)
            (Printf.sprintf "%s [%s] shared = fresh" s.Spec.sp_name
               (Style.label recipe))
            true
            (fingerprint shared = fingerprint fresh))
        [ Style.original; Style.optimized ])
    Hlsb_designs.Suite.all

let runs_of session name =
  Option.value ~default:0 (List.assoc_opt name (Pipeline.stage_runs session))

(* Two recipes in one session -> one elaboration; a recipe pair sharing
   a sched mode -> one scheduling pass; recompiling a recipe -> nothing
   at all re-executes. *)
let test_session_shares_stages () =
  let s = Option.get (Hlsb_designs.Suite.find "Vector Arithmetic") in
  let session = Pipeline.of_spec s in
  ignore (Pipeline.run_exn session ~recipe:Style.original);
  (* every stage that ran reports what it allocated; the rest report 0 *)
  List.iter
    (fun (sr : Pipeline.stage_record) ->
      let name = Pipeline.stage_name sr.Pipeline.sr_stage in
      match sr.Pipeline.sr_status with
      | Pipeline.Ran ->
        if not (sr.Pipeline.sr_alloc_mb > 0.) then
          Alcotest.failf "ran stage %s reports no allocation" name
      | Pipeline.Cached | Pipeline.Skipped | Pipeline.Failed ->
        Alcotest.(check (float 0.)) (name ^ " allocation") 0.
          sr.Pipeline.sr_alloc_mb)
    (Pipeline.last_run session);
  ignore (Pipeline.run_exn session ~recipe:Style.optimized);
  Alcotest.(check int) "one elaboration for two recipes" 1
    (runs_of session "elaborate");
  Alcotest.(check int) "two schedules (hls vs aware)" 2
    (runs_of session "schedule");
  Alcotest.(check int) "two lowers" 2 (runs_of session "lower");
  Alcotest.(check int) "two stas" 2 (runs_of session "sta");
  (* sched-only shares Sched_aware scheduling with optimized *)
  let sched_only =
    { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
  in
  ignore (Pipeline.run_exn session ~recipe:sched_only);
  Alcotest.(check int) "aware schedule reused across recipes" 2
    (runs_of session "schedule");
  Alcotest.(check int) "still one elaboration" 1 (runs_of session "elaborate");
  (* a recipe already compiled is served entirely from cache *)
  let before = List.fold_left (fun a (_, n) -> a + n) 0 (Pipeline.stage_runs session) in
  let again = Pipeline.run_exn session ~recipe:Style.optimized in
  let after = List.fold_left (fun a (_, n) -> a + n) 0 (Pipeline.stage_runs session) in
  Alcotest.(check int) "full cache hit runs nothing" before after;
  let fresh = Pipeline.run_exn (Pipeline.of_spec s) ~recipe:Style.optimized in
  Alcotest.(check bool) "cached result still equals a fresh session" true
    (fingerprint again = fingerprint fresh);
  (* the cached run is visible in last_run as Cached stages *)
  let cached_stages =
    List.filter
      (fun (sr : Pipeline.stage_record) -> sr.Pipeline.sr_status = Pipeline.Cached)
      (Pipeline.last_run session)
  in
  Alcotest.(check bool) "last_run reports cached stages" true
    (List.length cached_stages >= 4)

(* A retarget whose schedules lower to a design the session already
   built reuses that compile. The oracle: over a dense target sweep
   under both recipes, plus every explorer injection at three targets,
   each shared-session compile renders the same result and timing bytes
   as a fresh session at the same (recipe, target, injection) — and at
   least one compile really was reused, with lower..report cached. *)
let compile_bytes (r : Pipeline.result) =
  Json.to_string (Pipeline.result_to_json r)
  ^ Json.to_string (Pipeline.timing_to_json r.Pipeline.fr_timing)

let test_retarget_reuse_oracle () =
  let injections =
    List.filter_map (fun cf -> cf.Explore.cf_inject) (Explore.space ~plans:[])
  in
  let reused_stages = [ "lower"; "sync"; "place"; "sta"; "report" ] in
  List.iter
    (fun name ->
      let spec = Option.get (Hlsb_designs.Suite.find name) in
      let shared = Pipeline.of_spec spec in
      let compiles = ref 0 in
      let check ?inject ~recipe target =
        let lowers = runs_of shared "lower" in
        let r = Pipeline.run_exn shared ?inject ~target_mhz:target ~recipe in
        incr compiles;
        if runs_of shared "lower" = lowers then
          List.iter
            (fun (sr : Pipeline.stage_record) ->
              let stage = Pipeline.stage_name sr.Pipeline.sr_stage in
              if List.mem stage reused_stages then
                Alcotest.(check string)
                  (Printf.sprintf "%s @%g: %s reused" name target stage)
                  "cached"
                  (Pipeline.status_label sr.Pipeline.sr_status))
            (Pipeline.last_run shared);
        let fresh =
          Pipeline.run_exn (Pipeline.of_spec spec) ?inject ~target_mhz:target
            ~recipe
        in
        if compile_bytes r <> compile_bytes fresh then
          Alcotest.failf "%s [%s] @%g MHz%s: shared session differs from fresh"
            name (Style.label recipe) target
            (match inject with
            | None -> ""
            | Some i ->
              Printf.sprintf " +inj%dx%d" i.Hlsb_sched.Schedule.inj_top
                i.Hlsb_sched.Schedule.inj_levels)
      in
      List.iter
        (fun recipe ->
          for i = 0 to 40 do
            check ~recipe (200. +. (10. *. float_of_int i))
          done)
        [ Style.optimized; Style.original ];
      List.iter
        (fun inject ->
          List.iter
            (fun target -> check ~inject ~recipe:Style.optimized target)
            [ 300.; 390.; 480. ])
        injections;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d lowers for %d compiles" name
           (runs_of shared "lower") !compiles)
        true
        (runs_of shared "lower" < !compiles))
    [ "Vector Arithmetic"; "Stencil"; "Pattern Matching" ]

(* qcheck: whatever order recipes are compiled in, and however often
   they repeat, a shared session's cached-artifact reuse never changes
   any timing report relative to a fresh single-use session. *)
let recipe_pool =
  [|
    Style.original;
    Style.optimized;
    { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive };
    {
      Style.sched = Style.Sched_hls;
      pipe = Style.Skid { min_area = true };
      sync = Style.Sync_pruned;
    };
  |]

let small_session () =
  Pipeline.create ~device:Device.ultrascale_plus ~name:"va_small"
    ~build:(fun () -> Hlsb_designs.Vector_arith.dataflow ~width:64 ~pes:2 ())
    ()

let prop_cached_reuse_stable =
  QCheck.Test.make ~count:8
    ~name:"cached-artifact reuse never changes the timing report"
    QCheck.(list_of_size (Gen.int_range 1 6) (int_bound 3))
    (fun idxs ->
      let shared = small_session () in
      List.for_all
        (fun i ->
          let recipe = recipe_pool.(i) in
          let via_shared = Pipeline.run_exn shared ~recipe in
          let via_fresh = Pipeline.run_exn (small_session ()) ~recipe in
          fingerprint via_shared = fingerprint via_fresh)
        idxs)

(* ---- structured diagnostics ---- *)

let orphan_process_df () =
  let df = Dataflow.create () in
  ignore (Dataflow.add_process df ~name:"orphan" ());
  df

(* A writer kernel whose FIFO interface name does not match the channel
   name: the lower stage cannot wire the channel into the reader. *)
let fifo_mismatch_df () =
  let writer =
    let dag = Dag.create () in
    let fin = Dag.add_fifo dag ~name:"w_in" ~dtype:(Dtype.Int 32) ~depth:8 in
    let fout = Dag.add_fifo dag ~name:"c_data" ~dtype:(Dtype.Int 32) ~depth:8 in
    let x = Dag.fifo_read dag ~fifo:fin in
    ignore (Dag.fifo_write dag ~fifo:fout ~value:x);
    Kernel.create ~name:"writer" dag
  in
  let reader =
    let dag = Dag.create () in
    (* reads "r_in", not "c_data": the channel has no read-side FIFO *)
    let fin = Dag.add_fifo dag ~name:"r_in" ~dtype:(Dtype.Int 32) ~depth:8 in
    let fout = Dag.add_fifo dag ~name:"r_out" ~dtype:(Dtype.Int 32) ~depth:8 in
    let x = Dag.fifo_read dag ~fifo:fin in
    ignore (Dag.fifo_write dag ~fifo:fout ~value:x);
    Kernel.create ~name:"reader" dag
  in
  let df = Dataflow.create () in
  let pw = Dataflow.add_process df ~name:"writer" ~kernel:writer () in
  let pr = Dataflow.add_process df ~name:"reader" ~kernel:reader () in
  ignore
    (Dataflow.add_channel df ~name:"c_data" ~src:pw ~dst:pr
       ~dtype:(Dtype.Int 32) ());
  df

let run_small df recipe =
  let session =
    Pipeline.create ~device:Device.ultrascale_plus ~name:"bad"
      ~build:(fun () -> df)
      ()
  in
  Pipeline.run session ~recipe

let test_diagnostic_validate () =
  match run_small (orphan_process_df ()) Style.original with
  | Ok _ -> Alcotest.fail "orphan-process design compiled"
  | Error d ->
    Alcotest.(check string) "stage" "elaborate" d.Diag.d_stage;
    (match d.Diag.d_entity with
    | Some (Diag.Process p) -> Alcotest.(check string) "entity" "orphan" p
    | _ -> Alcotest.fail "expected a Process entity");
    Alcotest.(check bool) "message mentions the problem" true
      (contains_sub ~sub:"no channels" d.Diag.d_message)

let test_diagnostic_fifo_mismatch () =
  match run_small (fifo_mismatch_df ()) Style.optimized with
  | Ok _ -> Alcotest.fail "FIFO-mismatched design compiled"
  | Error d ->
    Alcotest.(check string) "stage" "lower" d.Diag.d_stage;
    (match d.Diag.d_entity with
    | Some (Diag.Channel c) -> Alcotest.(check string) "entity" "c_data" c
    | _ -> Alcotest.fail "expected a Channel entity");
    Alcotest.(check bool) "message names the kernel" true
      (contains_sub ~sub:"reader" d.Diag.d_message);
    Alcotest.(check bool) "message names the channel" true
      (contains_sub ~sub:"c_data" d.Diag.d_message)

(* The raising spelling propagates the structured diagnostic instead of
   flattening it into an [Invalid_argument] string: the stage and
   offending entity must survive [Pipeline.run_exn], which is what lets
   drivers that raise still report machine-readable errors. *)
let test_run_exn_raises_diag () =
  let expect_diag name ~stage df =
    let session =
      Pipeline.create ~device:Device.ultrascale_plus ~name
        ~build:(fun () -> df)
        ()
    in
    match Pipeline.run_exn session ~recipe:Style.original with
    | _ -> Alcotest.fail (name ^ ": expected Diag.Diagnostic")
    | exception Diag.Diagnostic d ->
      Alcotest.(check string) (name ^ " stage") stage d.Diag.d_stage;
      Alcotest.(check bool) (name ^ " entity carried") true
        (d.Diag.d_entity <> None)
  in
  expect_diag "orphan" ~stage:"elaborate" (orphan_process_df ());
  expect_diag "fifo-mismatch" ~stage:"lower" (fifo_mismatch_df ())

(* A failed stage raises its diagnostic to the caller, which reports it
   (the CLI) or treats it as an outcome (a pruned explore config): the
   pipeline itself logs it at debug level only, with the stage and
   design attributes, so the CLI does not print the error twice. *)
let test_failed_run_logs_no_error () =
  T_obs.with_captured_log (fun lines ->
    Log.set_level Log.Debug;
    Log.set_format Log.Jsonl;
    (match run_small (orphan_process_df ()) Style.original with
    | Ok _ -> Alcotest.fail "orphan-process design compiled"
    | Error _ -> ());
    let records =
      List.map
        (fun l ->
          match Json.of_string l with
          | Ok j -> j
          | Error e -> Alcotest.fail e)
        !lines
    in
    Alcotest.(check bool) "nothing at error level" false
      (List.exists
         (fun j -> Json.member "level" j = Some (Json.Str "error"))
         records);
    Alcotest.(check bool) "failure kept at debug, with its stage" true
      (List.exists
         (fun j ->
           Json.member "level" j = Some (Json.Str "debug")
           && Json.member "stage" j = Some (Json.Str "elaborate")
           && Json.member "design" j = Some (Json.Str "bad"))
         records))

(* Dumps and explain render for every stage without touching disk. *)
let test_dump_and_explain () =
  let session = small_session () in
  List.iter
    (fun stage ->
      match Pipeline.dump_after session ~recipe:Style.optimized stage with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok text ->
        Alcotest.(check bool)
          (Pipeline.stage_name stage ^ " dump non-empty")
          true
          (String.length text > 0))
    Pipeline.stages;
  let explain = Pipeline.explain session in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Pipeline.stage_name stage ^ " in explain")
        true
        (contains_sub ~sub:(Pipeline.stage_name stage) explain))
    Pipeline.stages;
  (* a failing session's explain carries the diagnostic *)
  let bad =
    Pipeline.create ~device:Device.ultrascale_plus ~name:"bad"
      ~build:(fun () -> orphan_process_df ())
      ()
  in
  (match Pipeline.run bad ~recipe:Style.original with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  Alcotest.(check bool) "session retains the diagnostic" true
    (List.length (Pipeline.diagnostics bad) >= 1);
  Alcotest.(check bool) "failed stage visible in explain" true
    (contains_sub ~sub:"FAILED" (Pipeline.explain bad))

let suite =
  [
    Alcotest.test_case "session shares stages" `Quick test_session_shares_stages;
    Alcotest.test_case "diagnostic: dangling process" `Quick
      test_diagnostic_validate;
    Alcotest.test_case "diagnostic: FIFO mismatch names kernel+channel" `Quick
      test_diagnostic_fifo_mismatch;
    Alcotest.test_case "run_exn raises Diag, stage and entity" `Quick
      test_run_exn_raises_diag;
    Alcotest.test_case "dump-after + explain render" `Quick
      test_dump_and_explain;
    Alcotest.test_case "failed run logs no error" `Quick
      test_failed_run_logs_no_error;
    Alcotest.test_case "retarget reuse = fresh compile" `Slow
      test_retarget_reuse_oracle;
    Alcotest.test_case "shared = fresh on all Table-1 specs" `Slow
      test_shared_equals_fresh;
    QCheck_alcotest.to_alcotest prop_cached_reuse_stable;
  ]
