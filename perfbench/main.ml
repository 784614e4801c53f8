(* The compile benchmark: four closed-loop workloads through the public
   functions of the compile flow, the daemon and the explorer. See
   NOTES.md for why each workload exists and how times are scaled.

     main.exe --workload table1|bigmul|explore|serve --seed N --seconds S
              --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. [--trace 0] reports the
   end-to-end metrics, [--trace 1] the per-layer ones. Run from the
   repository root: it reads perfbench/expected.tsv and keeps its
   scratch files under .perfbench-run/. [--write-expected] regenerates
   the expected file from the current code. *)

open Perfbench_core
open Report
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Suite = Hlsb_designs.Suite
module Bigmul = Hlsb_designs.Bigmul
module Design = Hlsb_rtlgen.Design
module Placement = Hlsb_physical.Placement
module Timing = Hlsb_physical.Timing
module Netlist = Hlsb_netlist.Netlist
module Device = Hlsb_device.Device
module Dataflow = Hlsb_ir.Dataflow
module Calibrate = Hlsb_delay.Calibrate
module Explore = Hlsb_explore.Explore
module Protocol = Hlsb_serve.Protocol
module Client = Hlsb_serve.Client
module Daemon = Hlsb_serve.Daemon
module Store = Hlsb_serve.Store
module Ledger = Hlsb_obs.Ledger
module Json = Hlsb_telemetry.Json
module Pool = Hlsb_util.Pool
module Diag = Hlsb_util.Diag
module Rng = Stream.Rng

let ( // ) = Filename.concat
let expected_path = "perfbench" // "expected.tsv"
let scratch_root = ".perfbench-run"
let elapsed_ms t0 = Refloop.elapsed_ms t0 (Monotonic_clock.now ())

(* ---- the designs ---------------------------------------------------- *)

let table1 = List.filteri (fun i _ -> i < 9) Suite.all
let recipes = [ Style.original; Style.optimized ]

let spec_named name =
  match Suite.find name with
  | Some s -> s
  | None -> failwith ("suite has no design " ^ name)

let bigmul_name = "bm420x2"

let bigmul_spec =
  let bits, limb, lanes = List.assoc bigmul_name Bigmul.sweep in
  Spec.make ~name:bigmul_name ~broadcast:"Pipe. Ctrl. & Data"
    ~device:Device.ultrascale_plus
    ~build:(Bigmul.build_point ~bits ~limb ~lanes)
    ~paper:Bigmul.spec.Spec.sp_paper

let explore_designs = [ spec_named "Vector Arithmetic"; spec_named "Pattern Matching" ]
let explore_budget = 4
let explore_probes = 3

(* The serve workload's keys: every Table-1 design under both recipes. *)
let serve_keys =
  Array.of_list
    (List.concat_map (fun s -> List.map (fun r -> (s, r)) recipes) table1)

(* Misses compile Vector Arithmetic under the optimized recipe, a
   mid-sized design (~11.6k cells). *)
let serve_miss_key =
  let rec find i =
    let spec, recipe = serve_keys.(i) in
    if spec.Spec.sp_name = "Vector Arithmetic" && recipe = Style.optimized then i else find (i + 1)
  in
  find 0

(* The fresh targets of serve misses: [250, 350) MHz at 0.2 MHz steps.
   The expected file lists the miss key's compile at each, under the
   recipe label [target_label]. *)
let serve_targets = Array.init 500 (fun k -> float_of_int (25_000 + (20 * k)) /. 100.)
let target_label recipe mhz = Printf.sprintf "%s@%.2f" (Style.to_string recipe) mhz

(* ---- run state ------------------------------------------------------ *)

type workload = Table1 | Bigmul | Explore | Serve

let workloads = [ ("table1", Table1); ("bigmul", Bigmul); ("explore", Explore); ("serve", Serve) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type st = {
  workload : workload;
  seed : int;
  seconds : float;
  tmp : string;
  rng : Rng.t;
  expected : Expected.t;
  spans : Spans.t;
  group_scale : (int, float) Hashtbl.t;  (** R0 / R of each group's bracket *)
  mutable next_group : int;
  mutable refs : float list;
  mutable r_last : float;
  mutable unit_wall : float;  (** raw ms of the current op's units *)
  mutable unit_ms : float;  (** the same at reference speed *)
  mutable attempted : int;
  mutable failed : int;
  mutable daemons : int list;  (** live hlsbd pids, killed on the way out *)
}

let reference st =
  let r = Refloop.measure () in
  st.refs <- r :: st.refs;
  st.r_last <- r;
  r

(* Run [f] between the previous reference call and a fresh one: its
   value, raw wall ms, and the factor R0 / R that scales it. *)
let bracketed st f =
  let rb = st.r_last in
  let t0 = Monotonic_clock.now () in
  let v = f () in
  let wall = elapsed_ms t0 in
  let ra = reference st in
  (v, wall, Refloop.factor ~r_before:rb ~r_after:ra)

(* In-process ops are timed in units of one design each. Each unit runs
   between two reference calls and is scaled by its own pair; an op's
   time is the sum over its units, the reference calls left out. The
   machine's speed moves within an op (the reference call ranged 1.9 to
   3.6 ms within one explore run), and a pair a design apart tracks it
   more closely than one pair around the whole op. *)
let in_unit st f =
  let v, wall, k = bracketed st f in
  st.unit_wall <- st.unit_wall +. wall;
  st.unit_ms <- st.unit_ms +. (wall *. k);
  v

(* Run the op [f]: its value, raw ms and ms at reference speed, summed
   over its units. *)
let units st f =
  st.unit_wall <- 0.;
  st.unit_ms <- 0.;
  let v = f () in
  (v, st.unit_wall, st.unit_ms)

let new_group st =
  st.next_group <- st.next_group + 1;
  st.next_group

(* A traced group: [f] runs inside a root span named [name], bracketed
   by reference calls; the group's scale factor is kept for its spans. *)
let traced_group st name f =
  let g = new_group st in
  let v, _, k = bracketed st (fun () -> Spans.with_span st.spans ~group:g name (f g)) in
  Hashtbl.replace st.group_scale g k;
  v

(* One op's outcome: every check that failed counts it as failed once. *)
let settle st errors =
  st.attempted <- st.attempted + 1;
  if errors <> [] then begin
    st.failed <- st.failed + 1;
    List.iter (fun e -> prerr_endline ("perfbench: FAILED " ^ e)) errors
  end

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* ---- compile checks ------------------------------------------------- *)

let check_result st ~name ~recipe (r : Pipeline.result) =
  Expected.check st.expected ~name ~recipe
    ~fmax_mhz:r.Pipeline.fr_fmax_mhz ~critical_ns:r.Pipeline.fr_critical_ns
    ~cells:(Netlist.n_cells r.Pipeline.fr_design.Design.netlist)

let cells_of (r : Pipeline.result) = Netlist.n_cells r.Pipeline.fr_design.Design.netlist
let errors_of = List.filter_map (function Ok () -> None | Error e -> Some e)

(* A compile artifact's (fmax, critical ns, cells), as the daemon serves it. *)
let artifact_figures bytes =
  match Json.of_string bytes with
  | Error e -> Error ("artifact is not JSON: " ^ e)
  | Ok j -> (
    let num k =
      match Json.member k j with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    match (num "fmax_mhz", num "critical_ns", num "cells") with
    | Some f, Some c, Some n -> Ok (f, c, int_of_float n)
    | _ -> Error "artifact lacks fmax_mhz, critical_ns or cells")

(* ---- one op of each in-process workload ------------------------------ *)

type op = {
  o_errors : string list;
  o_results : (float * int) list;  (** (fmax, cells) of each result the op checks *)
  o_cells : int;  (** netlist cells of every result the op returned *)
  o_configs : int;  (** compile configurations completed *)
  o_misses : float list;  (** raw ms of a compile that ran its stages *)
  o_hits : float list;  (** raw ms of a compile answered from the session cache *)
  o_stage_runs : (string * int) list;
  o_attempts : int;  (** compiles behind [o_stage_runs], not counting hits *)
}

let timed f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, elapsed_ms t0)

(* A session-cache hit takes microseconds, so each hit sample is the
   mean of this many back-to-back asks. *)
let hit_repeats = 100

let timed_hit f =
  let t0 = Monotonic_clock.now () in
  for _ = 2 to hit_repeats do
    ignore (f ())
  done;
  let v = f () in
  (v, elapsed_ms t0 /. float_of_int hit_repeats)

(* An op's samples folded into one: their mean, or none if it has none. *)
let op_mean = function
  | [] -> []
  | xs -> [ List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) ]

let sum_runs lists =
  List.fold_left
    (fun acc l ->
      List.fold_left
        (fun acc (k, n) ->
          let prev = Option.value ~default:0 (List.assoc_opt k acc) in
          (k, prev + n) :: List.remove_assoc k acc)
        acc l)
    [] lists

(* Compile [spec] under each recipe in a fresh session, then ask the
   session for each result again (a cache hit). *)
let compile_specs st specs recipes_of =
  let per_spec =
    List.map
      (fun (spec : Spec.t) ->
        in_unit st @@ fun () ->
        let ss = Pipeline.of_spec spec in
        let rs = recipes_of spec in
        let compiled =
          List.map
            (fun recipe ->
              let r, ms = timed (fun () -> Pipeline.run ss ~recipe) in
              (recipe, r, ms))
            rs
        in
        let hits =
          List.map
            (fun (recipe, first, _) ->
              let again, ms = timed_hit (fun () -> Pipeline.run ss ~recipe) in
              let same =
                match (first, again) with
                | Ok a, Ok b when a == b -> Ok ()
                | _ ->
                  Error
                    (Printf.sprintf "%s [%s]: session cache answered a different result"
                       spec.Spec.sp_name (Style.to_string recipe))
              in
              (same, ms))
            compiled
        in
        (spec, compiled, hits, Pipeline.stage_runs ss))
      specs
  in
  let errors =
    List.concat_map
      (fun ((spec : Spec.t), compiled, hits, _) ->
        List.map
          (fun (recipe, r, _) ->
            match r with
            | Error d -> Error (Diag.to_string d)
            | Ok r -> check_result st ~name:spec.Spec.sp_name ~recipe:(Style.to_string recipe) r)
          compiled
        @ List.map fst hits)
      per_spec
  in
  let results =
    List.concat_map
      (fun (_, compiled, _, _) ->
        List.filter_map
          (fun (_, r, _) ->
            match r with Ok r -> Some (r.Pipeline.fr_fmax_mhz, cells_of r) | Error _ -> None)
          compiled)
      per_spec
  in
  {
    o_errors = errors_of errors;
    o_results = results;
    o_cells = List.fold_left (fun n (_, c) -> n + c) 0 results;
    o_configs = List.length results;
    (* one sample per op, the mean: the designs differ up to tenfold in
       cost, and per-design samples would put the median or the tail
       between two of them *)
    o_misses = op_mean (List.concat_map (fun (_, c, _, _) -> List.map (fun (_, _, ms) -> ms) c) per_spec);
    o_hits = op_mean (List.concat_map (fun (_, _, h, _) -> List.map snd h) per_spec);
    o_stage_runs = sum_runs (List.map (fun (_, _, _, r) -> r) per_spec);
    o_attempts = List.length results;
  }

let shuffled st xs = Array.to_list (Rng.shuffle st.rng (Array.of_list xs))

let table1_op st () = compile_specs st (shuffled st table1) (fun _ -> recipes)
let bigmul_op st () = compile_specs st [ bigmul_spec ] (fun _ -> [ Style.original ])

let explore_one st (spec : Spec.t) =
  let name = spec.Spec.sp_name in
  let ss = Pipeline.of_spec spec in
  match Explore.run_design ~budget:explore_budget ~max_probes:explore_probes ss ~name with
  | exception Diag.Diagnostic d -> Error (Diag.to_string d)
  | rp ->
    let w = rp.Explore.ep_winner in
    let cf = w.Explore.cr_config in
    let again, hit_ms =
      timed_hit (fun () ->
        Pipeline.run ~plan:cf.Explore.cf_plan
          ~target_mhz:w.Explore.cr_outcome.Hlsb_explore.Search.o_best_target
          ?inject:cf.Explore.cf_inject ss ~recipe:cf.Explore.cf_recipe)
    in
    let errors =
      errors_of
        [
          check_result st ~name ~recipe:"optimized" rp.Explore.ep_static;
          check_result st ~name ~recipe:"explore" w.Explore.cr_result;
          (match again with
          | Ok r when r == w.Explore.cr_result -> Ok ()
          | _ -> Error (name ^ ": winner not answered from the session cache"));
        ]
    in
    Ok (rp, errors, hit_ms, Pipeline.stage_runs ss)

let explore_op st () =
  let outs = List.map (fun spec -> in_unit st (fun () -> explore_one st spec)) (shuffled st explore_designs) in
  let oks = List.filter_map Result.to_option outs in
  let reports = List.map (fun (rp, _, _, _) -> rp) oks in
  let results rp =
    rp.Explore.ep_static :: List.map (fun c -> c.Explore.cr_result) rp.Explore.ep_configs
  in
  {
    o_errors =
      List.concat_map (function Ok (_, e, _, _) -> e | Error e -> [ e ]) outs;
    o_results =
      List.map
        (fun rp ->
          let w = rp.Explore.ep_winner.Explore.cr_result in
          (w.Pipeline.fr_fmax_mhz, cells_of w))
        reports;
    o_configs = List.fold_left (fun n rp -> n + List.length rp.Explore.ep_configs) 0 reports;
    (* one sample per op, the mean over both designs: their probes differ
       twofold in cost, and per-design samples would make the median
       jump between the two *)
    o_misses =
      (let sum f = List.fold_left (fun acc rp -> List.fold_left (fun acc c -> acc +. f c) acc rp.Explore.ep_configs) 0. reports in
       match sum (fun c -> float_of_int c.Explore.cr_probes) with
       | 0. -> []
       | probes -> [ sum (fun c -> c.Explore.cr_ms) /. probes ]);
    o_hits = op_mean (List.map (fun (_, _, ms, _) -> ms) oks);
    o_stage_runs = sum_runs (List.map (fun rp -> rp.Explore.ep_stage_runs) reports);
    o_attempts = List.fold_left (fun n rp -> n + rp.Explore.ep_probes + 1) 0 reports;
    (* every result the op returned, not only the winners *)
    o_cells =
      List.fold_left (fun n rp -> List.fold_left (fun n r -> n + cells_of r) n (results rp)) 0 reports;
  }

let op_fn st =
  match st.workload with
  | Table1 -> table1_op st
  | Bigmul -> bigmul_op st
  | Explore -> explore_op st
  | Serve -> invalid_arg "serve has no in-process op"

(* ---- the traced op: stage functions called directly ------------------ *)

let sp st g name f = Spans.with_span st.spans ~group:g name f
let count st g name v = Spans.count st.spans ~group:g name v

(* The stages [Pipeline.run] executes, one span each, plus an ECO probe:
   nudge 4 cells and re-time incrementally. [df] is the elaborated
   network, shared between recipes as a session shares it. *)
let stage_compile st g ~(spec : Spec.t) ~df ~recipe =
  let device = spec.Spec.sp_device and name = spec.Spec.sp_name in
  let scheds = sp st g "sched" (fun () -> Design.schedule_processes ~device ~recipe df) in
  let dp = sp st g "rtlgen.lower" (fun () -> Design.lower_processes ~device ~recipe ~name df scheds) in
  count st g "rtlgen.lowered_cells" (float_of_int (Netlist.n_cells dp.Design.dp_netlist));
  let design = sp st g "ctrl.sync" (fun () -> Design.emit_sync ~device ~recipe df dp) in
  let nl = design.Design.netlist in
  let pl = sp st g "physical.place" (fun () -> Placement.place device nl) in
  let tr = sp st g "physical.sta" (fun () -> Timing.analyze device nl pl) in
  let r = sp st g "core.report" (fun () -> Pipeline.finish ~name design tr) in
  let cells = Netlist.n_cells nl in
  count st g "sched.regs_inserted"
    (float_of_int
       (List.fold_left (fun n k -> n + k.Design.ki_registers_added) 0 design.Design.kernels));
  count st g "netlist.cells" (float_of_int cells);
  count st g "netlist.nets" (float_of_int (Netlist.n_nets nl));
  (* the ECO probe is extra work the untraced op does not do; the
     tracing overhead leaves its span out *)
  sp st g "physical.eco" (fun () ->
    let ctx = Timing.prepare device nl pl in
    for _ = 1 to 4 do
      let c = Rng.int st.rng cells in
      let x, y = Placement.position pl c in
      Placement.set_position pl c (x +. 0.5, y +. 0.5)
    done;
    let nets =
      sp st g "physical.refresh" (fun () ->
        let n = Timing.refresh ctx in
        ignore (Timing.analyze_ctx ctx);
        n)
    in
    count st g "physical.refresh_nets" (float_of_int nets));
  check_result st ~name ~recipe:(Style.to_string recipe) r

let elaborate st g (spec : Spec.t) =
  sp st g "designs" (fun () ->
    let df = spec.Spec.sp_build () in
    match Dataflow.problems df with
    | [] -> df
    | p :: _ -> failwith (spec.Spec.sp_name ^ ": " ^ p.Dataflow.pb_message))

let stage_compile_specs st g specs recipes_of =
  List.concat_map
    (fun spec ->
      let df = elaborate st g spec in
      List.map (fun recipe -> stage_compile st g ~spec ~df ~recipe) (recipes_of spec))
    specs
  |> errors_of

(* ---- the daemon ----------------------------------------------------- *)

type daemon = { d_pid : int; d_socket : string }

let hlsbd_exe () =
  Filename.dirname (Filename.dirname Sys.executable_name) // "bin" // "hlsbd.exe"

let spawn_daemon st ~dir =
  Hlsb_util.Atomic_file.mkdir_p dir;
  let socket = dir // "hlsbd.sock" in
  let log = Unix.openfile (dir // "hlsbd.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = hlsbd_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--store"; dir // "store"; "--jobs"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  st.daemons <- pid :: st.daemons;
  let t0 = Monotonic_clock.now () in
  let rec wait () =
    if Client.available ~socket () then Ok { d_pid = pid; d_socket = socket }
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when elapsed_ms t0 < 30_000. ->
        Unix.sleepf 0.02;
        wait ()
      | 0, _ -> Error "hlsbd did not answer within 30 s"
      | _ ->
        st.daemons <- List.filter (( <> ) pid) st.daemons;
        Error "hlsbd exited before answering"
  in
  wait ()

let kill_daemons st =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    st.daemons;
  st.daemons <- []

(* Shut the daemon down and reap it; [Error] unless it exits 0. *)
let stop_daemon st d =
  let asked =
    match Client.call ~socket:d.d_socket Protocol.Shutdown with
    | Ok { Protocol.p_error = None; _ } -> Ok ()
    | Ok { Protocol.p_error = Some e; _ } -> Error ("hlsbd shutdown: " ^ Diag.to_string e)
    | Error e -> Error ("hlsbd shutdown: " ^ e)
  in
  let t0 = Monotonic_clock.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
    | 0, _ when elapsed_ms t0 < 10_000. ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill d.d_pid Sys.sigkill;
      ignore (Unix.waitpid [] d.d_pid);
      Error "hlsbd did not exit within 10 s of shutdown"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "hlsbd exited with status %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "hlsbd killed by signal %d" n)
  in
  let reaped = reap () in
  st.daemons <- List.filter (( <> ) d.d_pid) st.daemons;
  errors_of [ asked; reaped ]

let compile_request ?target (spec, recipe) =
  {
    Protocol.q_id = Client.fresh_id ();
    q_ns = "perfbench";
    q_verb =
      Protocol.Compile
        {
          Protocol.cp_design = spec.Spec.sp_name;
          cp_recipe = recipe;
          cp_target_mhz = target;
          cp_inject = None;
        };
  }

let key_label (spec, recipe) =
  Printf.sprintf "%s [%s]" spec.Spec.sp_name (Style.to_string recipe)

(* Check a compile response: answered, hit flag as expected, and for a
   hit the very bytes its miss produced. *)
let check_response ~key ~want_hit ?same_as resp =
  match resp with
  | Error e -> Error (key_label key ^ ": no response: " ^ e)
  | Ok { Protocol.p_error = Some d; _ } -> Error (key_label key ^ ": " ^ Diag.to_string d)
  | Ok r when r.Protocol.p_hit <> want_hit ->
    Error
      (Printf.sprintf "%s: expected a store %s" (key_label key)
         (if want_hit then "hit" else "miss"))
  | Ok r -> (
    match same_as with
    | Some bytes when bytes <> r.Protocol.p_artifact ->
      Error (key_label key ^ ": hit bytes differ from the artifact its miss produced")
    | _ -> Ok r.Protocol.p_artifact)

(* Check an artifact's figures against the expected row of [key], at
   [target] MHz when the request carried one. *)
let check_artifact st ?target key bytes =
  let spec, recipe = key in
  let label =
    match target with None -> Style.to_string recipe | Some mhz -> target_label recipe mhz
  in
  match artifact_figures bytes with
  | Error e -> Error (key_label key ^ ": " ^ e)
  | Ok (fmax_mhz, critical_ns, cells) ->
    Expected.check st.expected ~name:spec.Spec.sp_name ~recipe:label ~fmax_mhz ~critical_ns ~cells

(* The serve warm-up: every key once (a miss, checked against the
   expected file), then once more (a hit, byte-identical). [phase] wraps
   each request. *)
let serve_warmup st d ~phase =
  let base = Array.make (Array.length serve_keys) "" in
  let errors = ref [] in
  let request key = phase (fun () -> Client.request ~socket:d.d_socket (compile_request key)) in
  Array.iteri
    (fun i key ->
      match check_response ~key ~want_hit:false (request key) with
      | Error e -> errors := e :: !errors
      | Ok bytes -> (
        base.(i) <- bytes;
        match check_artifact st key bytes with
        | Ok () -> ()
        | Error e -> errors := e :: !errors))
    serve_keys;
  Array.iteri
    (fun i key ->
      match
        check_response ~key ~want_hit:true ~same_as:base.(i) (request key)
      with
      | Ok _ -> ()
      | Error e -> errors := e :: !errors)
    serve_keys;
  (base, List.rev !errors)

(* ---- set-up --------------------------------------------------------- *)

let workload_specs = function
  | Table1 | Serve -> table1
  | Bigmul -> [ bigmul_spec ]
  | Explore -> explore_designs

let calibrate st =
  let devices =
    List.sort_uniq compare
      (List.map (fun s -> s.Spec.sp_device.Device.name) (workload_specs st.workload))
  in
  List.iter
    (fun n ->
      match Device.find n with
      | Some d -> Calibrate.warm (Calibrate.shared d)
      | None -> ())
    devices

type setup = {
  s_ms : float;  (** process start to first timed op, at reference speed *)
  s_daemon : daemon option;
  s_base : string array;  (** serve: each key's artifact bytes *)
}

(* Cold calibration, one untimed warm-up op, and for [serve] the daemon
   spawn, readiness and store warm-up. [t_start] is the process start.
   Set-up is timed in phases, each scaled by its own pair of reference
   calls: calibration, the daemon spawn, each warm-up request for serve,
   and the warm-up op in its units. A single pair around the whole
   set-up, seconds apart, tracked the machine's speed too loosely: over
   ten seeds the set-up of explore spread 25.7%. The reference calls
   themselves are not counted. *)
let setup st ~t_start =
  let to_first_ref = elapsed_ms t_start in
  let r_start = reference st in
  let total = ref (to_first_ref *. Refloop.factor ~r_before:r_start ~r_after:r_start) in
  let phase f =
    let v, wall, k = bracketed st f in
    total := !total +. (wall *. k);
    (v, k)
  in
  let g = new_group st in
  let (), k = phase (fun () -> sp st g "delay.calibrate" (fun () -> calibrate st)) in
  Hashtbl.replace st.group_scale g k;
  let daemon, base, errors =
    if st.workload = Serve then
      match fst (phase (fun () -> spawn_daemon st ~dir:(st.tmp // "daemon"))) with
      | Error e -> (None, [||], [ e ])
      | Ok d ->
        let base, errors = serve_warmup st d ~phase:(fun f -> fst (phase f)) in
        (Some d, base, errors)
    else begin
      let errors, _, ms = units st (fun () -> (op_fn st ()).o_errors) in
      total := !total +. ms;
      (None, [||], errors)
    end
  in
  settle st errors;
  { s_ms = !total; s_daemon = daemon; s_base = base }

(* ---- the in-process measurement loop ---------------------------------- *)

type sample = {
  sa_ms : float;  (** at reference speed *)
  sa_wall : float;
  sa_mb : float;  (** allocated by this process *)
  sa_op : op;
  sa_scale : float;
  sa_gc : Gc.stat * Gc.stat;
}

(* The pooled samples of a run need more than ten for the tail, so each
   of the [processes] measuring processes runs at least its share. *)
let min_ops = 4

let measured_op st f =
  let q0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let op, wall, ms = units st f in
  let a1 = Gc.allocated_bytes () in
  let q1 = Gc.quick_stat () in
  settle st op.o_errors;
  { sa_ms = ms; sa_wall = wall; sa_mb = (a1 -. a0) /. 1e6; sa_op = op; sa_scale = ms /. wall; sa_gc = (q0, q1) }

(* Closed loop: ops back to back for [seconds], and at least [min_ops].
   [step i] runs op i. *)
let loop st step =
  let t0 = Monotonic_clock.now () in
  let rec go i acc =
    if i >= min_ops && elapsed_ms t0 >= st.seconds *. 1000. then List.rev acc
    else go (i + 1) (step i :: acc)
  in
  go 0 []

(* ---- metrics output ------------------------------------------------- *)

let print_result st metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.m_value) then prerr_endline ("perfbench: metric " ^ x.m_name ^ " is not finite"))
    metrics;
  print_endline (result_line ~attempted:st.attempted ~failed:st.failed metrics)

let ref_diagnostics st =
  let refs = st.refs in
  let med = Stats.median refs in
  let lo = List.fold_left min infinity refs and hi = List.fold_left max neg_infinity refs in
  Printf.printf "reference: %d calls, median %.3f ms (R0 %.3f), range %.3f..%.3f, spread %.1f%%\n"
    (List.length refs) med Refloop.r0_ms lo hi (100. *. (hi -. lo) /. med);
  (med, (hi -. lo) /. med)

(* ---- serve: the request stream through hlsbd -------------------------- *)

type served = {
  sv_req : Stream.request;
  sv_ms : float;  (** at reference speed *)
  sv_mb : float;
  sv_bytes : string;  (** "" when the request failed *)
}

let batch_size = 32

(* Send the stream until [seconds] pass and at least [min_batches]
   batches are sent, [batch_size] requests between reference calls, or
   until the stream's fresh targets run out. [on_request] wraps each
   request (the traced run puts a span around it); [on_batch i k] follows
   batch [i], scaled by [k]. *)
let run_stream st d base ~seconds ~min_batches ~on_request ~on_batch =
  let stream =
    Stream.create ~seed:st.seed ~keys:(Array.length serve_keys) ~miss_key:serve_miss_key
      ~targets:serve_targets
  in
  let t0 = Monotonic_clock.now () in
  let out = ref [] in
  let batches = ref 0 in
  while
    Stream.can_take stream batch_size
    && (!batches < min_batches || elapsed_ms t0 < seconds *. 1000.)
  do
    incr batches;
    let rb = st.r_last in
    let batch =
      List.init batch_size (fun i ->
        let rq = Stream.next stream in
        let key = serve_keys.(rq.Stream.rq_key) in
        let a0 = Gc.allocated_bytes () in
        let resp, wall =
          on_request i rq (fun () ->
            timed (fun () ->
              Client.request ~socket:d.d_socket (compile_request ?target:rq.Stream.rq_target_mhz key)))
        in
        let mb = (Gc.allocated_bytes () -. a0) /. 1e6 in
        let checked =
          match rq.Stream.rq_target_mhz with
          | None -> check_response ~key ~want_hit:true ~same_as:base.(rq.Stream.rq_key) resp
          | Some target ->
            Result.bind (check_response ~key ~want_hit:false resp) (fun bytes ->
              Result.map (fun () -> bytes) (check_artifact st ~target key bytes))
        in
        settle st (match checked with Ok _ -> [] | Error e -> [ e ]);
        (rq, wall, mb, Result.value checked ~default:""))
    in
    let k = Refloop.factor ~r_before:rb ~r_after:(reference st) in
    on_batch !batches k;
    List.iter
      (fun (rq, wall, mb, bytes) ->
        out := { sv_req = rq; sv_ms = wall *. k; sv_mb = mb; sv_bytes = bytes } :: !out)
      batch
  done;
  List.rev !out

let served_results sv =
  List.filter_map
    (fun s ->
      match artifact_figures s.sv_bytes with
      | Ok (f, _, n) -> Some (f, n)
      | Error _ -> None)
    sv


(* ---- the untraced run ----------------------------------------------- *)

(* Peak RSS is read after this many ops (request batches for serve), the
   same in every run: the daemon's warm session keeps every miss it
   compiled, so its peak grows with the requests served, and a reading
   after a time limit would follow throughput. *)
let rss_batches = 10

let run_untraced st su ~setup_s =
  let rss = ref nan in
  let me =
    match (st.workload, su.s_daemon) with
    | Serve, None ->
      (* set-up failed and was counted; there is nothing to measure *)
      nothing ~setup_s
    | Serve, Some d ->
      let on_batch i _ = if i = rss_batches then rss := vm_hwm_mb (string_of_int d.d_pid) in
      let sv =
        run_stream st d su.s_base ~seconds:st.seconds ~min_batches:rss_batches
          ~on_request:(fun _ _ f -> f ()) ~on_batch
      in
      (* an op is one stream block: nine hits and one miss *)
      let blocks = List.length sv / Stream.block in
      let sv = List.filteri (fun i _ -> i < blocks * Stream.block) sv in
      let per_block f =
        List.init blocks (fun b ->
          List.fold_left ( +. ) 0.
            (List.filteri (fun i _ -> i / Stream.block = b) (List.map f sv)))
      in
      let results = served_results sv in
      let ms_of pred =
        List.filter_map (fun s -> if pred s.sv_req.Stream.rq_target_mhz then Some s.sv_ms else None) sv
      in
      {
        me_setup_s = setup_s;
        me_ops = per_block (fun s -> s.sv_ms);
        me_alloc = per_block (fun s -> s.sv_mb);
        me_requests = List.length sv;
        me_rss = !rss;
        me_fmax = List.map fst results;
        me_cells = List.fold_left (fun n (_, c) -> n + c) 0 results;
        me_configs = List.length sv;
        me_misses = ms_of Option.is_some;
        me_hits = ms_of Option.is_none;
        me_attempted = 0;
        me_failed = 0;
        me_refs = [];
      }
    | _ ->
      let f = op_fn st in
      let samples =
        loop st (fun i ->
          let sa = measured_op st f in
          if i + 1 = min_ops then rss := vm_hwm_mb "self";
          sa)
      in
      let scaled sa xs = List.map (fun x -> x *. sa.sa_scale) xs in
      {
        me_setup_s = setup_s;
        me_ops = List.map (fun sa -> sa.sa_ms) samples;
        me_alloc = List.map (fun sa -> sa.sa_mb) samples;
        me_requests = List.length samples;
        me_rss = !rss;
        me_fmax = List.concat_map (fun sa -> List.map fst sa.sa_op.o_results) samples;
        me_cells = List.fold_left (fun n sa -> n + sa.sa_op.o_cells) 0 samples;
        me_configs = List.fold_left (fun n sa -> n + sa.sa_op.o_configs) 0 samples;
        me_misses = List.concat_map (fun sa -> scaled sa sa.sa_op.o_misses) samples;
        me_hits = List.concat_map (fun sa -> scaled sa sa.sa_op.o_hits) samples;
        me_attempted = 0;
        me_failed = 0;
        me_refs = [];
      }
  in
  Option.iter (fun d -> settle st (stop_daemon st d)) su.s_daemon;
  { me with me_attempted = st.attempted; me_failed = st.failed; me_refs = st.refs }

(* ---- the traced run ------------------------------------------------- *)

let pipeline_stages = [ "elaborate"; "schedule"; "lower"; "sync"; "place"; "sta"; "report" ]

let count_runs st g runs attempts =
  List.iter
    (fun s -> count st g ("core.stage_runs." ^ s) (float_of_int (Option.value ~default:0 (List.assoc_opt s runs))))
    pipeline_stages;
  count st g "core.attempts" (float_of_int attempts)

let count_gc st g ((q0 : Gc.stat), (q1 : Gc.stat)) =
  count st g "gc.minor" (float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections));
  count st g "gc.major" (float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
  count st g "gc.promoted_mb" ((q1.Gc.promoted_words -. q0.Gc.promoted_words) *. 8. /. 1e6)

let count_explore st g (rp : Explore.report) =
  count st g "explore.configs" (float_of_int (List.length rp.Explore.ep_configs));
  count st g "explore.probes" (float_of_int rp.Explore.ep_probes);
  count st g "explore.hit_rate_sum" rp.Explore.ep_hit_rate;
  count st g "explore.designs" 1.

(* Replay requests through an in-process [Daemon.handle], timing the
   layers under it: handle, store find and put, the JSON codec and one
   ledger append. Each replayed artifact must equal the bytes the
   socket served for the same request ([""] skips the comparison). *)
let replay st ~dir requests =
  let d = Daemon.create ~store_root:(dir // "store") () in
  let puts = Store.open_ ~root:(dir // "puts") () in
  let ledger = dir // "ledger.jsonl" in
  let one (req, served) =
    let g = new_group st in
    let key = ref "" and errors = ref [] in
    let t0 = Monotonic_clock.now () in
    let resp = Daemon.handle d req in
    let handle_ms = elapsed_ms t0 in
    (match resp with
    | { Protocol.p_error = Some e; _ } -> errors := Diag.to_string e :: !errors
    | r ->
      key := r.Protocol.p_key;
      if served <> "" && served <> r.Protocol.p_artifact then
        errors := "in-process artifact differs from the one hlsbd served" :: !errors);
    let hit = resp.Protocol.p_hit in
    sp st g "serve.store_find" (fun () ->
      if Store.find (Daemon.store d) ~ns:req.Protocol.q_ns ~key:!key = None then
        errors := "store lost a published artifact" :: !errors);
    if not hit then
      sp st g "serve.store_put" (fun () ->
        match Store.put puts ~ns:req.Protocol.q_ns ~key:!key resp.Protocol.p_artifact with
        | Ok () -> ()
        | Error e -> errors := ("store put: " ^ e) :: !errors);
    sp st g "serve.codec" (fun () ->
      let rq = Json.to_string (Protocol.request_to_json req) in
      let rs = Json.to_string (Protocol.response_to_json resp) in
      match
        ( Result.bind (Json.of_string rq) Protocol.request_of_json,
          Result.bind (Json.of_string rs) Protocol.response_of_json )
      with
      | Ok q, Ok p when q = req && p = resp -> ()
      | _ -> errors := "protocol codec did not round-trip" :: !errors);
    sp st g "obs.ledger_append" (fun () ->
      match
        Ledger.append ~path:ledger ~sync:true
          (Ledger.make ~cmd:"serve" ~label:"perfbench replay"
             ~stages:[ { Ledger.st_name = "serve"; st_status = "ran"; st_ms = handle_ms } ]
             ())
      with
      | Ok _ -> ()
      | Error e -> errors := ("ledger append: " ^ e) :: !errors);
    (g, hit, handle_ms, !errors)
  in
  (* reference calls between batches, as on the socket *)
  let rec batches = function
    | [] -> ()
    | l ->
      let batch = List.filteri (fun i _ -> i < batch_size) l in
      let rest = List.filteri (fun i _ -> i >= batch_size) l in
      let rb = st.r_last in
      let out = List.map one batch in
      let k = Refloop.factor ~r_before:rb ~r_after:(reference st) in
      List.iter
        (fun (g, hit, handle_ms, errors) ->
          Hashtbl.replace st.group_scale g k;
          count st g (if hit then "serve.handle_hit_ms" else "serve.handle_miss_ms") (handle_ms *. k);
          settle st errors)
        out;
      batches rest
  in
  batches requests

let replay_limit = 200

(* Coverage groups: layers a workload's own ops do not reach are still
   measured once per traced run, on that workload's first design. *)
let covers : (int, unit) Hashtbl.t = Hashtbl.create 8

let cover st name f =
  let g = st.next_group + 1 in
  Hashtbl.replace covers g ();
  settle st (traced_group st name f)

let cover_stages st (spec, recipe) =
  cover st "cover.stages" (fun g () ->
    let df = elaborate st g spec in
    errors_of [ stage_compile st g ~spec ~df ~recipe ])

let cover_explore st (spec : Spec.t) =
  cover st "cover.explore" (fun g () ->
    let name = spec.Spec.sp_name in
    let ss = Pipeline.of_spec spec in
    let rp = sp st g "explore" (fun () -> Explore.run_design ~budget:2 ~max_probes:2 ss ~name) in
    count_explore st g rp;
    count_runs st g rp.Explore.ep_stage_runs (rp.Explore.ep_probes + 1);
    errors_of [ check_result st ~name ~recipe:"optimized" rp.Explore.ep_static ])

(* One miss and one hit of [key] through a fresh hlsbd, then the same
   two requests replayed in-process. *)
let cover_serve st key =
  let g0 = st.next_group + 1 in
  let served =
    match spawn_daemon st ~dir:(st.tmp // "cover-daemon") with
    | Error e ->
      settle st [ e ];
      []
    | Ok d ->
      let request span want_hit same_as =
        Hashtbl.replace covers (st.next_group + 1) ();
        traced_group st span (fun _ () ->
          check_response ~key ~want_hit ?same_as
            (Client.request ~socket:d.d_socket (compile_request key)))
      in
      let miss = request "serve.client.miss" false None in
      let hit = request "serve.client.hit" true (Result.to_option miss) in
      let errors =
        (match miss with Ok b -> errors_of [ check_artifact st key b ] | Error e -> [ e ])
        @ (match hit with Ok _ -> [] | Error e -> [ e ])
        @ stop_daemon st d
      in
      settle st errors;
      [ Result.value miss ~default:""; Result.value hit ~default:"" ]
  in
  let req = compile_request key in
  replay st ~dir:(st.tmp // "cover-replay") (List.map (fun b -> (req, b)) served);
  for g = g0 to st.next_group do
    Hashtbl.replace covers g ()
  done

(* Per-layer metrics: each layer's value is the median, over the groups
   that recorded it, of the group's summed self time (at reference
   speed), self MB or count. Op groups win; coverage groups fill in
   layers no op reached. *)
let layer_metrics st ~traced_ms ~untraced_ms ~untraced_wall ~hit_ratio ~ref_ms ~ref_spread =
  let selfs = Spans.self_by_group st.spans in
  let scale g = Option.value ~default:1. (Hashtbl.find_opt st.group_scale g) in
  let per_group value =
    (* value : group -> float option *)
    let groups = Hashtbl.create 64 in
    Hashtbl.iter (fun (g, _) _ -> Hashtbl.replace groups g ()) selfs;
    Hashtbl.iter (fun (g, _) _ -> Hashtbl.replace groups g ()) st.spans.Spans.counts;
    let ops, cov =
      Hashtbl.fold
        (fun g () (ops, cov) ->
          match value g with
          | None -> (ops, cov)
          | Some v -> if Hashtbl.mem covers g then (ops, v :: cov) else (v :: ops, cov))
        groups ([], [])
    in
    Stats.median_or_nan (if ops <> [] then ops else cov)
  in
  let ms name = per_group (fun g -> Option.map (fun (ms, _) -> ms *. scale g) (Hashtbl.find_opt selfs (g, name))) in
  let mb name = per_group (fun g -> Option.map snd (Hashtbl.find_opt selfs (g, name))) in
  let cnt name = per_group (fun g -> Hashtbl.find_opt st.spans.Spans.counts (g, name)) in
  let ratio f = per_group f in
  let c g name = Hashtbl.find_opt st.spans.Spans.counts (g, name) in
  let s g name = Hashtbl.find_opt selfs (g, name) in
  let kb_per_cell span cells =
    ratio (fun g ->
      match (s g span, c g cells) with
      | Some (_, mb), Some n when n > 0. -> Some (mb *. 1000. /. n)
      | _ -> None)
  in
  [
    m "designs.build_ms" "ms" (ms "designs");
    m "designs.build_mb" "MB" (mb "designs");
    m "sched.ms" "ms" (ms "sched");
    m "sched.mb" "MB" (mb "sched");
    m "sched.regs_inserted" "count" (cnt "sched.regs_inserted");
    m "rtlgen.lower_ms" "ms" (ms "rtlgen.lower");
    m "rtlgen.lower_mb" "MB" (mb "rtlgen.lower");
    m "rtlgen.lower_kb_per_cell" "KB/cell" (kb_per_cell "rtlgen.lower" "rtlgen.lowered_cells");
    m "netlist.cells" "count" (cnt "netlist.cells");
    m "netlist.nets" "count" (cnt "netlist.nets");
    m "ctrl.sync_ms" "ms" (ms "ctrl.sync");
    m "ctrl.sync_mb" "MB" (mb "ctrl.sync");
    m "physical.place_ms" "ms" (ms "physical.place");
    m "physical.place_mb" "MB" (mb "physical.place");
    m "physical.place_kb_per_cell" "KB/cell" (kb_per_cell "physical.place" "netlist.cells");
    m "physical.sta_ms" "ms" (ms "physical.sta");
    m "physical.sta_mb" "MB" (mb "physical.sta");
    m "physical.refresh_ms" "ms" (ms "physical.refresh");
    m "physical.refresh_nets" "count" (cnt "physical.refresh_nets");
    m "core.report_ms" "ms" (ms "core.report");
  ]
  @ List.map (fun s -> m ("core.stage_runs." ^ s) "count" (cnt ("core.stage_runs." ^ s))) pipeline_stages
  @ [
      m "core.cache_hit_ratio" "ratio"
        (ratio (fun g ->
           match c g "core.attempts" with
           | Some a when a > 0. ->
             let runs =
               List.fold_left (fun acc s -> acc +. Option.value ~default:0. (c g ("core.stage_runs." ^ s))) 0. pipeline_stages
             in
             Some (1. -. (runs /. (a *. float_of_int (List.length pipeline_stages))))
           | _ -> None));
      m "delay.calibrate_ms" "ms" (ms "delay.calibrate");
      m "explore.configs" "count" (cnt "explore.configs");
      m "explore.probes" "count" (cnt "explore.probes");
      m "explore.ms_per_probe" "ms"
        (ratio (fun g ->
           match (s g "explore", c g "explore.probes") with
           | Some (ms, _), Some p when p > 0. -> Some (ms *. scale g /. p)
           | _ -> None));
      m "explore.hit_rate" "ratio"
        (ratio (fun g ->
           match (c g "explore.hit_rate_sum", c g "explore.designs") with
           | Some h, Some n when n > 0. -> Some (h /. n)
           | _ -> None));
      m "serve.client_rtt_ms" "ms" (ms "serve.client.hit");
      m "serve.handle_hit_ms" "ms" (cnt "serve.handle_hit_ms");
      m "serve.handle_miss_ms" "ms" (cnt "serve.handle_miss_ms");
      m "serve.transport_ms" "ms" (ms "serve.client.hit" -. cnt "serve.handle_hit_ms");
      m "serve.store_find_ms" "ms" (ms "serve.store_find");
      m "serve.store_put_ms" "ms" (ms "serve.store_put");
      m "serve.codec_us" "us" (1000. *. ms "serve.codec");
      m "obs.ledger_append_ms" "ms" (ms "obs.ledger_append");
      m "serve.hit_ratio" "ratio" hit_ratio;
      m "gc.minor" "count" (cnt "gc.minor");
      m "gc.major" "count" (cnt "gc.major");
      m "gc.promoted_mb" "MB" (cnt "gc.promoted_mb");
      m "ref.ms" "ms" ref_ms;
      m "ref.spread" "ratio" ref_spread;
      m "wall.op_ms" "ms" untraced_wall;
      m "trace.op_ms" "ms" traced_ms;
      m "trace.overhead" "ratio" (traced_ms /. untraced_ms);
    ]

(* Traced ops alternate with untraced ones, so the overhead compares
   ops measured at the same time in the same process. *)
let run_traced st su =
  let untraced = ref [] and traced = ref [] in
  let hit_ratio = ref nan in
  let traced_op () =
    let g = st.next_group + 1 in
    let errors =
      traced_group st "op" (fun g () ->
        match st.workload with
        | Table1 -> stage_compile_specs st g (shuffled st table1) (fun _ -> recipes)
        | Bigmul -> stage_compile_specs st g [ bigmul_spec ] (fun _ -> [ Style.original ])
        | Explore | Serve ->
          List.concat_map
            (fun spec ->
              match sp st g "explore" (fun () -> explore_one st spec) with
              | Error e -> [ e ]
              | Ok (rp, errors, _, runs) ->
                count_explore st g rp;
                count_runs st g runs (rp.Explore.ep_probes + 1);
                errors)
            (shuffled st explore_designs))
    in
    settle st errors;
    g
  in
  (match (st.workload, su.s_daemon) with
  | Serve, Some d ->
    let pending = ref [] in
    let on_request i (rq : Stream.request) f =
      if i mod 2 = 0 then begin
        let g = new_group st in
        pending := g :: !pending;
        let span = if rq.Stream.rq_target_mhz = None then "serve.client.hit" else "serve.client.miss" in
        let ((_, wall) as v) = Spans.with_span st.spans ~group:g span f in
        traced := (g, wall) :: !traced;
        v
      end
      else begin
        let g = new_group st in
        let q0 = Gc.quick_stat () in
        let ((_, wall) as v) = f () in
        count_gc st g (q0, Gc.quick_stat ());
        pending := g :: !pending;
        untraced := (g, wall) :: !untraced;
        v
      end
    in
    let on_batch _ k =
      List.iter (fun g -> Hashtbl.replace st.group_scale g k) !pending;
      pending := []
    in
    let sv = run_stream st d su.s_base ~seconds:(st.seconds /. 2.) ~min_batches:1 ~on_request ~on_batch in
    let hits = List.length (List.filter (fun s -> s.sv_req.Stream.rq_target_mhz = None) sv) in
    hit_ratio := float_of_int hits /. float_of_int (List.length sv);
    settle st (stop_daemon st d);
    let base = Array.to_list (Array.mapi (fun i key -> (compile_request key, su.s_base.(i))) serve_keys) in
    let stream =
      List.filteri (fun i _ -> i < replay_limit)
        (List.map
           (fun s ->
             (compile_request ?target:s.sv_req.Stream.rq_target_mhz serve_keys.(s.sv_req.Stream.rq_key), s.sv_bytes))
           sv)
    in
    replay st ~dir:(st.tmp // "replay") (base @ stream);
    let first = serve_keys.((List.hd sv).sv_req.Stream.rq_key) in
    cover_stages st first;
    cover_explore st (fst first)
  | _ ->
    let f = op_fn st in
    ignore
      (loop st (fun i ->
         if i mod 2 = 0 then begin
           let g = traced_op () in
           traced := (g, 0.) :: !traced
         end
         else begin
           let sa = measured_op st f in
           let g = new_group st in
           count_gc st g sa.sa_gc;
           count_runs st g sa.sa_op.o_stage_runs sa.sa_op.o_attempts;
           Hashtbl.replace st.group_scale g sa.sa_scale;
           untraced := (g, sa.sa_wall) :: !untraced
         end));
    (match st.workload with
    | Table1 ->
      let first = List.hd (shuffled st table1) in
      cover_explore st first;
      cover_serve st (first, Style.optimized)
    | Bigmul ->
      let ms = spec_named "Modular Squaring" in
      cover_explore st ms;
      cover_serve st (ms, Style.original)
    | Explore | Serve ->
      List.iter (fun spec -> cover_stages st (spec, Style.optimized)) explore_designs;
      cover_serve st (List.hd explore_designs, Style.optimized));
    let hits, reqs =
      Hashtbl.fold
        (fun (_, name) _ (h, r) ->
          match name with
          | "serve.client.hit" -> (h + 1, r + 1)
          | "serve.client.miss" -> (h, r + 1)
          | _ -> (h, r))
        (Spans.self_by_group st.spans) (0, 0)
    in
    hit_ratio := float_of_int hits /. float_of_int (max 1 reqs));
  let scale g = Option.value ~default:1. (Hashtbl.find_opt st.group_scale g) in
  let op_ms (g, wall) =
    if st.workload = Serve then wall *. scale g
    else
      let total name =
        List.fold_left
          (fun acc s -> if s.Spans.sp_group = g && s.Spans.sp_name = name then acc +. s.Spans.sp_ms else acc)
          0. st.spans.Spans.spans
      in
      (total "op" -. total "physical.eco") *. scale g
  in
  let traced_ms = Stats.median_or_nan (List.map op_ms !traced) in
  let untraced_ms = Stats.median_or_nan (List.map (fun (g, w) -> w *. scale g) !untraced) in
  let ref_ms, ref_spread = ref_diagnostics st in
  Printf.printf "tracing overhead: traced op %.3f ms vs untraced %.3f ms\n" traced_ms untraced_ms;
  layer_metrics st ~traced_ms ~untraced_ms
    ~untraced_wall:(Stats.median_or_nan (List.map snd !untraced))
    ~hit_ratio:!hit_ratio ~ref_ms ~ref_spread

(* The untraced run measures in [processes] sequential child processes,
   each set up cold in its own scratch dir and measuring for an equal
   share of the run: a process's memory layout and placement move its
   speed, and pooling over several averages that out. It also gives
   several set-up times per run. Child [i] of seed [s] runs seed
   [s * processes + i], so the children's inputs differ but follow from
   [s]. *)
let processes = 3

let child_measure st ~index ~seconds =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [|
        exe; "--workload"; workload_name st.workload; "--seed"; string_of_int ((st.seed * processes) + index); "--seconds";
        Printf.sprintf "%.17g" seconds; "--child";
      |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    try Ok (Marshal.from_string out 0 : measured)
    with Failure _ | Invalid_argument _ -> Error "measuring process printed no record")
  | _, Unix.WEXITED n -> Error (Printf.sprintf "measuring process exited with status %d" n)
  | _ -> Error "measuring process was killed"

(* ---- the expected file ---------------------------------------------- *)

(* Every suite design under both recipes, bm420x2 under the original
   recipe, the explorer's winner on each explore design, and the serve
   miss key at every serve target. *)
let write_expected () =
  let row ~name ~recipe (r : Pipeline.result) =
    {
      Expected.e_name = name;
      e_recipe = recipe;
      e_fmax_mhz = r.Pipeline.fr_fmax_mhz;
      e_critical_ns = r.Pipeline.fr_critical_ns;
      e_cells = cells_of r;
    }
  in
  let compiled =
    List.concat_map
      (fun (spec : Spec.t) ->
        let ss = Pipeline.of_spec spec in
        List.map
          (fun recipe ->
            row ~name:spec.Spec.sp_name ~recipe:(Style.to_string recipe)
              (Pipeline.run_exn ss ~recipe))
          recipes)
      Suite.all
  in
  let big = row ~name:bigmul_name ~recipe:"original" (Pipeline.run_exn (Pipeline.of_spec bigmul_spec) ~recipe:Style.original) in
  let explored =
    List.map
      (fun (spec : Spec.t) ->
        let rp =
          Explore.run_design ~budget:explore_budget ~max_probes:explore_probes
            (Pipeline.of_spec spec) ~name:spec.Spec.sp_name
        in
        row ~name:spec.Spec.sp_name ~recipe:"explore" rp.Explore.ep_winner.Explore.cr_result)
      explore_designs
  in
  let miss_spec, miss_recipe = serve_keys.(serve_miss_key) in
  (* a fresh session every 25 targets: a session keeps what it compiled *)
  let targeted =
    List.concat
      (List.init (Array.length serve_targets / 25) (fun chunk ->
         let ss = Pipeline.of_spec miss_spec in
         List.init 25 (fun i ->
           let mhz = serve_targets.((chunk * 25) + i) in
           row ~name:miss_spec.Spec.sp_name ~recipe:(target_label miss_recipe mhz)
             (Pipeline.run_exn ~target_mhz:mhz ss ~recipe:miss_recipe))))
  in
  Out_channel.with_open_bin expected_path (fun oc ->
    output_string oc
      (Expected.to_string
         ~header:
           [
             "Expected compile outputs, one row per design and recipe:";
             "name, recipe, Fmax (MHz), critical path (ns), netlist cells.";
             "Regenerate with: dune exec perfbench/main.exe -- --write-expected";
           ]
         (compiled @ [ big ] @ explored @ targeted)));
  Printf.printf "wrote %s\n" expected_path

(* ---- main ----------------------------------------------------------- *)

let usage =
  "main.exe --workload table1|bigmul|explore|serve --seed N --seconds S --trace 0|1"

let () =
  let t_start = Monotonic_clock.now () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let child = ref false and expected_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME table1, bigmul, explore or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--child", Arg.Set child, " measure in this process; print the record for the parent");
      ("--write-expected", Arg.Set expected_only, " regenerate " ^ expected_path);
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let tmp = scratch_root // string_of_int (Unix.getpid ()) in
  Hlsb_util.Atomic_file.mkdir_p tmp;
  Unix.putenv Hlsb_delay.Cal_cache.env_var (tmp // "calibration");
  Unix.putenv Store.env_var (tmp // "store");
  Unix.putenv Ledger.env_var (tmp // "ledger.jsonl");
  Pool.set_default_jobs 1;
  let cleanup () =
    rm_rf tmp;
    try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()
  in
  if !expected_only then begin
    write_expected ();
    cleanup ();
    exit 0
  end;
  let workload =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline usage;
      cleanup ();
      exit 2
  in
  let expected =
    match Expected.load expected_path with
    | Ok e -> e
    | Error e ->
      prerr_endline ("perfbench: cannot read " ^ expected_path ^ ": " ^ e);
      cleanup ();
      exit 2
  in
  let st =
    {
      workload;
      seed = !seed;
      seconds = !seconds;
      tmp;
      rng = Rng.create !seed;
      expected;
      spans = Spans.create ();
      group_scale = Hashtbl.create 256;
      next_group = 0;
      refs = [];
      r_last = nan;
      unit_wall = 0.;
      unit_ms = 0.;
      attempted = 0;
      failed = 0;
      daemons = [];
    }
  in
  Fun.protect
    ~finally:(fun () ->
      kill_daemons st;
      cleanup ())
    (fun () ->
      if !trace = 1 then begin
        let su = setup st ~t_start in
        print_result st (run_traced st su)
      end
      else if !child then begin
        let su = setup st ~t_start in
        Marshal.to_channel stdout (run_untraced st su ~setup_s:(su.s_ms /. 1000.)) []
      end
      else begin
          let runs =
            List.init processes (fun index ->
              child_measure st ~index ~seconds:(st.seconds /. float_of_int processes))
          in
          let mes = List.filter_map Result.to_option runs in
          List.iter (function Error e -> settle st [ e ] | Ok _ -> ()) runs;
          let refs = List.concat_map (fun me -> me.me_refs) mes in
          Printf.printf "setup_s samples: %s\n"
            (String.concat " " (List.map (fun me -> Printf.sprintf "%.3f" me.me_setup_s) mes));
          st.refs <- refs;
          if refs <> [] then ignore (ref_diagnostics st);
          let metrics = if mes = [] then [] else end_to_end mes in
          let attempted = st.attempted + List.fold_left (fun n me -> n + me.me_attempted) 0 mes in
          let failed = st.failed + List.fold_left (fun n me -> n + me.me_failed) 0 mes in
          st.attempted <- attempted;
          st.failed <- failed;
          print_result st metrics
        end)
