(* Compile-service tests: the content-addressed artifact store
   (round-trip, namespace isolation, key sensitivity, LRU eviction),
   cross-PROCESS concurrency on both hardened writers (two re-exec'd
   worker processes hammering Cal_cache.store and Store.put on shared
   paths must leave only complete, parseable files), the hlsbd protocol
   codec and framing, and the daemon itself — in-process via
   Daemon.handle (repeat compile is a store hit, byte-identical to the
   in-process pipeline result) and over a real Unix socket via Client. *)

module Json = Hlsb_telemetry.Json
module Metrics = Hlsb_telemetry.Metrics
module Diag = Hlsb_util.Diag
module Atomic_file = Hlsb_util.Atomic_file
module Cal_cache = Hlsb_delay.Cal_cache
module Calibrate = Hlsb_delay.Calibrate
module Device = Hlsb_device.Device
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Suite = Hlsb_designs.Suite
module Store = Hlsb_serve.Store
module Protocol = Hlsb_serve.Protocol
module Daemon = Hlsb_serve.Daemon
module Client = Hlsb_serve.Client
module Ledger = Hlsb_obs.Ledger

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let base = Filename.temp_file "hlsb-serve" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  Fun.protect ~finally:(fun () -> rm_rf base) (fun () -> f base)

(* ---- store round-trip / isolation / keys ---- *)

let test_store_roundtrip () =
  with_temp_dir (fun root ->
    let t = Store.open_ ~root () in
    let key = Store.key ~parts:[ "compile"; "devfp"; "vec"; "optimized" ] in
    Alcotest.(check (option string)) "cold miss" None (Store.find t ~ns:"a" ~key);
    (match Store.put t ~ns:"a" ~key "artifact-bytes\n" with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Alcotest.(check (option string))
      "hit returns the bytes" (Some "artifact-bytes\n")
      (Store.find t ~ns:"a" ~key);
    let st = Store.stats t in
    Alcotest.(check int) "one entry" 1 st.Store.st_entries;
    Alcotest.(check int) "hit counted" 1 st.Store.st_hits;
    Alcotest.(check int) "miss counted" 1 st.Store.st_misses;
    Alcotest.(check int) "put counted" 1 st.Store.st_puts;
    Alcotest.(check int) "bytes on disk"
      (String.length "artifact-bytes\n")
      st.Store.st_bytes)

let test_store_namespace_isolation () =
  with_temp_dir (fun root ->
    let t = Store.open_ ~root () in
    let key = Store.key ~parts:[ "k" ] in
    (match Store.put t ~ns:"alice" ~key "alice-bytes" with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Alcotest.(check (option string))
      "other namespace cannot see it" None
      (Store.find t ~ns:"bob" ~key);
    Alcotest.(check (option string))
      "owner still hits" (Some "alice-bytes")
      (Store.find t ~ns:"alice" ~key))

let test_store_key_sensitivity () =
  let base = [ "compile"; "fp"; "rev"; "design"; "optimized||@300" ] in
  let k = Store.key ~parts:base in
  Alcotest.(check string) "key is deterministic" k (Store.key ~parts:base);
  List.iteri
    (fun i _ ->
      let tweaked = List.mapi (fun j p -> if i = j then p ^ "x" else p) base in
      Alcotest.(check bool)
        (Printf.sprintf "part %d changes the key" i)
        true
        (Store.key ~parts:tweaked <> k))
    base;
  (* '\x00' joining means parts cannot alias across boundaries *)
  Alcotest.(check bool) "no concatenation aliasing" true
    (Store.key ~parts:[ "ab"; "c" ] <> Store.key ~parts:[ "a"; "bc" ])

let test_store_lru_eviction () =
  with_temp_dir (fun root ->
    (* budget of 3 payloads; 5 puts with strictly increasing mtimes *)
    let payload i = Printf.sprintf "payload-%d-%s" i (String.make 100 'x') in
    let bytes = String.length (payload 0) in
    let t = Store.open_ ~budget_bytes:(3 * bytes) ~root () in
    let keys = List.init 5 (fun i -> Store.key ~parts:[ "e"; string_of_int i ]) in
    List.iteri
      (fun i key ->
        (match Store.put t ~ns:"n" ~key (payload i) with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        (* the LRU clock is mtime: age each entry behind the next *)
        let path =
          Filename.concat
            (Filename.concat (Filename.concat root "n")
               (String.sub key 0 2))
            key
        in
        let age = float_of_int (1000 - (100 * i)) in
        Unix.utimes path (Unix.gettimeofday () -. age)
          (Unix.gettimeofday () -. age))
      keys;
    ignore (Store.gc t);
    let st = Store.stats t in
    Alcotest.(check int) "evicted down to budget" 3 st.Store.st_entries;
    Alcotest.(check bool) "within budget" true (st.Store.st_bytes <= 3 * bytes);
    (* oldest two (0, 1) evicted; newest three survive *)
    List.iteri
      (fun i key ->
        let got = Store.find t ~ns:"n" ~key in
        if i < 2 then
          Alcotest.(check (option string))
            (Printf.sprintf "entry %d evicted" i)
            None got
        else
          Alcotest.(check (option string))
            (Printf.sprintf "entry %d survives" i)
            (Some (payload i)) got)
      keys)

let test_sanitize_ns () =
  Alcotest.(check string) "passthrough" "uid1000" (Store.sanitize_ns "uid1000");
  Alcotest.(check string) "lowered and stripped" "alicehost"
    (Store.sanitize_ns "Alice@Host!");
  Alcotest.(check string) "empty becomes default" "default"
    (Store.sanitize_ns "../..")

(* ---- cross-process writers (the Cal_cache temp-name collision bug) ---- *)

let hammer_iters = 30
let hammer_keys = 8
let worker_env_var = "HLSB_T_SERVE_WORKER"

let hammer_payload tag k =
  Printf.sprintf "%s:%d:%s\n" tag k (String.make 2048 tag.[0])

(* Curves must match the grids exactly or [load] treats the file as
   invalid — which is precisely what makes load a whole-file validity
   check for this test. *)
let hammer_entry tag i =
  {
    Cal_cache.e_ops =
      [
        ( "add/" ^ tag,
          Array.make (Array.length Calibrate.factor_grid) (float_of_int i) );
      ];
    e_mem_wr = Some (Array.make (Array.length Calibrate.unit_grid) 1.0);
    e_mem_rd = None;
  }

let cal_dev = Device.ultrascale_plus

(* Re-exec'd worker body: hammer Cal_cache.store and Store.put against
   directories shared with a sibling process. Returns the exit code. *)
let worker spec =
  match String.split_on_char '|' spec with
  | [ "hammer"; cal_dir; store_root; ns; tag ] ->
    let st = Store.open_ ~root:store_root () in
    let ok = ref true in
    for i = 0 to hammer_iters - 1 do
      Cal_cache.store ~dir:cal_dir ~factor_grid:Calibrate.factor_grid
        ~unit_grid:Calibrate.unit_grid cal_dev (hammer_entry tag i);
      (* rename is atomic: after our first store, a load must always see
         a complete valid file (ours or the sibling's) *)
      if
        Cal_cache.load ~dir:cal_dir ~factor_grid:Calibrate.factor_grid
          ~unit_grid:Calibrate.unit_grid cal_dev
        = None
      then ok := false;
      let k = i mod hammer_keys in
      let key = Store.key ~parts:[ "hammer"; string_of_int k ] in
      (match Store.put st ~ns ~key (hammer_payload tag k) with
      | Ok () -> ()
      | Error _ -> ok := false)
    done;
    if !ok then 0 else 1
  | _ ->
    prerr_endline ("t_serve worker: bad spec " ^ spec);
    2

let spawn_worker spec =
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s" worker_env_var spec |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

let test_multiprocess_writers () =
  with_temp_dir (fun cal_dir ->
    with_temp_dir (fun store_root ->
      let spec tag =
        String.concat "|" [ "hammer"; cal_dir; store_root; "ns"; tag ]
      in
      let p1 = spawn_worker (spec "aa") in
      let p2 = spawn_worker (spec "bb") in
      let wait p =
        match Unix.waitpid [] p with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED n ->
          Alcotest.failf "writer process exited with %d (torn file seen?)" n
        | _ -> Alcotest.fail "writer process killed"
      in
      wait p1;
      wait p2;
      (* the calibration cache file is complete and valid *)
      (match
         Cal_cache.load ~dir:cal_dir ~factor_grid:Calibrate.factor_grid
           ~unit_grid:Calibrate.unit_grid cal_dev
       with
      | None -> Alcotest.fail "cal cache unreadable after concurrent writers"
      | Some e ->
        Alcotest.(check bool) "one writer's complete entry" true
          (e.Cal_cache.e_ops = (hammer_entry "aa" (hammer_iters - 1)).Cal_cache.e_ops
          || e.Cal_cache.e_ops
             = (hammer_entry "bb" (hammer_iters - 1)).Cal_cache.e_ops));
      (* every hammered store entry is one writer's payload, never an
         interleaving *)
      let st = Store.open_ ~root:store_root () in
      for k = 0 to hammer_keys - 1 do
        let key = Store.key ~parts:[ "hammer"; string_of_int k ] in
        match Store.find st ~ns:"ns" ~key with
        | None -> Alcotest.failf "store entry %d missing" k
        | Some bytes ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %d is a complete payload" k)
            true
            (bytes = hammer_payload "aa" k || bytes = hammer_payload "bb" k)
      done))

(* ---- protocol codec + framing ---- *)

let sample_requests =
  [
    {
      Protocol.q_id = "1";
      q_ns = "alice";
      q_verb =
        Protocol.Compile
          {
            Protocol.cp_design = "Vector Arithmetic";
            cp_recipe = Style.optimized;
            cp_target_mhz = Some 350.;
            cp_inject = Some { Hlsb_sched.Schedule.inj_top = 2; inj_levels = 1 };
          };
    };
    {
      Protocol.q_id = "2";
      q_ns = "bob";
      q_verb =
        Protocol.Cc
          {
            Protocol.cc_name = "k";
            cc_source = "void k() {\n}\n";
            cc_recipe = Style.original;
            cc_plan =
              (match Hlsb_transform.Plan.of_string "unroll=4;channel-reuse" with
              | Ok p -> p
              | Error _ -> assert false);
          };
    };
    { Protocol.q_id = "3"; q_ns = "c"; q_verb = Protocol.Characterize "zynq" };
    {
      Protocol.q_id = "4";
      q_ns = "d";
      q_verb =
        Protocol.Explore
          { Protocol.ex_design = "LSTM"; ex_budget = 4; ex_max_probes = 3 };
    };
    { Protocol.q_id = "5"; q_ns = "e"; q_verb = Protocol.Status };
    { Protocol.q_id = "6"; q_ns = "f"; q_verb = Protocol.Gc };
    { Protocol.q_id = "7"; q_ns = "g"; q_verb = Protocol.Shutdown };
  ]

let test_protocol_request_roundtrip () =
  List.iter
    (fun req ->
      let j = Protocol.request_to_json req in
      (* through the actual wire bytes, not just the tree *)
      let text = Json.to_string ~minify:true j in
      match Json.of_string text with
      | Error m -> Alcotest.fail m
      | Ok j' -> (
        match Protocol.request_of_json j' with
        | Error m -> Alcotest.fail m
        | Ok req' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %s round-trips" req.Protocol.q_id)
            true (req = req')))
    sample_requests

let test_protocol_response_roundtrip () =
  let diag =
    Diag.error ~stage:"lower"
      ~entity:(Diag.Channel "c0")
      "fifo width mismatch"
  in
  let samples =
    [
      Protocol.ok ~hit:true ~key:"abc" ~id:"1" "artifact\nbytes\n";
      Protocol.ok ~id:"2" "";
      Protocol.fail ~id:"3" diag;
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Error m -> Alcotest.fail m
      | Ok resp' ->
        Alcotest.(check bool)
          (Printf.sprintf "response %s round-trips" resp.Protocol.p_id)
          true (resp = resp'))
    samples;
  (* the diagnostic payload survives with stage and entity intact *)
  match Protocol.diag_of_json (Protocol.diag_to_json diag) with
  | Error m -> Alcotest.fail m
  | Ok d ->
    Alcotest.(check string) "stage" "lower" d.Diag.d_stage;
    Alcotest.(check bool) "entity" true (d.Diag.d_entity = Some (Diag.Channel "c0"))

let test_protocol_rejects_wrong_schema () =
  let j =
    Json.Obj
      [ ("schema", Json.Str "hlsbd/999"); ("id", Json.Str "x");
        ("ns", Json.Str "n"); ("verb", Json.Str "status") ]
  in
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error (Protocol.request_of_json j))

let test_framing_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let req = List.hd sample_requests in
      (* artifact bytes with embedded newlines must frame cleanly *)
      let resp = Protocol.ok ~id:"1" "line1\nline2\n" in
      (match Protocol.write_frame a (Protocol.request_to_json req) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Protocol.read_frame b with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Alcotest.(check bool) "request over the wire" true
          (Protocol.request_of_json j = Ok req));
      (match Protocol.write_frame b (Protocol.response_to_json resp) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      match Protocol.read_frame a with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Alcotest.(check bool) "response over the wire" true
          (Protocol.response_of_json j = Ok resp))

(* ---- the daemon ---- *)

let vec_spec =
  match Suite.find "Vector Arithmetic" with
  | Some s -> s
  | None -> Alcotest.fail "Vector Arithmetic missing from the suite"

let compile_verb =
  Protocol.Compile
    {
      Protocol.cp_design = vec_spec.Spec.sp_name;
      cp_recipe = Style.optimized;
      cp_target_mhz = None;
      cp_inject = None;
    }

let req ?(ns = "t") id verb = { Protocol.q_id = id; q_ns = ns; q_verb = verb }

let check_ok (resp : Protocol.response) =
  match resp.Protocol.p_error with
  | None -> resp
  | Some d -> Alcotest.failf "daemon error: %s" (Diag.to_string d)

let test_daemon_repeat_compile_hits_byte_identical () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    let r1 = check_ok (Daemon.handle t (req "1" compile_verb)) in
    Alcotest.(check bool) "first compile misses" false r1.Protocol.p_hit;
    let r2 = check_ok (Daemon.handle t (req "2" compile_verb)) in
    Alcotest.(check bool) "repeat compile is a store hit" true
      r2.Protocol.p_hit;
    Alcotest.(check string) "same key" r1.Protocol.p_key r2.Protocol.p_key;
    Alcotest.(check string) "byte-identical artifact" r1.Protocol.p_artifact
      r2.Protocol.p_artifact;
    (* ... and byte-identical to what an in-process compile prints *)
    let r =
      Core.Pipeline.run_exn (Core.Pipeline.of_spec vec_spec)
        ~recipe:Style.optimized
    in
    Alcotest.(check string) "matches the in-process result record"
      (Json.to_string ~minify:false (Core.Pipeline.result_to_json r) ^ "\n")
      r1.Protocol.p_artifact;
    (* a different namespace cannot be served from alice's artifacts *)
    let r3 = check_ok (Daemon.handle t (req ~ns:"other" "3" compile_verb)) in
    Alcotest.(check bool) "fresh namespace misses" false r3.Protocol.p_hit;
    Alcotest.(check string) "but compiles the same bytes"
      r1.Protocol.p_artifact r3.Protocol.p_artifact;
    (* a persisted store serves a brand-new daemon (a new process, as far
       as keys are concerned) from disk *)
    let t2 = Daemon.create ~store_root:root ~ledger:false () in
    let r4 = check_ok (Daemon.handle t2 (req "4" compile_verb)) in
    Alcotest.(check bool) "fresh daemon hits the persisted store" true
      r4.Protocol.p_hit;
    Alcotest.(check string) "same bytes from disk" r1.Protocol.p_artifact
      r4.Protocol.p_artifact)

let test_daemon_error_is_structured () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    let bad =
      Protocol.Compile
        {
          Protocol.cp_design = "No Such Design";
          cp_recipe = Style.optimized;
          cp_target_mhz = None;
          cp_inject = None;
        }
    in
    match (Daemon.handle t (req "1" bad)).Protocol.p_error with
    | None -> Alcotest.fail "unknown design must fail"
    | Some d ->
      Alcotest.(check string) "stage" "serve" d.Diag.d_stage;
      Alcotest.(check bool) "entity names the design" true
        (d.Diag.d_entity = Some (Diag.Design "No Such Design")))

let test_daemon_status_and_gc () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    ignore (check_ok (Daemon.handle t (req "1" compile_verb)));
    ignore (check_ok (Daemon.handle t (req "2" compile_verb)));
    let status = check_ok (Daemon.handle t (req "3" Protocol.Status)) in
    (match Json.of_string status.Protocol.p_artifact with
    | Error m -> Alcotest.fail m
    | Ok j ->
      Alcotest.(check bool) "status schema" true
        (Json.member "schema" j = Some (Json.Str "hlsbd-status/1"));
      (match Json.member "hit_rate" j with
      | Some (Json.Float r) ->
        Alcotest.(check bool) "hit rate > 0 after a repeat compile" true
          (r > 0.)
      | _ -> Alcotest.fail "hit_rate missing"));
    let gc = check_ok (Daemon.handle t (req "4" Protocol.Gc)) in
    match Json.of_string gc.Protocol.p_artifact with
    | Error m -> Alcotest.fail m
    | Ok j ->
      Alcotest.(check bool) "gc evicts nothing under budget" true
        (Json.member "evicted" j = Some (Json.Int 0)))

(* An in-process daemon serving [root] on a fresh socket path, in its own
   domain; returns once the socket exists. *)
let spawn_daemon root =
  let sock = Filename.temp_file "hlsbd-t" ".sock" in
  Sys.remove sock;
  let t = Daemon.create ~store_root:root ~ledger:false () in
  let server = Domain.spawn (fun () -> Daemon.serve t ~socket:sock) in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if Sys.file_exists sock then ()
    else (
      Unix.sleepf 0.05;
      await (n - 1))
  in
  await 100;
  (sock, server)

let socket_call sock verb =
  match Client.call ~socket:sock ~ns:"t" verb with
  | Ok resp -> check_ok resp
  | Error m -> Alcotest.failf "client: %s" m

let test_daemon_over_socket () =
  with_temp_dir (fun root ->
    let sock, server = spawn_daemon root in
    let call = socket_call sock in
    Alcotest.(check bool) "daemon answers status" true
      (Client.available ~socket:sock ());
    let r1 = call compile_verb in
    let r2 = call compile_verb in
    Alcotest.(check bool) "second socket compile hits" true r2.Protocol.p_hit;
    Alcotest.(check string) "byte-identical over the socket"
      r1.Protocol.p_artifact r2.Protocol.p_artifact;
    ignore (call Protocol.Shutdown);
    (match Domain.join server with
    | Ok () -> ()
    | Error m -> Alcotest.failf "serve loop: %s" m);
    Alcotest.(check bool) "socket file removed on exit" false
      (Sys.file_exists sock);
    Alcotest.(check bool) "daemon no longer answers" false
      (Client.available ~socket:sock ()))

(* A client that sends a compile and hangs up before the answer: the
   daemon's response write then hits a closed socket. That used to kill
   the daemon (and here, the whole test process) with SIGPIPE. *)
let test_daemon_survives_client_disconnect () =
  with_temp_dir (fun root ->
    let sock, server = spawn_daemon root in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    (match
       Protocol.write_frame fd (Protocol.request_to_json (req "gone" compile_verb))
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "request write: %s" m);
    Unix.close fd;
    (* the compile takes long enough that the response is written after
       the close; the next client must still be answered *)
    let r = socket_call sock compile_verb in
    Alcotest.(check bool) "next client gets an artifact" true
      (r.Protocol.p_artifact <> "");
    ignore (socket_call sock Protocol.Shutdown);
    match Domain.join server with
    | Ok () -> ()
    | Error m -> Alcotest.failf "serve loop: %s" m)

(* ---- ledger sync (satellite: torn-append hardening) ---- *)

let test_ledger_sync_append () =
  let path = Filename.temp_file "hlsb-ledger-sync" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let run = Ledger.make ~cmd:"serve" ~label:"sync-test" () in
      (match Ledger.append ~path ~sync:true run with
      | Ok p -> Alcotest.(check string) "path echoed" path p
      | Error m -> Alcotest.fail m);
      match Ledger.load ~path with
      | Error m -> Alcotest.fail m
      | Ok [ loaded ] ->
        Alcotest.(check string) "record intact" run.Ledger.r_id
          loaded.Ledger.r_id
      | Ok l -> Alcotest.failf "expected 1 record, got %d" (List.length l))

(* ---- atomic writer (same-process concurrency) ---- *)

let test_atomic_file_concurrent_writers () =
  with_temp_dir (fun dir ->
    let path = Filename.concat dir "contended" in
    let payload tag = Printf.sprintf "%s:%s\n" tag (String.make 4096 tag.[0]) in
    let tags = [| "a"; "b"; "c"; "d" |] in
    let domains =
      Array.map
        (fun tag ->
          Domain.spawn (fun () ->
            for _ = 1 to 20 do
              Atomic_file.write_exn ~path (payload tag)
            done))
        tags
    in
    Array.iter Domain.join domains;
    match Atomic_file.read path with
    | None -> Alcotest.fail "file missing after concurrent writers"
    | Some bytes ->
      Alcotest.(check bool) "file is one writer's complete payload" true
        (Array.exists (fun tag -> bytes = payload tag) tags))

let test_atomic_temp_suffix_unique () =
  let n = 64 in
  let seen = Hashtbl.create n in
  for _ = 1 to n do
    Hashtbl.replace seen (Atomic_file.temp_suffix ()) ()
  done;
  Alcotest.(check int) "suffixes never repeat in-process" n
    (Hashtbl.length seen)

let suite =
  [
    Alcotest.test_case "store: round-trip + stats" `Quick test_store_roundtrip;
    Alcotest.test_case "store: namespace isolation" `Quick
      test_store_namespace_isolation;
    Alcotest.test_case "store: key sensitivity" `Quick
      test_store_key_sensitivity;
    Alcotest.test_case "store: LRU eviction to budget" `Quick
      test_store_lru_eviction;
    Alcotest.test_case "store: namespace sanitization" `Quick test_sanitize_ns;
    Alcotest.test_case "cross-process: concurrent writers leave whole files"
      `Slow test_multiprocess_writers;
    Alcotest.test_case "protocol: request round-trip" `Quick
      test_protocol_request_roundtrip;
    Alcotest.test_case "protocol: response + diag round-trip" `Quick
      test_protocol_response_roundtrip;
    Alcotest.test_case "protocol: schema mismatch rejected" `Quick
      test_protocol_rejects_wrong_schema;
    Alcotest.test_case "protocol: socket framing" `Quick test_framing_roundtrip;
    Alcotest.test_case "daemon: repeat compile hits, byte-identical" `Slow
      test_daemon_repeat_compile_hits_byte_identical;
    Alcotest.test_case "daemon: structured error responses" `Quick
      test_daemon_error_is_structured;
    Alcotest.test_case "daemon: status + gc verbs" `Slow
      test_daemon_status_and_gc;
    Alcotest.test_case "daemon: full client/server over a Unix socket" `Slow
      test_daemon_over_socket;
    Alcotest.test_case "daemon: survives a client that hangs up early" `Slow
      test_daemon_survives_client_disconnect;
    Alcotest.test_case "ledger: fsynced append round-trips" `Quick
      test_ledger_sync_append;
    Alcotest.test_case "atomic writer: concurrent domains" `Quick
      test_atomic_file_concurrent_writers;
    Alcotest.test_case "atomic writer: unique temp suffixes" `Quick
      test_atomic_temp_suffix_unique;
  ]
