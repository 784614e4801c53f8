(* Tests for the benchmark's own logic: the tail-percentile rule,
   reference scaling, the expected-file check, the seeded serve stream,
   and the record of a run whose every request failed. *)

open Perfbench_core

let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let tail n = Stats.tail (List.rev (xs n)) in
  Alcotest.(check bool) "10 samples have no tail" true (tail 10 = None);
  let expect n pct value =
    match tail n with
    | Some t ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "percentile of %d" n) pct t.Stats.t_pct;
      Alcotest.(check (float 1e-9)) (Printf.sprintf "value of %d" n) value t.Stats.t_value;
      Alcotest.(check int) (Printf.sprintf "count of %d" n) n t.Stats.t_n
    | None -> Alcotest.fail (Printf.sprintf "%d samples have a tail" n)
  in
  expect 11 (100. /. 11.) 1.;
  expect 20 50. 10.;
  expect 50 80. 40.;
  expect 100 90. 90.;
  expect 10_000 90. 9000.;
  (* exactly 10 samples lie above the tail until the p90 cap, and never
     fewer than 10 *)
  List.iter
    (fun n ->
      match tail n with
      | Some t ->
        let above = List.length (List.filter (fun x -> x > t.Stats.t_value) (xs n)) in
        Alcotest.(check int) "beyond counted" above t.Stats.t_beyond;
        Alcotest.(check bool) (Printf.sprintf "n=%d keeps 10 beyond" n) true (above >= 10);
        if n <= 100 then Alcotest.(check int) (Printf.sprintf "n=%d exactly 10" n) 10 above
        else Alcotest.(check bool) "capped at p90" true (t.Stats.t_pct <= 90.)
      | None -> Alcotest.fail "tail expected")
    [ 11; 19; 21; 57; 100; 333; 1999 ]

let test_median () =
  Alcotest.(check (float 1e-9)) "even count" 5.5 (Stats.median [ 10.; 1.; 5.; 6. ]);
  Alcotest.(check (float 1e-9)) "odd count" 5. (Stats.median [ 10.; 1.; 5. ])

let test_reference_scaling () =
  let r0 = Refloop.r0_ms in
  let scaled ~r_before ~r_after wall = wall *. Refloop.factor ~r_before ~r_after in
  Alcotest.(check (float 1e-9)) "nominal speed leaves time unchanged" 100.
    (scaled ~r_before:r0 ~r_after:r0 100.);
  Alcotest.(check (float 1e-9)) "a machine at half speed is scaled back" 100.
    (scaled ~r_before:(2. *. r0) ~r_after:(2. *. r0) 200.);
  Alcotest.(check (float 1e-9)) "mean of the bracketing pair" 100.
    (scaled ~r_before:r0 ~r_after:(3. *. r0) 200.)

let test_reference_loop_allocates_nothing () =
  (* [measure] raises if the minor-word probes see the loop allocate *)
  let r = Refloop.measure () in
  Alcotest.(check bool) "positive duration" true (r > 0.)

let expected_text =
  "# header\nVector Arithmetic\toptimized\t412.5\t2.4242424242424243\t1234\n"

let test_expected_check () =
  match Expected.of_string expected_text with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let check fmax =
      Expected.check t ~name:"Vector Arithmetic" ~recipe:"optimized" ~fmax_mhz:fmax
        ~critical_ns:2.4242424242424243 ~cells:1234
    in
    Alcotest.(check bool) "exact figures pass" true (check 412.5 = Ok ());
    Alcotest.(check bool) "a perturbed Fmax fails" true (Result.is_error (check (Float.succ 412.5)));
    Alcotest.(check bool) "an unknown design fails" true
      (Result.is_error
         (Expected.check t ~name:"Genome" ~recipe:"optimized" ~fmax_mhz:412.5
            ~critical_ns:2.4242424242424243 ~cells:1234));
    (* every digit survives the round trip through the file *)
    let again = Expected.of_string (Expected.to_string ~header:[] t) in
    Alcotest.(check bool) "round trip" true (again = Ok t)

let targets = Array.init 100 (fun k -> 250. +. float_of_int k)

let test_stream_seeded () =
  let take seed =
    let t = Stream.create ~seed ~keys:18 ~miss_key:5 ~targets in
    List.init 900 (fun _ -> Stream.next t)
  in
  Alcotest.(check bool) "same seed, same stream" true (take 7 = take 7);
  Alcotest.(check bool) "another seed, another stream" true (take 7 <> take 8);
  let s = take 7 in
  let misses = List.filter (fun r -> r.Stream.rq_target_mhz <> None) s in
  let hits = List.filter (fun r -> r.Stream.rq_target_mhz = None) s in
  Alcotest.(check int) "one miss in every ten" 90 (List.length misses);
  Alcotest.(check bool) "misses compile the miss key" true
    (List.for_all (fun r -> r.Stream.rq_key = 5) misses);
  (* 810 hits are whole cycles over 18 keys *)
  for k = 0 to 17 do
    Alcotest.(check int) "hits spread evenly" 45
      (List.length (List.filter (fun r -> r.Stream.rq_key = k) hits))
  done;
  let targets = List.map (fun r -> r.Stream.rq_target_mhz) misses in
  Alcotest.(check int) "miss targets never repeat" 90 (List.length (List.sort_uniq compare targets))

let test_stream_ends () =
  let t = Stream.create ~seed:3 ~keys:18 ~miss_key:5 ~targets in
  let sent = ref 0 in
  while Stream.can_take t 32 do
    for _ = 1 to 32 do
      ignore (Stream.next t)
    done;
    sent := !sent + 32
  done;
  (* 100 targets make 1000 requests; the check leaves a margin *)
  Alcotest.(check bool) "stops before the targets run out" true (!sent <= 1000 && !sent >= 900);
  let rec drain n = if n = 0 then true else match Stream.next t with _ -> drain (n - 1) | exception Failure _ -> false in
  Alcotest.(check bool) "the stream ends with its targets" false (drain 1000)

(* Every request failed: no Fmax, no samples. The record still prints,
   counts the failures and reads incorrect. *)
let test_all_failed_record () =
  let me = { (Report.nothing ~setup_s:1.2) with Report.me_attempted = 320; me_failed = 320 } in
  let metrics = Report.end_to_end [ me; me ] in
  let value name = (List.find (fun x -> x.Report.m_name = name) metrics).Report.m_value in
  Alcotest.(check bool) "no Fmax" true (Float.is_nan (value "fmax_geomean_mhz"));
  Alcotest.(check (float 1e-9)) "ok ratio" 0. (value "ok_ratio");
  let line = Report.result_line ~attempted:640 ~failed:640 metrics in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length line && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "incorrect" true (has "\"correct\": false");
  Alcotest.(check bool) "failures counted" true (has "\"failed\": 640");
  Alcotest.(check bool) "a metric without samples prints as null" true (has "null" && not (has "nan"))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "reference",
        [
          Alcotest.test_case "scaling" `Quick test_reference_scaling;
          Alcotest.test_case "allocation-free loop" `Quick test_reference_loop_allocates_nothing;
        ] );
      ("expected", [ Alcotest.test_case "check" `Quick test_expected_check ]);
      ( "stream",
        [
          Alcotest.test_case "seeded" `Quick test_stream_seeded;
          Alcotest.test_case "ends with its targets" `Quick test_stream_ends;
        ] );
      ("record", [ Alcotest.test_case "all requests failed" `Quick test_all_failed_record ]);
    ]
