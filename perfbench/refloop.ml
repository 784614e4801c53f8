(* The reference loop every timed op is bracketed by. It does fixed
   integer and memory work over a table allocated once at start-up, so
   one call allocates nothing (it cannot pay GC work for the program's
   heap) and calls no repository library (no program change can move
   it). Dividing an op's wall time by the mean of the two calls around
   it cancels the machine's speed at that moment.

   The table is 16 MB: larger than a core's private caches, so the loop
   slows, as the compiler's heap-heavy ops do, when other tenants crowd
   the shared last-level cache. Over 18 processes per workload this
   table cut the spread of pooled op times more than a 1 MB table or
   pure ALU work did. *)

let table_words = 1 lsl 21
let table = Array.make table_words 0

(* Iterations of one sub-loop; three sub-loops make one reference call. *)
let iters = 150_000

(* Nominal duration of one reference call (the median of its three
   sub-loops, ms), as measured on a quiet 2-core x86-64 KVM guest with
   OCaml 5.1.1. Scaled times read as "ms at that machine's speed". *)
let r0_ms = 2.0

let spin n =
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  let mask = table_words - 1 in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land mask in
    let v = Array.unsafe_get table i + 1 in
    Array.unsafe_set table i v;
    acc := !acc + v
  done;
  !acc

let median3 a b c = max (min a b) (min (max a b) c)
let elapsed_ms t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* One reference call: the median of three sub-loops, so a single
   preemption inside one sub-loop does not move it. The [Gc.minor_words]
   probes around it must read the same difference as two probes around
   nothing (the probes' own cost); anything more means the loop
   allocated, and the call raises [Failure]. *)
let measure () =
  let e0 = Gc.minor_words () in
  let e1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  let s1 = spin iters in
  let t1 = Monotonic_clock.now () in
  let s2 = spin iters in
  let t2 = Monotonic_clock.now () in
  let s3 = spin iters in
  let t3 = Monotonic_clock.now () in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity (s1 + s2 + s3));
  let extra = w1 -. w0 -. (e1 -. e0) in
  if extra <> 0. then
    failwith (Printf.sprintf "reference loop allocated %.0f minor words" extra);
  median3 (elapsed_ms t0 t1) (elapsed_ms t1 t2) (elapsed_ms t2 t3)

(* The factor R0 / R that takes a wall time to reference speed, with R
   the mean of the reference calls before and after it. *)
let factor ~r_before ~r_after = r0_ms /. ((r_before +. r_after) /. 2.)

