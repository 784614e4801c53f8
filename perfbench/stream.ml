(* The seeded request stream of the [serve] workload, and the seeded
   choices of the other workloads. Its own generator (splitmix64), so no
   program change can alter the inputs a seed produces. *)

module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform in [0, bound). *)
  let int t bound =
    Int64.to_int (Int64.unsigned_rem (next64 t) (Int64.of_int bound))

  let shuffle t a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
end

type request = {
  rq_key : int;  (** index into the workload's (design, recipe) keys *)
  rq_target_mhz : float option;  (** [Some] for a fresh, store-missing target *)
}

(* One request in [block] misses the store. Hit keys walk a seeded
   permutation of all keys (re-drawn every cycle), so every design is
   equally represented among hits and a run's mix does not depend on the
   seed. Misses all compile [miss_key] at a fresh target: with misses
   spread over designs whose compiles differ tenfold in cost, the median
   and tail of miss latency fell between two designs and jumped from run
   to run. Fresh targets are a seeded permutation of [targets], the
   targets whose compile results the expected file lists, so no target
   repeats and every miss can be checked; the stream ends when they run
   out. *)
let block = 10

type t = {
  rng : Rng.t;
  keys : int;
  miss_key : int;
  targets : float array;  (** in the order they are sent *)
  mutable next_target : int;
  mutable pos : int;
  mutable miss_at : int;
  mutable perm : int array;
  mutable perm_pos : int;
}

let create ~seed ~keys ~miss_key ~targets =
  if miss_key < 0 || miss_key >= keys then invalid_arg "Stream.create: miss_key out of range";
  let rng = Rng.create seed in
  {
    rng;
    keys;
    miss_key;
    targets = Rng.shuffle rng targets;
    next_target = 0;
    pos = 0;
    miss_at = 0;
    perm = [||];
    perm_pos = 0;
  }

(* Whether the next [n] requests can surely be made: they touch at most
   [n / block + 2] blocks, and each block needs one fresh target. *)
let can_take t n = Array.length t.targets - t.next_target >= (n / block) + 2

let next t =
  if t.pos mod block = 0 then t.miss_at <- Rng.int t.rng block;
  let miss = t.pos mod block = t.miss_at in
  t.pos <- t.pos + 1;
  if miss then begin
    if t.next_target >= Array.length t.targets then failwith "Stream.next: no fresh targets left";
    t.next_target <- t.next_target + 1;
    { rq_key = t.miss_key; rq_target_mhz = Some t.targets.(t.next_target - 1) }
  end
  else begin
    if t.perm_pos >= Array.length t.perm then begin
      t.perm <- Rng.shuffle t.rng (Array.init t.keys Fun.id);
      t.perm_pos <- 0
    end;
    t.perm_pos <- t.perm_pos + 1;
    { rq_key = t.perm.(t.perm_pos - 1); rq_target_mhz = None }
  end
