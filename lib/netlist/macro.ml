open Netlist

let luts n = { zero_res with r_luts = max 1 n }
let cdiv a b = (a + b - 1) / b

let int_add w = luts w

let int_mul w =
  let dsps = cdiv w 27 * cdiv w 18 in
  { zero_res with r_dsps = dsps; r_luts = w / 4 }

let int_div w = { zero_res with r_luts = w * w / 8; r_ffs = w * 3 }

let float_add = function
  | `F32 -> { zero_res with r_dsps = 2; r_luts = 220; r_ffs = 180 }
  | `F64 -> { zero_res with r_dsps = 3; r_luts = 650; r_ffs = 400 }

let float_mul = function
  | `F32 -> { zero_res with r_dsps = 3; r_luts = 90; r_ffs = 90 }
  | `F64 -> { zero_res with r_dsps = 11; r_luts = 250; r_ffs = 220 }

let float_div = function
  | `F32 -> { zero_res with r_luts = 800; r_ffs = 1300 }
  | `F64 -> { zero_res with r_luts = 3000; r_ffs = 4200 }

let compare_ w = luts (cdiv w 2)
let logic w = luts (cdiv w 2)
let mux2 w = luts w

let shifter w =
  let log2w =
    let rec go n acc = if n <= 1 then acc else go (n / 2) (acc + 1) in
    go w 0
  in
  luts (w * cdiv log2w 2)

let priority_encoder w = luts w
let register w = { zero_res with r_ffs = max 1 w }

let fifo ~width ~depth =
  (* shallow FIFOs map to SRL/LUTRAM shift registers regardless of width;
     only deep ones earn BRAM *)
  if depth > 64 then
    {
      zero_res with
      r_bram18 = Hlsb_device.Device.bram18_for ~width ~depth;
      r_luts = 40;
      r_ffs = 24;
    }
  else
    (* SRL/LUTRAM-based *)
    { zero_res with r_luts = (width * cdiv depth 16) + 20; r_ffs = width + 12 }

let and_tree_levels n =
  if n <= 1 then 0
  else begin
    let rec go remaining levels =
      if remaining <= 1 then levels else go (cdiv remaining 6) (levels + 1)
    in
    go n 0
  end

let fsm ~states =
  { zero_res with r_ffs = states; r_luts = max 2 (states / 2) }
