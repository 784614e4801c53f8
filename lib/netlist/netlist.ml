module Vec = Hlsb_util.Vec
module Device = Hlsb_device.Device

type resources = {
  r_luts : int;
  r_ffs : int;
  r_bram18 : int;
  r_dsps : int;
}

let zero_res = { r_luts = 0; r_ffs = 0; r_bram18 = 0; r_dsps = 0 }

let add_res a b =
  {
    r_luts = a.r_luts + b.r_luts;
    r_ffs = a.r_ffs + b.r_ffs;
    r_bram18 = a.r_bram18 + b.r_bram18;
    r_dsps = a.r_dsps + b.r_dsps;
  }

type cell_kind =
  | Comb
  | Seq
  | Mem
  | Port_in
  | Port_out

type net_class =
  | Data
  | Data_broadcast
  | Ctrl_sync
  | Ctrl_pipeline

type cell = {
  c_name : string;
  c_kind : cell_kind;
  c_delay : float;
  c_res : resources;
}

type net = {
  n_name : string;
  n_driver : int;
  n_sinks : int array;
  n_width : int;
  n_class : net_class;
}

type t = {
  nl_name : string;
  cells : cell Vec.t;
  nets : net Vec.t;
}

let create ~name = { nl_name = name; cells = Vec.create (); nets = Vec.create () }
let name t = t.nl_name

let add_cell t ~name ~kind ~delay ~res =
  if delay < 0. then invalid_arg "Netlist.add_cell: negative delay";
  Vec.push t.cells { c_name = name; c_kind = kind; c_delay = delay; c_res = res }

let check_cell t c =
  if c < 0 || c >= Vec.length t.cells then
    invalid_arg "Netlist: cell id out of range"

let add_net t ?(cls = Data) ~name ~driver ~sinks ~width () =
  check_cell t driver;
  let sinks = Array.of_list sinks in
  for k = 0 to Array.length sinks - 1 do
    check_cell t sinks.(k)
  done;
  if width < 1 then invalid_arg "Netlist.add_net: width < 1";
  (match (Vec.get t.cells driver).c_kind with
  | Port_out -> invalid_arg "Netlist.add_net: output port cannot drive"
  | Comb | Seq | Mem | Port_in -> ());
  Vec.push t.nets
    {
      n_name = name;
      n_driver = driver;
      n_sinks = sinks;
      n_width = width;
      n_class = cls;
    }

let n_cells t = Vec.length t.cells
let n_nets t = Vec.length t.nets

let cell t c =
  check_cell t c;
  Vec.get t.cells c

let net t n =
  if n < 0 || n >= Vec.length t.nets then
    invalid_arg "Netlist: net id out of range";
  Vec.get t.nets n

let iter_cells t f = Vec.iteri f t.cells
let iter_nets t f = Vec.iteri f t.nets

let fanout t n = Array.length (net t n).n_sinks

let max_fanout_net t ?cls () =
  let best = ref None in
  iter_nets t (fun id n ->
    let keep = match cls with None -> true | Some c -> n.n_class = c in
    if keep then
      match !best with
      | Some (_, b) when Array.length b.n_sinks >= Array.length n.n_sinks -> ()
      | _ -> best := Some (id, n));
  !best

let total_resources t =
  Vec.fold_left (fun acc c -> add_res acc c.c_res) zero_res t.cells

let utilization t (d : Device.t) =
  let r = total_resources t in
  let frac used cap = if cap = 0 then 0. else float_of_int used /. float_of_int cap in
  (frac r.r_luts d.luts, frac r.r_ffs d.ffs, frac r.r_bram18 d.bram18, frac r.r_dsps d.dsps)

(* Combinational cycle detection: DFS over comb-to-comb edges. *)
let comb_cycle t =
  let n = Vec.length t.cells in
  let adj = Array.make n [] in
  Vec.iteri
    (fun _ net ->
      let d = net.n_driver in
      if (Vec.get t.cells d).c_kind = Comb then
        Array.iter
          (fun s ->
            if (Vec.get t.cells s).c_kind = Comb then adj.(d) <- s :: adj.(d))
          net.n_sinks)
    t.nets;
  let color = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let rec dfs v =
    if color.(v) = 1 then true
    else if color.(v) = 2 then false
    else begin
      color.(v) <- 1;
      let cyc = List.exists dfs adj.(v) in
      color.(v) <- 2;
      cyc
    end
  in
  let found = ref false in
  for v = 0 to n - 1 do
    if (not !found) && color.(v) = 0 then if dfs v then found := true
  done;
  !found

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Vec.iteri
    (fun id n ->
      if n.n_driver < 0 || n.n_driver >= Vec.length t.cells then
        err "net %d: bad driver" id;
      Array.iter
        (fun s ->
          if s < 0 || s >= Vec.length t.cells then err "net %d: bad sink" id)
        n.n_sinks)
    t.nets;
  if !errors = [] && comb_cycle t then err "combinational cycle detected";
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

let merge dst src =
  let cell_map = Array.make (Vec.length src.cells) (-1) in
  Vec.iteri
    (fun i c -> cell_map.(i) <- Vec.push dst.cells c)
    src.cells;
  let net_map = Array.make (Vec.length src.nets) (-1) in
  Vec.iteri
    (fun i n ->
      let n' =
        {
          n with
          n_driver = cell_map.(n.n_driver);
          n_sinks = Array.map (fun s -> cell_map.(s)) n.n_sinks;
        }
      in
      net_map.(i) <- Vec.push dst.nets n')
    src.nets;
  (cell_map, net_map)
