module Device = Hlsb_device.Device

(* Names are built by concatenation rather than [Printf]: these builders
   run once per generated cell, and formatting cost more than the cell. *)
let istr = string_of_int

type membank = {
  mb_units : int array;
  mb_read_out : int;
  mb_n_units : int;
  mb_read_latency : int;
}

let add_membank (d : Device.t) nl ?(read_pipeline = false) ~name ~width ~depth
    () =
  let n_units = Device.bram18_for ~width ~depth in
  let units =
    Array.init n_units (fun i ->
      Netlist.add_cell nl
        ~name:(name ^ "_u" ^ istr i)
        ~kind:Netlist.Mem ~delay:0.9 (* BRAM clk-to-dout on top of clk_q *)
        (* each cell is exactly one physical BRAM18 unit of the bank *)
        ~res:{ Netlist.zero_res with Netlist.r_bram18 = 1; r_luts = 2 })
  in
  (* Read-side selection uses the BRAM output-cascade muxes (16:1 per
     level, nearly LUT-free), as vendors infer for deep memories. *)
  let read_latency = ref 0 in
  let rec reduce level cells =
    match cells with
    | [] -> invalid_arg "Structs.add_membank: no units"
    | [ c ] -> c
    | _ ->
      let groups =
        let rec chunk acc cur n = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | x :: rest ->
            if n = 16 then chunk (List.rev cur :: acc) [ x ] 1 rest
            else chunk acc (x :: cur) (n + 1) rest
        in
        chunk [] [] 0 cells
      in
      let next =
        List.mapi
          (fun i group ->
            let mux =
              Netlist.add_cell nl
                ~name:(name ^ "_rmux" ^ istr level ^ "_" ^ istr i)
                ~kind:Netlist.Comb ~delay:(2. *. d.t_lut)
                ~res:(Macro.logic ((width / 4) + 4))
            in
            List.iteri
              (fun j src ->
                ignore
                  (Netlist.add_net nl
                     ~name:
                       (name ^ "_rnet" ^ istr level ^ "_" ^ istr i ^ "_"
                      ^ istr j)
                     ~driver:src ~sinks:[ mux ] ~width ()))
              group;
            if read_pipeline then begin
              (* BRAM output-stage register: free in the macro *)
              let r =
                Netlist.add_cell nl
                  ~name:(name ^ "_rreg" ^ istr level ^ "_" ^ istr i)
                  ~kind:Netlist.Seq ~delay:0. ~res:Netlist.zero_res
              in
              ignore
                (Netlist.add_net nl
                   ~name:(name ^ "_rregn" ^ istr level ^ "_" ^ istr i)
                   ~driver:mux ~sinks:[ r ] ~width ());
              r
            end
            else mux)
          groups
      in
      if read_pipeline then incr read_latency;
      reduce (level + 1) next
  in
  let read_out = reduce 0 (Array.to_list units) in
  {
    mb_units = units;
    mb_read_out = read_out;
    mb_n_units = n_units;
    mb_read_latency = !read_latency;
  }

let connect_write nl ?(cls = Netlist.Data_broadcast) ~name ~driver mb ~width =
  Netlist.add_net nl ~cls ~name ~driver ~sinks:(Array.to_list mb.mb_units)
    ~width ()

let add_and_tree (d : Device.t) nl ~name ~inputs =
  match inputs with
  | [] -> invalid_arg "Structs.add_and_tree: empty"
  | [ x ] -> x
  | _ ->
    let rec reduce level cells =
      match cells with
      | [ c ] -> c
      | _ ->
        let rec chunk acc cur n = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | x :: rest ->
            if n = 6 then chunk (List.rev cur :: acc) [ x ] 1 rest
            else chunk acc (x :: cur) (n + 1) rest
        in
        let groups = chunk [] [] 0 cells in
        let next =
          List.mapi
            (fun i group ->
              let lut =
                Netlist.add_cell nl
                  ~name:(name ^ "_and" ^ istr level ^ "_" ^ istr i)
                  ~kind:Netlist.Comb ~delay:d.t_lut ~res:(Macro.logic 6)
              in
              List.iteri
                (fun j src ->
                  ignore
                    (Netlist.add_net nl ~cls:Netlist.Ctrl_sync
                       ~name:
                         (name ^ "_andnet" ^ istr level ^ "_" ^ istr i ^ "_"
                        ^ istr j)
                       ~driver:src ~sinks:[ lut ] ~width:1 ()))
                group;
              lut)
            groups
        in
        reduce (level + 1) next
    in
    reduce 0 inputs

let add_register nl ~name ~width =
  Netlist.add_cell nl ~name ~kind:Netlist.Seq ~delay:0. ~res:(Macro.register width)

let add_reg_chain nl ~name ~width ~length =
  if length < 1 then invalid_arg "Structs.add_reg_chain: length < 1";
  let regs =
    List.init length (fun i ->
      add_register nl ~name:(name ^ "_" ^ istr i) ~width)
  in
  let rec link = function
    | a :: (b :: _ as rest) ->
      ignore
        (Netlist.add_net nl
           ~name:(name ^ "_link" ^ istr a)
           ~driver:a ~sinks:[ b ] ~width ());
      link rest
    | [ _ ] | [] -> ()
  in
  link regs;
  regs

let add_fanout_tree nl ~name ~driver ~sinks ~width ~levels ~leaf_fanout =
  if levels < 1 then invalid_arg "Structs.add_fanout_tree: levels < 1";
  if leaf_fanout < 1 then invalid_arg "Structs.add_fanout_tree: leaf_fanout < 1";
  let n_sinks = List.length sinks in
  if n_sinks = 0 then invalid_arg "Structs.add_fanout_tree: no sinks";
  let n_leaves = (n_sinks + leaf_fanout - 1) / leaf_fanout in
  (* Register counts per level grow geometrically from 1-ish to n_leaves. *)
  let counts =
    Array.init levels (fun i ->
      if i = levels - 1 then n_leaves
      else begin
        let frac = float_of_int (i + 1) /. float_of_int levels in
        max 1 (int_of_float (ceil (float_of_int n_leaves ** frac /. 2.)))
      end)
  in
  let make_level lvl count =
    List.init count (fun i ->
      add_register nl ~name:(name ^ "_l" ^ istr lvl ^ "_" ^ istr i) ~width)
  in
  let connect srcs dsts lvl =
    (* Split dsts into |srcs| contiguous groups. *)
    let n_src = List.length srcs and n_dst = List.length dsts in
    let per = (n_dst + n_src - 1) / n_src in
    let dst_arr = Array.of_list dsts in
    List.iteri
      (fun i src ->
        let lo = i * per in
        let hi = min n_dst (lo + per) - 1 in
        if lo <= hi then begin
          let group = Array.to_list (Array.sub dst_arr lo (hi - lo + 1)) in
          ignore
            (Netlist.add_net nl ~cls:Netlist.Data
               ~name:(name ^ "_t" ^ istr lvl ^ "_" ^ istr i)
               ~driver:src ~sinks:group ~width ())
        end)
      srcs
  in
  let rec build lvl prev =
    if lvl = levels then connect prev sinks lvl
    else begin
      let level = make_level lvl counts.(lvl) in
      connect prev level lvl;
      build (lvl + 1) level
    end
  in
  build 0 [ driver ];
  levels
