module Vec = Hlsb_util.Vec

type node = int

type buffer = {
  b_name : string;
  b_dtype : Dtype.t;
  b_depth : int;
  b_partition : int;
}

type fifo = {
  f_name : string;
  f_dtype : Dtype.t;
  f_depth : int;
}

type kind =
  | Input of string
  | Const of int64
  | Operation of Op.t
  | Load of int
  | Store of int
  | Fifo_read of int
  | Fifo_write of int
  | Output of string

type node_data = {
  nd_kind : kind;
  nd_dtype : Dtype.t;
  nd_args : node array;
  nd_name : string;
}

type t = {
  nodes : node_data Vec.t;
  bufs : buffer Vec.t;
  fifo_decls : fifo Vec.t;
  mutable consumers_cache : node list array option;
}

let create () =
  {
    nodes = Vec.create ();
    bufs = Vec.create ();
    fifo_decls = Vec.create ();
    consumers_cache = None;
  }

let invalidate t = t.consumers_cache <- None

let add_buffer t ~name ~dtype ~depth ~partition =
  Dtype.validate dtype;
  if depth <= 0 then invalid_arg "Dag.add_buffer: depth <= 0";
  if partition <= 0 then invalid_arg "Dag.add_buffer: partition <= 0";
  Vec.push t.bufs
    { b_name = name; b_dtype = dtype; b_depth = depth; b_partition = partition }

let add_fifo t ~name ~dtype ~depth =
  Dtype.validate dtype;
  if depth <= 0 then invalid_arg "Dag.add_fifo: depth <= 0";
  Vec.push t.fifo_decls { f_name = name; f_dtype = dtype; f_depth = depth }

let check_node t v =
  if v < 0 || v >= Vec.length t.nodes then
    invalid_arg "Dag: node reference out of range (forward reference?)"

let add_node t kind dtype args name =
  Dtype.validate dtype;
  List.iter (check_node t) args;
  invalidate t;
  Vec.push t.nodes
    { nd_kind = kind; nd_dtype = dtype; nd_args = Array.of_list args; nd_name = name }

let input t ~name ~dtype = add_node t (Input name) dtype [] name

let const t ~dtype v = add_node t (Const v) dtype [] (Int64.to_string v)

let op t o ~dtype args =
  let want = Op.arity o in
  if want >= 0 && List.length args <> want then
    invalid_arg
      (Printf.sprintf "Dag.op: %s expects %d args, got %d" (Op.to_string o)
         want (List.length args));
  if want < 0 && args = [] then invalid_arg "Dag.op: concat of nothing";
  let dtype = if Op.result_is_bool o then Dtype.Bool else dtype in
  add_node t (Operation o) dtype args (Op.to_string o)

let check_buffer t b =
  if b < 0 || b >= Vec.length t.bufs then invalid_arg "Dag: bad buffer id"

let check_fifo t f =
  if f < 0 || f >= Vec.length t.fifo_decls then invalid_arg "Dag: bad fifo id"

let load t ~buffer ~index =
  check_buffer t buffer;
  let b = Vec.get t.bufs buffer in
  add_node t (Load buffer) b.b_dtype [ index ] (b.b_name ^ ".load")

let store t ~buffer ~index ~value =
  check_buffer t buffer;
  let b = Vec.get t.bufs buffer in
  add_node t (Store buffer) b.b_dtype [ index; value ] (b.b_name ^ ".store")

let fifo_read t ~fifo =
  check_fifo t fifo;
  let f = Vec.get t.fifo_decls fifo in
  add_node t (Fifo_read fifo) f.f_dtype [] (f.f_name ^ ".read")

let fifo_write t ~fifo ~value =
  check_fifo t fifo;
  let f = Vec.get t.fifo_decls fifo in
  add_node t (Fifo_write fifo) f.f_dtype [ value ] (f.f_name ^ ".write")

let output t ~name ~value =
  let data = Vec.get t.nodes value in
  add_node t (Output name) data.nd_dtype [ value ] name

let n_nodes t = Vec.length t.nodes
let node_data t v = Vec.get t.nodes v
let kind t v = (node_data t v).nd_kind
let dtype t v = (node_data t v).nd_dtype
let args t v = Array.to_list (node_data t v).nd_args
let node_name t v = (node_data t v).nd_name
let buffers t = Vec.to_array t.bufs
let fifos t = Vec.to_array t.fifo_decls
let buffer t b = check_buffer t b; Vec.get t.bufs b
let fifo t f = check_fifo t f; Vec.get t.fifo_decls f

let consumer_table t =
  match t.consumers_cache with
  | Some c -> c
  | None ->
    let table = Array.make (Vec.length t.nodes) [] in
    Vec.iteri
      (fun id nd -> Array.iter (fun a -> table.(a) <- id :: table.(a)) nd.nd_args)
      t.nodes;
    let table = Array.map List.rev table in
    t.consumers_cache <- Some table;
    table

let consumers t v =
  check_node t v;
  List.sort_uniq compare (consumer_table t).(v)

let reads t v =
  check_node t v;
  (consumer_table t).(v)

let broadcast_factor t v =
  check_node t v;
  List.length (consumer_table t).(v)

let iter t f =
  for v = 0 to Vec.length t.nodes - 1 do
    f v
  done

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Vec.iteri
    (fun id nd ->
      Array.iter
        (fun a -> if a < 0 || a >= id then err "node %d: bad arg %d" id a)
        nd.nd_args;
      (match nd.nd_kind with
      | Input _ | Const _ ->
        if Array.length nd.nd_args <> 0 then err "node %d: source with args" id
      | Operation o ->
        let want = Op.arity o in
        if want >= 0 && Array.length nd.nd_args <> want then
          err "node %d: %s arity" id (Op.to_string o);
        if Op.result_is_bool o && not (Dtype.equal nd.nd_dtype Dtype.Bool) then
          err "node %d: comparison result must be bool" id
      | Load b ->
        if b < 0 || b >= Vec.length t.bufs then err "node %d: bad buffer" id;
        if Array.length nd.nd_args <> 1 then err "node %d: load arity" id
      | Store b ->
        if b < 0 || b >= Vec.length t.bufs then err "node %d: bad buffer" id
        else begin
          if Array.length nd.nd_args <> 2 then err "node %d: store arity" id
          else begin
            let value = nd.nd_args.(1) in
            let vw = Dtype.width (Vec.get t.nodes value).nd_dtype in
            let bw = Dtype.width (Vec.get t.bufs b).b_dtype in
            if vw <> bw then
              err "node %d: store width %d <> buffer width %d" id vw bw
          end
        end
      | Fifo_read f ->
        if f < 0 || f >= Vec.length t.fifo_decls then err "node %d: bad fifo" id
      | Fifo_write f ->
        if f < 0 || f >= Vec.length t.fifo_decls then err "node %d: bad fifo" id;
        if Array.length nd.nd_args <> 1 then err "node %d: fifo_write arity" id
      | Output _ ->
        if Array.length nd.nd_args <> 1 then err "node %d: output arity" id))
    t.nodes;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

let op_histogram t =
  let table = Hashtbl.create 16 in
  let bump key =
    Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  Vec.iteri
    (fun _ nd ->
      match nd.nd_kind with
      | Operation o -> bump (Op.to_string o)
      | Input _ -> bump "input"
      | Const _ -> bump "const"
      | Load _ -> bump "load"
      | Store _ -> bump "store"
      | Fifo_read _ -> bump "fifo_read"
      | Fifo_write _ -> bump "fifo_write"
      | Output _ -> bump "output")
    t.nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp_node t fmt v =
  let nd = node_data t v in
  let args =
    nd.nd_args |> Array.to_list |> List.map string_of_int |> String.concat ", "
  in
  Format.fprintf fmt "%%%d = %s:%s(%s)" v nd.nd_name
    (Dtype.to_string nd.nd_dtype)
    args

let pp fmt t =
  iter t (fun v -> Format.fprintf fmt "%a@." (pp_node t) v)
