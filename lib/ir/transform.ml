let unrolled _dag ~factor body =
  if factor < 1 then invalid_arg "Transform.unrolled: factor < 1";
  for j = 0 to factor - 1 do
    body j
  done

let partitioned_buffers dag ~name ~dtype ~depth ~factor =
  if factor < 1 then invalid_arg "Transform.partitioned_buffers: factor < 1";
  let bank_depth = (depth + factor - 1) / factor in
  Array.init factor (fun i ->
    Dag.add_buffer dag
      ~name:(Printf.sprintf "%s_bank%d" name i)
      ~dtype ~depth:bank_depth ~partition:1)

let rec reduce_tree dag ~op ~dtype nodes =
  match nodes with
  | [] -> invalid_arg "Transform.reduce_tree: empty"
  | [ x ] -> x
  | _ ->
    let rec pair = function
      | [] -> []
      | [ x ] -> [ x ]
      | a :: b :: rest -> Dag.op dag op ~dtype [ a; b ] :: pair rest
    in
    reduce_tree dag ~op ~dtype (pair nodes)
