type t = {
  n : int;
  succ : int list array; (* reversed insertion order internally *)
  pred : int list array;
}

let create n =
  if n < 0 then invalid_arg "Intgraph.create: negative size";
  { n; succ = Array.make n []; pred = Array.make n [] }

let check t v =
  if v < 0 || v >= t.n then invalid_arg "Intgraph: node out of range"

let add_edge t u v =
  check t u;
  check t v;
  t.succ.(u) <- v :: t.succ.(u);
  t.pred.(v) <- u :: t.pred.(v)

let n_nodes t = t.n

let topological_order t =
  let indeg = Array.make t.n 0 in
  for u = 0 to t.n - 1 do
    List.iter (fun v -> indeg.(v) <- indeg.(v) + 1) t.succ.(u)
  done;
  let queue = Queue.create () in
  for v = 0 to t.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    incr count;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      (List.rev t.succ.(u))
  done;
  if !count = t.n then Some (List.rev !order) else None

let connected_components t =
  let comp = Array.make t.n (-1) in
  let next = ref 0 in
  let stack = Stack.create () in
  for start = 0 to t.n - 1 do
    if comp.(start) = -1 then begin
      let c = !next in
      incr next;
      Stack.push start stack;
      comp.(start) <- c;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        let visit v =
          if comp.(v) = -1 then begin
            comp.(v) <- c;
            Stack.push v stack
          end
        in
        List.iter visit t.succ.(u);
        List.iter visit t.pred.(u)
      done
    end
  done;
  comp

let longest_path_lengths t ~weight =
  match topological_order t with
  | None -> None
  | Some order ->
    let dist = Array.make t.n neg_infinity in
    List.iter
      (fun u ->
        let best_pred =
          List.fold_left (fun acc p -> max acc dist.(p)) 0. t.pred.(u)
        in
        let base = if t.pred.(u) = [] then 0. else best_pred in
        dist.(u) <- base +. weight u)
      order;
    Some dist

let reachable_from t sources =
  let seen = Array.make t.n false in
  let stack = Stack.create () in
  List.iter
    (fun s ->
      check t s;
      if not seen.(s) then begin
        seen.(s) <- true;
        Stack.push s stack
      end)
    sources;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Stack.push v stack
        end)
      t.succ.(u)
  done;
  seen
