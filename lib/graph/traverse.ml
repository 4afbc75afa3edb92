let bfs g s =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(s) <- 0;
  Queue.push s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v queue
        end)
      g u
  done;
  dist

let is_connected g =
  let n = Graph.n g in
  if n <= 1 then true
  else
    let dist = bfs g 0 in
    Array.for_all (fun d -> d >= 0) dist
