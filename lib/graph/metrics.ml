let absolute_diligence g =
  (* max over edges of min(d_u, d_v): the reciprocal of rho-bar. *)
  let worst =
    Graph.fold_edges
      (fun u v acc -> max acc (min (Graph.degree g u) (Graph.degree g v)))
      g 0
  in
  if worst = 0 then 0. else 1. /. float_of_int worst
