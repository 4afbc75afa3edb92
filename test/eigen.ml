(* Dense symmetric eigensolver (cyclic Jacobi rotations), kept as an
   independent oracle for the library's spectral code: for graphs up to
   a few hundred nodes it computes the full spectrum of the normalized
   adjacency operator, so tests can check [Spectral]'s power-iteration
   gap and the Cheeger sandwich around [Cut.conductance_exact] against
   exact values.  Classical spectra (cycle, complete graph, hypercube,
   complete bipartite) pin it down in test_spectral_walk. *)

open Rumor_core.Rumor

let check_symmetric a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Eigen.jacobi: empty matrix";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Eigen.jacobi: non-square matrix")
    a;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Float.abs (a.(i).(j) -. a.(j).(i)) > 1e-9 then
        invalid_arg "Eigen.jacobi: asymmetric matrix"
    done
  done

let off_diagonal_norm a =
  let n = Array.length a in
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      s := !s +. (2. *. a.(i).(j) *. a.(i).(j))
    done
  done;
  sqrt !s

let frobenius a =
  let s = ref 0. in
  Array.iter (fun row -> Array.iter (fun x -> s := !s +. (x *. x)) row) a;
  sqrt !s

(* One Jacobi rotation zeroing a.(p).(q). *)
let rotate a p q =
  let apq = a.(p).(q) in
  if Float.abs apq > 0. then begin
    let n = Array.length a in
    let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. apq) in
    let t =
      let sign = if theta >= 0. then 1. else -1. in
      sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
    in
    let c = 1. /. sqrt ((t *. t) +. 1.) in
    let s = t *. c in
    let app = a.(p).(p) and aqq = a.(q).(q) in
    a.(p).(p) <- (c *. c *. app) -. (2. *. s *. c *. apq) +. (s *. s *. aqq);
    a.(q).(q) <- (s *. s *. app) +. (2. *. s *. c *. apq) +. (c *. c *. aqq);
    a.(p).(q) <- 0.;
    a.(q).(p) <- 0.;
    for k = 0 to n - 1 do
      if k <> p && k <> q then begin
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- (c *. akp) -. (s *. akq);
        a.(p).(k) <- a.(k).(p);
        a.(k).(q) <- (s *. akp) +. (c *. akq);
        a.(q).(k) <- a.(k).(q)
      end
    done
  end

let jacobi ?(max_sweeps = 100) ?tol a0 =
  check_symmetric a0;
  let n = Array.length a0 in
  let a = Array.map Array.copy a0 in
  let tol =
    match tol with Some t -> t | None -> 1e-12 *. Float.max 1. (frobenius a)
  in
  let sweeps = ref 0 in
  while off_diagonal_norm a > tol && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate a p q
      done
    done
  done;
  let eig = Array.init n (fun i -> a.(i).(i)) in
  Array.sort compare eig;
  eig

let normalized_adjacency_matrix g =
  let n = Graph.n g in
  if Graph.min_degree g = 0 && n > 0 then
    invalid_arg "Eigen: isolated node (normalized adjacency undefined)";
  let inv_sqrt_deg =
    Array.init n (fun u -> 1. /. sqrt (float_of_int (Graph.degree g u)))
  in
  let a = Array.make_matrix n n 0. in
  Graph.iter_edges
    (fun u v ->
      let w = inv_sqrt_deg.(u) *. inv_sqrt_deg.(v) in
      a.(u).(v) <- w;
      a.(v).(u) <- w)
    g;
  a

let normalized_adjacency_spectrum g = jacobi (normalized_adjacency_matrix g)

let spectral_gap g =
  let spectrum = normalized_adjacency_spectrum g in
  let n = Array.length spectrum in
  if n < 2 then invalid_arg "Eigen.spectral_gap: need at least 2 nodes";
  (* Largest eigenvalue of the normalized adjacency is 1; the gap is
     the second eigenvalue of the normalized Laplacian,
     lambda_2(L) = 1 - lambda_{n-1}(A_norm). *)
  1. -. spectrum.(n - 2)

let cheeger_bounds g =
  let gap = spectral_gap g in
  (gap /. 2., sqrt (2. *. gap))
