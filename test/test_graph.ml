(* Tests for the graph substrate: core type, builder, generators and
   connectivity. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let degree_multiset g =
  List.sort compare (Array.to_list (Array.init (Graph.n g) (Graph.degree g)))

(* --- Graph core --- *)

let test_of_edges_basic () =
  let g = Fixtures.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  check int "n" 4 (Graph.n g);
  check int "m" 3 (Graph.m g);
  check int "degree 1" 2 (Graph.degree g 1);
  check bool "has_edge" true (Graph.has_edge g 2 1);
  check bool "no edge" false (Graph.has_edge g 0 3);
  check int "volume" 6 (Graph.volume g)

let test_of_edges_rejects () =
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Builder.add_edge: self-loop at 1") (fun () ->
      ignore (Fixtures.of_edges 3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder.add_edge_exn: duplicate edge (1, 0)") (fun () ->
      ignore (Fixtures.of_edges 3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Builder: node 3 out of range [0, 3)") (fun () ->
      ignore (Fixtures.of_edges 3 [ (0, 3) ]))

let test_edges_listing () =
  let g = Fixtures.of_edges 4 [ (2, 3); (0, 1); (1, 2) ] in
  check
    (Alcotest.list (Alcotest.pair int int))
    "sorted edges"
    [ (0, 1); (1, 2); (2, 3) ]
    (Array.to_list (Graph.edges g));
  check int "fold count" 3 (Graph.fold_edges (fun _ _ acc -> acc + 1) g 0)

let test_neighbor_indexing () =
  let g = Fixtures.of_edges 5 [ (2, 0); (2, 4); (2, 1) ] in
  check int "degree" 3 (Graph.degree g 2);
  check int "neighbor 0" 0 (Graph.unsafe_neighbor g 2 0);
  check int "neighbor 2" 4 (Graph.unsafe_neighbor g 2 2)

let test_graph_equal () =
  let a = Fixtures.of_edges 3 [ (0, 1); (1, 2) ] in
  let b = Fixtures.of_edges 3 [ (1, 2); (0, 1) ] in
  let c = Fixtures.of_edges 3 [ (0, 1); (0, 2) ] in
  check bool "equal ignores edge order" true (Graph.equal a b);
  check bool "different edges" false (Graph.equal a c)

(* --- Builder --- *)

let test_builder_dedup () =
  let b = Builder.create 4 in
  check bool "add" true (Builder.add_edge b 0 1);
  check bool "dup" false (Builder.add_edge b 1 0);
  check int "m" 1 (Graph.m (Builder.freeze b));
  check bool "remove" true (Builder.remove_edge b 0 1);
  check int "m after remove" 0 (Graph.m (Builder.freeze b))

let test_builder_freeze_snapshot () =
  let b = Builder.create 3 in
  ignore (Builder.add_edge b 0 1);
  let g1 = Builder.freeze b in
  ignore (Builder.add_edge b 1 2);
  let g2 = Builder.freeze b in
  check int "snapshot m" 1 (Graph.m g1);
  check int "later m" 2 (Graph.m g2)

let test_builder_bipartite_overlap () =
  let b = Builder.create 4 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Builder.add_complete_bipartite: sides intersect")
    (fun () -> Builder.add_complete_bipartite b [| 0; 1 |] [| 1; 2 |])

(* --- Generators --- *)

let test_clique () =
  let g = Gen.clique 6 in
  check int "m" 15 (Graph.m g);
  check bool "regular" true (Graph.min_degree g = Graph.max_degree g);
  check int "degree" 5 (Graph.max_degree g)

let test_star () =
  let g = Gen.star 7 in
  check int "m" 6 (Graph.m g);
  check int "center degree" 6 (Graph.degree g 0);
  check int "leaf degree" 1 (Graph.degree g 3)

let test_path_cycle () =
  let p = Gen.path 5 in
  check int "path m" 4 (Graph.m p);
  check int "path end degree" 1 (Graph.degree p 0);
  let c = Gen.cycle 5 in
  check int "cycle m" 5 (Graph.m c);
  check bool "cycle 2-regular" true
    (Graph.min_degree c = 2 && Graph.max_degree c = 2)

let test_circulant () =
  let g = Gen.circulant 10 [ 1; 2 ] in
  check bool "4-regular" true (Graph.min_degree g = 4 && Graph.max_degree g = 4);
  check bool "connected" true (Traverse.is_connected g);
  Alcotest.check_raises "stride too large"
    (Invalid_argument "Gen.circulant: stride 6 out of (0, n/2]") (fun () ->
      ignore (Gen.circulant 10 [ 6 ]))

let test_complete_bipartite () =
  let g = Fixtures.complete_bipartite 3 4 in
  check int "m" 12 (Graph.m g);
  check int "left degree" 4 (Graph.degree g 0);
  check int "right degree" 3 (Graph.degree g 5)

let test_grid_torus () =
  let g = Fixtures.grid 4 3 in
  check int "grid m" ((3 * 3) + (2 * 4)) (Graph.m g);
  check int "corner degree" 2 (Graph.degree g 0);
  let t = Fixtures.torus 4 3 in
  check bool "torus 4-regular" true
    (Graph.min_degree t = 4 && Graph.max_degree t = 4);
  check int "torus m" (2 * 12) (Graph.m t)

let test_hypercube () =
  let g = Gen.hypercube 4 in
  check int "n" 16 (Graph.n g);
  check bool "4-regular" true (Graph.min_degree g = 4 && Graph.max_degree g = 4);
  check int "diameter = dimension" 4 (Oracle.diameter g)

let test_binary_tree () =
  let g = Fixtures.binary_tree 7 in
  check int "m" 6 (Graph.m g);
  check int "root degree" 2 (Graph.degree g 0);
  check bool "connected" true (Traverse.is_connected g)

let test_barbell_lollipop () =
  let g = Gen.barbell 5 in
  check int "n" 10 (Graph.n g);
  check int "m" ((2 * 10) + 1) (Graph.m g);
  check bool "connected" true (Traverse.is_connected g);
  let l = Fixtures.lollipop 4 3 in
  check int "lollipop n" 7 (Graph.n l);
  check int "lollipop m" (6 + 3) (Graph.m l);
  check int "tail end degree" 1 (Graph.degree l 6)

let test_clique_with_pendant () =
  let g = Gen.clique_with_pendant 5 in
  check int "n" 6 (Graph.n g);
  check int "pendant degree" 1 (Graph.degree g 5);
  check int "attach degree" 5 (Graph.degree g 0)

let test_two_cliques_bridged () =
  let g = Gen.two_cliques_bridged 9 in
  (* 10 nodes: left 5, right 5, bridge 0-9. *)
  check int "n" 10 (Graph.n g);
  check bool "bridge exists" true (Graph.has_edge g 0 9);
  check bool "connected" true (Traverse.is_connected g);
  check int "m" (10 + 10 + 1) (Graph.m g)

let test_erdos_renyi () =
  let rng = Rng.create 31 in
  let g = Gen.erdos_renyi rng 100 0.1 in
  let expected = 0.1 *. float_of_int (100 * 99 / 2) in
  check bool "edge count near expectation" true
    (abs_float (float_of_int (Graph.m g) -. expected) < 5. *. sqrt expected);
  let empty = Gen.erdos_renyi rng 50 0. in
  check int "p = 0" 0 (Graph.m empty);
  let full = Gen.erdos_renyi rng 20 1. in
  check int "p = 1" 190 (Graph.m full)

let test_random_regular () =
  let rng = Rng.create 32 in
  List.iter
    (fun (n, d) ->
      let g = Gen.random_connected_regular rng n d in
      check bool
        (Printf.sprintf "%d-regular on %d nodes" d n)
        true
        (Graph.min_degree g = d && Graph.max_degree g = d))
    [ (10, 3); (50, 4); (100, 8); (64, 9) ];
  Alcotest.check_raises "odd product"
    (Invalid_argument "Gen.random_regular: n * d must be even") (fun () ->
      ignore (Gen.random_connected_regular rng 5 3));
  Alcotest.check_raises "d >= n" (Invalid_argument "Gen.random_regular: need d < n")
    (fun () -> ignore (Gen.random_connected_regular rng 4 4))

let test_random_connected_regular () =
  let rng = Rng.create 33 in
  for _ = 1 to 5 do
    let g = Gen.random_connected_regular rng 60 3 in
    check bool "connected" true (Traverse.is_connected g);
    check bool "cubic" true (Graph.min_degree g = 3 && Graph.max_degree g = 3)
  done

let test_random_regular_distribution () =
  (* Degree sums and simplicity across seeds. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_connected_regular rng 40 6 in
      check int "volume" (40 * 6) (Graph.volume g);
      check (Alcotest.list int) "all degree 6"
        (List.init 40 (fun _ -> 6))
        (degree_multiset g))
    [ 1; 2; 3; 4; 5 ]

(* --- Traverse --- *)

let test_bfs_distances () =
  let g = Gen.path 5 in
  check (Alcotest.array int) "path distances" [| 0; 1; 2; 3; 4 |]
    (Oracle.bfs g 0);
  let g2 = Fixtures.of_edges 4 [ (0, 1) ] in
  let d = Oracle.bfs g2 0 in
  check int "unreachable" (-1) d.(3)

(* The oracle's components against the library's connectivity test. *)
let test_components () =
  let g = Fixtures.of_edges 6 [ (0, 1); (2, 3); (3, 4) ] in
  let label, count = Oracle.components g in
  check int "three components" 3 count;
  check bool "0 and 1 together" true (label.(0) = label.(1));
  check bool "2, 3, 4 together" true (label.(2) = label.(3) && label.(3) = label.(4));
  check bool "5 alone" true (label.(5) <> label.(0) && label.(5) <> label.(2));
  check bool "not connected" false (Traverse.is_connected g);
  List.iter
    (fun g ->
      check bool "one component iff connected" (Traverse.is_connected g)
        (snd (Oracle.components g) = 1))
    [ Gen.path 5; Gen.cycle 6; Fixtures.of_edges 4 [ (0, 1); (2, 3) ] ]

let test_component_of () =
  let g = Fixtures.of_edges 5 [ (0, 1); (1, 2) ] in
  let comp = Oracle.component_of g 1 in
  check int "component size" 3 (Bitset.cardinal comp);
  check bool "contains 0" true (Bitset.mem comp 0);
  check bool "not 4" false (Bitset.mem comp 4)

let test_connectivity_edge_cases () =
  check bool "empty graph connected" true (Traverse.is_connected (Gen.empty 0));
  check bool "single node connected" true (Traverse.is_connected (Gen.empty 1));
  check bool "two isolated nodes" false (Traverse.is_connected (Gen.empty 2))

let test_diameter () =
  check int "path diameter" 4 (Oracle.diameter (Gen.path 5));
  check int "clique diameter" 1 (Oracle.diameter (Gen.clique 5));
  check int "cycle diameter" 3 (Oracle.diameter (Gen.cycle 7));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Oracle.eccentricity: disconnected graph") (fun () ->
      ignore (Oracle.diameter (Gen.empty 2)))

let () =
  Alcotest.run "graph"
    [
      ( "core",
        [
          Alcotest.test_case "of_edges" `Quick test_of_edges_basic;
          Alcotest.test_case "rejects malformed" `Quick test_of_edges_rejects;
          Alcotest.test_case "edge listing" `Quick test_edges_listing;
          Alcotest.test_case "neighbor indexing" `Quick test_neighbor_indexing;
          Alcotest.test_case "equal" `Quick test_graph_equal;
        ] );
      ( "builder",
        [
          Alcotest.test_case "dedup" `Quick test_builder_dedup;
          Alcotest.test_case "freeze snapshot" `Quick test_builder_freeze_snapshot;
          Alcotest.test_case "bipartite overlap" `Quick test_builder_bipartite_overlap;
        ] );
      ( "generators",
        [
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "path/cycle" `Quick test_path_cycle;
          Alcotest.test_case "circulant" `Quick test_circulant;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "grid/torus" `Quick test_grid_torus;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "barbell/lollipop" `Quick test_barbell_lollipop;
          Alcotest.test_case "clique with pendant" `Quick test_clique_with_pendant;
          Alcotest.test_case "two cliques bridged" `Quick test_two_cliques_bridged;
          Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "random connected regular" `Quick
            test_random_connected_regular;
          Alcotest.test_case "random regular degrees" `Quick
            test_random_regular_distribution;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "connectivity edge cases" `Quick
            test_connectivity_edge_cases;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "component_of" `Quick test_component_of;
        ] );
    ]
