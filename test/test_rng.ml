(* Tests for the RNG substrate: known-answer vectors, determinism,
   split independence, and distribution moments. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- SplitMix64: canonical reference vector (seed 0). --- *)

let test_splitmix_vector () =
  let sm = Splitmix64.create 0L in
  check Alcotest.int64 "output 1" 0xE220A8397B1DCDAFL (Splitmix64.next sm);
  check Alcotest.int64 "output 2" 0x6E789E6AA1B965F4L (Splitmix64.next sm);
  check Alcotest.int64 "output 3" 0x06C45D188009454FL (Splitmix64.next sm)

let test_xoshiro_regression () =
  let x = Xoshiro256.of_seed 42L in
  check Alcotest.int64 "output 1" 0x15780B2E0C2EC716L (Xoshiro256.next x);
  check Alcotest.int64 "output 2" 0x6104D9866D113A7EL (Xoshiro256.next x);
  check Alcotest.int64 "output 3" 0xAE17533239E499A1L (Xoshiro256.next x)

let test_rng_determinism () =
  let a = Rng.create 12345 and b = Rng.create 12345 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_int_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    check bool "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = Rng.create 2 in
  let counts = Array.make 5 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let x = Rng.int rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int trials in
      check bool "within 2% of 0.2" true (abs_float (frac -. 0.2) < 0.02))
    counts

let test_rng_float_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check bool "in [0,1)" true (x >= 0. && x < 1.);
    let y = Rng.float_pos rng in
    check bool "in (0,1]" true (y > 0. && y <= 1.)
  done

let test_rng_split_independent () =
  (* Children from consecutive splits must produce decorrelated
     streams (regression: the jump-based split produced shifted
     copies). *)
  let parent = Rng.create 77 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  (* Count positional collisions between the two child streams — for
     independent streams, expected 0 over 1000 draws of 64 bits. *)
  let collisions = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr collisions
  done;
  check int "no positional collisions" 0 !collisions;
  (* And no off-by-one-shift relation either. *)
  let c3 = Rng.split parent in
  let c4 = Rng.split parent in
  let s3 = Array.init 100 (fun _ -> Rng.bits64 c3) in
  let s4 = Array.init 100 (fun _ -> Rng.bits64 c4) in
  let shifted = ref 0 in
  for i = 0 to 98 do
    if s3.(i + 1) = s4.(i) || s4.(i + 1) = s3.(i) then incr shifted
  done;
  check int "no shift relation" 0 !shifted

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_shuffle_uniform_3 () =
  (* Chi-square-ish check on all 6 permutations of 3 elements. *)
  let rng = Rng.create 6 in
  let tbl = Hashtbl.create 6 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let a = [| 0; 1; 2 |] in
    Rng.shuffle_in_place rng a;
    let key = (a.(0) * 100) + (a.(1) * 10) + a.(2) in
    Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0)
  done;
  check int "all 6 permutations appear" 6 (Hashtbl.length tbl);
  Hashtbl.iter
    (fun _ c ->
      let frac = float_of_int c /. float_of_int trials in
      check bool "each ~ 1/6" true (abs_float (frac -. (1. /. 6.)) < 0.02))
    tbl

let mean_of f n =
  let s = ref 0. in
  for _ = 1 to n do
    s := !s +. f ()
  done;
  !s /. float_of_int n

let test_exponential_moments () =
  let rng = Rng.create 8 in
  let m = mean_of (fun () -> Oracle.exponential rng ~rate:2.0) 50_000 in
  check bool "mean ~ 1/2" true (abs_float (m -. 0.5) < 0.02)

let test_poisson_small_moments () =
  let rng = Rng.create 9 in
  let m = mean_of (fun () -> float_of_int (Dist.poisson rng ~rate:3.0)) 50_000 in
  check bool "mean ~ 3" true (abs_float (m -. 3.0) < 0.1)

let test_poisson_large_moments () =
  let rng = Rng.create 10 in
  let samples =
    Array.init 30_000 (fun _ -> float_of_int (Dist.poisson rng ~rate:50.0))
  in
  let m = Descriptive.mean samples in
  let v = Descriptive.variance samples in
  check bool "mean ~ 50" true (abs_float (m -. 50.) < 0.5);
  check bool "variance ~ 50" true (abs_float (v -. 50.) < 3.)

let test_poisson_zero () =
  let rng = Rng.create 11 in
  check int "rate 0" 0 (Dist.poisson rng ~rate:0.)

let test_nonhomogeneous_count () =
  let rng = Rng.create 14 in
  (* rate(t) = 2t on [0, 2]: integral = 4. *)
  let samples =
    Array.init 20_000 (fun _ ->
        float_of_int
          (Dist.nonhomogeneous_count rng
             ~rate_at:(fun t -> 2. *. t)
             ~a:0. ~b:2. ~steps:64))
  in
  let m = Descriptive.mean samples in
  check bool "mean ~ 4" true (abs_float (m -. 4.) < 0.1)

(* --- Alias --- *)

let test_alias_sampling () =
  let a = Alias.create [| 2.; 0.; 8. |] in
  let rng = Rng.create 15 in
  let counts = Array.make 3 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let i = Alias.sample a rng in
    counts.(i) <- counts.(i) + 1
  done;
  check int "zero-weight never drawn" 0 counts.(1);
  let frac i = float_of_int counts.(i) /. float_of_int trials in
  check bool "p0 ~ 0.2" true (abs_float (frac 0 -. 0.2) < 0.01);
  check bool "p2 ~ 0.8" true (abs_float (frac 2 -. 0.8) < 0.01)

let test_alias_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Alias.create: empty weight array") (fun () ->
      ignore (Alias.create [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Alias.create: all weights are zero") (fun () ->
      ignore (Alias.create [| 0.; 0. |]))

let () =
  Alcotest.run "rng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "reference vector" `Quick test_splitmix_vector;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "regression anchor" `Quick test_xoshiro_regression;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "float ranges" `Quick test_rng_float_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "shuffle uniform on 3" `Quick test_rng_shuffle_uniform_3;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential" `Quick test_exponential_moments;
          Alcotest.test_case "poisson small" `Quick test_poisson_small_moments;
          Alcotest.test_case "poisson large (PTRS)" `Quick test_poisson_large_moments;
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
          Alcotest.test_case "non-homogeneous Poisson" `Quick
            test_nonhomogeneous_count;
        ] );
      ( "alias",
        [
          Alcotest.test_case "sampling" `Quick test_alias_sampling;
          Alcotest.test_case "invalid input" `Quick test_alias_invalid;
        ] );
    ]
