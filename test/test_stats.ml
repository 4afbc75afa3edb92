(* Tests for the statistics layer. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let flt = Alcotest.float 1e-9
let flt4 = Alcotest.float 1e-4

(* --- Descriptive --- *)

let test_mean_variance () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check flt "mean" 5.0 (Descriptive.mean xs);
  check flt4 "variance (unbiased)" (32. /. 7.) (Descriptive.variance xs);
  check flt "min" 2. (Descriptive.min xs);
  check flt "max" 9. (Descriptive.max xs)

let test_singleton () =
  check flt "variance of singleton" 0. (Descriptive.variance [| 42. |]);
  check flt "mean of singleton" 42. (Descriptive.mean [| 42. |])

let test_empty_raises () =
  Alcotest.check_raises "mean" (Invalid_argument "Descriptive.mean: empty sample")
    (fun () -> ignore (Descriptive.mean [||]))

let test_kahan_stability () =
  (* 1e8 + many tiny values: naive summation loses them. *)
  let n = 100_000 in
  let xs = Array.make (n + 1) 1e-3 in
  xs.(0) <- 1e8;
  let m = Descriptive.mean xs in
  check (Alcotest.float 1e-11) "compensated mean"
    ((1e8 +. (float_of_int n *. 1e-3)) /. float_of_int (n + 1)) m

(* The normal-approximation 95% interval, mean +- 1.96 standard
   errors. *)
let test_ci95 () =
  let xs = Array.init 1000 (fun i -> float_of_int (i mod 10)) in
  let mu = Descriptive.mean xs in
  let half = 1.96 *. Descriptive.std_error xs in
  let lo, hi = (mu -. half, mu +. half) in
  check bool "contains mean" true (lo < mu && mu < hi);
  check bool "narrow" true (hi -. lo < 0.5)

let test_quantiles_known () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check flt "median" 3. (Quantile.quantile xs 0.5);
  check flt "q0" 1. (Quantile.quantile xs 0.);
  check flt "q1" 5. (Quantile.quantile xs 1.);
  check flt "q25 (type 7)" 2. (Quantile.quantile xs 0.25);
  check flt "interpolated" 3.8 (Quantile.quantile xs 0.7)

let test_quantile_unsorted_input () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  check flt "median of unsorted" 3. (Quantile.quantile xs 0.5);
  (* Input is not mutated. *)
  check flt "input intact" 5. xs.(0)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile: empty sample")
    (fun () -> ignore (Quantile.quantile [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile: q outside [0, 1]") (fun () ->
      ignore (Quantile.quantile [| 1. |] 1.5))

let test_iqr () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  match Quantile.quantiles xs [ 0.25; 0.75 ] with
  | [ q1; q3 ] -> check flt "iqr" 50. (q3 -. q1)
  | _ -> Alcotest.fail "two quantiles expected"

let test_quantile_tiny_samples () =
  (* The adaptive sweep can stop with very short usable prefixes; the
     quantile layer under quantiles_of_sweep must behave at n=1 and
     n=2, not just at statistical sizes. *)
  check flt "n=1: every quantile is the sample" 7. (Quantile.quantile [| 7. |] 0.);
  check flt "n=1: median" 7. (Quantile.quantile [| 7. |] 0.5);
  check flt "n=1: q=1" 7. (Quantile.quantile [| 7. |] 1.);
  check flt "n=2: endpoints" 1. (Quantile.quantile [| 1.; 3. |] 0.);
  check flt "n=2: median interpolates" 2. (Quantile.quantile [| 1.; 3. |] 0.5);
  check flt "n=2: type-7 interior" 2.6 (Quantile.quantile [| 1.; 3. |] 0.8)

let test_quantile_duplicates () =
  (* Duplicate spread times (common on tiny graphs where several
     replicates share an event pattern): quantiles must sit on the
     duplicated value, and interpolation across a tie is exact. *)
  let xs = [| 2.; 2.; 2.; 2.; 5. |] in
  check flt "median on the tie" 2. (Quantile.quantile xs 0.5);
  check flt "q0.75 still tied" 2. (Quantile.quantile xs 0.75);
  check flt "q1 reaches the outlier" 5. (Quantile.quantile xs 1.);
  let all_same = Array.make 9 4.2 in
  check flt "all-duplicates: any q" 4.2 (Quantile.quantile all_same 0.37)

let test_empirical_tail () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check flt "tail above 2" 0.5 (Quantile.empirical_tail xs 2.);
  check flt "tail above 0" 1.0 (Quantile.empirical_tail xs 0.);
  check flt "tail above 4" 0.0 (Quantile.empirical_tail xs 4.);
  check flt "tail below the sample" 1.0 (Quantile.empirical_tail xs 0.5)

(* --- Regression --- *)

let test_linear_exact () =
  (* log y = 2 log x + 1, exactly. *)
  let fit = Regression.log_log (List.map (fun (x, y) -> (exp x, exp y)) [ (0., 1.); (1., 3.); (2., 5.) ]) in
  check flt "slope" 2. fit.Regression.slope;
  check flt "intercept" 1. fit.Regression.intercept;
  check flt "r^2" 1. fit.Regression.r_squared

let test_log_log_powerlaw () =
  let points = List.map (fun x -> (x, 3. *. (x ** 2.5))) [ 1.; 2.; 4.; 8. ] in
  let fit = Regression.log_log points in
  check flt4 "exponent" 2.5 fit.Regression.slope;
  check flt4 "log coefficient" (log 3.) fit.Regression.intercept

let test_regression_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.linear: need at least two points") (fun () ->
      ignore (Regression.log_log [ (1., 1.) ]));
  Alcotest.check_raises "zero x variance"
    (Invalid_argument "Regression.linear: zero variance in x") (fun () ->
      ignore (Regression.log_log [ (1., 1.); (1., 2.) ]));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Regression.log_log: non-positive coordinate") (fun () ->
      ignore (Regression.log_log [ (0., 1.); (1., 1.) ]))

(* --- Bootstrap --- *)

let test_bootstrap_mean_ci () =
  let rng = Rng.create 21 in
  let xs = Array.init 200 (fun i -> float_of_int (i mod 7)) in
  let lo, hi = Bootstrap.ci rng ~statistic:Descriptive.mean xs ~level:0.95 in
  let mu = Descriptive.mean xs in
  check bool "contains mean" true (lo <= mu && mu <= hi);
  check bool "nontrivial width" true (hi > lo)

let test_bootstrap_deterministic () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let a = Bootstrap.ci (Rng.create 5) ~statistic:Descriptive.mean xs ~level:0.9 in
  let b = Bootstrap.ci (Rng.create 5) ~statistic:Descriptive.mean xs ~level:0.9 in
  check bool "same rng, same CI" true (a = b)

(* --- Summary --- *)

let test_summary () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Summary.of_samples xs in
  check Alcotest.int "count" 100 s.Summary.count;
  check flt "mean" 50.5 s.Summary.mean;
  check flt "min" 1. s.Summary.min;
  check flt "max" 100. s.Summary.max;
  check bool "q90 ~ 90" true (abs_float (s.Summary.q90 -. 90.1) < 0.5)


(* --- Kolmogorov-Smirnov --- *)

let test_ks_identical_samples () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let r = Ks.two_sample xs xs in
  check flt "zero statistic" 0. r.Ks.statistic;
  check bool "p ~ 1" true (r.Ks.p_value > 0.99)

let test_ks_disjoint_samples () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let ys = Array.init 50 (fun i -> float_of_int (i + 1000)) in
  let r = Ks.two_sample xs ys in
  check flt "statistic 1" 1. r.Ks.statistic;
  check bool "p ~ 0" true (r.Ks.p_value < 1e-6)

let test_ks_same_distribution () =
  let rng = Rng.create 60 in
  let sample () = Array.init 400 (fun _ -> Oracle.exponential rng ~rate:2.) in
  let r = Ks.two_sample (sample ()) (sample ()) in
  check bool "below 5% critical value" true
    (r.Ks.statistic < Ks.critical_value ~n1:400 ~n2:400 ~alpha:0.05);
  check bool "p not tiny" true (r.Ks.p_value > 0.01)

let test_ks_different_distributions () =
  let rng = Rng.create 61 in
  let xs = Array.init 400 (fun _ -> Oracle.exponential rng ~rate:1.) in
  let ys = Array.init 400 (fun _ -> Oracle.exponential rng ~rate:2.) in
  let r = Ks.two_sample xs ys in
  check bool "detected" true
    (r.Ks.statistic > Ks.critical_value ~n1:400 ~n2:400 ~alpha:0.01)

let test_ks_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Ks.two_sample: empty sample")
    (fun () -> ignore (Ks.two_sample [||] [| 1. |]));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Ks.critical_value: bad alpha")
    (fun () -> ignore (Ks.critical_value ~n1:10 ~n2:10 ~alpha:1.5))

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "kahan stability" `Quick test_kahan_stability;
          Alcotest.test_case "ci95" `Quick test_ci95;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "known values" `Quick test_quantiles_known;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "errors" `Quick test_quantile_errors;
          Alcotest.test_case "iqr" `Quick test_iqr;
          Alcotest.test_case "tiny samples" `Quick test_quantile_tiny_samples;
          Alcotest.test_case "duplicates" `Quick test_quantile_duplicates;
          Alcotest.test_case "empirical tail" `Quick test_empirical_tail;
        ] );
      ( "regression",
        [
          Alcotest.test_case "linear exact" `Quick test_linear_exact;
          Alcotest.test_case "log-log power law" `Quick test_log_log_powerlaw;
          Alcotest.test_case "errors" `Quick test_regression_errors;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "mean CI" `Quick test_bootstrap_mean_ci;
          Alcotest.test_case "deterministic" `Quick test_bootstrap_deterministic;
        ] );
      ("summary", [ Alcotest.test_case "of_samples" `Quick test_summary ]);
          ( "kolmogorov-smirnov",
        [
          Alcotest.test_case "identical" `Quick test_ks_identical_samples;
          Alcotest.test_case "disjoint" `Quick test_ks_disjoint_samples;
          Alcotest.test_case "same distribution" `Quick test_ks_same_distribution;
          Alcotest.test_case "different distributions" `Quick
            test_ks_different_distributions;
          Alcotest.test_case "errors" `Quick test_ks_errors;
        ] );
    ]
