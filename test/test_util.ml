(* Unit tests for the utility substrate: Bitset, Fenwick, Table,
   Ascii_plot. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

(* --- Bitset --- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check int "empty cardinal" 0 (Bitset.cardinal s);
  check bool "add new" true (Bitset.add s 5);
  check bool "add dup" false (Bitset.add s 5);
  check bool "mem" true (Bitset.mem s 5);
  check bool "not mem" false (Bitset.mem s 6);
  check int "cardinal after add" 1 (Bitset.cardinal s);
  check bool "remove" true (Bitset.remove s 5);
  check bool "remove absent" false (Bitset.remove s 5);
  check int "cardinal after remove" 0 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Bitset: index 10 out of range [0, 10)") (fun () ->
      ignore (Bitset.mem s 10));
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index -1 out of range [0, 10)") (fun () ->
      ignore (Bitset.add s (-1)))

let test_bitset_word_boundaries () =
  (* Exercise indices straddling the 63-bit word boundary. *)
  let s = Bitset.create 200 in
  List.iter
    (fun i -> ignore (Bitset.add s i))
    [ 0; 62; 63; 64; 125; 126; 127; 199 ];
  check int "cardinal" 8 (Bitset.cardinal s);
  check (Alcotest.list int) "to_list sorted"
    [ 0; 62; 63; 64; 125; 126; 127; 199 ]
    (Bitset.to_list s)

let test_bitset_copy_independent () =
  let s = Fixtures.bitset 16 [ 3; 7 ] in
  let c = Bitset.copy s in
  ignore (Bitset.add c 9);
  check bool "copy add does not leak" false (Bitset.mem s 9);
  check int "original unchanged" 2 (Bitset.cardinal s)

let test_bitset_full () =
  let s = Bitset.create 3 in
  check bool "not full" false (Bitset.is_full s);
  List.iter (fun i -> ignore (Bitset.add s i)) [ 0; 1; 2 ];
  check bool "full" true (Bitset.is_full s);
  let zero = Bitset.create 0 in
  check bool "empty universe is full" true (Bitset.is_full zero)

let test_bitset_fold () =
  let s = Fixtures.bitset 50 [ 10; 20; 30 ] in
  check int "fold sum" 60 (Bitset.fold ( + ) s 0)

(* --- Fenwick --- *)

let test_fenwick_prefix_sums () =
  let f = Fenwick.create 8 in
  Fenwick.fill_from f [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |];
  check flt "total" 36. (Fenwick.total f);
  check flt "prefix 0" 1. (Fenwick.prefix_sum f 0);
  check flt "prefix 3" 10. (Fenwick.prefix_sum f 3);
  check flt "prefix 7" 36. (Fenwick.prefix_sum f 7)

let test_fenwick_find () =
  let f = Fenwick.create 4 in
  Fenwick.fill_from f [| 1.; 0.; 2.; 1. |];
  check int "find 0.0" 0 (Fenwick.find f 0.0);
  check int "find 0.99" 0 (Fenwick.find f 0.99);
  check int "find 1.0 skips zero slot" 2 (Fenwick.find f 1.0);
  check int "find 2.99" 2 (Fenwick.find f 2.99);
  check int "find 3.5" 3 (Fenwick.find f 3.5);
  check int "find at total clamps" 3 (Fenwick.find f 4.0)

let test_fenwick_set_add () =
  let f = Fenwick.create 5 in
  Fenwick.set f 2 3.0;
  Fenwick.add_many f [| 2 |] [| 1.5 |] 1;
  Fenwick.add_many f [| 4 |] [| 2.0 |] 1;
  check flt "get" 4.5 (Fenwick.get f 2);
  check flt "total" 6.5 (Fenwick.total f);
  Fenwick.set f 2 0.;
  check flt "cleared slot" 0. (Fenwick.get f 2);
  check flt "total after clear" 2.0 (Fenwick.total f)

let test_fenwick_negative_clamp () =
  let f = Fenwick.create 2 in
  Fenwick.set f 0 1.0;
  Fenwick.add_many f [| 0 |] [| (-1.0000000001) |] 1;
  check bool "clamped to >= 0" true (Fenwick.get f 0 >= 0.)

(* The batch forms are the single-slot operations in order: only the
   first [k] pairs count, and a repeated slot accumulates. *)
let test_fenwick_batches () =
  let single = Fenwick.create 6 and batch = Fenwick.create 6 in
  let slots = [| 4; 1; 4; 0; 5 |] and values = [| 0.3; 1.7; 0.1; 2.5; 9. |] in
  for j = 0 to 3 do
    Fenwick.set single slots.(j) values.(j)
  done;
  Fenwick.set_many batch slots values 4;
  for j = 0 to 3 do
    Fenwick.add_many single [| slots.(j) |] [| (values.(j) *. 0.5) |] 1
  done;
  Fenwick.add_many batch slots (Array.map (fun x -> x *. 0.5) values) 4;
  for i = 0 to 5 do
    check bool (Printf.sprintf "prefix %d bit-identical" i) true
      (Int64.bits_of_float (Fenwick.prefix_sum single i)
      = Int64.bits_of_float (Fenwick.prefix_sum batch i))
  done;
  check flt "slot 5 untouched" 0. (Fenwick.get batch 5);
  Alcotest.check_raises "batch longer than its arrays"
    (Invalid_argument "Fenwick.add_many: batch length out of range") (fun () ->
      Fenwick.add_many batch slots values 6);
  Alcotest.check_raises "negative weight in a set batch"
    (Invalid_argument "Fenwick.set: negative weight") (fun () ->
      Fenwick.set_many batch [| 2 |] [| -1. |] 1)

let test_fenwick_sampling_frequencies () =
  (* find over uniform x must land proportionally to weights. *)
  let f = Fenwick.create 3 in
  Fenwick.fill_from f [| 1.; 2.; 7. |];
  let rng = Rng.create 11 in
  let counts = Array.make 3 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let i = Fenwick.find f (Rng.float rng *. Fenwick.total f) in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int trials in
  check bool "slot0 ~ 0.1" true (abs_float (frac 0 -. 0.1) < 0.02);
  check bool "slot1 ~ 0.2" true (abs_float (frac 1 -. 0.2) < 0.02);
  check bool "slot2 ~ 0.7" true (abs_float (frac 2 -. 0.7) < 0.02)

(* --- Table --- *)

(* What [f] writes to stdout, through a temporary file. *)
let capture_stdout f =
  let path = Filename.temp_file "rumor_table" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  check Alcotest.string "printed table"
    "T\nname   value\n-----  -----\nalpha      1\nb         22\n\n"
    (capture_stdout (fun () -> Table.print ~title:"T" t))

let test_table_arity_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Table.add_row t [ "only" ])

let test_table_cells () =
  check Alcotest.string "cell_f" "3.14" (Table.cell_f 3.14159);
  check Alcotest.string "cell_f nan" "-" (Table.cell_f Float.nan);
  check Alcotest.string "cell_i" "42" (Table.cell_i 42)

(* --- Ascii_plot --- *)

let test_plot_renders () =
  let s =
    Ascii_plot.render ~width:20 ~height:5
      [ { Ascii_plot.label = 'x'; points = [ (1., 1.); (2., 4.); (3., 9.) ] } ]
  in
  check bool "nonempty" true (String.length s > 0);
  check bool "contains glyph" true (String.contains s 'x')

let test_plot_log_skips_nonpositive () =
  let s =
    Ascii_plot.render ~logx:true ~logy:true
      [ { Ascii_plot.label = 'z'; points = [ (0., 1.); (-1., 2.) ] } ]
  in
  check bool "no plottable points message" true
    (String.length s > 0 && String.contains s '(')

(* --- Env.parse_duration --- *)

let test_parse_duration_units () =
  let ok s = match Env.parse_duration s with Ok v -> v | Error e -> failwith e in
  check flt "bare seconds" 10. (ok "10");
  check flt "fractional" 0.25 (ok "0.25");
  check flt "seconds suffix" 10. (ok "10s");
  check flt "milliseconds" 0.5 (ok "500ms");
  check flt "minutes" 300. (ok "5m");
  check flt "hours" 3600. (ok "1h");
  check flt "case/space" 1.5 (ok " 1500MS ")

let test_parse_duration_invalid () =
  let err s =
    match Env.parse_duration s with Ok _ -> false | Error _ -> true
  in
  check bool "empty" true (err "");
  check bool "junk" true (err "soon");
  check bool "bad number" true (err "1.2.3s");
  check bool "zero" true (err "0s");
  check bool "negative" true (err "-5s");
  check bool "infinite" true (err "inf");
  check bool "unit alone" true (err "ms")

(* --- Stream (Welford) --- *)

let test_stream_moments () =
  let s = Stream.create () in
  check bool "empty mean is nan" true (Float.is_nan (Stream.mean s));
  check bool "empty max is nan" true (Float.is_nan (Stream.max s));
  List.iter (Stream.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check flt "mean" 5. (Stream.mean s);
  (* reference: unbiased sample variance of the same list *)
  check flt "variance" (32. /. 7.) (Stream.variance s);
  check flt "max" 9. (Stream.max s)

let test_stream_matches_descriptive () =
  let rng = Rng.create 7 in
  let xs = Array.init 500 (fun _ -> Rng.float rng *. 100.) in
  let s = Stream.create () in
  Array.iter (Stream.add s) xs;
  let close a b = Float.abs (a -. b) < 1e-6 *. Float.max 1. (Float.abs b) in
  check bool "mean matches" true (close (Stream.mean s) (Descriptive.mean xs));
  check bool "stddev matches" true
    (close (Stream.stddev s) (Descriptive.stddev xs))

(* --- Net --- *)

let test_parse_hostport () =
  let ok what expect s =
    match Net.parse_hostport s with
    | Ok hp ->
      check (Alcotest.pair Alcotest.string int) what expect hp
    | Error e -> Alcotest.failf "%s: unexpected error %s" what e
  in
  ok "host:port" ("10.0.0.1", 7070) "10.0.0.1:7070";
  ok "hostname kept unresolved" ("coord.example", 443) "coord.example:443";
  ok "bare port gets default host" ("127.0.0.1", 8080) "8080";
  ok "empty host gets default host" ("127.0.0.1", 9090) ":9090";
  ok "port 0 = kernel-assigned" ("127.0.0.1", 0) "0";
  (match Net.parse_hostport ~default_host:"0.0.0.0" "4040" with
  | Ok hp ->
    check (Alcotest.pair Alcotest.string int) "custom default host"
      ("0.0.0.0", 4040) hp
  | Error e -> Alcotest.failf "custom default host: %s" e);
  let err what s =
    match Net.parse_hostport s with
    | Ok (h, p) -> Alcotest.failf "%s: accepted as %s:%d" what h p
    | Error _ -> ()
  in
  err "port out of range" "host:65536";
  err "negative port" "host:-1";
  err "non-numeric port" "host:http";
  err "missing port" "host:";
  err "empty" ""

let test_resolve () =
  (match Net.resolve "127.0.0.1" with
  | Ok addr ->
    check Alcotest.string "numeric short-circuits" "127.0.0.1"
      (Unix.string_of_inet_addr addr)
  | Error e -> Alcotest.failf "127.0.0.1: %s" e);
  (match Net.resolve "localhost" with
  | Ok addr ->
    check bool "localhost resolves to loopback" true
      (String.length (Unix.string_of_inet_addr addr) > 0)
  | Error _ ->
    (* A container without /etc/hosts is legal; the error must at
       least name the host. *)
    ());
  match Net.resolve "no-such-host.invalid" with
  | Ok _ -> Alcotest.fail "nonexistent host resolved"
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check bool "error names the host" true (contains e "no-such-host.invalid")

let () =
  Alcotest.run "util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          Alcotest.test_case "is_full" `Quick test_bitset_full;
          Alcotest.test_case "fold" `Quick test_bitset_fold;
        ] );
      ( "fenwick",
        [
          Alcotest.test_case "prefix sums" `Quick test_fenwick_prefix_sums;
          Alcotest.test_case "find" `Quick test_fenwick_find;
          Alcotest.test_case "set/add" `Quick test_fenwick_set_add;
          Alcotest.test_case "negative clamp" `Quick test_fenwick_negative_clamp;
          Alcotest.test_case "batches" `Quick test_fenwick_batches;
          Alcotest.test_case "sampling frequencies" `Quick test_fenwick_sampling_frequencies;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "renders" `Quick test_plot_renders;
          Alcotest.test_case "log skips nonpositive" `Quick test_plot_log_skips_nonpositive;
        ] );
      ( "env.parse_duration",
        [
          Alcotest.test_case "units" `Quick test_parse_duration_units;
          Alcotest.test_case "invalid" `Quick test_parse_duration_invalid;
        ] );
      ( "stream",
        [
          Alcotest.test_case "moments" `Quick test_stream_moments;
          Alcotest.test_case "matches descriptive" `Quick
            test_stream_matches_descriptive;
        ] );
      ( "net",
        [
          Alcotest.test_case "parse_hostport" `Quick test_parse_hostport;
          Alcotest.test_case "resolve" `Quick test_resolve;
        ] );
    ]
