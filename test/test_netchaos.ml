(* Unit tests for the deterministic network-chaos proxy.

   Everything here runs in ONE process with domains only — no forks.
   OCaml 5's [Unix.fork] refuses to run in any process that has ever
   spawned a domain, and [Netchaos.start] spawns one; the e2e tests
   that need fork + proxy together (test_coordinator's tcp group) run
   the proxy in a forked child instead.  Here the proxy's in-process
   [stats] are the point, so the echo peer gets a domain too.

   Shutdown order matters in every test: close the client socket,
   [Netchaos.stop] (resets live links, so the echo peer unblocks),
   then stop the echo server. *)

open Rumor_core.Rumor

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let write_all fd buf =
  let n = Bytes.length buf in
  let rec go off =
    if off < n then go (off + Unix.write fd buf off (n - off))
  in
  go 0

(* Read whatever arrives within [timeout_s]; "" = nothing came. *)
let read_within fd timeout_s =
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then
      match Unix.select [ fd ] [] [] left with
      | [ _ ], _, _ -> (
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          ())
      | _ -> go ()
  in
  go ();
  Buffer.contents buf

(* Wait for the full [n] bytes of an expected echo (passthrough paths
   where delivery is certain). *)
let read_exactly fd n timeout_s =
  let s = ref "" in
  let deadline = Unix.gettimeofday () +. timeout_s in
  while String.length !s < n && Unix.gettimeofday () < deadline do
    s := !s ^ read_within fd 0.05
  done;
  !s

type echo = { e_port : int; e_listen : Unix.file_descr; e_dom : unit Domain.t }

let start_echo () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let dom =
    Domain.spawn (fun () ->
        let buf = Bytes.create 16384 in
        let rec serve c =
          match Unix.read c buf 0 16384 with
          | 0 -> Unix.close c
          | n ->
            (try write_all c (Bytes.sub buf 0 n)
             with Unix.Unix_error _ -> ());
            serve c
          | exception Unix.Unix_error _ -> (
            try Unix.close c with Unix.Unix_error _ -> ())
        in
        (* Exit when the accepted connection announces shutdown: the
           stopper dials once with a sentinel first byte. *)
        let rec loop () =
          match Unix.accept fd with
          | c, _ ->
            let stop =
              match Unix.read c buf 0 1 with
              | 1 when Bytes.get buf 0 = '\255' -> true
              | 0 -> false
              | n ->
                (try write_all c (Bytes.sub buf 0 n)
                 with Unix.Unix_error _ -> ());
                serve c;
                false
              | exception Unix.Unix_error _ -> false
            in
            if stop then (try Unix.close c with Unix.Unix_error _ -> ())
            else loop ()
          | exception Unix.Unix_error _ -> ()
        in
        loop ())
  in
  { e_port = port; e_listen = fd; e_dom = dom }

let stop_echo e =
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, e.e_port));
     write_all fd (Bytes.make 1 '\255');
     Unix.close fd
   with Unix.Unix_error _ -> ());
  Domain.join e.e_dom;
  try Unix.close e.e_listen with Unix.Unix_error _ -> ()

let dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Run [f client] against an echo server behind a proxy with [fault];
   returns (f's result, final proxy stats). *)
let with_proxied_echo ?(seed = 1) fault f =
  let echo = start_echo () in
  Fun.protect
    ~finally:(fun () -> stop_echo echo)
    (fun () ->
      let proxy =
        Netchaos.start ~seed ~forward_host:"127.0.0.1"
          ~forward_port:echo.e_port fault
      in
      Fun.protect
        ~finally:(fun () -> Netchaos.stop proxy)
        (fun () ->
          let c = dial (Netchaos.port proxy) in
          let r =
            Fun.protect ~finally:(fun () -> close_quiet c) (fun () -> f c)
          in
          (* Let in-flight counter updates land before the snapshot. *)
          Unix.sleepf 0.05;
          (r, Netchaos.stats proxy)))

let test_passthrough_relays () =
  let msg = "through the looking glass" in
  let got, stats =
    with_proxied_echo Fixtures.passthrough (fun c ->
        write_all c (Bytes.of_string msg);
        read_exactly c (String.length msg) 2.)
  in
  check Alcotest.string "echo intact" msg got;
  check int "one connection" 1 stats.Netchaos.conns;
  check bool "chunks counted" true (stats.Netchaos.chunks >= 2);
  check bool "bytes counted" true
    (stats.Netchaos.bytes >= 2 * String.length msg);
  check int "no drops" 0 stats.Netchaos.dropped_chunks;
  check int "no corruption" 0 stats.Netchaos.corrupted_chunks;
  check int "no resets" 0 stats.Netchaos.resets

let test_drop_all_delivers_nothing () =
  let got, stats =
    with_proxied_echo
      { Fixtures.passthrough with Netchaos.drop_p = 1. }
      (fun c ->
        write_all c (Bytes.of_string "into the void");
        read_within c 0.3)
  in
  check Alcotest.string "nothing comes back" "" got;
  check bool "drops counted" true (stats.Netchaos.dropped_chunks >= 1)

let test_reset_after_bytes () =
  let saw_reset, stats =
    with_proxied_echo
      {
        Fixtures.passthrough with
        Netchaos.reset_after_bytes = Some 1024;
        max_resets = Some 1;
      }
      (fun c ->
        (* 2 KiB in one write: the first proxied chunk blows the
           byte budget, so the link dies abortively instead of
           delivering. *)
        write_all c (Bytes.make 2048 'x');
        let rec poke n =
          if n = 0 then false
          else
            match Unix.read c (Bytes.create 64) 0 64 with
            | 0 -> true (* FIN also proves the cut; RST is typical *)
            | _ -> poke (n - 1)
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              true
        in
        poke 10)
  in
  check bool "client sees the cut" true saw_reset;
  check int "exactly one reset" 1 stats.Netchaos.resets

let test_latency_delays_roundtrip () =
  let lat = 0.15 in
  let elapsed, _ =
    with_proxied_echo
      { Fixtures.passthrough with Netchaos.latency_s = lat }
      (fun c ->
        let t0 = Unix.gettimeofday () in
        write_all c (Bytes.of_string "ping");
        let _ = read_exactly c 4 3. in
        Unix.gettimeofday () -. t0)
  in
  (* Two proxied hops, [lat] each way. *)
  check bool "round trip >= 2x latency" true (elapsed >= 2. *. lat *. 0.9)

(* Same seed -> same fault schedule.  One small write per chunk with a
   gap in between pins chunk index = message index, so the pattern of
   which messages come back is a pure function of the seed. *)
let delivery_pattern ~seed =
  let pattern, _ =
    with_proxied_echo ~seed
      { Fixtures.passthrough with Netchaos.drop_p = 0.5 }
      (fun c ->
        List.init 10 (fun i ->
            write_all c (Bytes.make 1 (Char.chr (Char.code 'a' + i)));
            let got = read_within c 0.25 in
            got <> ""))
  in
  pattern

let test_same_seed_same_schedule () =
  let p1 = delivery_pattern ~seed:42 in
  let p2 = delivery_pattern ~seed:42 in
  check (Alcotest.list bool) "same seed, same delivery pattern" p1 p2;
  check bool "pattern is nontrivial (some delivered)" true
    (List.exists Fun.id p1);
  check bool "pattern is nontrivial (some dropped)" true
    (List.exists not p1)

let test_stop_idempotent () =
  let echo = start_echo () in
  Fun.protect
    ~finally:(fun () -> stop_echo echo)
    (fun () ->
      let proxy =
        Netchaos.start ~forward_host:"127.0.0.1" ~forward_port:echo.e_port
          Fixtures.passthrough
      in
      check bool "port assigned" true (Netchaos.port proxy > 0);
      Netchaos.stop proxy;
      Netchaos.stop proxy)

let () =
  Alcotest.run "netchaos"
    [
      ( "netchaos",
        [
          Alcotest.test_case "passthrough relays intact" `Quick
            test_passthrough_relays;
          Alcotest.test_case "drop_p=1 delivers nothing" `Quick
            test_drop_all_delivers_nothing;
          Alcotest.test_case "reset_after_bytes cuts the link" `Quick
            test_reset_after_bytes;
          Alcotest.test_case "latency delays the round trip" `Quick
            test_latency_delays_roundtrip;
          Alcotest.test_case "same seed, same schedule" `Quick
            test_same_seed_same_schedule;
          Alcotest.test_case "stop is idempotent" `Quick
            test_stop_idempotent;
        ] );
    ]
