(* serve-mix: an in-process [Server] on loopback with its default
   config (fsync on, chunk 8) and one compute domain, driven by one
   closed-loop JSONL client.  Each round sends one distinct cold query
   (family regular, n = 512, 64 replicates, fresh seed) and then
   [hits] repeats of queries answered earlier, so WAL writes sit beside
   cache reads. *)

open Rumor_core.Rumor
module Json = Obs.Json
module Server = Serve.Server
module Query = Serve.Query

let query (r : Pb.t) i =
  let n, reps = if r.smoke then (64, 16) else (512, 64) in
  { (Query.default ~family:"regular" ~n) with Query.reps; seed = (r.seed * 7919) + i }

let hits_per_round (r : Pb.t) = if r.smoke then 3 else 10

type handle = {
  server : Server.t;
  domain : unit Domain.t;
  fd : Unix.file_descr;
  buf : Buffer.t;
}

let send h json =
  let b = Bytes.of_string (Json.to_string json ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write h.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* One response line. *)
let rec recv h =
  let s = Buffer.contents h.buf in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear h.buf;
    Buffer.add_string h.buf (String.sub s (i + 1) (String.length s - i - 1));
    Json.parse_exn (String.sub s 0 i)
  | None ->
    let n = Unix.read h.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "server closed the connection";
    Buffer.add_subbytes h.buf chunk 0 n;
    recv h

let roundtrip h json =
  Pb.span "serve.request" (fun () ->
      send h json;
      recv h)

let start (r : Pb.t) i =
  let dir = Filename.concat r.work_dir (Printf.sprintf "serve-%d" i) in
  let config = { (Server.default_config ~dir) with Server.jobs = Some 1; port = 0 } in
  let server = Server.create config in
  let domain = Domain.spawn (fun () -> Server.serve server) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  let h = { server; domain; fd; buf = Buffer.create 4096 } in
  ignore (roundtrip h (Json.Obj [ ("op", Json.String "ping") ]));
  h

let stop h =
  (try Unix.close h.fd with Unix.Unix_error _ -> ());
  Server.stop h.server;
  Domain.join h.domain

let member_string k j = Option.bind (Json.member k j) Json.to_string_opt

let hex_quantiles j =
  match Option.bind (Json.member "quantiles_hex" j) Json.to_list_opt with
  | Some l -> List.filter_map Json.to_string_opt l
  | None -> []

type lanes = {
  cold : float array;
  hit : float array;
  rounds : float array;  (** wall time of each round *)
  counters : Server.counters;
}

(* Run rounds until [seconds] pass; check every response on the way
   (cache role, hit = its miss) and every miss against an offline
   [Query.sweep] afterwards. *)
let run_lanes ?setup (r : Pb.t) h ~seconds ~min_units =
  let cold = ref [] and hit = ref [] in
  let served : (int, string list) Hashtbl.t = Hashtbl.create 256 in
  let pick = Rng.create (r.seed + 17) in
  let round i =
    Pb.unit r i @@ fun () ->
    let t0 = Pb.now () in
    let q = query r i in
    let c0 = Pb.now () in
    let resp = roundtrip h (Query.to_json q) in
    cold := (Pb.now () -. c0) :: !cold;
    Pb.check r
      (member_string "cache" resp = Some "miss")
      (Printf.sprintf "query %d: expected a miss" i);
    Hashtbl.replace served i (hex_quantiles resp);
    for k = 1 to hits_per_round r do
      let j = Rng.int pick (i + 1) in
      let h0 = Pb.now () in
      let resp = roundtrip h (Query.to_json (query r j)) in
      hit := (Pb.now () -. h0) :: !hit;
      let got = hex_quantiles resp in
      let got = if r.inject_wrong && i = 0 && k = 1 then "0x0p+0" :: got else got in
      Pb.check r
        (member_string "cache" resp = Some "hit" && got = Hashtbl.find served j)
        (Printf.sprintf "query %d: hit differs from its miss" j)
    done;
    Pb.now () -. t0
  in
  let rounds = (Pb.lanes ~seconds ~min_units ?setup [| round |]).(0) in
  let counters = Server.counters h.server in
  Pb.check r
    (counters.Server.shed = 0 && counters.errors = 0)
    (Printf.sprintf "server shed %d and failed %d requests" counters.shed counters.errors);
  (* Served quantiles must be bit-identical to the offline sweep. *)
  Hashtbl.iter
    (fun i hex ->
      let q = query r i in
      let offline =
        Pb.span "check.offline_sweep" (fun () -> Query.sweep ~jobs:(Pool.nproc ()) q)
      in
      let want =
        Array.to_list (Array.map (Printf.sprintf "%h") (Run.quantiles_of_sweep offline q.points))
      in
      Pb.check r (hex = want && want <> [])
        (Printf.sprintf "query %d: served quantiles differ from Query.sweep" i))
    served;
  {
    cold = Array.of_list (List.rev !cold);
    hit = Array.of_list (List.rev !hit);
    rounds;
    counters;
  }
