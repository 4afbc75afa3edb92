(* campaign: [Coordinator.run] with forked [Worker.run] processes on the
   Unix socket, default config (fsync on), over many tiny tasks
   (clique-64, 2 replicates each).  The engine is negligible here;
   fork, Proto frames, lease-journal WAL appends and output renames
   dominate.  Each timed unit is one whole campaign of [tasks] tasks
   in a fresh directory, at 1 worker (base lane) or nproc workers
   (fast lane). *)

open Rumor_core.Rumor

let tasks_per_campaign (r : Pb.t) = if r.smoke then 4 else 16

let clique = lazy (Dynet.of_static (Gen.clique 64))

(* The task body, keyed only by its id: what a worker prints for it
   and what the in-process reference must equal byte for byte. *)
let render id =
  let sweep =
    Run.async_spread_sweep ~jobs:1 ~reps:2 (Rng.create (Hashtbl.hash id)) (Lazy.force clique)
  in
  let b = Buffer.create 64 in
  Buffer.add_string b id;
  Array.iter
    (function
      | Run.Finished t -> Printf.bprintf b " %h" t
      | Run.Censored t -> Printf.bprintf b " censored:%h" t
      | Run.Failed e -> Printf.bprintf b " failed:%s" e)
    sweep.outcomes;
  Buffer.add_char b '\n';
  Buffer.contents b

let task_ids (r : Pb.t) i =
  List.init (tasks_per_campaign r) (fun k -> Printf.sprintf "s%d-u%d-t%d" r.seed i k)

let run_campaign (r : Pb.t) ~workers ~name ids =
  let dir = Filename.concat r.work_dir name in
  let config = Coordinator.default_config ~dir ~workers in
  let spawn ~slot ~socket =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix._exit
        (try
           Worker.run ~transport:(Worker.Unix_sock socket) ~id:slot
             ~tasks_dir:(Coordinator.tasks_dir config)
             ~run_task:(fun id -> print_string (render id))
             ()
         with _ -> 4)
    | pid -> pid
  in
  let summary = Pb.span "coordinator.run" (fun () -> Coordinator.run ~spawn config ids) in
  (config, summary)

(* Exit code 0 and every captured output equal to the in-process
   render; the campaign directory is removed afterwards. *)
let check_campaign (r : Pb.t) (config, summary) ids =
  Pb.check r (Coordinator.exit_code summary = 0) "campaign exit code not 0";
  List.iteri
    (fun k id ->
      let got =
        try Pb.read_file (Coordinator.output_path config id) with Sys_error e -> e
      in
      let got = if r.inject_wrong && k = 0 then got ^ "x" else got in
      Pb.check r (got = render id) (Printf.sprintf "task %s: output differs" id))
    ids;
  Pb.rm_rf config.Coordinator.dir

type lanes = { seq : float array; par : float array }

let run_lanes ?setup (r : Pb.t) ~seconds ~min_units =
  let unit ~workers i =
    let ids = task_ids r i in
    let name = Printf.sprintf "c%d-w%d" i workers in
    let t0 = Pb.now () in
    let res = Pb.unit r i (fun () -> run_campaign r ~workers ~name ids) in
    let dt = Pb.now () -. t0 in
    check_campaign r res ids;
    dt
  in
  let t = Pb.lanes ~seconds ~min_units ?setup [| unit ~workers:1; unit ~workers:(Pool.nproc ()) |] in
  { seq = t.(0); par = t.(1) }

(* Standing up and tearing down a one-task campaign at nproc workers:
   the fixed cost every campaign pays. *)
let setup_once (r : Pb.t) i =
  let ids = [ Printf.sprintf "s%d-setup%d" r.seed i ] in
  let res = run_campaign r ~workers:(Pool.nproc ()) ~name:(Printf.sprintf "setup%d" i) ids in
  check_campaign r res ids
