(* Benchmark program.  One invocation runs one workload:

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--smoke] [--inject-wrong]

   prints human-readable lines, then as its last line the result
   object {"correct", "attempted", "failed", "metrics"}, and exits 0
   only when every correctness gate passed.  With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones;
   perfbench/README.md defines each. *)

open Rumor_core.Rumor
module Json = Obs.Json

let workloads = [ "sweep-clique"; "sweep-churn"; "serve-mix"; "campaign" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (sweep-clique|sweep-churn|serve-mix|campaign) \
     --seed N --seconds S --trace 0|1 [--smoke] [--inject-wrong]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false and inject = ref false in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (float_of_string_opt s) (fun x -> if x > 0. then Some x else None);
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--inject-wrong" :: rest ->
      inject := true;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    {
      Pb.workload;
      seed;
      seconds;
      trace;
      smoke = !smoke;
      inject_wrong = !inject;
      (* Scratch space inside the checkout's ignored build directory. *)
      work_dir = Printf.sprintf ".bench_build/work/%s-%d" workload (Unix.getpid ());
      attempted = 0;
      failed = 0;
      failures = [];
      metrics = [];
      notes = [];
      evidence = [];
    }
  | _ -> usage ()

let () =
  let r = parse_args () in
  Pb.mkdirs r.work_dir;
  Fun.protect
    ~finally:(fun () -> Pb.rm_rf r.work_dir)
    (fun () ->
      match r.workload with
      | "sweep-clique" -> Workload.sweep r W_sweep.Clique
      | "sweep-churn" -> Workload.sweep r W_sweep.Churn
      | "serve-mix" -> Workload.serve r
      | _ -> Workload.campaign r);
  Workload.print r
