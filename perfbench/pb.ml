(* Shared plumbing of the benchmark program: the clock, unit-time
   statistics, in-memory spans, peak memory, correctness tallies and
   the result line.

   Steadiness rule (see perfbench/README.md): the host this benchmark
   was designed on changes speed for episodes of about 0.5 s to several
   seconds.  Every timed figure is therefore built from many short
   units, and the "typical" figure of a lane is the interquartile mean
   of its unit times, which episodes covering less than a quarter of
   the run, fast or slow, cannot move.  Tails are reported beside it
   and never gated. *)

module Clock = Rumor_obs.Clock
module Json = Rumor_obs.Json

let now = Clock.now_s

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* The "typical" figure: the mean of the middle half of the sorted
   sample (at least one element). *)
let typical xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  let lo = n / 4 in
  mean (Array.sub s lo (max 1 (n - (2 * lo))))

(* VmHWM: the kernel's high-water mark of this process's resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      go ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdirs path =
  if not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- spans --------------------------------------------------------- *)

(* Spans are recorded only in a traced run, in memory, around the
   benchmark's own calls into the library.  [depth] 0 marks a span no
   other span encloses; the sum of those is the covered wall time. *)
type span = { name : string; start : float; stop : float; depth : int }

let tracing = ref false
let spans : span list ref = ref []
let depth = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let d = !depth in
    depth := d + 1;
    let start = now () in
    let finish () =
      depth := d;
      spans := { name; start; stop = now (); depth = d } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Like [span], but records even when tracing is off: used by the
   layer probes, whose timings are the measurement itself. *)
let timed name f =
  let saved = !tracing in
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := saved) (fun () -> span name f)

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    !spans
  |> Array.of_list

(* Seconds of [t0, t1] covered by outermost spans. *)
let covered_s ~t0 ~t1 =
  List.fold_left
    (fun acc s ->
      if s.depth = 0 then acc +. Float.max 0. (Float.min s.stop t1 -. Float.max s.start t0)
      else acc)
    0. !spans

(* Windows of the traced lane units. *)
let windows : (float * float) list ref = ref []

(* Share of the traced units' wall time that no span covers. *)
let uncovered_frac () =
  let wall, cov =
    List.fold_left
      (fun (w, c) (t0, t1) -> (w +. (t1 -. t0), c +. covered_s ~t0 ~t1))
      (0., 0.) !windows
  in
  if wall > 0. then 1. -. (cov /. wall) else 0.

(* --- the run ------------------------------------------------------- *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  inject_wrong : bool;
  work_dir : string;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable metrics : (string * float * string) list;  (* reversed *)
  mutable notes : (string * float * string) list;  (* printed, not gated *)
  mutable evidence : (string * Json.t) list;  (* reversed *)
}

(* One correctness verdict over one unit of output. *)
let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 20 then r.failures <- what :: r.failures
  end

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics
let note r name unit v = r.notes <- (name, v, unit) :: r.notes
let evidence r key j = r.evidence <- (key, j) :: r.evidence

(* Unit-time distribution of one lane, kept in every result so a noisy
   verdict can be diagnosed after the fact. *)
let lane_evidence r name (xs : float array) =
  let ms q = Json.Float (1e3 *. quantile xs q) in
  evidence r name
    (Json.Obj
       [
         ("units", Json.Int (Array.length xs));
         ("min_ms", ms 0.);
         ("p10_ms", ms 0.1);
         ("p25_ms", ms 0.25);
         ("median_ms", ms 0.5);
         ("p75_ms", ms 0.75);
         ("p90_ms", ms 0.9);
         ("typical_ms", Json.Float (1e3 *. typical xs));
         ("max_ms", ms 1.);
       ])

(* In a traced run the even units of every lane are traced and the odd
   ones are not, so the two halves give the tracing overhead. *)
let traced r i = r.trace && i mod 2 = 0

let unit r i f =
  if not (traced r i) then f ()
  else begin
    tracing := true;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        tracing := false;
        windows := (t0, now ()) :: !windows)
      f
  end

let split r xs =
  let pick want = Array.of_list (List.filteri (fun i _ -> traced r i = want) (Array.to_list xs)) in
  (pick true, pick false)

(* --- host-speed reference ------------------------------------------ *)

(* [reference ()] times a fixed allocation-free kernel (xorshift mixing,
   scattered float reads and writes in a 2 MB array, beyond the L2
   cache) once per lane round.  The host's speed drifts by tens of
   percent over minutes, so the CPU-bound workloads report their lane
   times at a fixed reference speed: multiplied by [host_scale ()],
   [reference_ms] over the run's typical reference time.  The kernel is
   benchmark code, identical on every commit, so the scale follows the
   host and never the program.  The times are also kept as evidence. *)
let reference_buf = Array.make (1 lsl 18) 1.0

let reference_times : float list ref = ref []

let reference () =
  let a = reference_buf in
  let mask = Array.length a - 1 in
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0. in
  let t0 = now () in
  for _ = 1 to 400_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land mask in
    let v = a.(j) in
    a.(j) <- (v *. 0.5) +. 0.5;
    acc := !acc +. v
  done;
  ignore (Sys.opaque_identity !acc);
  reference_times := (now () -. t0) :: !reference_times

(* Nominal duration of one reference call: about its typical time on
   the 2-core host the benchmark was tuned on, so scaled figures read
   close to that host's wall times. *)
let reference_ms = 4.5

let host_scale () = 1e-3 *. reference_ms /. typical (Array.of_list !reference_times)

(* Set-up is timed [reps] times and reported as a median: once before
   the lanes (that instance is the one the lanes use) and [reps - 1]
   more times spread evenly through them, so the figure samples the
   host across the whole run.  [teardown] releases the extra
   instances. *)
type 'a setup = {
  build : unit -> 'a;
  teardown : 'a -> unit;
  reps : int;
  mutable times : float list;
}

let setup_once s =
  let t0 = now () in
  let v = span "setup" s.build in
  s.times <- (now () -. t0) :: s.times;
  v

let first_setup ~reps ~teardown build =
  let s = { build; teardown; reps; times = [] } in
  (s, setup_once s)

let setup_s r s =
  let times = Array.of_list (List.rev s.times) in
  lane_evidence r "setup" times;
  median times

(* Closed-loop lanes: run one unit of each lane in turn until
   [seconds] have passed (and each lane has at least [min_units]), so
   a slow host episode lands on every lane alike.  A unit returns its
   own measured duration in seconds.  Each round starts with one
   [reference] call; the remaining set-ups of [setup] run between
   rounds at even intervals. *)
let lanes ~seconds ?(min_units = 3) ?setup (units : (int -> float) array) =
  let k = Array.length units in
  let acc = Array.make k [] in
  let start = now () in
  let deadline = start +. seconds in
  let extra = match setup with Some s -> s.reps - List.length s.times | None -> 0 in
  let done_extra = ref 0 in
  let i = ref 0 in
  while now () < deadline || !i < min_units do
    reference ();
    Array.iteri (fun l u -> acc.(l) <- u !i :: acc.(l)) units;
    incr i;
    match setup with
    | Some s
      when !done_extra < extra
           && now () -. start >= seconds *. float_of_int (!done_extra + 1) /. float_of_int (extra + 1) ->
      incr done_extra;
      s.teardown (setup_once s)
    | _ -> ()
  done;
  (match setup with
  | Some s ->
    for _ = !done_extra + 1 to extra do
      s.teardown (setup_once s)
    done
  | None -> ());
  Array.map (fun l -> Array.of_list (List.rev l)) acc

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.rev_map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             r.metrics) );
    ]
