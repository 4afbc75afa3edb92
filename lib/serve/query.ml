module Json = Rumor_obs.Json
module Family = Rumor_dynamic.Family
module Protocol = Rumor_sim.Protocol
module Run = Rumor_sim.Run
module Fault_plan = Rumor_faults.Fault_plan
module Rng = Rumor_rng.Rng
module Splitmix64 = Rumor_rng.Splitmix64
module Adaptive = Rumor_stats.Adaptive

type t = {
  family : string;
  n : int;
  rho : float;
  degree : int;
  p : float;
  q : float;
  protocol : Protocol.t;
  engine : Run.engine;
  rate : float;
  reps : int;
  horizon : float;
  seed : int;
  max_events : int option;
  loss : float;
  crash : float;
  recover : float;
  slow_frac : float;
  slow_rate : float;
  part_from : int;
  part_until : int;
  part_frac : float;
  points : float list;
  ci_width : float option;
      (* adaptive stopping target (absolute CI half-width); [None] =
         fixed count.  Rendered only when present so pre-adaptive
         queries keep their fingerprints. *)
  ci_level : float;
}

let default_points = [ 0.5; 0.9; 0.99 ]

let default ~family ~n =
  {
    family;
    n;
    rho = 0.25;
    degree = 8;
    p = 0.05;
    q = 0.2;
    protocol = Protocol.Push_pull;
    engine = Run.Cut;
    rate = 1.0;
    reps = 30;
    horizon = 1e5;
    seed = 2020;
    max_events = None;
    loss = 0.;
    crash = 0.;
    recover = 0.;
    slow_frac = 0.;
    slow_rate = 0.25;
    part_from = 0;
    part_until = 0;
    part_frac = 0.5;
    points = default_points;
    ci_width = None;
    ci_level = 0.95;
  }

(* --- validation -------------------------------------------------- *)

let prob01 name v =
  if v >= 0. && v <= 1. then Ok v
  else Error (Printf.sprintf "%s must be in [0,1], got %g" name v)

let ( let* ) = Result.bind

let validate q =
  let* _ =
    if Family.is_known q.family then Ok ()
    else Error (Printf.sprintf "unknown family %S" q.family)
  in
  let* _ = if q.n >= 2 then Ok () else Error "n must be >= 2" in
  let* _ = if q.reps >= 1 then Ok () else Error "reps must be >= 1" in
  let* _ = if q.degree >= 1 then Ok () else Error "degree must be >= 1" in
  let* _ =
    if q.horizon > 0. then Ok () else Error "horizon must be positive"
  in
  let* _ =
    if q.rate > 0. && Float.is_finite q.rate then Ok ()
    else Error "rate must be positive and finite"
  in
  let* _ =
    if q.slow_rate > 0. && Float.is_finite q.slow_rate then Ok ()
    else Error "slow_rate must be positive and finite"
  in
  let* _ = prob01 "p" q.p in
  let* _ = prob01 "q" q.q in
  let* _ = prob01 "rho" q.rho in
  let* _ =
    if q.loss >= 0. && q.loss < 1. then Ok ()
    else Error (Printf.sprintf "loss must be in [0,1), got %g" q.loss)
  in
  let* _ = prob01 "crash" q.crash in
  let* _ = prob01 "recover" q.recover in
  let* _ = prob01 "slow_frac" q.slow_frac in
  let* _ = prob01 "part_frac" q.part_frac in
  let* _ =
    match q.max_events with
    | Some m when m < 1 -> Error "max_events must be >= 1"
    | _ -> Ok ()
  in
  let* _ =
    match q.ci_width with
    | Some w when not (Float.is_finite w && w > 0.) ->
      Error "ci_width must be positive and finite"
    | _ -> Ok ()
  in
  let* _ =
    if q.ci_level > 0. && q.ci_level < 1. then Ok ()
    else Error "ci_level must lie in (0, 1)"
  in
  let* _ =
    if q.points = [] then Error "points must be non-empty"
    else if List.for_all (fun x -> x >= 0. && x <= 1.) q.points then Ok ()
    else Error "points must all be in [0,1]"
  in
  Ok q

(* --- wire codec -------------------------------------------------- *)

let protocol_of_string = function
  | "push" -> Some Protocol.Push
  | "pull" -> Some Protocol.Pull
  | "pushpull" | "push-pull" | "push_pull" -> Some Protocol.Push_pull
  | _ -> None

let protocol_to_string = function
  | Protocol.Push -> "push"
  | Protocol.Pull -> "pull"
  | Protocol.Push_pull -> "pushpull"

let engine_of_string = function
  | "cut" -> Some Run.Cut
  | "tick" -> Some Run.Tick
  | _ -> None

let engine_to_string = function Run.Cut -> "cut" | Run.Tick -> "tick"

let ci_cadence = 16

(* Canonical field order: [to_json] is the fingerprint input, so the
   rendering must be a pure function of the query value — unknown wire
   fields ([op], [stream], ...) never survive the round trip. *)
let to_json q =
  Json.Obj
    ([
       ("family", Json.String (String.lowercase_ascii q.family));
       ("n", Json.Int q.n);
       ("rho", Json.Float q.rho);
       ("degree", Json.Int q.degree);
       ("p", Json.Float q.p);
       ("q", Json.Float q.q);
       ("protocol", Json.String (protocol_to_string q.protocol));
       ("engine", Json.String (engine_to_string q.engine));
       ("rate", Json.Float q.rate);
       ("reps", Json.Int q.reps);
       ("horizon", Json.Float q.horizon);
       ("seed", Json.Int q.seed);
     ]
    @ (match q.max_events with
      | Some m -> [ ("max_events", Json.Int m) ]
      | None -> [])
    @ [
        ("loss", Json.Float q.loss);
        ("crash", Json.Float q.crash);
        ("recover", Json.Float q.recover);
        ("slow_frac", Json.Float q.slow_frac);
        ("slow_rate", Json.Float q.slow_rate);
        ("part_from", Json.Int q.part_from);
        ("part_until", Json.Int q.part_until);
        ("part_frac", Json.Float q.part_frac);
        ("points", Json.List (List.map (fun x -> Json.Float x) q.points));
      ]
    (* Adaptive fields render only when requested: the canonical form
       (hence fingerprint) of every pre-adaptive query is unchanged.
       The cadence tag keys adaptive answers by the rule that decided
       them. *)
    @
    match q.ci_width with
    | Some w ->
      [ ("ci_width", Json.Float w); ("ci_level", Json.Float q.ci_level);
        ("ci_cadence", Json.Int ci_cadence) ]
    | None -> [])

let of_json j =
  match Json.obj_opt j with
  | None -> Error "query must be a JSON object"
  | Some _ ->
    let str f = Option.bind (Json.member f j) Json.to_string_opt in
    let int f = Option.bind (Json.member f j) Json.to_int_opt in
    let flt f = Option.bind (Json.member f j) Json.to_float_opt in
    let* family =
      match str "family" with
      | Some f -> Ok (String.lowercase_ascii f)
      | None -> Error "missing field: family"
    in
    let* n =
      match int "n" with Some n -> Ok n | None -> Error "missing field: n"
    in
    let d = default ~family ~n in
    let opt get field dflt = Option.value (get field) ~default:dflt in
    let* protocol =
      match str "protocol" with
      | None -> Ok d.protocol
      | Some s -> (
        match protocol_of_string s with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown protocol %S" s))
    in
    let* engine =
      match str "engine" with
      | None -> Ok d.engine
      | Some s -> (
        match engine_of_string s with
        | Some e -> Ok e
        | None -> Error (Printf.sprintf "unknown engine %S" s))
    in
    let* points =
      match Json.member "points" j with
      | None -> Ok d.points
      | Some (Json.List l) ->
        List.fold_right
          (fun x acc ->
            let* acc = acc in
            match Json.to_float_opt x with
            | Some f -> Ok (f :: acc)
            | None -> Error "points must be numbers")
          l (Ok [])
      | Some _ -> Error "points must be a list"
    in
    validate
      {
        family;
        n;
        rho = opt flt "rho" d.rho;
        degree = opt int "degree" d.degree;
        p = opt flt "p" d.p;
        q = opt flt "q" d.q;
        protocol;
        engine;
        rate = opt flt "rate" d.rate;
        reps = opt int "reps" d.reps;
        horizon = opt flt "horizon" d.horizon;
        seed = opt int "seed" d.seed;
        max_events = int "max_events";
        loss = opt flt "loss" d.loss;
        crash = opt flt "crash" d.crash;
        recover = opt flt "recover" d.recover;
        slow_frac = opt flt "slow_frac" d.slow_frac;
        slow_rate = opt flt "slow_rate" d.slow_rate;
        part_from = opt int "part_from" d.part_from;
        part_until = opt int "part_until" d.part_until;
        part_frac = opt flt "part_frac" d.part_frac;
        points;
        ci_width = flt "ci_width";
        ci_level = opt flt "ci_level" d.ci_level;
      }

(* --- fingerprint ------------------------------------------------- *)

let fingerprint q =
  let s = Json.to_string (to_json q) in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Splitmix64.mix
          Int64.(
            add
              (logxor !h (of_int (Char.code c)))
              Splitmix64.golden_gamma))
    s;
  !h

let key q = Printf.sprintf "%016Lx" (fingerprint q)

(* --- execution --------------------------------------------------- *)

let family_params q =
  {
    Family.family = q.family;
    n = q.n;
    rho = q.rho;
    degree = q.degree;
    p = q.p;
    q = q.q;
    seed = q.seed;
  }

(* Mirrors the [faults] subcommand's plan construction exactly, so a
   served query and the offline CLI agree replicate-for-replicate. *)
let fault_plan q =
  let churn =
    if q.crash > 0. || q.recover > 0. then
      Some { Fault_plan.crash = q.crash; recover = q.recover }
    else None
  in
  let node_rate =
    if q.slow_frac > 0. then begin
      let cutoff =
        int_of_float (Float.round (q.slow_frac *. float_of_int q.n))
      in
      Some (fun u -> if u < cutoff then q.slow_rate else 1.0)
    end
    else None
  in
  let partitions =
    if q.part_until > q.part_from then begin
      let cutoff =
        int_of_float (Float.round (q.part_frac *. float_of_int q.n))
      in
      [
        {
          Fault_plan.from_step = q.part_from;
          until_step = q.part_until;
          side = (fun u -> u < cutoff);
        };
      ]
    end
    else []
  in
  Fault_plan.make ~loss:q.loss ?node_rate ?churn ~partitions ()

let sweep ?jobs ?checkpoint ?reps ?chunk ?on_chunk q =
  let reps = Option.value reps ~default:q.reps in
  let net = Family.build (family_params q) in
  let rng = Rng.create q.seed in
  match q.ci_width with
  | None ->
    Run.async_spread_sweep ?jobs ~reps ~horizon:q.horizon ~engine:q.engine
      ~protocol:q.protocol ~rate:q.rate ~faults:(fault_plan q)
      ?max_events:q.max_events ?checkpoint ?chunk ?on_chunk rng net
  | Some w ->
    (* The stopping decision is the query's, not the caller's: [chunk]
       only paces fixed-count sweeps. *)
    let config =
      Adaptive.config ~level:q.ci_level ~min_reps:(min 16 reps)
        ~max_reps:reps ~chunk:ci_cadence (Adaptive.Abs w)
    in
    (Run.async_spread_sweep_adaptive ?jobs ~horizon:q.horizon
       ~engine:q.engine ~protocol:q.protocol ~rate:q.rate
       ~faults:(fault_plan q) ?max_events:q.max_events ?checkpoint ?on_chunk
       ~config rng net)
      .Run.sweep
