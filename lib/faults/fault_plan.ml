open Rumor_util
open Rumor_rng

type churn = { crash : float; recover : float }

type partition = {
  from_step : int;
  until_step : int;
  side : int -> bool;
}

type t = {
  loss : float;
  node_rate : (int -> float) option;
  churn : churn option;
  partitions : partition list;
}

let none = { loss = 0.; node_rate = None; churn = None; partitions = [] }

let make ?(loss = 0.) ?node_rate ?churn ?(partitions = []) () =
  if loss < 0. || loss >= 1. || not (Float.is_finite loss) then
    invalid_arg "Fault_plan.make: loss must lie in [0, 1)";
  (match churn with
  | Some { crash; recover } ->
    if
      crash < 0. || crash > 1. || recover < 0. || recover > 1.
      || not (Float.is_finite crash)
      || not (Float.is_finite recover)
    then invalid_arg "Fault_plan.make: churn probabilities outside [0, 1]"
  | None -> ());
  List.iter
    (fun p ->
      if p.until_step <= p.from_step then
        invalid_arg "Fault_plan.make: empty partition window")
    partitions;
  { loss; node_rate; churn; partitions }

let message_loss p = make ~loss:p ()

let node_churn ~crash ~recover = make ~churn:{ crash; recover } ()

let availability { crash; recover } =
  if crash = 0. then 1.
  else if recover = 0. then 0.
  else recover /. (crash +. recover)

(* --- engine runtime state --- *)

type state = {
  plan : t;
  alive_set : Bitset.t option;  (* None = no churn, everyone alive *)
  rates : float array option;
  mutable active : partition list;
}

let active_at partitions step =
  List.filter (fun p -> p.from_step <= step && step < p.until_step) partitions

let init plan ~n =
  let alive_set =
    match plan.churn with
    | None -> None
    | Some _ ->
      let b = Bitset.create n in
      for v = 0 to n - 1 do
        ignore (Bitset.add b v)
      done;
      Some b
  in
  let rates = Option.map (fun f -> Array.init n f) plan.node_rate in
  Option.iter
    (Array.iter (fun r ->
         if r <= 0. || not (Float.is_finite r) then
           invalid_arg "Fault_plan.init: node rates must be positive and finite"))
    rates;
  { plan; alive_set; rates; active = active_at plan.partitions 0 }

(* The two filtered lists are built from the same source list in order,
   so element-wise physical equality decides whether the active window
   set changed. *)
let same_active a b =
  List.compare_lengths a b = 0 && List.for_all2 ( == ) a b

let advance st rng ~step =
  let churn_changed =
    match (st.plan.churn, st.alive_set) with
    | Some { crash; recover }, Some alive ->
      let changed = ref false in
      let n = Bitset.capacity alive in
      for v = 0 to n - 1 do
        (* exactly one draw per node per boundary, whatever its state *)
        if Bitset.mem alive v then begin
          if Rng.bernoulli rng crash then changed := Bitset.remove alive v || !changed
        end
        else if Rng.bernoulli rng recover then
          changed := Bitset.add alive v || !changed
      done;
      !changed
    | _ -> false
  in
  let active' = active_at st.plan.partitions step in
  let partition_changed = not (same_active st.active active') in
  st.active <- active';
  churn_changed || partition_changed

let[@inline] alive st v =
  match st.alive_set with None -> true | Some b -> Bitset.mem b v

(* A direct walk: [List.exists] would build a closure per call, and the
   engines ask once per contact. *)
let rec crosses u v = function
  | [] -> false
  | p :: rest -> p.side u <> p.side v || crosses u v rest

let[@inline] blocked st u v = crosses u v st.active

let[@inline] allows st u v = alive st u && alive st v && not (blocked st u v)

let restricts st =
  Option.is_some st.alive_set || match st.active with [] -> false | _ -> true

let node_rates st = st.rates

let deliver st rng = st.plan.loss <= 0. || not (Rng.bernoulli rng st.plan.loss)
