type lease = {
  id : int;
  epoch : int;
  worker : int;
  tasks : string list;
}

type entry = {
  lease : lease;
  mutable pending : string list;  (* tasks not yet completed *)
}

type t = {
  mutable next_id : int;
  mutable fence : int;
  table : (int, entry) Hashtbl.t;
}

let create ?after:((last_id, last_epoch) = (0, 0)) () =
  { next_id = last_id + 1; fence = last_epoch; table = Hashtbl.create 16 }

let epoch t = t.fence

let grant t ~worker tasks =
  t.fence <- t.fence + 1;
  let lease = { id = t.next_id; epoch = t.fence; worker; tasks } in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.table lease.id { lease; pending = tasks };
  lease

let complete t ~lease_id ~epoch ~task =
  match Hashtbl.find_opt t.table lease_id with
  | None -> `Fenced
  | Some entry ->
    if entry.lease.epoch <> epoch then `Fenced
    else if not (List.mem task entry.pending) then `Unknown_task
    else begin
      entry.pending <- List.filter (fun x -> x <> task) entry.pending;
      if entry.pending = [] then Hashtbl.remove t.table lease_id;
      `Ok
    end

let reclaim t ~lease_id =
  match Hashtbl.find_opt t.table lease_id with
  | None -> []
  | Some entry ->
    Hashtbl.remove t.table lease_id;
    (* Advance the fence even though the lease entry is gone: the
       epoch's monotonicity is the documented invariant, and any
       record stamped below it is provably pre-reclaim. *)
    t.fence <- t.fence + 1;
    entry.pending

let active t ~lease_id =
  Option.map (fun e -> e.lease) (Hashtbl.find_opt t.table lease_id)

let outstanding t = Hashtbl.length t.table

module Replay = struct
  type state = {
    granted : (int, int) Hashtbl.t;  (* lease id -> grant epoch *)
    reclaimed : (int, unit) Hashtbl.t;
  }

  let create () =
    { granted = Hashtbl.create 16; reclaimed = Hashtbl.create 16 }

  let note_grant s ~lease_id ~epoch = Hashtbl.replace s.granted lease_id epoch

  let note_reclaim s ~lease_id = Hashtbl.replace s.reclaimed lease_id ()

  let check_done s ~lease_id ~epoch =
    match Hashtbl.find_opt s.granted lease_id with
    | Some e when e = epoch && not (Hashtbl.mem s.reclaimed lease_id) ->
      `Trusted
    | _ -> `Fenced
end
