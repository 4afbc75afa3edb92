(* Named timing scopes on the monotonic clock, accumulated in a
   process-wide registry like Metrics' counters: total nanoseconds and
   entry count per name, both atomic so engine phases and Monte-Carlo
   workers on different domains can time themselves concurrently. *)

type t = {
  count : int Atomic.t;
  total_ns : int Atomic.t;
      (* int arithmetic: 62 bits of nanoseconds ~ 146 years, plenty *)
}

let registry_lock = Mutex.create ()

let spans_tbl : (string, t) Hashtbl.t = Hashtbl.create 16

let create name =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt spans_tbl name with
      | Some s -> s
      | None ->
        let s = { count = Atomic.make 0; total_ns = Atomic.make 0 } in
        Hashtbl.add spans_tbl name s;
        s)

let record_ns s ns =
  if Metrics.enabled () then begin
    ignore (Atomic.fetch_and_add s.count 1);
    ignore (Atomic.fetch_and_add s.total_ns ns)
  end

let time s f =
  if Metrics.enabled () then begin
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        record_ns s (Int64.to_int (Int64.sub (Clock.now_ns ()) t0)))
      f
  end
  else f ()

let total_s s = float_of_int (Atomic.get s.total_ns) *. 1e-9

let totals () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun name s acc -> (name, (Atomic.get s.count, total_s s)) :: acc)
           spans_tbl []))

let reset () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      Hashtbl.iter
        (fun _ s ->
          Atomic.set s.count 0;
          Atomic.set s.total_ns 0)
        spans_tbl)

let snapshot () =
  Json.Obj
    (List.map
       (fun (name, (count, seconds)) ->
         ( name,
           Json.Obj
             [ ("count", Json.Int count); ("total_s", Json.Float seconds) ] ))
       (totals ()))
