(* Process-wide metric registry.

   Counters and histogram buckets are [Atomic.t]s, so the domain-
   parallel Monte-Carlo runners can record from every worker without
   locks on the hot path; the registry itself (name -> handle) is
   mutated only at registration time, under a mutex, and registration
   is idempotent so module-initialisation order never matters.

   The whole subsystem is off by default.  Every recording entry point
   loads one atomic bool and branches — the engines additionally batch
   their per-run tallies into plain record fields and flush once per
   run, so a disabled build pays (almost) nothing on the event path. *)

let on = Atomic.make false

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

type counter = {
  cell : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_cell : float Atomic.t;
}

type histogram = {
  h_name : string;
  upper : float array;  (* strictly increasing bucket upper bounds *)
  buckets : int Atomic.t array;  (* length upper + 1: last = overflow *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

let registry_lock = Mutex.create ()

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32

let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 8

let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 8

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
        let c = { cell = Atomic.make 0 } in
        Hashtbl.add counters_tbl name c;
        c)

let add c delta = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell delta)

let incr c = add c 1

let value c = Atomic.get c.cell


let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_cell = Atomic.make 0. } in
        Hashtbl.add gauges_tbl name g;
        g)

let set g x = if Atomic.get on then Atomic.set g.g_cell x

let gauge_value g = Atomic.get g.g_cell

(* Default buckets: powers of two from 1/4 to 2^20, which covers the
   spread times of every network family in the repo (Theta(log n) on
   expanders up to Theta(n^2) on the absolute-diligence family). *)
let default_buckets = Array.init 23 (fun i -> Float.of_int (1 lsl i) /. 4.)

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let histogram ?(buckets = default_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b -> if i > 0 && buckets.(i - 1) >= b then ok := false)
    buckets;
  if not !ok then
    invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing";
  with_lock (fun () ->
      match Hashtbl.find_opt histograms_tbl name with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            upper = Array.copy buckets;
            buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0.;
          }
        in
        Hashtbl.add histograms_tbl name h;
        h)

(* Binary search for the first upper bound >= x. *)
let bucket_index h x =
  let lo = ref 0 and hi = ref (Array.length h.upper) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.upper.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

let observe h x =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_index h x) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    atomic_add_float h.h_sum x
  end

(* Per-domain shards: plain (unshared) accumulators that a worker
   domain records into without touching the global atomics, merged in
   one batch after the domains join.  Totals are exactly what direct
   recording would have produced — addition commutes — while the hot
   path costs a short physical-equality scan and a field update, and
   allocates only on the first touch of each handle. *)
module Shard = struct
  type ccell = { sc : counter; mutable delta : int }

  type hcell = {
    sh : histogram;
    sh_buckets : int array;
    mutable sh_count : int;
    mutable sh_sum : float;
  }

  type t = { mutable ccells : ccell list; mutable hcells : hcell list }

  let create () = { ccells = []; hcells = [] }

  let add t c delta =
    if Atomic.get on then begin
      match List.find_opt (fun cell -> cell.sc == c) t.ccells with
      | Some cell -> cell.delta <- cell.delta + delta
      | None -> t.ccells <- { sc = c; delta } :: t.ccells
    end

  let incr t c = add t c 1

  let observe t h x =
    if Atomic.get on then begin
      let cell =
        match List.find_opt (fun cell -> cell.sh == h) t.hcells with
        | Some cell -> cell
        | None ->
          let cell =
            {
              sh = h;
              sh_buckets = Array.make (Array.length h.buckets) 0;
              sh_count = 0;
              sh_sum = 0.;
            }
          in
          t.hcells <- cell :: t.hcells;
          cell
      in
      let i = bucket_index h x in
      cell.sh_buckets.(i) <- cell.sh_buckets.(i) + 1;
      cell.sh_count <- cell.sh_count + 1;
      cell.sh_sum <- cell.sh_sum +. x
    end

  (* Flush unconditionally (not gated on [on]): anything accumulated
     was recorded while the subsystem was enabled and must not be lost
     to a disable racing the merge.  Zeroes the shard, so it can be
     reused. *)
  let merge t =
    List.iter
      (fun cell ->
        if cell.delta <> 0 then begin
          ignore (Atomic.fetch_and_add cell.sc.cell cell.delta);
          cell.delta <- 0
        end)
      t.ccells;
    List.iter
      (fun cell ->
        Array.iteri
          (fun i k ->
            if k <> 0 then begin
              ignore (Atomic.fetch_and_add cell.sh.buckets.(i) k);
              cell.sh_buckets.(i) <- 0
            end)
          cell.sh_buckets;
        if cell.sh_count <> 0 then begin
          ignore (Atomic.fetch_and_add cell.sh.h_count cell.sh_count);
          cell.sh_count <- 0
        end;
        if cell.sh_sum <> 0. then begin
          atomic_add_float cell.sh.h_sum cell.sh_sum;
          cell.sh_sum <- 0.
        end)
      t.hcells
end

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters_tbl;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0.) gauges_tbl;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0.)
        histograms_tbl)

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters () =
  with_lock (fun () ->
      List.map (fun (name, c) -> (name, Atomic.get c.cell)) (sorted_bindings counters_tbl))

let gauges () =
  with_lock (fun () ->
      List.map (fun (name, g) -> (name, Atomic.get g.g_cell)) (sorted_bindings gauges_tbl))

let histogram_json h =
  let cells = ref [] in
  Array.iteri
    (fun i b ->
      let le =
        if i < Array.length h.upper then Json.Float h.upper.(i)
        else Json.Float Float.infinity
      in
      cells := Json.Obj [ ("le", le); ("count", Json.Int (Atomic.get b)) ] :: !cells)
    h.buckets;
  Json.Obj
    [
      ("count", Json.Int (Atomic.get h.h_count));
      ("sum", Json.Float (Atomic.get h.h_sum));
      ("buckets", Json.List (List.rev !cells));
    ]

let snapshot () =
  let counters =
    List.map (fun (name, v) -> (name, Json.Int v)) (counters ())
  in
  let gauges = List.map (fun (name, v) -> (name, Json.Float v)) (gauges ()) in
  let histograms =
    with_lock (fun () ->
        List.map
          (fun (name, h) -> (name, histogram_json h))
          (sorted_bindings histograms_tbl))
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]
