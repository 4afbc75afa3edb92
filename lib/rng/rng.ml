type t = { gen : Xoshiro256.t }

let create seed = { gen = Xoshiro256.of_seed (Int64.of_int seed) }

(* Children are reseeded through SplitMix64 from the parent's next
   output rather than placed with xoshiro's jump: consecutive parent
   states are consecutive orbit positions, so jumped children would be
   the same stream shifted by one draw — catastrophically correlated
   Monte-Carlo repetitions.  Reseeding lands children at unrelated
   orbit positions. *)
let split t = { gen = Xoshiro256.of_seed (Xoshiro256.next t.gen) }

(* Indexed derivation: the i-th child of a 64-bit base is the i-th
   sequential SplitMix64 split of that base, computed in O(1) as
   mix (base + (i+1) * gamma).  Unlike [split], deriving child i does
   not require materialising children 0..i-1, so a parallel runner can
   hand replicate i to any domain and still produce the exact stream a
   sequential pass would have — bit-identical samples for any domain
   count, and stable when replicates are re-run out of order on
   resume. *)
let derive base i =
  if i < 0 then invalid_arg "Rng.derive: negative child index";
  let z =
    Int64.add base (Int64.mul Splitmix64.golden_gamma (Int64.of_int (i + 1)))
  in
  { gen = Xoshiro256.of_seed (Splitmix64.mix z) }

let copy t = { gen = Xoshiro256.copy t.gen }

let bits64 t = Xoshiro256.next t.gen

(* Lemire-style rejection for unbiased bounded integers. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  (* Use 63 usable bits so that values are non-negative as OCaml ints. *)
  let mask_bits =
    let rec bits b acc = if b = 0L then acc else bits (Int64.shift_right_logical b 1) (acc + 1) in
    bits (Int64.of_int (bound - 1)) 0
  in
  let mask = Int64.sub (Int64.shift_left 1L (max 1 mask_bits)) 1L in
  let rec draw () =
    let r = Int64.logand (bits64 t) mask in
    if Int64.compare r bound64 < 0 then Int64.to_int r else draw ()
  in
  draw ()

(* [float] calls the inlined [Xoshiro256.next] directly, so the raw
   draw is never boxed. *)
let float t =
  (* Top 53 bits -> [0, 1). *)
  let r = Int64.shift_right_logical (Xoshiro256.next t.gen) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let float_pos t = 1.0 -. float t

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t < p

let shuffle_in_place t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t n)
