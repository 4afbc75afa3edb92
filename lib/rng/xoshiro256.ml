(* The four state words live in a 32-byte buffer, read and written with
   unboxed loads and stores: [mutable int64] record fields would box a
   fresh int64 on every store, about 20 words per draw.  A draw
   allocates only its boxed result, and nothing when [next] is inlined
   into a caller that consumes the result unboxed (see {!Rng.float}). *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let of_seed seed =
  let sm = Splitmix64.create seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (Splitmix64.next sm)
  done;
  t

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 tt);
  set t 24 (rotl s3 45);
  result

let copy = Bytes.copy
