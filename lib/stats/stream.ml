type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable max : float;
}

let create () =
  { count = 0; mean = 0.; m2 = 0.; max = neg_infinity }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x > t.max then t.max <- x

let mean t = if t.count = 0 then Float.nan else t.mean

let variance t =
  if t.count < 2 then Float.nan else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)
let max t = if t.count = 0 then Float.nan else t.max
