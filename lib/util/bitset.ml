type t = {
  mutable words : int array; (* Sys.int_size bits per word (63 on 64-bit
                                hosts): member i is bit i mod int_size
                                of word i / int_size. *)
  capacity : int;
  mutable card : int;
}

let bits_per_word = Sys.int_size

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (max 1 (words_for n)) 0; capacity = n; card = 0 }

let capacity s = s.capacity

let cardinal s = s.card

let out_of_range s i =
  invalid_arg
    (Printf.sprintf "Bitset: index %d out of range [0, %d)" i s.capacity)

let[@inline] check s i = if i < 0 || i >= s.capacity then out_of_range s i

(* Inlinable: the engines test membership once per neighbour. *)
let[@inline] mem s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) land (1 lsl b) <> 0

let add s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let mask = 1 lsl b in
  if s.words.(w) land mask <> 0 then false
  else begin
    s.words.(w) <- s.words.(w) lor mask;
    s.card <- s.card + 1;
    true
  end

let remove s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let mask = 1 lsl b in
  if s.words.(w) land mask = 0 then false
  else begin
    s.words.(w) <- s.words.(w) land lnot mask;
    s.card <- s.card - 1;
    true
  end

let copy s = { s with words = Array.copy s.words }

let iter f s =
  for i = 0 to s.capacity - 1 do
    let w = i / bits_per_word and b = i mod bits_per_word in
    if s.words.(w) land (1 lsl b) <> 0 then f i
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let is_full s = s.card = s.capacity
