(* CRC-32/ISO-HDLC: reflected polynomial 0xEDB88320, init and final
   xor 0xFFFFFFFF.  The byte-at-a-time table is built once at module
   initialisation; [digest] is a tight loop over it. *)

let table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref (Int32.of_int i) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let digest s =
  let table = Lazy.force table in
  let c = ref 0xFFFFFFFFl in
  for i = 0 to String.length s - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (String.unsafe_get s i)))) 0xFFl)
    in
    c := Int32.logxor (Array.unsafe_get table idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) s in
    if not ok then None else Int32.of_string_opt ("0x" ^ s)
