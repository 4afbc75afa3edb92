type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | None -> List.map (fun _ -> Right) headers
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Table.create: aligns/headers arity mismatch";
      a
  in
  { headers; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d"
         (List.length t.headers) (List.length row));
  t.rows <- row :: t.rows

let headers t = t.headers

let rows t = List.rev t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter measure all;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth t.aligns i) widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  let sep =
    List.init ncols (fun i -> String.make widths.(i) '-')
  in
  emit sep;
  List.iter emit rows;
  Buffer.contents buf

let print ?title t =
  (match title with
  | Some s -> Printf.printf "%s\n" s
  | None -> ());
  print_string (render t);
  print_newline ()

let cell_f ?(digits = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" digits x

let cell_g x = if Float.is_nan x then "-" else Printf.sprintf "%.4g" x

let cell_i = string_of_int
