let string name =
  match Sys.getenv_opt name with Some "" | None -> None | some -> some

let int ~default name =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None ->
      Printf.eprintf
        "warning: ignoring invalid %s=%S (expected an integer; using %d)\n%!"
        name s default;
      default)

let parse_duration s =
  let t = String.trim (String.lowercase_ascii s) in
  let num body scale =
    match float_of_string_opt (String.trim body) with
    | Some f when f > 0. && Float.is_finite f -> Ok (f *. scale)
    | _ ->
      Error
        (Printf.sprintf
           "invalid duration %S (expected a positive number with an optional \
            ms/s/m/h suffix, e.g. 500ms, 10s, 5m)"
           s)
  in
  let chop suffix = Filename.chop_suffix t suffix in
  if Filename.check_suffix t "ms" then num (chop "ms") 0.001
  else if Filename.check_suffix t "s" then num (chop "s") 1.0
  else if Filename.check_suffix t "m" then num (chop "m") 60.0
  else if Filename.check_suffix t "h" then num (chop "h") 3600.0
  else num t 1.0
