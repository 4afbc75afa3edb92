(* Structured-output sinks.  All writers are no-ops until an output
   directory is configured (the CLI's --obs-out or RUMOR_OBS_OUT), so
   instrumented code can emit unconditionally. *)

let out_dir : string option Atomic.t = Atomic.make None

let io_lock = Mutex.create ()

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> ()
  end

let set_dir d =
  (match d with Some d -> mkdir_p d | None -> ());
  Atomic.set out_dir d

let active () = Option.is_some (Atomic.get out_dir)

(* File names derived from experiment ids / labels: keep them shell-
   and filesystem-safe. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let with_out path flags f =
  Mutex.lock io_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock io_lock)
    (fun () ->
      let oc = open_out_gen flags 0o644 path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc))

let in_dir file f =
  match Atomic.get out_dir with
  | None -> ()
  | Some d ->
    mkdir_p d;
    f (Filename.concat d (sanitize file))

let append_jsonl file row =
  in_dir file (fun path ->
      with_out path [ Open_wronly; Open_creat; Open_append ] (fun oc ->
          output_string oc (Json.to_string row);
          output_char oc '\n'))

let write_json file v =
  in_dir file (fun path ->
      with_out path [ Open_wronly; Open_creat; Open_trunc ] (fun oc ->
          output_string oc (Json.to_string ~pretty:true v);
          output_char oc '\n'))

let csv_quote cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else cell

let write_csv file ~header rows =
  in_dir file (fun path ->
      with_out path [ Open_wronly; Open_creat; Open_trunc ] (fun oc ->
          let emit row =
            output_string oc (String.concat "," (List.map csv_quote row));
            output_char oc '\n'
          in
          emit header;
          List.iter emit rows))
