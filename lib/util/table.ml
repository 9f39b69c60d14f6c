type t = { columns : string list; mutable rows : string list list }

let create ~columns = { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: cell count does not match column count";
  t.rows <- row :: t.rows

let add_float_row t ?(decimals = 4) label xs =
  add_row t (label :: List.map (fun x -> Printf.sprintf "%.*f" decimals x) xs)

let widths t =
  let max_widths acc row =
    List.map2 (fun w cell -> Stdlib.max w (String.length cell)) acc row
  in
  List.fold_left max_widths
    (List.map String.length t.columns)
    (List.rev t.rows)

let render_row widths row =
  let cells =
    List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row
  in
  String.concat "  " cells

let to_string ?title t =
  let widths = widths t in
  let buf = Buffer.create 256 in
  (match title with
  | Some s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (render_row widths t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row widths row);
      Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf
