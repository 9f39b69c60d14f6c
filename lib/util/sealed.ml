let crc body = Crc32.to_hex (Crc32.string body)
let verified body hex = Crc32.of_hex hex = Some (Crc32.string body)
let line body = body ^ " " ^ crc body ^ "\n"

let open_line l =
  match String.rindex_opt l ' ' with
  | None -> None
  | Some cut ->
      let body = String.sub l 0 cut in
      if verified body (String.sub l (cut + 1) (String.length l - cut - 1))
      then Some body
      else None

let block ~trailer body = body ^ trailer ^ " " ^ crc body ^ "\n"

let open_block ~trailer s =
  let len = String.length s in
  if len = 0 || s.[len - 1] <> '\n' then Error "missing trailer"
  else
    let start =
      match String.rindex_from_opt s (len - 2) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    let body = String.sub s 0 start in
    match String.split_on_char ' ' (String.sub s start (len - start - 1)) with
    | [ k; hex ] when k = trailer ->
        if not (verified body hex) then Error "CRC mismatch"
        else if start = 0 then Ok []
        else Ok (String.split_on_char '\n' (String.sub s 0 (start - 1)))
    | _ -> Error "bad trailer"

let counted ~trailer ~header bodies =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header (List.length bodies));
  Buffer.add_char buf '\n';
  List.iter (fun b -> Buffer.add_string buf (line b)) bodies;
  block ~trailer (Buffer.contents buf)

let open_counted ~trailer ~header ~line:parse_body s =
  match open_block ~trailer s with
  | Error _ as e -> e
  | Ok [] -> Error "bad header"
  | Ok (h :: lines) -> (
      match header h with
      | None -> Error "bad header"
      | Some (_, count) when count <> List.length lines ->
          Error "count mismatch"
      | Some (fields, _) ->
          let parse l = Option.bind (open_line l) parse_body in
          let items = List.filter_map parse lines in
          if List.compare_lengths items lines <> 0 then Error "corrupt line"
          else Ok (fields, items))
