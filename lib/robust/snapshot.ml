module Sealed = Wavesyn_util.Sealed
module Float_util = Wavesyn_util.Float_util
module Stream_synopsis = Wavesyn_stream.Stream_synopsis

let log_src = Logs.Src.create "wavesyn.snapshot" ~doc:"Durable state snapshots"

module Log = (val Logs.src_log log_src : Logs.LOG)

let magic = "wavesyn-snapshot v1"

type state = {
  seq : int;
  n : int;
  updates : int;
  coeffs : (int * float) list;
}

let of_stream ~seq stream =
  {
    seq;
    n = Stream_synopsis.n stream;
    updates = Stream_synopsis.updates_seen stream;
    coeffs = Stream_synopsis.coeffs stream;
  }

let to_stream state =
  Stream_synopsis.restore ~n:state.n ~updates:state.updates state.coeffs

let encode state =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (magic ^ "\n");
  Buffer.add_string buf (Printf.sprintf "seq %d\n" state.seq);
  Buffer.add_string buf (Printf.sprintf "n %d\n" state.n);
  Buffer.add_string buf (Printf.sprintf "updates %d\n" state.updates);
  Buffer.add_string buf
    (Printf.sprintf "coeffs %d\n" (List.length state.coeffs));
  List.iter
    (fun (j, c) -> Buffer.add_string buf (Printf.sprintf "%d %h\n" j c))
    state.coeffs;
  Buffer.contents buf

let seal body = Sealed.block ~trailer:"crc" body

let decode ?(what = "snapshot") text =
  let fail reason = Error (Validate.Bad_shape { what; reason }) in
  let int_field name line =
    match String.split_on_char ' ' line with
    | [ k; v ] when k = name -> int_of_string_opt v
    | _ -> None
  in
  match Sealed.open_block ~trailer:"crc" text with
  | Error reason -> fail reason
  | Ok (m :: seq_l :: n_l :: upd_l :: count_l :: coeff_lines) when m = magic
    -> (
      match
        ( int_field "seq" seq_l,
          int_field "n" n_l,
          int_field "updates" upd_l,
          int_field "coeffs" count_l )
      with
      | Some seq, Some n, Some updates, Some count -> (
          if List.length coeff_lines <> count then
            fail "coefficient count mismatch"
          else if seq < 0 || updates < 0 || not (Float_util.is_pow2 n) then
            fail "malformed header fields"
          else
            let parse line =
              match String.split_on_char ' ' line with
              | [ j; c ] -> (
                  match (int_of_string_opt j, float_of_string_opt c) with
                  | Some j, Some c when j >= 0 && j < n && Float.is_finite c ->
                      Some (j, c)
                  | _ -> None)
              | _ -> None
            in
            let coeffs = List.filter_map parse coeff_lines in
            if List.length coeffs <> count then
              fail "malformed coefficient line"
            else
              match Stream_synopsis.restore ~n ~updates coeffs with
              | _ -> Ok { seq; n; updates; coeffs }
              | exception Invalid_argument r -> fail r)
      | _ -> fail "malformed header fields")
  | Ok (m :: _) when m = magic -> fail "truncated header"
  | Ok _ -> fail "bad magic (not a wavesyn snapshot)"

(* --- store layout --- *)

let prefix = "snapshot-"
let suffix = ".wsn"

let file_of_generation dir g =
  Filename.concat dir (Printf.sprintf "%s%09d%s" prefix g suffix)

let generation_of_file name =
  if
    String.starts_with ~prefix name
    && Filename.check_suffix name suffix
    && String.length name = String.length prefix + 9 + String.length suffix
  then int_of_string_opt (String.sub name (String.length prefix) 9)
  else None

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error reason -> Error (Validate.Io_error { path = dir; reason })
  | names ->
      Ok
        (Array.to_list names
        |> List.filter_map generation_of_file
        |> List.sort (fun a b -> compare b a))

let decode_file path =
  Result.bind (Validate.read_whole path) (decode ~what:path)

let fsync_dir dir =
  (* Persist the rename itself. Best-effort: not every platform lets a
     directory fd be fsynced. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let write_payload ?(sync = true) path payload =
  match open_out_bin path with
  | exception Sys_error reason -> Error (Validate.Io_error { path; reason })
  | oc -> (
      match
        output_string oc payload;
        flush oc;
        if sync then Unix.fsync (Unix.descr_of_out_channel oc)
      with
      | () ->
          close_out_noerr oc;
          Ok ()
      | exception e ->
          close_out_noerr oc;
          Error
            (Validate.Io_error { path; reason = Printexc.to_string e }))

let prune ~dir ~keep gens =
  let rec drop k = function
    | [] -> []
    | g :: rest ->
        if k >= keep then begin
          (try Sys.remove (file_of_generation dir g) with Sys_error _ -> ());
          drop k rest
        end
        else g :: drop (k + 1) rest
  in
  drop 0 gens

type written = { gen : int; intact : bool }

let write ?(fault = Fault.none) ?(keep = 3) ?(sync = true) ~dir state =
  if keep < 1 then invalid_arg "Snapshot.write: keep must be at least 1";
  match list ~dir with
  | Error _ as e -> e
  | Ok gens ->
      if Fault.io_fails fault then
        Error
          (Validate.Io_error
             { path = dir; reason = "injected transient I/O failure" })
      else begin
        let gen = match gens with g :: _ -> g + 1 | [] -> 1 in
        let final = file_of_generation dir gen in
        let payload = seal (encode state) in
        match Fault.torn_prefix fault payload with
        | Some prefix ->
            (* Simulated kill mid-write: a partial generation file hits
               the disk under its final name and the process dies. The
               CRC on the read path must reject it. *)
            ignore (write_payload ~sync:false final prefix);
            raise (Fault.Injected Fault.Torn_write)
        | None -> (
            let payload, intact =
              match Fault.flip_bit fault payload with
              | Some corrupted -> (corrupted, false)
              | None -> (payload, true)
            in
            let tmp = final ^ ".tmp" in
            match write_payload ~sync tmp payload with
            | Error _ as e -> e
            | Ok () -> (
                match Sys.rename tmp final with
                | exception Sys_error reason ->
                    Error (Validate.Io_error { path = final; reason })
                | () ->
                    if sync then fsync_dir dir;
                    let kept = prune ~dir ~keep (gen :: gens) in
                    Log.debug (fun m ->
                        m "wrote generation %d (seq %d, kept %d)" gen state.seq
                          (List.length kept));
                    Ok { gen; intact }))
      end

type recovery = {
  state : state option;
  generation : int option;
  corrupt : int list;
}

let read_latest ~dir =
  match list ~dir with
  | Error _ as e -> e
  | Ok gens ->
      let rec go corrupt = function
        | [] -> Ok { state = None; generation = None; corrupt = List.rev corrupt }
        | g :: rest -> (
            match decode_file (file_of_generation dir g) with
            | Ok state ->
                Ok { state = Some state; generation = Some g; corrupt = List.rev corrupt }
            | Error e ->
                Log.warn (fun m ->
                    m "generation %d rejected: %s" g (Validate.to_string e));
                go (g :: corrupt) rest)
      in
      go [] gens
