module Sealed = Wavesyn_util.Sealed

let log_src = Logs.Src.create "wavesyn.journal" ~doc:"Write-ahead update journal"

module Log = (val Logs.src_log log_src : Logs.LOG)

let wal_name = "journal.wal"
let path ~dir = Filename.concat dir wal_name

type record = { seq : int; i : int; delta : float }

let record_body { seq; i; delta } = Printf.sprintf "%d %d %h" seq i delta
let encode r = Sealed.line (record_body r)

let parse_record body =
  match String.split_on_char ' ' body with
  | [ seq; i; delta ] -> (
      match
        (int_of_string_opt seq, int_of_string_opt i, float_of_string_opt delta)
      with
      | Some seq, Some i, Some delta
        when seq > 0 && i >= 0 && Float.is_finite delta ->
          Some { seq; i; delta }
      | _ -> None)
  | _ -> None

let decode_line line = Option.bind (Sealed.open_line line) parse_record

type replay = { records : record list; truncated : bool; valid_bytes : int }

let replay ?(since = 0) ~dir () =
  let p = path ~dir in
  if not (Sys.file_exists dir) then
    Error (Validate.Io_error { path = dir; reason = "no such store directory" })
  else if not (Sys.file_exists p) then
    Ok { records = []; truncated = false; valid_bytes = 0 }
  else
    match open_in_bin p with
    | exception Sys_error reason -> Error (Validate.Io_error { path = p; reason })
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let records = ref [] in
            let truncated = ref false in
            let prev_seq = ref None in
            let valid_bytes = ref 0 in
            (* A record is durable only once its newline is: a last line
               at EOF without one is a torn append. The length and the
               last byte are read once, not per record. *)
            let length = in_channel_length ic in
            let torn_tail =
              length > 0
              && (seek_in ic (length - 1);
                  let last = input_char ic in
                  seek_in ic 0;
                  last <> '\n')
            in
            (try
               let continue = ref true in
               while !continue do
                 let line = input_line ic in
                 let torn = torn_tail && pos_in ic = length in
                 match if torn then None else decode_line line with
                 | Some r
                   when match !prev_seq with
                        | None -> true
                        | Some s -> r.seq = s + 1 ->
                     prev_seq := Some r.seq;
                     valid_bytes := pos_in ic;
                     if r.seq > since then records := r :: !records
                 | Some _ | None ->
                     (* First corrupt / torn / out-of-sequence record:
                        everything from here on is untrusted. *)
                     truncated := true;
                     continue := false
               done
             with End_of_file -> ());
            if !truncated then
              Log.warn (fun m ->
                  m "replay truncated at first corrupt record (kept %d)"
                    (List.length !records));
            Ok
              {
                records = List.rev !records;
                truncated = !truncated;
                valid_bytes = !valid_bytes;
              })

(* ------------------------------------------------------------------ *)
(* Shipping: seq-addressed record ranges for follower replication.    *)
(* ------------------------------------------------------------------ *)

type batch = {
  b_since : int;
  b_last_seq : int;
  b_complete : bool;
  b_records : record list;
}

let batch_error reason = Validate.Bad_shape { what = "ship batch"; reason }

let encode_batch b =
  Sealed.counted ~trailer:"end"
    ~header:(fun count ->
      Printf.sprintf "ship %d %d %d %d" b.b_since count b.b_last_seq
        (if b.b_complete then 1 else 0))
    (List.map record_body b.b_records)

let parse_header header =
  match String.split_on_char ' ' header with
  | [ "ship"; since; count; last_seq; (("0" | "1") as complete) ] -> (
      match
        (int_of_string_opt since, int_of_string_opt count,
         int_of_string_opt last_seq)
      with
      | Some since, Some count, Some last_seq
        when since >= 0 && count >= 0 && last_seq >= 0 ->
          Some ((since, last_seq, complete = "1"), count)
      | _ -> None)
  | _ -> None

let decode_batch s =
  let err reason = Error (batch_error reason) in
  match
    Sealed.open_counted ~trailer:"end" ~header:parse_header ~line:parse_record
      s
  with
  | Error reason -> err reason
  | Ok ((since, last_seq, complete), records) ->
      let last_shipped = since + List.length records in
      if List.filteri (fun k r -> r.seq <> since + 1 + k) records <> [] then
        err "batch records not contiguous"
      else if complete && last_shipped <> last_seq then
        err "complete batch stops short of last_seq"
      else if last_shipped > last_seq then err "batch overruns last_seq"
      else
        Ok
          {
            b_since = since;
            b_last_seq = last_seq;
            b_complete = complete;
            b_records = records;
          }

let ship ~dir ~since ~seq ~max () =
  if since < 0 then invalid_arg "Journal.ship: since must be >= 0";
  if max < 0 then invalid_arg "Journal.ship: max must be >= 0";
  match replay ~dir () with
  | Error _ as e -> e
  | Ok { records = all; _ } ->
      if since > seq then
        Error
          (batch_error
             (Printf.sprintf "cursor %d is ahead of store seq %d" since seq))
      else
        let gap =
          match all with
          | [] -> since < seq
          | first :: _ -> since + 1 < first.seq && since < seq
        in
        if gap then
          Error
            (batch_error
               (Printf.sprintf
                  "records after seq %d compacted away — snapshot required"
                  since))
        else begin
          (* Clamp to (since, seq]: the journal on disk may run past
             the authoritative [seq] (an unacked suffix after a crash
             mid-storm, or a caller shipping as-of an older sequence) —
             shipping those records would build a batch its own
             [decode_batch] rejects as overrunning [last_seq]. *)
          let wanted =
            List.filter (fun r -> r.seq > since && r.seq <= seq) all
          in
          let rec take k = function
            | r :: tl when k > 0 -> r :: take (k - 1) tl
            | _ -> []
          in
          let sent = take max wanted in
          let exhausted = List.length sent = List.length wanted in
          let last_sent =
            match List.rev sent with [] -> since | r :: _ -> r.seq
          in
          if exhausted && last_sent < seq then
            Error
              (batch_error
                 (Printf.sprintf
                    "journal ends at seq %d, short of store seq %d (torn \
                     tail? run repair)"
                    last_sent seq))
          else
            Ok
              {
                b_since = since;
                b_last_seq = seq;
                b_complete = last_sent = seq;
                b_records = sent;
              }
        end

type t = {
  dir : string;
  sync : bool;
  fault : Fault.t;
  mutable oc : out_channel option;
  mutable seq : int;
}

let repair ~dir =
  match replay ~dir () with
  | Error _ as e -> e
  | Ok r ->
      if r.truncated then begin
        let p = path ~dir in
        match Unix.truncate p r.valid_bytes with
        | () ->
            Log.info (fun m ->
                m "repaired: truncated WAL to %d valid bytes" r.valid_bytes);
            Ok r
        | exception Unix.Unix_error (e, _, _) ->
            Error (Validate.Io_error { path = p; reason = Unix.error_message e })
      end
      else Ok r

let open_channel p =
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 p with
  | exception Sys_error reason -> Error (Validate.Io_error { path = p; reason })
  | oc -> Ok oc

let open_writer ?(fault = Fault.none) ?(sync = true) ~dir ~next_seq () =
  if next_seq < 1 then invalid_arg "Journal.open_writer: next_seq must be >= 1";
  match open_channel (path ~dir) with
  | Error _ as e -> e
  | Ok oc -> Ok { dir; sync; fault; oc = Some oc; seq = next_seq - 1 }

let channel t =
  match t.oc with
  | Some oc -> Ok oc
  | None ->
      Error
        (Validate.Io_error { path = path ~dir:t.dir; reason = "journal closed" })

let flush_sync t oc =
  flush oc;
  if t.sync then Unix.fsync (Unix.descr_of_out_channel oc)

let append t ~i ~delta =
  match channel t with
  | Error _ as e -> e
  | Ok oc ->
      if Fault.io_fails t.fault then
        Error
          (Validate.Io_error
             {
               path = path ~dir:t.dir;
               reason = "injected transient I/O failure";
             })
      else begin
        let seq = t.seq + 1 in
        let line = encode { seq; i; delta } in
        match Fault.torn_prefix t.fault line with
        | Some prefix ->
            (* Simulated kill mid-append: partial bytes reach the disk
               and the process dies; replay truncates here. *)
            output_string oc prefix;
            flush oc;
            raise (Fault.Injected Fault.Torn_write)
        | None -> (
            let line =
              match Fault.flip_bit t.fault line with
              | Some corrupted -> corrupted
              | None -> line
            in
            match
              output_string oc line;
              flush_sync t oc
            with
            | () ->
                t.seq <- seq;
                Ok seq
            | exception e ->
                Error
                  (Validate.Io_error
                     { path = path ~dir:t.dir; reason = Printexc.to_string e }))
      end

let rotate t ~keep_after =
  match channel t with
  | Error _ as e -> e
  | Ok oc -> (
      match replay ~since:keep_after ~dir:t.dir () with
      | Error _ as e -> e
      | Ok { records; _ } -> (
          let p = path ~dir:t.dir in
          let tmp = p ^ ".tmp" in
          let write () =
            let out = open_out_bin tmp in
            Fun.protect
              ~finally:(fun () -> close_out_noerr out)
              (fun () ->
                List.iter (fun r -> output_string out (encode r)) records;
                flush out;
                if t.sync then Unix.fsync (Unix.descr_of_out_channel out))
          in
          match
            write ();
            Sys.rename tmp p
          with
          | exception e ->
              Error
                (Validate.Io_error { path = p; reason = Printexc.to_string e })
          | () -> (
              close_out_noerr oc;
              t.oc <- None;
              match open_channel p with
              | Error _ as e -> e
              | Ok oc ->
                  t.oc <- Some oc;
                  Log.debug (fun m ->
                      m "rotated: kept %d records after seq %d"
                        (List.length records) keep_after);
                  Ok (List.length records))))

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
      (try flush_sync t oc with _ -> ());
      close_out_noerr oc;
      t.oc <- None

let abandon t =
  (* Simulated process death: drop the descriptor without flushing
     anything the OS has not already seen. *)
  match t.oc with
  | None -> ()
  | Some oc ->
      close_out_noerr oc;
      t.oc <- None
