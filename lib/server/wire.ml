(* Versioned wire protocol: binary frames plus a line-oriented text
   mode, sharing one request/reply vocabulary.

   Binary frame layout (all integers big-endian):

     magic   4 bytes  "WSYN"
     version 1 byte   (currently 1)
     kind    1 byte   (request kinds 0x01..; reply kinds 0x81..)
     length  4 bytes  payload byte count
     payload length bytes
     crc     4 bytes  CRC-32 over version..payload inclusive

   The CRC covers everything after the magic so a flipped bit anywhere
   in the header or payload is caught, while the magic itself doubles
   as the binary/text mode discriminator (no legal text command starts
   with 'W'). Decoding is strict: an unknown version, unknown kind,
   oversized length or CRC mismatch is [`Corrupt], never a guess. *)

module Crc32 = Wavesyn_util.Crc32
module Sealed = Wavesyn_util.Sealed
module Quantiles = Wavesyn_aqp.Quantiles

type error_code =
  | Bad_request
  | Out_of_range
  | Unanswerable
  | Shutting_down
  | Internal

type request =
  | Ping
  | Point of int
  | Range of { lo : int; hi : int }
  | Quantile of float
  | Stats
  | Batch of request list
  | Shutdown
  | Sync of { since : int; max : int }
  | Handoff
  | Update of { i : int; delta : float }
  | Ingest of (int * float) list
  | Retier of int

type ship_body =
  | Ship_none
  | Ship_records of string
  | Ship_snapshot of string

type reply =
  | Pong
  | Value of float
  | Quantile_pos of int
  | Stats_text of string
  | Overload of { bound : int; depth : int; tier : string }
  | Bye
  | Error of { code : error_code; message : string }
  | Ship of {
      last_seq : int;
      complete : bool;
      manifest : string;
      body : ship_body;
    }
  | Handoff_ack of { seq : int; role : string }
  | Acked of { seq : int }

type frame = Req of request | Rep of reply

type decoded =
  [ `Frame of frame * int | `Incomplete | `Corrupt of string ]

let version = 1
let magic = "WSYN"
let max_payload = 1 lsl 20

let error_code_name = function
  | Bad_request -> "bad-request"
  | Out_of_range -> "out-of-range"
  | Unanswerable -> "unanswerable"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let error_code_byte = function
  | Bad_request -> 1
  | Out_of_range -> 2
  | Unanswerable -> 3
  | Shutting_down -> 4
  | Internal -> 5

let error_code_of_byte = function
  | 1 -> Some Bad_request
  | 2 -> Some Out_of_range
  | 3 -> Some Unanswerable
  | 4 -> Some Shutting_down
  | 5 -> Some Internal
  | _ -> None

(* --- payload primitives --- *)

let put_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)
let set_i64 b pos v = Bytes.set_int64_be b pos (Int64.of_int v)
let set_f64 b pos v = Bytes.set_int64_be b pos (Int64.bits_of_float v)

(* A length-prefixed string at [pos]; the offset past it. *)
let set_str b pos s =
  let len = String.length s in
  Bytes.set_int32_be b pos (Int32.of_int len);
  Bytes.blit_string s 0 b (pos + 4) len;
  pos + 4 + len

exception Corrupt_payload of string

(* A word outside OCaml's 63-bit [int] range is refused rather than
   wrapped, so every decoded integer re-encodes to the bytes it came
   from. *)
let get_i64 s pos =
  let v = String.get_int64_be s pos in
  if not (Int64.equal (Int64.of_int (Int64.to_int v)) v) then
    raise (Corrupt_payload "integer out of range");
  Int64.to_int v

let get_f64 s pos = Int64.float_of_bits (String.get_int64_be s pos)

(* --- update storms ---

   An INGEST payload is a counted sealed block (Wavesyn_util.Sealed)
   with the journal's SHIP layout: a [storm <count>] header, one sealed
   [<cell> <delta>] line per delta and an [end] trailer. The same bytes
   could be journaled or forwarded verbatim, and a flipped bit anywhere
   is caught twice (frame CRC and artifact CRC). *)

let encode_storm deltas =
  Sealed.counted ~trailer:"end"
    ~header:(Printf.sprintf "storm %d")
    (List.map (fun (i, delta) -> Printf.sprintf "%d %h" i delta) deltas)

let parse_delta body =
  match String.split_on_char ' ' body with
  | [ i; delta ] -> (
      match (int_of_string_opt i, float_of_string_opt delta) with
      | Some i, Some delta when i >= 0 -> Some (i, delta)
      | _ -> None)
  | _ -> None

let decode_storm s =
  let header h =
    match String.split_on_char ' ' h with
    | [ "storm"; count ] ->
        Option.map (fun c -> ((), c)) (int_of_string_opt count)
    | _ -> None
  in
  match Sealed.open_counted ~trailer:"end" ~header ~line:parse_delta s with
  | Ok ((), deltas) -> Ok deltas
  | Stdlib.Error reason -> Stdlib.Error ("storm: " ^ reason)

(* --- request encoding --- *)

let request_kind = function
  | Ping -> 0x01
  | Point _ -> 0x02
  | Range _ -> 0x03
  | Quantile _ -> 0x04
  | Stats -> 0x05
  | Batch _ -> 0x06
  | Shutdown -> 0x07
  | Sync _ -> 0x08
  | Handoff -> 0x09
  | Update _ -> 0x0A
  | Ingest _ -> 0x0B
  | Retier _ -> 0x0C

let reply_kind = function
  | Pong -> 0x81
  | Value _ -> 0x82
  | Quantile_pos _ -> 0x83
  | Stats_text _ -> 0x84
  | Overload _ -> 0x85
  | Bye -> 0x86
  | Error _ -> 0x87
  | Ship _ -> 0x88
  | Handoff_ack _ -> 0x89
  | Acked _ -> 0x8A

let describe_request r =
  let rec go = function
    | Ping -> "PING"
    | Point i -> Printf.sprintf "POINT %d" i
    | Range { lo; hi } -> Printf.sprintf "RANGE %d %d" lo hi
    | Quantile q -> Printf.sprintf "QUANTILE %g" q
    | Stats -> "STATS"
    | Batch reqs ->
        Printf.sprintf "BATCH[%s]" (String.concat "; " (List.map go reqs))
    | Shutdown -> "SHUTDOWN"
    | Sync { since; max } -> Printf.sprintf "SYNC since=%d max=%d" since max
    | Handoff -> "HANDOFF"
    | Update { i; delta } -> Printf.sprintf "UPDATE %d %g" i delta
    | Ingest deltas ->
        (* Storm bodies are deliberately not rendered: transcripts must
           stay stable however the sealed artifact is laid out. *)
        Printf.sprintf "INGEST n=%d" (List.length deltas)
    | Retier level -> Printf.sprintf "RETIER %d" level
  in
  go r

(* The requests that may ride inside a BATCH: reads, STATS and point
   writes. The encoder refuses, the decoder rejects and the server
   answers as illegal every other entry. *)
let batchable = function
  | Ping | Point _ | Range _ | Quantile _ | Stats | Update _ -> true
  | Batch _ | Shutdown | Sync _ | Handoff | Ingest _ | Retier _ -> false

(* Read keys: RANGE and QUANTILE compare field by field (a quantile by
   [Float.equal], so 0.0 and -0.0 are one key, as are all NaNs),
   everything else structurally. The hash is the fields packed into one
   int, unmixed: {!Wavesyn_adaptive.Rcache} mixes it. A quantile's int
   drops the float's top bit, its sign, so -0.0 hashes as 0.0. *)
let read_hash = function
  | Range { lo; hi } -> (lo lsl 31) lxor hi
  | Quantile q ->
      if Float.is_nan q then 1 else Int64.to_int (Int64.bits_of_float q)
  | r -> Hashtbl.hash r

let read_equal a b =
  match (a, b) with
  | Range r, Range s -> r.lo = s.lo && r.hi = s.hi
  | Quantile p, Quantile q -> Float.equal p q
  | _ -> a = b

(* Batch entries are a kind byte plus that kind's fixed-size payload. *)
let rec put_request_payload buf = function
  | Ping | Stats | Shutdown | Handoff -> ()
  | Point i -> put_i64 buf i
  | Range { lo; hi } ->
      put_i64 buf lo;
      put_i64 buf hi
  | Quantile q -> put_f64 buf q
  | Sync { since; max } ->
      put_i64 buf since;
      put_i64 buf max
  | Update { i; delta } ->
      put_i64 buf i;
      put_f64 buf delta
  | Ingest deltas -> Buffer.add_string buf (encode_storm deltas)
  | Retier level -> put_i64 buf level
  | Batch reqs ->
      put_i64 buf (List.length reqs);
      List.iter
        (fun r ->
          if not (batchable r) then
            invalid_arg
              (match r with
              | Batch _ -> "Wire: nested BATCH"
              | r ->
                  let verb = String.split_on_char ' ' (describe_request r) in
                  "Wire: " ^ List.hd verb ^ " inside BATCH");
          Buffer.add_uint8 buf (request_kind r);
          put_request_payload buf r)
        reqs

let ship_body_kind = function
  | Ship_none -> 0
  | Ship_records _ -> 1
  | Ship_snapshot _ -> 2

let ship_body_bytes = function
  | Ship_none -> ""
  | Ship_records s | Ship_snapshot s -> s

let reply_payload_length = function
  | Pong | Bye -> 0
  | Value _ | Quantile_pos _ | Acked _ -> 8
  | Stats_text s -> String.length s
  | Overload { tier; _ } -> 20 + String.length tier
  | Error { message; _ } -> 1 + String.length message
  | Ship { manifest; body; _ } ->
      18 + String.length manifest + String.length (ship_body_bytes body)
  | Handoff_ack { role; _ } -> 12 + String.length role

(* Exactly [reply_payload_length] bytes at [pos]. *)
let set_reply_payload b pos = function
  | Pong | Bye -> ()
  | Value v -> set_f64 b pos v
  | Quantile_pos i -> set_i64 b pos i
  | Stats_text s -> Bytes.blit_string s 0 b pos (String.length s)
  | Overload { bound; depth; tier } ->
      set_i64 b pos bound;
      set_i64 b (pos + 8) depth;
      ignore (set_str b (pos + 16) tier)
  | Error { code; message } ->
      Bytes.set_uint8 b pos (error_code_byte code);
      Bytes.blit_string message 0 b (pos + 1) (String.length message)
  | Ship { last_seq; complete; manifest; body } ->
      set_i64 b pos last_seq;
      Bytes.set_uint8 b (pos + 8) (if complete then 1 else 0);
      Bytes.set_uint8 b (pos + 9) (ship_body_kind body);
      ignore (set_str b (set_str b (pos + 10) manifest) (ship_body_bytes body))
  | Handoff_ack { seq; role } ->
      set_i64 b pos seq;
      ignore (set_str b (pos + 8) role)
  | Acked { seq } -> set_i64 b pos seq

(* A frame is laid out in its final bytes: the header, the payload
   written (or blitted) after it, then the CRC taken in place. *)
let set_header b pos ~kind ~plen =
  Bytes.blit_string magic 0 b pos 4;
  Bytes.set_uint8 b (pos + 4) version;
  Bytes.set_uint8 b (pos + 5) kind;
  Bytes.set_int32_be b (pos + 6) (Int32.of_int plen)

let seal b pos ~plen =
  let crc = Crc32.update_bytes 0 b ~pos:(pos + 4) ~len:(6 + plen) in
  Bytes.set_int32_be b (pos + 10 + plen) (Int32.of_int crc);
  pos + 14 + plen

let encode_request r =
  let buf = Buffer.create 32 in
  put_request_payload buf r;
  let plen = Buffer.length buf in
  let b = Bytes.create (14 + plen) in
  set_header b 0 ~kind:(request_kind r) ~plen;
  Buffer.blit buf 0 b 10 plen;
  ignore (seal b 0 ~plen);
  Bytes.unsafe_to_string b

let reply_frame_length r = 14 + reply_payload_length r

let frame_reply b ~pos r =
  let plen = reply_payload_length r in
  set_header b pos ~kind:(reply_kind r) ~plen;
  set_reply_payload b (pos + 10) r;
  seal b pos ~plen

let encode_reply r =
  let b = Bytes.create (reply_frame_length r) in
  ignore (frame_reply b ~pos:0 r);
  Bytes.unsafe_to_string b

(* --- decoding --- *)

(* Lengths are checked before any field is read, so a short payload is
   [`Corrupt], never an out-of-bounds read. *)
let need payload pos k =
  if pos + k > String.length payload then
    raise (Corrupt_payload "truncated payload")

let exact payload k =
  if String.length payload <> k then
    raise (Corrupt_payload "payload length mismatch")

(* Claim the next [k] payload bytes: their offset, leaving [at] past
   them. *)
let advance payload at k =
  let pos = !at in
  need payload pos k;
  at := pos + k;
  pos

(* The payload decoder of every fixed-size request kind, shared by
   top-level frames and BATCH entries: the request whose payload starts
   at [!at], leaving [at] just past it. *)
let fixed_request payload at = function
  | 0x01 -> Ping
  | 0x02 -> Point (get_i64 payload (advance payload at 8))
  | 0x03 ->
      let pos = advance payload at 16 in
      Range { lo = get_i64 payload pos; hi = get_i64 payload (pos + 8) }
  | 0x04 -> Quantile (get_f64 payload (advance payload at 8))
  | 0x05 -> Stats
  | 0x07 -> Shutdown
  | 0x08 ->
      let pos = advance payload at 16 in
      Sync { since = get_i64 payload pos; max = get_i64 payload (pos + 8) }
  | 0x09 -> Handoff
  | 0x0A ->
      let pos = advance payload at 16 in
      Update { i = get_i64 payload pos; delta = get_f64 payload (pos + 8) }
  | 0x0C -> Retier (get_i64 payload (advance payload at 8))
  | k -> raise (Corrupt_payload (Printf.sprintf "bad request kind 0x%02x" k))

let decode_request ~kind payload =
  let at = ref 0 in
  let r =
    match kind with
    | 0x06 ->
        let count = get_i64 payload (advance payload at 8) in
        if count < 0 || count > max_payload then
          raise (Corrupt_payload "bad batch count");
        Batch
          (List.init count (fun _ ->
               let kind = Char.code payload.[advance payload at 1] in
               let r = fixed_request payload at kind in
               if batchable r then r
               else
                 raise
                   (Corrupt_payload
                      (Printf.sprintf "bad batch entry kind 0x%02x" kind))))
    | 0x0B -> (
        match decode_storm payload with
        | Ok deltas ->
            at := String.length payload;
            Ingest deltas
        | Stdlib.Error reason -> raise (Corrupt_payload reason))
    | kind -> fixed_request payload at kind
  in
  exact payload !at;
  r

(* A [put_str] field at [!at]. *)
let get_str payload at =
  let len = Int32.to_int (String.get_int32_be payload (advance payload at 4)) in
  if len < 0 then raise (Corrupt_payload "bad string length");
  String.sub payload (advance payload at len) len

(* Fixed-size replies are read in place; the string-carrying ones walk
   a cursor. *)
let decode_reply ~kind payload =
  match kind with
  | 0x81 -> exact payload 0; Pong
  | 0x82 -> exact payload 8; Value (get_f64 payload 0)
  | 0x83 -> exact payload 8; Quantile_pos (get_i64 payload 0)
  | 0x84 -> Stats_text payload
  | 0x85 ->
      let at = ref 16 in
      need payload 0 16;
      let tier = get_str payload at in
      exact payload !at;
      Overload { bound = get_i64 payload 0; depth = get_i64 payload 8; tier }
  | 0x86 -> exact payload 0; Bye
  | 0x87 -> (
      need payload 0 1;
      match error_code_of_byte (Char.code payload.[0]) with
      | Some code ->
          let message = String.sub payload 1 (String.length payload - 1) in
          Error { code; message }
      | None -> raise (Corrupt_payload "unknown error code"))
  | 0x88 ->
      need payload 0 10;
      if Char.code payload.[8] > 1 then
        raise (Corrupt_payload "bad ship complete flag");
      let at = ref 10 in
      let manifest = get_str payload at in
      let body =
        match (Char.code payload.[9], get_str payload at) with
        | 0, "" -> Ship_none
        | 1, s -> Ship_records s
        | 2, s -> Ship_snapshot s
        | _ -> raise (Corrupt_payload "bad ship body kind")
      in
      exact payload !at;
      let complete = payload.[8] = '\001' in
      Ship { last_seq = get_i64 payload 0; complete; manifest; body }
  | 0x89 ->
      let at = ref 8 in
      need payload 0 8;
      let role = get_str payload at in
      exact payload !at;
      Handoff_ack { seq = get_i64 payload 0; role }
  | 0x8A -> exact payload 8; Acked { seq = get_i64 payload 0 }
  | k -> raise (Corrupt_payload (Printf.sprintf "unknown reply kind 0x%02x" k))

let magic_word = String.get_int32_be magic 0

let decode buf ~pos ~len : decoded =
  let avail = len - pos in
  if avail < 4 then `Incomplete
  else if Bytes.get_int32_be buf pos <> magic_word then `Corrupt "bad magic"
  else if avail < 14 then `Incomplete
  else begin
    let v = Bytes.get_uint8 buf (pos + 4) in
    let kind = Bytes.get_uint8 buf (pos + 5) in
    let plen = Int32.to_int (Bytes.get_int32_be buf (pos + 6)) in
    if v <> version then `Corrupt (Printf.sprintf "unknown version %d" v)
    else if plen < 0 || plen > max_payload then
      `Corrupt (Printf.sprintf "payload length %d out of bounds" plen)
    else if avail < 14 + plen then `Incomplete
    else begin
      let crc =
        Int32.to_int (Bytes.get_int32_be buf (pos + 10 + plen)) land 0xFFFFFFFF
      in
      if crc <> Crc32.update_bytes 0 buf ~pos:(pos + 4) ~len:(6 + plen) then
        `Corrupt "CRC mismatch"
      else begin
        let payload = Bytes.sub_string buf (pos + 10) plen in
        match
          if kind land 0x80 = 0 then Req (decode_request ~kind payload)
          else Rep (decode_reply ~kind payload)
        with
        | frame -> `Frame (frame, pos + 14 + plen)
        | exception Corrupt_payload reason -> `Corrupt reason
      end
    end
  end

(* --- text mode --- *)

let describe_reply = function
  | Pong -> "PONG"
  | Value v -> Printf.sprintf "VALUE %g" v
  | Quantile_pos i -> Printf.sprintf "QPOS %d" i
  | Stats_text _ -> "STATS-TEXT"
  | Overload { bound; depth; tier } ->
      Printf.sprintf "OVERLOAD bound=%d depth=%d tier=%s" bound depth tier
  | Bye -> "BYE"
  | Error { code; message } ->
      Printf.sprintf "ERROR %s %s" (error_code_name code) message
  | Ship { last_seq; complete; body; _ } ->
      (* Payload bytes are deliberately not rendered: transcripts must
         stay stable across journal layouts. *)
      Printf.sprintf "SHIP last_seq=%d complete=%s body=%s" last_seq
        (if complete then "yes" else "no")
        (match body with
        | Ship_none -> "none"
        | Ship_records _ -> "records"
        | Ship_snapshot _ -> "snapshot")
  | Handoff_ack { seq; role } ->
      Printf.sprintf "HANDOFF-ACK seq=%d role=%s" seq role
  | Acked { seq } -> Printf.sprintf "ACKED seq=%d" seq

let parse_text_request line =
  let line = String.trim line in
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let int_of w =
    match int_of_string_opt w with
    | Some i -> Ok i
    | None -> Stdlib.Error (Printf.sprintf "not an integer: %s" w)
  in
  match words with
  | [ "PING" ] -> Ok Ping
  | [ "POINT"; i ] -> Result.map (fun i -> Point i) (int_of i)
  | [ "RANGE"; lo; hi ] ->
      Result.bind (int_of lo) (fun lo ->
          Result.map (fun hi -> Range { lo; hi }) (int_of hi))
  | [ "QUANTILE"; q ] -> (
      match float_of_string_opt q with
      | Some q -> Ok (Quantile q)
      | None -> Stdlib.Error (Printf.sprintf "not a float: %s" q))
  | [ "STATS" ] -> Ok Stats
  | [ "SHUTDOWN" ] -> Ok Shutdown
  (* HANDOFF is reachable from text mode so an operator can promote a
     follower with netcat; SYNC stays binary-only (its SHIP reply
     carries bulk payloads a line protocol cannot frame). UPDATE is
     text-reachable for the same operator-with-netcat reason; INGEST
     storms stay binary-only (their sealed artifact is multi-line). *)
  | [ "HANDOFF" ] -> Ok Handoff
  | [ "UPDATE"; i; delta ] -> (
      match (int_of_string_opt i, float_of_string_opt delta) with
      | Some i, Some delta -> Ok (Update { i; delta })
      | None, _ -> Stdlib.Error (Printf.sprintf "not an integer: %s" i)
      | _, None -> Stdlib.Error (Printf.sprintf "not a float: %s" delta))
  | [] -> Stdlib.Error "empty command"
  | verb :: _ -> Stdlib.Error (Printf.sprintf "unknown command %s" verb)

(* Text replies are single lines except STATS, whose table body is
   followed by an [END] terminator so a line-oriented client knows
   where the multi-line reply stops. *)
let render_text_reply = function
  | Stats_text s ->
      let s = if s <> "" && s.[String.length s - 1] <> '\n' then s ^ "\n" else s in
      s ^ "END\n"
  | r -> describe_reply r ^ "\n"

(* --- refusals every backend shares --- *)

let point_refusal ~n i =
  if i < 0 || i >= n then
    Some
      (Error
         {
           code = Out_of_range;
           message = Printf.sprintf "cell %d outside domain [0, %d]" i (n - 1);
         })
  else None

let range_refusal ~n ~lo ~hi =
  if lo < 0 || hi >= n || lo > hi then
    Some
      (Error
         {
           code = Out_of_range;
           message =
             Printf.sprintf "range [%d, %d] invalid over domain [0, %d]" lo hi
               (n - 1);
         })
  else None

let of_quantile = function
  | Ok pos -> Quantile_pos pos
  | Stdlib.Error r ->
      let code =
        match r with
        | Quantiles.Q_outside -> Out_of_range
        | Quantiles.Total_not_positive -> Unanswerable
      in
      Error { code; message = Quantiles.refusal_message r }

let storm_refusal ~n deltas =
  match
    List.find_opt
      (fun (i, d) -> i < 0 || i >= n || not (Float.is_finite d))
      deltas
  with
  | None -> None
  | Some (i, _) when i < 0 || i >= n ->
      Some
        (Error
           {
             code = Out_of_range;
             message = Printf.sprintf "%d: cell out of domain [0, %d)" i n;
           })
  | Some (_, d) ->
      Some
        (Error
           {
             code = Bad_request;
             message = Printf.sprintf "%h: not finite (NaN/Inf)" d;
           })
