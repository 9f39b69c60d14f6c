(* Per-connection mechanics: nonblocking reads into a growable buffer,
   frame/line extraction, mode detection, buffered writes.

   The first byte of a connection picks the mode: the binary magic
   starts with 'W', no text verb does. A connection never changes mode.
   Reply bytes are queued whole and flushed as the socket drains, so a
   slow reader never blocks the serving loop; an overloaded server
   replies (with OVERLOAD frames) instead of dropping the peer. *)

module Fault = Wavesyn_robust.Fault

type mode = Unknown | Binary | Text

type event =
  | Request of Wire.request
  | Bad_line of string  (* text-mode parse failure, connection survives *)
  | Corrupt of string (* binary framing failure, connection must close *)

type t = {
  fd : Unix.file_descr;
  id : int;
  fault : Fault.t;
  mutable mode : mode;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable wbuf : string list; (* pending output, reversed *)
  mutable wpending : string; (* partially written head *)
  mutable woff : int;
  mutable last_ms : float;
  mutable closing : bool; (* close once the write queue drains *)
  mutable dead : bool;
}

let chunk = 4096

let create ?(fault = Fault.none) ~id ~now_ms fd =
  Unix.set_nonblock fd;
  {
    fd;
    id;
    fault;
    mode = Unknown;
    rbuf = Bytes.create chunk;
    rlen = 0;
    wbuf = [];
    wpending = "";
    woff = 0;
    last_ms = now_ms;
    closing = false;
    dead = false;
  }

let fd t = t.fd
let id t = t.id
let mark_closing t = t.closing <- true
let closing t = t.closing

let idle_exceeded t ~now_ms ~idle_ms = now_ms -. t.last_ms > idle_ms

let close t =
  if not t.dead then begin
    t.dead <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* --- reading --- *)

let ensure_room t =
  if t.rlen = Bytes.length t.rbuf then begin
    let bigger = Bytes.create (2 * Bytes.length t.rbuf) in
    Bytes.blit t.rbuf 0 bigger 0 t.rlen;
    t.rbuf <- bigger
  end

let consume t upto =
  if upto > 0 then begin
    Bytes.blit t.rbuf upto t.rbuf 0 (t.rlen - upto);
    t.rlen <- t.rlen - upto
  end

(* Oversized text lines and binary buffers are framing errors, not a
   reason to buffer without bound. *)
let max_buffered = Wire.max_payload + 64

let parse_binary t events =
  let rec go pos =
    match Wire.decode t.rbuf ~pos ~len:t.rlen with
    | `Frame (Wire.Req r, next) ->
        events := Request r :: !events;
        go next
    | `Frame (Wire.Rep _, _) ->
        events := Corrupt "reply frame sent to server" :: !events;
        pos
    | `Incomplete ->
        if t.rlen - pos > max_buffered then begin
          events := Corrupt "frame exceeds buffer bound" :: !events;
          t.rlen <- pos
        end;
        pos
    | `Corrupt reason ->
        events := Corrupt reason :: !events;
        pos
  in
  consume t (go 0)

let parse_text t events =
  let rec go from =
    match Bytes.index_from_opt t.rbuf from '\n' with
    | Some nl when nl < t.rlen ->
        let line = Bytes.sub_string t.rbuf from (nl - from) in
        (match Wire.parse_text_request line with
        | Ok r -> events := Request r :: !events
        | Error reason -> events := Bad_line reason :: !events);
        go (nl + 1)
    | _ ->
        if t.rlen - from > max_buffered then begin
          events := Corrupt "text line exceeds buffer bound" :: !events;
          t.rlen <- from
        end;
        from
  in
  consume t (go 0)

let parse t events =
  (match t.mode with
  | Unknown when t.rlen > 0 ->
      t.mode <- (if Bytes.get t.rbuf 0 = Wire.magic.[0] then Binary else Text)
  | _ -> ());
  match t.mode with
  | Unknown -> ()
  | Binary -> parse_binary t events
  | Text -> parse_text t events

let read t ~now_ms =
  (* Conn_drop severs the flow before any byte is looked at, as an LB
     reset or a peer kill would. The pending socket bytes are lost with
     the connection. *)
  if Fault.fires t.fault Fault.Conn_drop then ([], `Eof)
  else begin
    let events = ref [] in
    (* A read that leaves room in the buffer took every byte the socket
       held, so draining stops there instead of paying a read that
       fails with EAGAIN; bytes arriving later make select report the
       connection again next round. A full read keeps draining. *)
    let rec drain () =
      ensure_room t;
      let room = Bytes.length t.rbuf - t.rlen in
      match Unix.read t.fd t.rbuf t.rlen room with
      | 0 -> `Eof
      | k ->
          if Fault.fires t.fault Fault.Blackhole then
            (* The bytes vanish: not buffered, not parsed, never
               answered — and the idle stamp is not refreshed, so the
               reaper eventually collects the silent connection. Only a
               client read deadline escapes sooner. *)
            if k < room then `More else drain ()
          else begin
            t.rlen <- t.rlen + k;
            t.last_ms <- now_ms;
            parse t events;
            if List.exists (function Corrupt _ -> true | _ -> false) !events
               || k < room
            then `More
            else drain ()
          end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> `More
      | exception Unix.Unix_error (EINTR, _, _) -> drain ()
      | exception Unix.Unix_error _ ->
          (* ECONNRESET and friends — a TCP peer aborting mid-frame —
             end the connection like a clean close; partial buffered
             bytes die with it. *)
          `Eof
    in
    let status = drain () in
    (List.rev !events, status)
  end

(* --- writing --- *)

let queue_reply t reply =
  let bytes =
    match t.mode with
    | Text -> Wire.render_text_reply reply
    | Binary | Unknown -> Wire.encode_reply reply
  in
  t.wbuf <- bytes :: t.wbuf

let wants_write t =
  t.wpending <> "" || t.wbuf <> []

let rec flush t =
  if t.wpending = "" then
    if t.wbuf = [] then `Drained
    else begin
      (* Coalesce the queued chunks into one pending string. The
         connection fault points draw here, once per coalesced burst,
         in a fixed order (delay, truncate, corrupt) so a chaos run is
         reproducible from the plan's seed. *)
      let pending = String.concat "" (List.rev t.wbuf) in
      t.wbuf <- [];
      t.woff <- 0;
      if Fault.fires t.fault Fault.Conn_delay then begin
        (* Deferred: the bytes stay queued and go out on the next
           writable round — latency without reordering. *)
        t.wpending <- pending;
        `More
      end
      else
        match Fault.conn_truncate t.fault pending with
        | Some prefix ->
            (* A strict prefix reaches the wire, then the connection
               dies — the network's torn write. *)
            (try
               ignore
                 (Unix.write_substring t.fd prefix 0 (String.length prefix))
             with Unix.Unix_error _ -> ());
            t.wpending <- "";
            `Peer_gone
        | None ->
            t.wpending <-
              (match Fault.corrupt_frame t.fault pending with
              | Some corrupted -> corrupted
              | None -> pending);
            flush t
    end
  else
    let len = String.length t.wpending in
    let rec go () =
      if t.woff >= len then begin
        t.wpending <- "";
        t.woff <- 0;
        flush t
      end
      else
        match
          Unix.write_substring t.fd t.wpending t.woff (len - t.woff)
        with
        | k ->
            t.woff <- t.woff + k;
            go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
          ->
            `More
        | exception Unix.Unix_error _ -> `Peer_gone
    in
    go ()
