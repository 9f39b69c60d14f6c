(* Per-connection mechanics: nonblocking reads into a growable buffer,
   frame/line extraction, mode detection, buffered writes.

   The first byte of a connection picks the mode: the binary magic
   starts with 'W', no text verb does. A connection never changes mode.
   Replies are framed straight into the connection's output buffer and
   flushed as the socket drains, so a slow reader never blocks the
   serving loop; an overloaded server replies (with OVERLOAD frames)
   instead of dropping the peer. *)

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
  mutable obuf : Bytes.t;
  mutable olen : int;  (* obuf[0, olen) is queued output *)
  mutable burst : int;
      (* obuf[0, burst) is the burst the write fault points drew on
         (0: none in flight); replies queued since wait behind it *)
  mutable ooff : int;  (* bytes of the burst already written *)
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
    obuf = Bytes.create chunk;
    olen = 0;
    burst = 0;
    ooff = 0;
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

let reserve t k =
  if t.olen + k > Bytes.length t.obuf then begin
    let bigger = Bytes.create (max (2 * Bytes.length t.obuf) (t.olen + k)) in
    Bytes.blit t.obuf 0 bigger 0 t.olen;
    t.obuf <- bigger
  end

let queue_reply t reply =
  match t.mode with
  | Text ->
      let s = Wire.render_text_reply reply in
      reserve t (String.length s);
      Bytes.blit_string s 0 t.obuf t.olen (String.length s);
      t.olen <- t.olen + String.length s
  | Binary | Unknown ->
      reserve t (Wire.reply_frame_length reply);
      t.olen <- Wire.frame_reply t.obuf ~pos:t.olen reply

let wants_write t = t.olen > 0

(* The burst is out: what was queued behind it moves to the front, and
   a buffer a large reply grew is given back once empty. *)
let burst_done t =
  let rest = t.olen - t.burst in
  Bytes.blit t.obuf t.burst t.obuf 0 rest;
  t.olen <- rest;
  t.burst <- 0;
  t.ooff <- 0;
  if rest = 0 && Bytes.length t.obuf > 16 * chunk then
    t.obuf <- Bytes.create chunk

let rec flush t =
  if t.burst = 0 then
    if t.olen = 0 then `Drained
    else begin
      (* Everything queued is one burst. The connection fault points
         draw here, once per burst, in a fixed order (delay, truncate,
         corrupt) so a chaos run is reproducible from the plan's seed;
         an unarmed plan draws nothing, so no copy of the bytes is
         made for it. *)
      t.burst <- t.olen;
      if Fault.fires t.fault Fault.Conn_delay then
        (* Deferred: the bytes stay queued and go out on the next
           writable round — latency without reordering. *)
        `More
      else if not (Fault.armed t.fault) then flush t
      else
        let pending = Bytes.sub_string t.obuf 0 t.burst in
        match Fault.conn_truncate t.fault pending with
        | Some prefix ->
            (* A strict prefix reaches the wire, then the connection
               dies — the network's torn write. *)
            (try
               ignore
                 (Unix.write_substring t.fd prefix 0 (String.length prefix))
             with Unix.Unix_error _ -> ());
            t.olen <- 0;
            t.burst <- 0;
            `Peer_gone
        | None ->
            Option.iter
              (fun corrupted -> Bytes.blit_string corrupted 0 t.obuf 0 t.burst)
              (Fault.corrupt_frame t.fault pending);
            flush t
    end
  else
    let rec go () =
      if t.ooff >= t.burst then begin
        burst_done t;
        flush t
      end
      else
        match Unix.write t.fd t.obuf t.ooff (t.burst - t.ooff) with
        | k ->
            t.ooff <- t.ooff + k;
            go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
          ->
            `More
        | exception Unix.Unix_error _ -> `Peer_gone
    in
    go ()
