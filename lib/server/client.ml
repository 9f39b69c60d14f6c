(* Blocking client for the query server's binary protocol: connect
   with a bounded retry (the server may still be binding its socket or
   port), send one frame, read exactly the replies that frame
   commands. Targets are endpoint strings — a Unix socket path, or
   "tcp:HOST:PORT" for TCP (see Endpoint). *)

module Validate = Wavesyn_robust.Validate
module Deadline = Wavesyn_robust.Deadline
module Retry = Wavesyn_robust.Retry

type t = {
  fd : Unix.file_descr;
  timeout_ms : float option;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
}

(* A nonblocking TCP connect parks the three-way handshake in the
   kernel and returns EINPROGRESS; the socket turns writable when the
   handshake resolves, and SO_ERROR then says how. A handshake that
   never resolves (blackholed SYN) is bounded here rather than by the
   connect-retry deadline, so a single dead target cannot absorb the
   whole retry budget. *)
let handshake_wait_ms = 5_000.

let finish_tcp_handshake fd =
  let deadline = Deadline.now_ms () +. handshake_wait_ms in
  let rec wait () =
    let remaining_s = (deadline -. Deadline.now_ms ()) /. 1000. in
    if remaining_s <= 0. then
      raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
    else
      match Unix.select [] [ fd ] [] remaining_s with
      | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
      | _, _ :: _, _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  match Unix.getsockopt_error fd with
  | None -> ()
  | Some e -> raise (Unix.Unix_error (e, "connect", ""))

let connect ?(wait_ms = 0.) ?timeout_ms target =
  (match timeout_ms with
  | Some ms when ms <= 0. ->
      invalid_arg "Client.connect: timeout_ms must be positive"
  | _ -> ());
  let io_error reason = Error (Validate.Io_error { path = target; reason }) in
  match Endpoint.parse target with
  | Error reason -> io_error reason
  | Ok ep -> (
      match Endpoint.sockaddr ep with
      | Error reason -> io_error reason
      | Ok addr ->
          let deadline = Deadline.now_ms () +. wait_ms in
          (* One seeded backoff schedule covers every retryable
             pre-connection failure: a Unix socket still binding
             (ENOENT/ECONNREFUSED), a TCP listener not yet up
             (ECONNREFUSED), an interrupted or timed-out handshake
             (EINTR/ETIMEDOUT). Deterministic delays, none past the
             caller's [wait_ms]. A Unix socket is a local file whose
             appearance costs nothing to poll, so its delay is capped
             at 1 ms: a server that binds late is found within a
             millisecond, not one backoff step later. *)
          let policy =
            Retry.policy ~base_ms:2. ~factor:2. ~max_ms:50. ~seed:0x1009 ()
          in
          let delay_ms attempt =
            let d = Retry.delay_ms policy ~attempt in
            match ep with
            | Endpoint.Unix_path _ -> Float.min 1. d
            | Endpoint.Tcp _ -> d
          in
          let rec go attempt =
            let fd = Unix.socket (Endpoint.domain ep) Unix.SOCK_STREAM 0 in
            match
              (match ep with
              | Endpoint.Unix_path _ -> Unix.connect fd addr
              | Endpoint.Tcp _ ->
                  Unix.set_nonblock fd;
                  (try Unix.connect fd addr
                   with
                  | Unix.Unix_error
                      ( ( Unix.EINPROGRESS | Unix.EINTR | Unix.EAGAIN
                        | Unix.EWOULDBLOCK ),
                        _,
                        _ ) ->
                      finish_tcp_handshake fd);
                  Unix.clear_nonblock fd;
                  (* Request/reply framing must not sit out a Nagle
                     delay: every frame is small and latency-bound. *)
                  Unix.setsockopt fd Unix.TCP_NODELAY true);
              (* The kernel deadline bounds every blocking read and
                 write on the socket, so a blackholed server surfaces
                 as a structured [Timeout] instead of a hang. *)
              Option.iter
                (fun ms ->
                  Unix.setsockopt_float fd Unix.SO_RCVTIMEO (ms /. 1000.);
                  Unix.setsockopt_float fd Unix.SO_SNDTIMEO (ms /. 1000.))
                timeout_ms
            with
            | () -> Ok { fd; timeout_ms; rbuf = Bytes.create 4096; rlen = 0 }
            | exception Unix.Unix_error (e, _, _) ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                let left_ms = deadline -. Deadline.now_ms () in
                if left_ms > 0. then begin
                  Unix.sleepf (Float.min left_ms (delay_ms attempt) /. 1000.);
                  go (attempt + 1)
                end
                else io_error (Unix.error_message e)
          in
          go 1)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let io_error reason =
  Error (Validate.Io_error { path = "<server socket>"; reason })

(* With a socket deadline armed, EAGAIN means the kernel timer fired,
   not that the socket is nonblocking (it isn't). *)
let timeout t what =
  match t.timeout_ms with
  | Some ms -> Error (Validate.Timeout { what; ms })
  | None -> io_error "spurious EAGAIN on a blocking socket"

let send t frame =
  let len = String.length frame in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write_substring t.fd frame off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          timeout t "server write"
      | exception Unix.Unix_error (e, _, _) ->
          io_error (Unix.error_message e)
  in
  go 0

let send_raw = send

let ensure_room t =
  if t.rlen = Bytes.length t.rbuf then begin
    let bigger = Bytes.create (2 * Bytes.length t.rbuf) in
    Bytes.blit t.rbuf 0 bigger 0 t.rlen;
    t.rbuf <- bigger
  end

let read_reply t =
  let rec go () =
    match Wire.decode t.rbuf ~pos:0 ~len:t.rlen with
    | `Frame (Wire.Rep reply, next) ->
        Bytes.blit t.rbuf next t.rbuf 0 (t.rlen - next);
        t.rlen <- t.rlen - next;
        Ok reply
    | `Frame (Wire.Req _, _) -> io_error "request frame from server"
    | `Corrupt reason -> io_error ("corrupt reply: " ^ reason)
    | `Incomplete -> (
        ensure_room t;
        match
          Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen)
        with
        | 0 -> io_error "server closed the connection"
        | k ->
            t.rlen <- t.rlen + k;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            timeout t "server reply"
        | exception Unix.Unix_error (e, _, _) ->
            io_error (Unix.error_message e))
  in
  go ()

let reply_count = function
  | Wire.Batch reqs -> List.length reqs
  | _ -> 1

let request t req =
  match send t (Wire.encode_request req) with
  | Error _ as e -> e
  | Ok () ->
      let rec gather acc k =
        if k = 0 then Ok (List.rev acc)
        else
          match read_reply t with
          | Ok reply -> gather (reply :: acc) (k - 1)
          | Error _ as e -> e
      in
      gather [] (reply_count req)

let request_one t req =
  match request t req with
  | Ok [ reply ] -> Ok reply
  | Ok _ -> io_error "unexpected reply count"
  | Error _ as e -> e
