(** One client connection of the query server: nonblocking buffered
    reads, frame/line extraction, mode detection, buffered writes.

    The first byte received picks the connection's mode for its whole
    lifetime — the binary magic starts with ['W'], no text verb does.
    Replies are framed straight into a per-connection output buffer
    and flushed as the socket drains, so a
    slow reader never blocks the serving loop, and an overloaded
    server answers (with [OVERLOAD] frames) rather than dropping the
    peer. Timestamps are caller-supplied monotonic milliseconds
    ({!Wavesyn_robust.Deadline.now_ms}), keeping the module free of
    hidden clocks. *)

type t

(** What reading produced, in arrival order. *)
type event =
  | Request of Wire.request  (** a complete, well-formed request *)
  | Bad_line of string
      (** text-mode parse failure; the connection survives *)
  | Corrupt of string
      (** binary framing failure; the connection cannot resync and
          must close after an error reply *)

val create :
  ?fault:Wavesyn_robust.Fault.t ->
  id:int ->
  now_ms:float ->
  Unix.file_descr ->
  t
(** Wrap a freshly accepted descriptor (made nonblocking here).
    [id] is a serving-loop serial used in logs and metrics labels.

    [fault] (default none) arms this connection's network fault
    points, drawn in a fixed order so a chaos run is reproducible from
    the plan's seed: on the read side [Conn_drop] (sever before
    looking at the bytes — the peer sees EOF) and [Blackhole] (swallow
    arriving bytes silently; the connection stays open, nothing is
    ever answered, and the idle stamp is not refreshed); on the write
    side, once per coalesced burst, [Conn_delay] (defer the flush one
    round), [Conn_truncate] (write a strict prefix, then report
    [`Peer_gone] — the network torn write), and [Corrupt_frame] (flip
    one bit of the outgoing bytes, which the peer's frame CRC
    rejects). *)

val fd : t -> Unix.file_descr

val id : t -> int

val read : t -> now_ms:float -> event list * [ `More | `Eof ]
(** Drain the socket without blocking and extract every complete
    request. Draining stops at the first read that leaves room in the
    buffer: the socket held no more, and bytes arriving later make it
    readable again. [`Eof] means the peer closed (or the descriptor
    failed); [`More] means the socket is merely empty for now — a
    close that follows the last bytes is seen on the next call.
    Refreshes the idle stamp when bytes arrive. *)

val queue_reply : t -> Wire.reply -> unit
(** Append one reply, encoded for the connection's mode, to the
    connection's output buffer — a binary reply is framed in place
    ({!Wire.frame_reply}), with no per-reply string. Nothing is written
    until {!flush}. *)

val wants_write : t -> bool
(** Whether queued output remains — the caller adds the descriptor to
    its write set exactly when this holds. *)

val flush : t -> [ `Drained | `More | `Peer_gone ]
(** Write queued output until the socket would block. Everything queued
    when a flush finds no burst in flight becomes one burst, which the
    write fault points see whole, once. [`Peer_gone]
    means the peer vanished mid-write (e.g. [EPIPE]) and the
    connection should be dropped. *)

val mark_closing : t -> unit
(** Close once the write queue drains — used after [BYE] and after a
    [Corrupt] event's error reply. *)

val closing : t -> bool

val idle_exceeded : t -> now_ms:float -> idle_ms:float -> bool
(** Whether no byte has arrived for longer than [idle_ms]. *)

val close : t -> unit
(** Close the descriptor; idempotent. *)
