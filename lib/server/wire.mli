(** Versioned wire protocol for the query server: CRC-guarded binary
    frames plus a line-oriented text mode over one request/reply
    vocabulary.

    A binary frame is [magic "WSYN" | version | kind | length (4-byte
    big-endian) | payload | CRC-32 (4-byte big-endian)], the checksum
    covering every byte after the magic. Integers travel as 8-byte
    big-endian words, floats as their IEEE-754 bit patterns, so a reply
    decodes to the exact value the server computed. Decoding is strict:
    unknown versions or kinds, out-of-bounds lengths, payloads shorter
    or longer than their kind, words outside OCaml's [int] range and
    checksum mismatches are [`Corrupt], never silently skipped or
    wrapped. The text mode
    ([docs/SERVING.md]) exists for humans with netcat; the first byte
    of a connection picks the mode, since no text verb starts with the
    magic's ['W']. *)

(** Structured failure classes carried by {!reply.Error}. Each has a
    stable lowercase name in text mode (e.g. ["out-of-range"]) and a
    one-byte tag (1..5) in binary frames. *)
type error_code =
  | Bad_request  (** malformed or unparseable request *)
  | Out_of_range  (** cell, range or quantile outside the domain *)
  | Unanswerable  (** well-formed but the synopsis cannot answer it *)
  | Shutting_down  (** server is draining; retry elsewhere *)
  | Internal  (** unexpected server-side failure *)

type request =
  | Ping
  | Point of int  (** reconstructed value of one cell *)
  | Range of { lo : int; hi : int }  (** inclusive range sum *)
  | Quantile of float  (** position of the q-quantile, q in [0,1] *)
  | Stats  (** metrics table of the serving registry *)
  | Batch of request list
      (** sub-requests answered by one reply frame each, in order;
          only {!batchable} entries are legal — a batch may mix reads
          and point writes *)
  | Shutdown  (** drain and stop the server *)
  | Sync of { since : int; max : int }
      (** replication cursor pull: ship journal records
          [(since, since + max]]. [max = 0] is a pure sequence probe —
          the {!reply.Ship} answer carries the server's current
          sequence and manifest but no payload, which is how a
          failing-over client checks read-your-replays consistency. *)
  | Handoff
      (** promote a follower to primary (idempotent — a primary just
          acknowledges); answered by {!reply.Handoff_ack} *)
  | Update of { i : int; delta : float }
      (** live point write [d_i += delta], journaled before it is
          applied; answered by {!reply.Acked} with the assigned durable
          sequence. Legal inside a [Batch]. *)
  | Ingest of (int * float) list
      (** an update storm: the deltas travel as a CRC-sealed text
          artifact (see {!encode_storm}), so a flipped bit is caught at
          the artifact layer as well as the frame layer. Applied in
          order under one {!reply.Acked} naming the last assigned
          sequence. Rejected inside a [Batch]. *)
  | Retier of int
      (** shard control plane: serve at the ladder tier pressure level
          [level] commands (0 minmax, 1 approx, 2+ greedy) until told
          otherwise. A sharded front-end broadcasts its own pressure to
          its shards with this, so overload degradation stays
          byte-identical to the unsharded server's. Answered by
          {!reply.Pong}; binary-only and rejected inside a [Batch]. *)

(** The bulk payload of a {!reply.Ship}: either a {!Journal} batch
    (the normal cursor advance) or a whole sealed {!Snapshot} (the
    bootstrap path, when the requested range was compacted away), both
    as their self-verifying text artifacts. *)
type ship_body =
  | Ship_none  (** sequence probe answer, no payload *)
  | Ship_records of string  (** [Journal.encode_batch] artifact *)
  | Ship_snapshot of string  (** sealed [Snapshot.encode] artifact *)

type reply =
  | Pong
  | Value of float
  | Quantile_pos of int
  | Stats_text of string
  | Overload of { bound : int; depth : int; tier : string }
      (** request shed by admission control: the configured queue
          [bound], the queue [depth] at shed time, and the ladder
          [tier] currently serving *)
  | Bye  (** acknowledges [Shutdown] *)
  | Error of { code : error_code; message : string }
  | Ship of {
      last_seq : int;
          (** the server's authoritative current sequence — may exceed
              the shipped range when [max] truncated it *)
      complete : bool;  (** the shipped range reaches [last_seq] *)
      manifest : string;
          (** the store manifest text, so a fresh follower reproduces
              the primary's configuration before applying anything *)
      body : ship_body;
    }
  | Handoff_ack of { seq : int; role : string }
      (** the server's sequence and its role {e after} the handoff *)
  | Acked of { seq : int }
      (** a write (or whole storm) is durable through this journal
          sequence — the client's resume cursor after a crash *)

type frame = Req of request | Rep of reply

type decoded =
  [ `Frame of frame * int  (** decoded frame and the offset just past it *)
  | `Incomplete  (** keep the bytes, read more *)
  | `Corrupt of string  (** unrecoverable; close the connection *) ]

val version : int
(** Protocol version stamped into and required of every frame. *)

val magic : string
(** The 4-byte frame preamble, ["WSYN"]. *)

val max_payload : int
(** Upper bound on a frame's payload length (1 MiB); larger lengths
    are [`Corrupt] without buffering the payload. *)

val encode_storm : (int * float) list -> string
(** The update-storm artifact of an [Ingest] payload: a counted sealed
    block ({!Wavesyn_util.Sealed}) of a [storm <count>] header and one
    [<cell> <delta as %h>] line per delta, under an [end] trailer. *)

val decode_storm : string -> ((int * float) list, string) result
(** Verify and parse a storm artifact, byte-exact. The error is a
    human-readable reason starting ["storm: "]; negative cell indices
    are rejected here, domain bounds are the server's business. *)

val batchable : request -> bool
(** Whether a request may ride inside a [Batch]: [Ping], [Point],
    [Range], [Quantile], [Stats] and [Update]. The one rule behind
    {!encode_request}'s refusal, {!decode}'s rejection and the server's
    answer to an illegal entry. *)

val read_hash : request -> int
(** The result cache's key hash: RANGE and QUANTILE requests pack
    their fields into an int (unmixed), other kinds take
    [Hashtbl.hash]. Requests that are {!read_equal} hash alike. *)

val read_equal : request -> request -> bool
(** The result cache's key equality: field by field for RANGE and
    QUANTILE — a quantile by [Float.equal], so [0.0] and [-0.0] are
    one key — structural for other kinds. *)

val encode_request : request -> string
(** Complete binary frame for a request. Raises [Invalid_argument] on a
    [Batch] entry that is not {!batchable} (["Wire: nested BATCH"],
    ["Wire: SHUTDOWN inside BATCH"], ...). *)

val reply_frame_length : reply -> int
(** Byte length of a reply's binary frame. *)

val frame_reply : Bytes.t -> pos:int -> reply -> int
(** [frame_reply b ~pos r] writes [r]'s binary frame into [b] at [pos]
    — {!reply_frame_length} bytes, CRC taken in place — and returns the
    offset just past it. [b] must have room. *)

val encode_reply : reply -> string
(** Complete binary frame for a reply: the bytes {!frame_reply}
    writes. *)

val decode : Bytes.t -> pos:int -> len:int -> decoded
(** [decode buf ~pos ~len] inspects [buf.[pos..len-1]] for one frame.
    Returns [`Incomplete] until a whole frame is buffered, so callers
    can feed partial reads as they arrive. *)

val describe_request : request -> string
(** Canonical one-line form, e.g. ["RANGE 0 7"] — also the text-mode
    command syntax (batches render as ["BATCH[...]"], which text mode
    does not accept). Used verbatim in load-generator transcripts. *)

val describe_reply : reply -> string
(** Canonical one-line form, e.g. ["VALUE 5.25"] or
    ["OVERLOAD bound=4 depth=4 tier=minmax"]. [Stats_text] renders as
    ["STATS-TEXT"] without the body, keeping transcripts single-line. *)

val parse_text_request : string -> (request, string) result
(** Parse one text-mode line (["PING"], ["POINT 3"], ["RANGE 0 7"],
    ["QUANTILE 0.5"], ["STATS"], ["SHUTDOWN"], ["HANDOFF"],
    ["UPDATE 3 0.5"]). The error is a human-readable reason. [SYNC],
    [INGEST] and [RETIER] are deliberately binary-only: the first two
    carry bulk artifacts a line protocol cannot frame, the last is
    shard control plane, not an operator verb. *)

val render_text_reply : reply -> string
(** Text-mode rendering, newline-terminated. [Stats_text] emits the
    table body followed by an ["END"] line; everything else is the
    single {!describe_reply} line. *)

(** {1 Refusals}

    The read and storm refusals every backend (in-memory, live store,
    sharded router) answers with, defined once so their messages are
    byte-identical across backends. Each is [None] when the request is
    in bounds. *)

val point_refusal : n:int -> int -> reply option
(** POINT [i] outside [[0, n)]: ["cell 9 outside domain [0, 7]"]. *)

val range_refusal : n:int -> lo:int -> hi:int -> reply option
(** RANGE [lo hi] empty or outside [[0, n)]:
    ["range [5, 2] invalid over domain [0, 7]"]. *)

val of_quantile : (int, Wavesyn_aqp.Quantiles.refusal) result -> reply
(** A {!Wavesyn_aqp.Quantiles.search} result on the wire: the position,
    or the refusal's message as [Out_of_range] (bad [q]) or
    [Unanswerable] (non-positive total). *)

val storm_refusal : n:int -> (int * float) list -> reply option
(** The one refusal rule for writes over an [n]-cell domain (an
    UPDATE is a one-delta write, an INGEST a storm): the first delta
    whose cell is outside [[0, n)] ([Out_of_range]) or whose value is
    not finite ([Bad_request]) rejects the whole write. *)
