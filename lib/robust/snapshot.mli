(** Versioned, CRC-checksummed snapshots of streamed synopsis state.

    A snapshot captures the exact sparse Haar-coefficient state a
    {!Wavesyn_stream.Stream_synopsis} maintains, together with the
    journal sequence number it covers, as a small text artifact sealed
    as a block under a [crc] trailer ({!Wavesyn_util.Sealed}):

    {v
wavesyn-snapshot v1
seq <last journal sequence applied>
n <domain size>
updates <updates folded into the state>
coeffs <count>
<index> <float as %h>         (count lines, sorted by index)
crc <crc>
    v}

    Floats are serialized as hex ([%h]) so recovery is {e bit}-exact.
    Writes are atomic — write to a [.tmp] sibling, [fsync], [rename],
    [fsync] the directory — and rotated: the [keep] most recent
    generations ([snapshot-NNNNNNNNN.wsn]) are retained. Reads verify
    the CRC and fall back generation by generation past torn or
    corrupt files, so a crash mid-checkpoint (or silent bit rot) costs
    at most the journal replay distance, never the store. *)

type state = {
  seq : int;  (** last journal sequence folded into this state *)
  n : int;
  updates : int;
  coeffs : (int * float) list;  (** sparse non-zeros, sorted by index *)
}

val of_stream : seq:int -> Wavesyn_stream.Stream_synopsis.t -> state
(** Capture the stream's current coefficients as a snapshot state
    tagged with the last applied journal sequence. *)

val to_stream : state -> Wavesyn_stream.Stream_synopsis.t
(** Raises [Invalid_argument] only on states that {!decode} would have
    rejected. *)

val encode : state -> string
(** Canonical serialization {e without} the trailing [crc] line — also
    the canonical fingerprint used by tests to compare two states for
    byte-identity. *)

val seal : string -> string
(** Append the [crc] line to an {!encode} body: the exact bytes written
    to disk. *)

val decode : ?what:string -> string -> (state, Validate.error) result
(** Parse and verify sealed snapshot bytes, byte-exact (nothing is
    trimmed). Torn, truncated, bit-flipped or otherwise malformed input
    is a [Bad_shape] naming [what] (default ["snapshot"]); it never
    raises. *)

val file_of_generation : string -> int -> string
(** [file_of_generation dir g] is the path of generation [g]. *)

val list : dir:string -> (int list, Validate.error) result
(** Generations present in the store directory, newest first.
    [Io_error] if the directory cannot be read. *)

val decode_file : string -> (state, Validate.error) result
(** Read and {!decode} one generation file. *)

type written = {
  gen : int;  (** the generation written *)
  intact : bool;
      (** [false] when an injected [Bit_flip] corrupted the bytes on
          disk, which {!decode} then rejects *)
}

val write :
  ?fault:Fault.t ->
  ?keep:int ->
  ?sync:bool ->
  dir:string ->
  state ->
  (written, Validate.error) result
(** Atomically persist a new generation and prune to the [keep]
    (default 3, at least 1) newest; returns the generation written,
    and whether it went to disk intact, so a writer knows which
    retained generations verify without reading them back.
    [sync] (default true) controls fsync — tests disable it for speed.

    Fault points, in order: [Io_flaky] returns an [Io_error] having
    written nothing; [Torn_write] persists a prefix of the payload
    under the {e final} name and raises {!Fault.Injected} (the
    simulated mid-write kill); [Bit_flip] silently corrupts one bit
    and reports success with [intact = false] — a reader can tell
    only by {!read_latest}'s CRC check. *)

type recovery = {
  state : state option;  (** newest generation that verified, if any *)
  generation : int option;
  corrupt : int list;  (** generations rejected by the CRC/format check *)
}

val read_latest : dir:string -> (recovery, Validate.error) result
(** Walk generations newest-first, returning the first one whose CRC
    and format verify; corrupt generations are skipped and reported,
    not fatal. [Io_error] only if the directory itself is unreadable. *)
