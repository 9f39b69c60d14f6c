(** Append-only write-ahead journal of point updates.

    Each accepted update [d_i += delta] becomes one sealed line
    ({!Wavesyn_util.Sealed}) with the body

    {v <seq> <i> <delta as %h> v}

    and strictly consecutive sequence numbers. An update is
    acknowledged only after its record (newline included) is flushed —
    and, unless [sync:false], fsynced — so the journal plus the latest
    {!Snapshot} always reconstructs every acknowledged update.

    Replay is defensive: it stops at the {e first} record that is torn
    (no trailing newline at EOF), fails its CRC, fails to parse, or
    breaks the sequence, and reports the truncation instead of failing
    recovery — everything before that point is trusted, everything
    after is not. *)

type record = { seq : int; i : int; delta : float }

val encode : record -> string
(** One sealed journal line, newline-terminated. *)

val decode_line : string -> record option
(** Open and parse one sealed line (without its newline). *)

val path : dir:string -> string
(** The WAL file inside a store directory ([journal.wal]). *)

type replay = {
  records : record list;  (** verified records, in sequence order *)
  truncated : bool;  (** a corrupt/torn record cut the replay short *)
  valid_bytes : int;
      (** byte offset just past the last verified record's newline *)
}

val replay : ?since:int -> dir:string -> unit -> (replay, Validate.error) result
(** Read the journal, keeping records with [seq > since] (default 0 —
    all). A missing WAL is an empty replay; a missing store directory
    is an [Io_error]. Never raises on corrupt content. *)

val repair : dir:string -> (replay, Validate.error) result
(** Replay, and if the tail is torn or corrupt, truncate the WAL file
    back to [valid_bytes]. Without this, appending after a torn write
    would glue the new record onto the partial line and lose it. Run
    before reopening a writer on a store that may have crashed. *)

(** {1 Shipping}

    The replication cursor: a follower holds a sequence number [since]
    (the last record it has applied) and asks the primary for the range
    [(since, since + max]]. The primary answers with a {!batch} — a
    counted sealed block ({!Wavesyn_util.Sealed}) whose trailer CRC
    covers the header and every record line, on top of each record's
    own CRC — so a flipped bit anywhere in flight is rejected as a
    unit. *)

type batch = {
  b_since : int;  (** the cursor this batch continues from *)
  b_last_seq : int;
      (** the primary's current sequence — authoritative, may exceed
          the last shipped record when [max] truncated the range *)
  b_complete : bool;
      (** the batch reaches [b_last_seq]; [false] means re-SYNC from
          the last shipped record *)
  b_records : record list;
      (** strictly consecutive, starting at [b_since + 1] *)
}

val encode_batch : batch -> string
(** Wire form: the counted sealed block of a [ship <since> <count>
    <last_seq> <complete>] header and the record lines under an [end]
    trailer. *)

val decode_batch : string -> (batch, Validate.error) result
(** Open the block byte-exact (trailer CRC, header, count, every record
    CRC), then check strict contiguity from [b_since + 1]; any failure
    is a [Bad_shape] on ["ship batch"] and the whole batch is rejected
    (a follower never applies a prefix of a corrupt batch). *)

val ship :
  dir:string ->
  since:int ->
  seq:int ->
  max:int ->
  unit ->
  (batch, Validate.error) result
(** Read records [(since, since + max]] from the store's WAL. [seq] is
    the store's authoritative current sequence (the journal on disk may
    legitimately stop earlier after compaction — and must not be
    trusted to know the end of history). Records beyond [seq] — an
    unacked suffix left by a crash mid-storm, or a ship as-of an older
    sequence — are clamped out rather than shipped, so a batch never
    overruns its own [b_last_seq]; a cursor already at [seq] yields an
    empty complete batch even when the journal is fully compacted.

    Structured [Bad_shape] errors, all of which the serving layer maps
    to a snapshot ship or an operator-visible fault: the cursor is
    {e ahead} of the store (split brain); the requested range was
    {e compacted away} by {!rotate} — the caller must bootstrap the
    follower from a snapshot instead; or the journal ends {e short} of
    [seq] (torn tail not yet repaired). A torn or corrupt tail
    {e within} the range is silently excluded by replay's
    truncate-at-first-bad-record rule — the batch then reports
    [b_complete = false] without overrunning the damage. *)

(** {1 Writing} *)

type t

val open_writer :
  ?fault:Fault.t ->
  ?sync:bool ->
  dir:string ->
  next_seq:int ->
  unit ->
  (t, Validate.error) result
(** Open (creating if absent) the WAL for appending; the next accepted
    record gets sequence [next_seq] (>= 1). [sync] (default true)
    fsyncs every append. *)

val append : t -> i:int -> delta:float -> (int, Validate.error) result
(** Durably append one update and return its sequence number.

    Fault points of the writer's plan, in order: [Io_flaky] writes
    nothing and returns a retryable [Io_error]; [Torn_write] flushes a
    partial record and raises {!Fault.Injected} (the simulated
    mid-append kill); [Bit_flip] silently corrupts the record on its
    way to disk — the append {e reports success}, and only replay's CRC
    check discovers the damage. *)

val rotate : t -> keep_after:int -> (int, Validate.error) result
(** Compact the WAL after a checkpoint: atomically rewrite it keeping
    only records with [seq > keep_after] (the oldest retained snapshot
    generation's sequence), and return how many were kept. Sequence
    numbering continues unchanged. *)

val close : t -> unit
(** Flush, sync and close. Idempotent. *)

val abandon : t -> unit
(** Drop the descriptor without the final sync — the chaos suite's
    simulated process death. Idempotent. *)
