(** The durable, supervised serving loop.

    Ties the durability layer together around a
    {!Wavesyn_stream.Stream_synopsis}: every accepted point update is
    journaled ({!Journal}) {e before} it touches the in-memory state
    (write-ahead discipline), the coefficient state is checkpointed
    ({!Snapshot}) every [checkpoint_every] updates, and a fresh
    max-error synopsis is re-cut through the degradation
    {!Ladder} every [recut_every] updates under the configured deadline
    slice. Transient I/O failures are absorbed by seeded-backoff
    retries ({!Retry.with_retries}); re-cuts that collapse to the
    greedy floor trip a circuit breaker that spaces further attempts.

    The headline property (exercised exhaustively by the chaos suite):
    killing the process at {e any} point and re-opening the store
    recovers exactly the acknowledged prefix of the update stream —
    byte-identical coefficient state — because recovery replays the
    journal suffix through the same [Stream_synopsis.update] code path
    the live loop uses, on top of a CRC-verified snapshot. *)

type config = {
  dir : string;  (** store directory *)
  n : int;  (** power-of-two domain size *)
  budget : int;  (** synopsis coefficient budget *)
  metric : Wavesyn_synopsis.Metrics.error_metric;
  epsilon : float;  (** ladder approximation tier seed *)
  checkpoint_every : int;  (** updates between snapshots *)
  recut_every : int;  (** updates between ladder re-cuts *)
  recut_deadline_ms : float option;  (** deadline slice per re-cut *)
  keep : int;  (** snapshot generations retained *)
  sync : bool;  (** fsync journal appends and snapshots *)
}

val config :
  ?epsilon:float ->
  ?checkpoint_every:int ->
  ?recut_every:int ->
  ?recut_deadline_ms:float ->
  ?keep:int ->
  ?sync:bool ->
  dir:string ->
  n:int ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  config
(** Defaults: ε 0.25, checkpoint every 64, re-cut every 32, no re-cut
    deadline, keep 3 generations, fsync on. *)

type recovery = {
  generation : int option;  (** snapshot generation recovery started from *)
  corrupt_generations : int list;  (** generations the CRC check rejected *)
  replayed : int;  (** journal records replayed on top *)
  truncated : bool;  (** replay stopped at a corrupt record *)
}

val pp_recovery : Format.formatter -> recovery -> unit
(** One-line [generation=… replayed=… truncated=… corrupt=…] form. *)

type t

type role = Primary | Follower
(** A [Primary] accepts {!ingest}; a [Follower] is read-only to
    clients and advances only through {!apply_shipped} /
    {!install_snapshot}, until {!promote} flips it. *)

val role_name : role -> string
(** ["primary"] / ["follower"]. *)

val open_store :
  ?obs:Wavesyn_obs.Registry.t ->
  ?trace:Wavesyn_obs.Trace.sink ->
  ?fault:Fault.t ->
  ?retry:Retry.policy ->
  ?retry_attempts:int ->
  ?breaker:Retry.Breaker.t ->
  ?role:role ->
  config ->
  (t, Validate.error) result
(** Open a store, creating the directory and manifest ([store.cfg]) on
    first use and recovering snapshot + journal state on re-open.
    Reopening with a different domain size than the manifest records is
    a [Bad_shape]. [fault] arms the storage and ladder fault points
    (default none); [retry]/[retry_attempts] configure I/O retries
    (default: seeded policy, 4 attempts); [breaker] supervises re-cuts
    (default: threshold 3, 1s cooldown).

    [obs] registers the [store.*] and [stream.*] metric families into
    the given registry and forwards it to every {!Ladder.serve} this
    store runs (see [docs/OBSERVABILITY.md] for the full contract).
    Journal replay during this open is reported once as
    [store.recovery.replayed]; only post-open traffic moves the live
    [stream.*] counters. [trace] (honoured only with [obs]) records
    [ingest] / [recut] / [checkpoint] / [tier:*] spans, nested. Without
    [obs] the [store.*] instruments live in a private registry, so
    {!stats} reads the same counters either way, but no clock is read,
    the ladder runs unhooked and [stream.*] is not fed. *)

val ingest : t -> i:int -> delta:float -> (int, Validate.error) result
(** Accept the point update [d_i += delta]: journal it durably (with
    retries), apply it to the in-memory state, and return its sequence
    number. On the configured cadences this also re-cuts the served
    synopsis and checkpoints — failures there are counted in {!stats}
    (and a failed checkpoint is logged), never failing the ingest
    itself. An [Error] means the update was {e not} acknowledged
    (invalid input, or the journal could not be written after all
    retries). *)

val recut :
  t -> (Ladder.served, Validate.error Retry.Breaker.rejection) result
(** Re-cut the served synopsis now, through the circuit breaker. The
    ladder answer (even a degraded one) is always installed as
    {!last_served}; the call reports [Error] when the breaker refused
    to run it ([Open_circuit]) or when the answer degraded to the
    greedy floor with every better tier timed out ([Inner _]) — the
    breaker counts those towards opening. *)

val checkpoint : t -> (int, Validate.error) result
(** Snapshot the current state (atomically, rotated) and compact the
    journal back to the oldest retained generation; returns the new
    generation. Failures are also recorded in {!stats}. The store
    keeps each retained generation's seq, and whether it verifies, as
    it writes it (recovery's generations are seeded at {!open_store}),
    so a checkpoint neither lists the snapshot directory nor reads a
    generation back; one recovery left unread is decoded once, the
    first time it is the oldest. *)

val keep_after : t -> int
(** The seq the last successful {!checkpoint} compacted the journal
    through: the oldest retained generation's seq, or [0] (nothing
    dropped) when that generation does not verify. [0] before the
    first checkpoint. *)

val stream : t -> Wavesyn_stream.Stream_synopsis.t
(** The live coefficient state (do not mutate behind the loop's back —
    use {!ingest}). *)

val seq : t -> int
(** Last acknowledged sequence number. *)

val role : t -> role

val promote : t -> unit
(** Flip a [Follower] to [Primary] — after this, {!ingest} is accepted
    and the shipped history continues under local writes. Idempotent;
    a no-op on a store already primary. Promotion is purely an
    in-memory role change: the store's on-disk format is identical for
    both roles, which is what makes warm-standby failover a
    metadata-only operation. *)

val last_served : t -> Ladder.served option
(** The most recent re-cut synopsis, if any re-cut has run. *)

val last_recovery : t -> recovery
(** What {!open_store} recovered. *)

type stats = {
  seq : int;
  updates : int;  (** updates folded into the state (incl. recovered) *)
  acked : int;  (** updates acknowledged by this process *)
  recuts_served : int;
  recuts_degraded : int;  (** served only by the greedy floor *)
  recuts_rejected : int;  (** skipped while the breaker was open *)
  checkpoints : int;
  checkpoint_failures : int;
  last_generation : int option;
  breaker : Retry.Breaker.state;
}

val stats : t -> stats
(** Counts since [open_store] (recovery work excluded), read from the
    [store.*] counters. A registry passed to several opens keeps one
    set of counters, so the later stores' counts include the earlier
    ones'. *)

val close : t -> unit
(** Flush and close the journal (does {e not} checkpoint — call
    {!checkpoint} first for a clean shutdown). *)

val crash : t -> unit
(** Chaos-suite helper: drop descriptors without the shutdown path, as
    a kill would. *)

(** {1 Replication}

    The follower side of journal shipping. A follower applies each
    shipped record with exactly the ingest discipline — journal first,
    then the in-memory state, through the same
    [Stream_synopsis.update] code path — so after applying the same
    record range, primary and follower coefficient states are
    bit-identical, and so are the synopses cut from them. *)

val apply_shipped : t -> Journal.batch -> (int, Validate.error) result
(** Apply one verified shipped batch (see {!Journal.decode_batch}) to
    a follower. The batch must continue exactly from the store's
    current sequence ([b_since = seq t]); each record is journaled
    before it is applied, and the checkpoint cadence runs as for
    ingest (re-cuts are the serving layer's business). Returns the new
    sequence. [Bad_option] on a non-follower; [Bad_shape] on a cursor
    mismatch. On a mid-batch journal failure the store stays at the
    last applied record — safe to re-SYNC from [seq t]. *)

val install_snapshot :
  t -> Snapshot.state -> (int, Validate.error) result
(** Bootstrap a follower whose cursor fell behind the primary's
    compacted journal: persist the shipped snapshot as a local
    generation, adopt its coefficient state wholesale, and re-align
    the WAL writer to continue at [state.seq + 1]. Returns the new
    sequence. Rejected on a non-follower, a domain mismatch, or a
    snapshot older than the store's current sequence. *)

val manifest_text : config -> string
(** The store manifest as its on-disk text, sealed as a block under a
    [crc] trailer ({!Wavesyn_util.Sealed}) — shipped to followers so
    they reproduce the primary's domain, budget, metric and epsilon
    exactly. *)

val config_of_manifest :
  dir:string -> string -> (config, Validate.error) result
(** Parse a shipped {!manifest_text}, byte-exact, into a config rooted
    at the (local) directory [dir]; cadence knobs take their defaults.
    Malformed bytes are a [Bad_shape] on ["<shipped manifest>"]. *)

(** {1 Read-only recovery} *)

type recovered = {
  r_config : config;  (** as recorded in the store manifest *)
  r_stream : Wavesyn_stream.Stream_synopsis.t;
  r_seq : int;
  r_recovery : recovery;
}

val recover : dir:string -> (recovered, Validate.error) result
(** Rebuild the state of an existing store without opening it for
    writing: manifest, newest verifiable snapshot, journal replay.
    A missing or unreadable store directory is an [Io_error]. *)
