(** The query server: a select loop over a Unix-domain or TCP socket
    answering synopsis queries with deterministic replies.

    Replies are a pure function of the serving synopsis and the
    request schedule. A round's admitted requests are evaluated in one
    pass in arrival order, positionally over a {!Wavesyn_par.Pool}, so
    the reply stream is byte-identical for every pool size; admission (the
    {!Admit} queue bound) applies per serving round, and a [BATCH]
    frame lands in one round, which makes overload shedding
    reproducible. Per connection, replies always keep request order.

    The listen endpoint is an {!Endpoint} string: a plain path is a
    Unix-domain socket, ["tcp:HOST:PORT"] a TCP listener (with
    [SO_REUSEADDR], and [TCP_NODELAY] on accepted connections). The
    framing, determinism and drain semantics are transport-independent.

    {2 Backends}

    {!create} fixes one backend for the server's lifetime, from the
    config's [store] and its [router] argument:

    - {e Static} (neither): the in-memory [data] is cut once. Reads
      evaluate on the serving synopsis; [UPDATE] / [INGEST] are
      answered with an [unanswerable] error. A pressure change re-cuts
      [data] through the ladder.
    - {e Live} ([store]): writes journal through the store before they
      touch memory, and {!Wavesyn_robust.Incremental} keeps the
      serving synopsis and its bound current (see {e Write rounds}
      below). A pressure change, a [HANDOFF] and every
      [recut_every]-th applied update take a full re-cut of the
      store's current data. [SYNC] acks the store's moving sequence.
    - {e Router} ([router]): a scatter-gather front-end that owns no
      synopsis. Each admitted read and staged write goes through the
      {!Shard} router (shards walked in shard-index order, requests in
      arrival order, independent of the pool size). [STATS] appends
      every shard's table to its own. A pressure change is broadcast
      to the shards as [RETIER], so overload degradation stays
      byte-identical to an unsharded server's.

    Pre-cut [tiers] serve the Static and Live backends only.

    Overload feeds back into quality, not availability: pressure from
    shedding steps the serving synopsis down the
    {!Wavesyn_robust.Ladder} (minmax → approx → greedy) by re-cutting
    at a lower top tier, exactly as the in-process serving path
    degrades, and recovers the same way. Connections are never dropped
    in response to load. *)

type ship_source = {
  ship_dir : string;  (** store directory whose WAL feeds SYNC *)
  ship_seq : int;  (** the store's authoritative sequence at load *)
  ship_manifest : string;
      (** manifest text shipped with every batch, so a follower
          reproduces the primary's exact configuration *)
}

(** The serving role, exported as the [server.role] gauge and flipped
    to [Primary] by [HANDOFF]. *)
type role = Standalone | Primary | Follower

type config = {
  path : string;  (** Unix-domain socket path to listen on *)
  data : float array;  (** backing dataset (power-of-two length) *)
  budget : int;  (** synopsis coefficient budget *)
  metric : Wavesyn_synopsis.Metrics.error_metric;
  epsilon : float;  (** ladder approximation tier seed *)
  queue_bound : int;  (** admission queue capacity per round *)
  idle_ms : float;  (** idle connection timeout *)
  max_requests : int option;
      (** stop after this many request frames (test safety net) *)
  ship : ship_source option;
      (** when present, [SYNC] ships journal records (or a snapshot
          bootstrap) from this store, and the replication metrics are
          registered *)
  role : role;
  conn_fault : Wavesyn_robust.Fault.t;
      (** network chaos plan armed on every accepted connection *)
  crash_after : int option;
      (** simulate a crash: after this many request frames, stop
          without answering, flushing, or draining *)
  store : Wavesyn_robust.Supervisor.t option;
      (** when present, the server has the {e Live} backend (see
          {e Backends}) and registers the [update.*] metric family *)
  recut_every : int;
      (** applied updates between full ladder re-cuts of a live
          server's synopsis (the incremental solver's
          [full_every]) *)
  cache : bool;
      (** enable the deterministic result cache: successful [RANGE] /
          [QUANTILE] replies are memoised against an epoch advanced
          exactly when the serving state can change (a write acked, a
          re-cut), so the transcript is byte-identical cache-on vs
          cache-off — hits skip only the evaluation, never their
          admission slot. Every backend keeps one round rule: the
          round's reads are looked up in arrival order before any is
          evaluated, and the misses' replies stored after, so a key
          repeated within a round misses on every copy. Registers the
          [serve.cache.*] metrics. On a sharded front-end, also
          memoises per-shard sub-range sums inside the router. *)
  tiers : int;
      (** when positive, pre-cut this many ladder levels
          ({!Wavesyn_adaptive.Tiers}) from the observed query mix so a
          pressure change swaps synopses in O(1) instead of re-cutting;
          registers the [adaptive.*] metrics. 0 (the default) serves
          the historical re-cut path. Not supported behind a
          router (see {!create}). *)
  adapt_every : int;
      (** request-carrying rounds between tier-set rebuilds from the
          profiler's observed mix (only meaningful with [tiers > 0]) *)
}

val config :
  ?budget:int ->
  ?metric:Wavesyn_synopsis.Metrics.error_metric ->
  ?epsilon:float ->
  ?queue_bound:int ->
  ?idle_ms:float ->
  ?max_requests:int ->
  ?ship:ship_source ->
  ?role:string ->
  ?conn_fault:Wavesyn_robust.Fault.t ->
  ?crash_after:int ->
  ?store:Wavesyn_robust.Supervisor.t ->
  ?recut_every:int ->
  ?cache:bool ->
  ?tiers:int ->
  ?adapt_every:int ->
  path:string ->
  float array ->
  config
(** Defaults: budget 8, absolute error, ε 0.25, queue bound 64, idle
    timeout 30 s, no request limit, no ship source, role
    ["standalone"], no connection faults, no simulated crash, no live
    store, full re-cut every 32 applied updates, result cache off,
    no pre-cut tiers, tier rebuild every 32 rounds. [role] is one of
    ["primary"], ["follower"] or ["standalone"]. Raises
    [Invalid_argument] on a non-positive queue bound, idle timeout,
    [recut_every] or [adapt_every], a negative [tiers], or any other
    [role] string. *)

type t

val create :
  ?obs:Wavesyn_obs.Registry.t ->
  ?trace:Wavesyn_obs.Trace.sink ->
  ?pool:Wavesyn_par.Pool.t ->
  ?on_handoff:(unit -> int) ->
  ?on_drain:(unit -> unit) ->
  ?router:Shard.t ->
  config ->
  t
(** Build the serving state and cut the initial synopsis at the
    ladder's top tier. [obs] (fresh registry when absent) carries the
    [server.*] metrics of [docs/OBSERVABILITY.md]; [trace] records
    [server.recut] and [server.round] spans; [pool] (sequential when
    absent) evaluates admitted requests — the caller shuts it down.
    [router] selects the Router backend ([data] then only fixes the
    domain length for the shards' combined key space). The caller owns
    the router's backends and shuts the shards down after {!run}
    returns (e.g. {!Shard.shutdown}). Raises [Invalid_argument] when
    [router] is combined with a [store] or with [tiers > 0].

    [on_handoff] runs when a [HANDOFF] request promotes this server:
    it must promote the backing store and return its authoritative
    sequence for the [HANDOFF-ACK] (absent, a Live backend's store is
    promoted in place and its sequence acked; otherwise the ship
    source's static sequence). On a Live backend the promotion
    also re-cuts the serving synopsis from the store's current stream,
    so a standby whose store was caught up by journal shipping serves
    exactly the state its ack sequence names. [on_drain] runs after a
    SIGTERM-initiated drain completes — the place to checkpoint before
    a clean exit.

    {2 Write rounds}

    On the Live backend, [UPDATE] / [INGEST] frames are {e staged} while
    a round gathers and applied only after the round's crash check
    passed, in connection-arrival order — so a [crash_after] kill
    loses a whole round atomically: nothing it staged reaches the
    journal, and the client's resend of its unanswered write frames
    after recovery is exactly-once. All of a round's writes apply
    before any of its reads evaluate (a batch mixing reads and updates
    reads its own writes), after which the incremental solver folds
    the dirtied subtrees in — or takes the cadenced full re-cut — so
    every reply in the round is served under the refreshed bound. A
    write ([UPDATE] is a one-delta [INGEST] storm) validates every
    delta (domain, finiteness) with {!Wire.storm_refusal} before
    applying any, and rejects atomically. *)

val run : t -> (unit, Wavesyn_robust.Validate.error) result
(** Bind the socket (unlinking a stale socket file left by a dead
    server), serve until a [SHUTDOWN] request, the [max_requests]
    limit, or SIGTERM, then drain pending replies, close every
    connection and remove the socket file. SIGTERM stops accepting,
    finishes the round in flight, drains, then runs [on_drain]. A
    [crash_after] stop skips answering and draining entirely — the
    simulated kill. [Error] is an [Io_error] when the path cannot be
    bound (or names a non-socket). *)

val crashed : t -> bool
(** Whether {!run} stopped at the [crash_after] point. *)

val drained : t -> bool
(** Whether {!run} stopped on SIGTERM and completed the graceful
    drain. *)

type stats = {
  accepted : int;  (** connections accepted *)
  requests : int;  (** request frames processed *)
  admitted : int;  (** queryable requests admitted *)
  shed : int;  (** queryable requests shed with [OVERLOAD] *)
  errors : int;  (** error replies sent *)
  recuts : int;  (** synopsis re-cuts on pressure change *)
  tier : string;  (** ladder tier currently serving *)
  updates : int;  (** point deltas journaled and applied (live only) *)
  bound : float;
      (** stated max-error bound of the served synopsis (live only;
          [0.] on a read-only server — read the ladder's re-measured
          guarantee instead) *)
}

val stats : t -> stats
(** Point-in-time counters (stable once {!run} returns). *)

val registry : t -> Wavesyn_obs.Registry.t
(** The registry carrying the [server.*] metrics (the one passed to
    {!create}, or the private one it made). *)
