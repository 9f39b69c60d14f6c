(** Key-range sharding: the partition map and the scatter-gather
    router that serves a domain split across shard servers.

    The domain [\[0, n)] is tiled by contiguous key ranges, one shard
    per range, each shard an ordinary {!Server} over its sub-domain.
    The router owns no synopsis: POINT and UPDATE forward to the
    owning shard with the cell rebased to shard-local coordinates,
    RANGE scatter-gathers per-shard sub-range sums merged in
    shard-index order, QUANTILE re-runs the [Quantiles.estimate]
    bisection over composed per-shard prefix sums, and INGEST storms
    split per owner after global validation. A serving round's reads
    reach each shard as one frame ({!eval_round}). Every fan-out walks the
    shards in shard-index order — never arrival order — so merged
    replies are a pure function of the request schedule and shard
    states, and byte-identical to the unsharded server's on
    exactly-reconstructing configurations (see docs/SERVING.md). *)

(** One shard's key range, inclusive on both ends. *)
type range = { lo : int; hi : int }

type rpc = Wire.request -> (Wire.reply list, Wavesyn_robust.Validate.error) result
(** A shard backend: sends one request, returns the reply frames in
    order. [Server.create] wires these to {!Client.request} or
    [Failover.rpc] so the router is transport- and failover-agnostic. *)

val split : n:int -> shards:int -> (range list, string) result
(** [split ~n ~shards] tiles [\[0, n)] into [shards] equal contiguous
    ranges. The count must be a power of two dividing [n], so each
    sub-domain is itself a wavelet domain; the error is a
    human-readable reason otherwise. *)

val parse_ranges : n:int -> string -> (range list, string) result
(** Parse an explicit ["LO-HI,LO-HI,..."] partition spec (the CLI's
    [--shard-ranges]). The ranges must tile [\[0, n)] contiguously and
    each length must be a power of two. *)

val check_ranges : n:int -> range list -> (unit, string) result
(** Validate that ranges tile [\[0, n)] contiguously with nonempty
    power-of-two lengths. [split] and [parse_ranges] outputs always
    pass; use this on ranges built by hand. *)

(** A scatter-gather router over a fixed shard topology. *)
type t

val router :
  n:int -> ?seqs:int array -> ranges:range list -> rpc array -> (t, string) result
(** [router ~n ~ranges rpcs] builds a router for domain [\[0, n)] with
    [rpcs.(k)] serving [List.nth ranges k]. [seqs] seeds the per-shard
    journal sequences (from each shard store's recovered sequence), so
    the first ACKED global sequence continues the pre-shard history;
    it defaults to all zeros. Errors on a range list that fails
    {!check_ranges} or does not match the backend count. *)

val set_cache : t -> cap:int -> unit
(** Install a sub-range sum memo of at most [cap] entries
    ({!Wavesyn_adaptive.Rcache}, keyed by one int per sub-range, its
    global bounds packed as [lo * n + hi], so a probe allocates
    nothing). A memo hit skips the sub-range a RANGE
    merge or QUANTILE bisection would have sent — {!eval_round} does
    not gather a sub-range the memo holds; the memo is
    flushed on every event that can change a shard's synopsis — write
    acks and RETIER broadcasts — so merged replies are byte-identical
    memo-on vs memo-off (see docs/ADAPTIVE.md). Raises
    [Invalid_argument] on [cap < 1] or a domain of [2^31] cells or
    more. *)

val memo_hits : t -> int
(** Sub-range sums answered from the memo; 0 when none is installed. *)

val memo_misses : t -> int
(** Sub-range sums that went to a shard despite an installed memo; 0
    when none is installed. *)

val eval_round : ?len:int -> t -> Wire.request array -> Wire.reply array
(** Answer one serving round's reads (POINT, RANGE, QUANTILE) — the
    first [len] of [reqs], default all — by scatter-gather, replies
    positional, with domain validation and error messages mirroring
    the unsharded server's.

    The round's POINT cells and the RANGE sub-ranges the memo does not
    hold are gathered per shard in arrival order, and each shard gets
    one frame, in shard-index order: a lone sub-request as a plain
    frame, several as one [BATCH]. Each request then composes its reply
    from those answers, in arrival order; QUANTILE's dependent
    bisection probes go through the memo and then a frame each. A
    gathered reply that is not a VALUE, a miscounted batch or a
    transport failure falls back to a frame of its own for that
    sub-request, so error replies are those of the one-frame-per-
    sub-request path. A shard transport failure surfaces as an
    [Error {code = Internal}] reply naming the shard.

    A request adds at most one sub-request per shard, so no frame holds
    more entries than [len]: shards whose queue bound is
    at least the front-end's never shed. *)

val eval : t -> Wire.request -> Wire.reply
(** [eval t req] is {!eval_round} on the one-request round [[| req |]]:
    every sub-request travels as a plain frame. *)

val write : t -> Wire.request -> Wire.reply
(** Apply a write (UPDATE, INGEST) through the owning shard(s). Storms
    are validated globally before any shard sees a delta — the same
    atomic-on-validation contract and messages as the unsharded path —
    then split per owner and applied in shard-index order. ACKED
    replies carry the global sequence ({!seq}). *)

val retier : t -> int -> unit
(** Broadcast the router's admission pressure level to every shard
    (the RETIER verb) so overload degradation matches the unsharded
    ladder. No-op when the level is unchanged; best-effort per shard. *)

val shutdown : t -> unit
(** Broadcast SHUTDOWN to every shard, in shard-index order. *)

val stats_sections : t -> string
(** Per-shard STATS tables, each under a ["== shard k [lo, hi] =="]
    header, concatenated in shard-index order — appended to the
    router's own table by the server's STATS reply. *)
