(** Deterministic result cache: an epoch-keyed memo table.

    A polymorphic memo whose validity is governed by a single integer
    {e epoch} supplied on every operation — for the serving tier, a
    counter advanced exactly when the journal sequence moves (UPDATE /
    INGEST acked) or the serving synopsis is re-cut. An epoch mismatch
    flushes the whole table before the operation proceeds, so entries
    computed against an older serving state can never answer. When the
    epoch is a pure function of the request schedule, so is the entire
    cache state — the determinism contract docs/ADAPTIVE.md states and
    the cram suite pins (byte-identical transcripts cache-on vs
    cache-off).

    Capacity is bounded by flush-on-full: inserting a fresh key into a
    full table clears the table first. The eviction pattern therefore
    depends only on the insert sequence, never on recency clocks.

    Each {!find}, {!mem} and {!add} hashes its key exactly once, with
    the [hash] given to {!create}, and compares it with that [equal]
    only against entries of the same hash: {!add} is one find-or-insert. *)

type ('k, 'v) t

val create :
  ?obs:Wavesyn_obs.Registry.t ->
  ?cap:int ->
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** An empty cache holding at most [cap] entries (default 4096), keyed
    by [equal] (default [( = )]) under [hash] (default [Hashtbl.hash]);
    keys that are [equal] must have equal hashes. Its
    [serve.cache.hits] / [serve.cache.misses] /
    [serve.cache.invalidations] counters (which {!hits}, {!misses} and
    {!invalidations} read) and [serve.cache.size] gauge of
    docs/OBSERVABILITY.md are registered in [obs] when given, in a
    private registry otherwise. Raises [Invalid_argument] on
    [cap < 1]. *)

val find : ('k, 'v) t -> epoch:int -> 'k -> 'v option
(** Sync to [epoch] (flushing on a change), then look up. Counted as a
    hit or miss. *)

val mem : ('k, 'v) t -> epoch:int -> 'k -> bool
(** Whether a {!find} at [epoch] would hit, without syncing, counting
    a lookup or touching any instrument: a key stored under another
    epoch is not held. *)

val add : ('k, 'v) t -> epoch:int -> 'k -> 'v -> unit
(** Sync to [epoch], then insert. A key already present is left as is
    (the stored value was computed under this epoch and is identical
    by determinism); a fresh key into a full table flushes first. *)

val size : _ t -> int
(** Entries currently stored. *)

val hits : _ t -> int
(** Lookups answered from the table since creation. *)

val misses : _ t -> int
(** Lookups that fell through since creation. *)

val invalidations : _ t -> int
(** Whole-table flushes since creation (epoch advances observed at an
    operation, plus capacity flushes). *)
