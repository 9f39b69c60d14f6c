(** Instrument primitives: counters, gauges and fixed-bucket
    histograms.

    These are the raw mutable cells; {!Registry} owns naming, label
    sets and exposition. Every operation is allocation-free and O(1)
    (histogram observation is O(buckets), with a small fixed bucket
    count), so instruments are safe to update from serving hot paths.
    Nothing here locks: the library targets the single-threaded serving
    loop, matching the rest of wavesyn. *)

(** {1 Counters} *)

type counter
(** A monotonically non-decreasing integer (events since creation). *)

val counter : unit -> counter

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). Raises [Invalid_argument] on negative [by] —
    counters only go up; use a {!gauge} for values that can fall. *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge
(** A point-in-time float (last value wins). *)

val gauge : unit -> gauge
val set : gauge -> float -> unit

val set_int : gauge -> int -> unit
(** [set_int g i] is [set g (float_of_int i)] without boxing the float
    at the call site, so a per-request integer gauge costs no
    allocation. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram
(** A fixed-boundary histogram: observations are counted into the
    first bucket whose upper bound is [>= v], with an implicit
    [+infinity] overflow bucket, plus exact running [count], [sum],
    [min] and [max]. Quantiles are estimated by linear interpolation
    inside the covering bucket ({!quantile}). *)

val histogram : ?bounds:float array -> unit -> histogram
(** [bounds] are strictly increasing, finite upper bounds. Raises
    [Invalid_argument] if empty, non-finite or not strictly increasing.
    The default is log-spaced 10µs … 10s in milliseconds — wide enough
    for a journal fsync and a full MinMaxErr DP alike:
    [0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
    250, 500, 1000, 2500, 10000]. *)

val observe : histogram -> float -> unit
(** Record one observation. Non-finite values are counted (in [count]
    and the overflow bucket) but excluded from [sum]/[min]/[max], so a
    stray NaN cannot poison the aggregates. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_min : histogram -> float
(** Smallest finite observation; [nan] before the first one. *)

val hist_max : histogram -> float
(** Largest finite observation; [nan] before the first one. *)

val bucket_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts; one extra trailing cell for the
    overflow bucket. A copy. *)

val cumulative : histogram -> (float * int) list
(** Prometheus-style cumulative view: [(upper_bound, count_le)] per
    finite bound, then [(infinity, total_count)]. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) assuming
    a uniform distribution inside the covering bucket, clamped to the
    observed [min]/[max]. [nan] when empty. Raises [Invalid_argument]
    when [q] is outside [0, 1]. *)

val quantile_le : histogram -> float -> float
(** [quantile_le h q] is the {e deterministic} quantile bound exported
    by the exposition formats: the smallest bucket upper bound [b]
    such that at least [ceil (q * count)] observations fell in buckets
    with bound [<= b] ([infinity] when only the overflow bucket
    qualifies, [nan] when empty). A pure function of the bucket counts
    — no interpolation against the timing-dependent [min]/[max] — so
    two histograms over the same observation multiset always export
    identical values, which is what lets [wavesyn stats] pin p50/p95/
    p99 in golden tests. Raises [Invalid_argument] when [q] is outside
    [0, 1]. *)
