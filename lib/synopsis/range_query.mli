(** Range-aggregate answering directly from a wavelet synopsis.

    This is the approximate-query-processing substrate of Matias,
    Vitter & Wang [15] and Vitter & Wang [21]: a retained coefficient
    contributes to the sum over a range in closed form, so a range-SUM
    over any rectangle costs O(B) (times D for multi-dimensional data)
    instead of touching the data. In one dimension only the retained
    coefficients on the error-tree paths of the range's two ends
    contribute, so a range sum reads O(log N) of them, each found in
    O(1) through the synopsis's rank index ({!Synopsis.slot}). *)

val range_sum_exact : float array -> lo:int -> hi:int -> float
(** Exact sum of [data.(lo .. hi)] (inclusive bounds). *)

val range_sum : Synopsis.t -> lo:int -> hi:int -> float
(** Approximate sum of the reconstructed values over [lo .. hi]
    (inclusive), in O(log N), allocating only the boxed result.
    Each retained coefficient on the error-tree path of [lo] or [hi]
    contributes [c * (overlap with its positive half - overlap with
    its negative half)]; every other one would contribute [c * 0].
    With finite retained values the result equals, bit for bit, the
    sum of all B such terms in ascending index order. An infinite
    retained value makes that full sum NaN for every range ([inf * 0]);
    here it reaches only the ranges whose end paths hold it. *)

val prefix_crossing : Synopsis.t -> q:float -> int
(** [prefix_crossing syn ~q], for [q] in [[0, 1]]: with [total] the
    full-domain {!range_sum}, [-1] when [total <= 0.], else the
    bisection of {!Wavesyn_aqp.Quantiles.search} for the smallest [i]
    with [range_sum ~lo:0 ~hi:i >= q *. total] (one valid crossing if
    the prefix sums dip), with the same probes and comparisons.
    The bisection is one descent of the error tree: the probe at a
    level-[k] node sums c0 and the descent's nodes at levels [0 .. k],
    each node's coefficient looked up once, and the total is c0's term
    alone. O(log² N); allocation-free. With finite
    retained values every probe equals its {!range_sum} bit for bit.
    An infinite retained value deeper on a probe's path, whose two
    halves the probe covers, no longer turns that probe NaN
    ([inf * 0]), nor does one anywhere below c0 turn the total NaN. *)

val range_avg : Synopsis.t -> lo:int -> hi:int -> float
(** Approximate average over the range. *)

val selectivity : Synopsis.t -> lo:int -> hi:int -> float
(** For a frequency-vector interpretation of the data: the fraction of
    the total count that falls in [lo .. hi]. The total is itself
    estimated from the synopsis, as {!prefix_crossing} takes it: c0's
    term alone. Returns [0.] when the estimated total is not
    positive. *)

val range_sum_bounded :
  Synopsis.t -> per_cell_bound:float -> lo:int -> hi:int -> float * float
(** [(estimate, half_width)]: the range-sum estimate together with a
    hard error bar derived from a per-value guarantee (e.g. the
    [max_err] of a {!Wavesyn_core.Minmax_dp} synopsis under the
    absolute metric): the exact sum lies within
    [estimate ± (hi - lo + 1) * per_cell_bound]. This is what turns
    the paper's deterministic guarantees into guaranteed query
    intervals. *)

val range_sum_exact_md :
  Wavesyn_util.Ndarray.t -> ranges:(int * int) array -> float
(** Exact sum over a hyper-rectangle given per-dimension inclusive
    bounds [(lo_k, hi_k)]. *)

val range_sum_md : Synopsis.Md.md -> ranges:(int * int) array -> float
(** Approximate hyper-rectangle sum from a multi-dimensional synopsis
    in O(B D). *)
