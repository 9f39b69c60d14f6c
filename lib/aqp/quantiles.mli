(** Quantile estimation over a frequency vector from its wavelet
    synopsis.

    For a relation summarized as a frequency vector, the [q]-quantile
    is the smallest domain value whose cumulative frequency reaches a
    [q] fraction of the total. Cumulative frequencies are prefix range
    sums, which the synopsis answers from the error-tree path of one
    cell in O(log N). The binary search over them descends the error
    tree once, looking each descent node's coefficient up once, so a
    quantile costs O(log² N) — no data access. *)

val cumulative : Wavesyn_synopsis.Synopsis.t -> int -> float
(** Estimated cumulative frequency of domain values [0 .. i]. *)

type refusal =
  | Q_outside  (** [q] is not in [[0, 1]] (NaN included) *)
  | Total_not_positive  (** the estimated total is [<= 0] *)

val refusal_message : refusal -> string
(** The one message per refusal, e.g.
    ["Quantiles: q must be in [0, 1]"]. *)

val search : n:int -> q:float -> (int -> float) -> (int, refusal) result
(** [search ~n ~q cumulative]: the quantile search every backend runs
    over its own prefix sums [cumulative i] (cells [0 .. i] of an
    [n]-cell domain). Refuses a bad [q] before any probe, takes the
    total as [cumulative (n - 1)], refuses a non-positive total, then
    bisects for the smallest [i] with [cumulative i >= q * total]
    (one valid crossing if the prefix sums dip). O(log n) probes. *)

val search_synopsis :
  Wavesyn_synopsis.Synopsis.t -> q:float -> (int, refusal) result
(** {!search} over {!cumulative} of the synopsis, with the same result
    when the retained values are finite, computed by
    {!Wavesyn_synopsis.Range_query.prefix_crossing} in
    O(log² N): no closure, and nothing allocated but the
    result. An infinite retained value turns neither the total nor a
    probe NaN where it only adds [inf * 0] to the full path sum. *)

val estimate : Wavesyn_synopsis.Synopsis.t -> q:float -> int
(** [estimate syn ~q] with [q] in [[0, 1]]: smallest domain value whose
    estimated cumulative frequency is [>= q * total]. Negative
    reconstructed frequencies are tolerated (estimates are monotonized
    by the binary search on the prefix sums). {!search_synopsis};
    raises [Invalid_argument] with the
    {!refusal_message} when it refuses. *)

val median : Wavesyn_synopsis.Synopsis.t -> int
(** [estimate ~q:0.5]. *)

val exact : float array -> q:float -> int
(** Reference implementation over the raw frequencies. *)
