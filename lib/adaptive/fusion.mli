(** Compatibility aliases for the per-layer replay benchmark.

    A synopsis now carries its coefficients' supports
    ({!Wavesyn_synopsis.Synopsis.supports}), so there is nothing left
    to plan per round: these names forward to the one range-sum and
    quantile path and are kept only for callers that still use them. *)

type plan = Wavesyn_synopsis.Synopsis.t

val plan : Wavesyn_synopsis.Synopsis.t -> plan
(** The synopsis itself. *)

val range_sum : plan -> lo:int -> hi:int -> float
(** [Wavesyn_synopsis.Range_query.range_sum]. *)

val quantile : plan -> q:float -> int
(** [Wavesyn_aqp.Quantiles.estimate]. *)
