(** The quantile bisection walked probe by probe (tests only): the
    reference that [Range_query.prefix_crossing]'s error-tree descent
    must match bit for bit on finite retained values. *)

val prefix_crossing :
  ?probe:(int -> float -> unit) -> Wavesyn_synopsis.Synopsis.t -> q:float -> int
(** [-1] when the full-path total [range_sum ~lo:0 ~hi:(n - 1)] is not
    positive, else the bisection for the smallest [i] with
    [range_sum ~lo:0 ~hi:i >= q *. total], each probe a full
    [Range_query.range_sum] (both ends' error-tree paths, O(log N)).
    [probe mid sum] sees every probe's cell and prefix sum in order. *)
