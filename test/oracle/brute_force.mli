(** Exact optimum by exhaustive subset enumeration.

    Exponential-time reference implementation used to validate the
    dynamic programs on small instances (tests only).
    Enumerates every subset of at most [budget] non-zero coefficients
    and evaluates the true maximum error. *)

val optimal_1d :
  data:float array ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  float * Wavesyn_synopsis.Synopsis.t
(** Optimal objective value and one synopsis achieving it.
    Cost is [O(C(#nonzero, <= budget) * N log N)] — keep [N <= 32]. *)

val optimal_md :
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  float * Wavesyn_synopsis.Synopsis.Md.md
(** Multi-dimensional analogue; keep the total cell count [<= 16]. *)
