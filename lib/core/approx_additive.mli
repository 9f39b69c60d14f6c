(** The ε-additive-error approximation scheme for multi-dimensional
    deterministic thresholding (Section 3.2.1, Theorem 3.2).

    Incoming additive path errors are rounded to breakpoints
    [{0} ∪ {±(1+ε)^k}], so the DP tabulates only
    [O((D + log R + log log N) / ε)] error values per (node, budget)
    pair instead of exhaustively enumerating ancestor subsets. Works for
    both maximum-error metrics and for any dimensionality (including
    [D = 1], which the test suite cross-validates against the exact
    {!Minmax_dp}).

    [epsilon] here is the {e per-rounding} ratio. Accumulated over a
    root-to-leaf path the worst-case additive deviation from the true
    optimum is bounded by {!guarantee_bound}; to obtain the theorem's
    [εR] form, pass [epsilon /. (2^D * log2 N)] (helper
    {!theorem_epsilon}). *)

type result = {
  bound : float;
      (** the DP's own estimate of the achieved maximum error (metric
          units); approximate in both directions because of rounding *)
  synopsis : Wavesyn_synopsis.Synopsis.Md.md;
  measured : float;  (** true maximum error of [synopsis] *)
  dp_states : int;
}

val solve_tree :
  ?on_state:(unit -> unit) ->
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  epsilon:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  result
(** [epsilon] must be in (0, 1]. Runs {!Md_dp.run} on {!config} and
    finishes with {!result_of}. [on_state] is forwarded to
    {!Md_dp.run}: called once per fresh DP state, may raise to abort
    (see [Wavesyn_robust.Deadline]). *)

val solve :
  ?on_state:(unit -> unit) ->
  data:Wavesyn_util.Ndarray.t ->
  budget:int ->
  epsilon:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  result

val solve_1d :
  ?on_state:(unit -> unit) ->
  data:float array ->
  budget:int ->
  epsilon:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  float * Wavesyn_synopsis.Synopsis.t
(** One-dimensional convenience instantiation: returns the measured
    maximum error and the synopsis (indices in {!Wavesyn_haar.Haar1d}
    numbering). *)

val config :
  tree:Wavesyn_haar.Md_tree.t ->
  epsilon:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  Md_dp.config option
(** The DP {!solve_tree} runs: wavelet values as they are, incoming
    errors rounded to the breakpoints, nothing forced. [None] when
    every coefficient is zero, so no DP is needed. Raises
    [Invalid_argument] unless [epsilon] is in (0, 1]. *)

val result_of :
  tree:Wavesyn_haar.Md_tree.t ->
  Wavesyn_synopsis.Metrics.error_metric ->
  Md_dp.outcome option ->
  result
(** The result of the DP's outcome: its retained coefficients as the
    synopsis, measured with their true maximum error. [None] (no DP
    ran) gives the empty synopsis with [bound = 0]. *)

val guarantee_bound :
  tree:Wavesyn_haar.Md_tree.t ->
  epsilon:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  float
(** Worst-case additive deviation from the optimal maximum error for
    the given per-rounding [epsilon]:
    [ε * R * 2^D * (log2 N + 1)] (divided by the sanity bound for the
    relative metric), following the proof of Theorem 3.2. *)

val theorem_epsilon : tree:Wavesyn_haar.Md_tree.t -> float -> float
(** [theorem_epsilon ~tree eps] is the per-rounding ratio that makes
    {!guarantee_bound} equal [eps * R] — the ε' of Theorem 3.2. *)
