(** The (1+ε)-approximation scheme for maximum {e absolute} error in
    multiple dimensions (Section 3.2.2, Theorem 3.4).

    For each threshold [τ ∈ {2^k}], the scheme runs a truncated integer
    DP in which every coefficient is scaled down to
    [⌊c / K_τ⌋] with [K_τ = ε τ / (2^D log N)], and every coefficient
    with [|c| > τ] is forced into the synopsis. Dropped coefficients
    then have scaled magnitude at most [2^D log N / ε], so the DP's
    incoming-error range is polynomially bounded. The candidate synopsis
    of each τ is evaluated with its {e true} (unscaled) maximum absolute
    error and the best one is returned; by Proposition 3.3 the result is
    within [(1+ε)] of optimal once ε is pre-divided by 4
    ({!theorem_epsilon}). *)

type result = {
  max_err : float;  (** true measured maximum absolute error *)
  synopsis : Wavesyn_synopsis.Synopsis.Md.md;
  tau : float;  (** the winning threshold *)
  dp_states : int;  (** summed across all τ sweeps *)
  sweeps : int;  (** number of τ values actually run *)
}

val solve_tree :
  ?pool:Wavesyn_par.Pool.t ->
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  epsilon:float ->
  unit ->
  result
(** [epsilon] in (0, 1], [budget >= 0]. Guarantee:
    [max_err <= (1 + 4 epsilon) * OPT].

    Runs [Md_dp.run] on every {!candidates} config and {!merge}s the
    outcomes. With [pool], the independent per-τ DPs run across the
    pool's domains; the merge is the sequential sweep's, so the result
    (synopsis, winning τ, state counts) is bit-for-bit identical for
    every pool size. The DP skeleton of the tree is built once and
    shared by every τ candidate (and every pool domain); see
    [docs/KERNELS.md]. *)

val solve :
  ?pool:Wavesyn_par.Pool.t ->
  data:Wavesyn_util.Ndarray.t ->
  budget:int ->
  epsilon:float ->
  unit ->
  result
(** {!solve_tree} over a freshly decomposed [data]. *)

val solve_1d :
  ?pool:Wavesyn_par.Pool.t ->
  data:float array ->
  budget:int ->
  epsilon:float ->
  unit ->
  float * Wavesyn_synopsis.Synopsis.t
(** One-dimensional convenience wrapper around {!solve}. *)

type candidate = {
  tau : float;  (** the threshold: coefficients above it are forced *)
  config : Md_dp.config;  (** the truncated integer DP at this τ *)
}
(** One run of the τ sweep. *)

val candidates :
  tree:Wavesyn_haar.Md_tree.t -> budget:int -> epsilon:float -> candidate array
(** The τ sweep's runnable candidates in ascending τ, the configs
    {!solve_tree} runs. τ ranges over the powers of two covering the
    non-zero coefficient magnitudes. A τ whose forced set exceeds
    [budget] is skipped, and so is a τ whose scaled coefficient
    magnitude [R / K_τ] would exceed the safe [2^62] integer-key range
    (it cannot be keyed exactly). Raises [Invalid_argument] if [budget]
    is negative or [epsilon] is not in (0, 1]. *)

val merge :
  tree:Wavesyn_haar.Md_tree.t ->
  (candidate * Md_dp.outcome option) array ->
  result
(** [merge ~tree outcomes] measures each candidate's synopsis with its
    true maximum absolute error and keeps the best in array order
    (ascending τ) with a strict [<], so the first best wins; the empty
    synopsis seeds the fold. {!result.dp_states} and {!result.sweeps}
    count the [Some] outcomes only. *)

val theorem_epsilon : float -> float
(** [theorem_epsilon eps = eps / 4]: the internal ε that yields a
    [(1 + eps)] overall guarantee (final step of Theorem 3.4). *)
