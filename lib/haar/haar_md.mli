(** Nonstandard multi-dimensional Haar decomposition (Section 2.2).

    The input is a D-dimensional {!Wavesyn_util.Ndarray.t} whose
    dimensions are all equal to the same power of two [n = 2^L] (pad
    first otherwise). The transform proceeds level by level from the
    finest scale: each [2^D]-cell block is replaced by one average and
    [2^D - 1] detail coefficients produced by applying the pairwise
    average/difference step along every dimension in turn.

    Coefficient layout: at scale [s in {n/2, n/4, ..., 1}], the details
    of the block with cube coordinates [q in [0, s)^D] are stored at
    positions [q + delta * s] for [delta in {0,1}^D \ {0}], and the
    overall average at the origin. For [D = 1] this reproduces the
    {!Haar1d} layout exactly. *)

val decompose : Wavesyn_util.Ndarray.t -> Wavesyn_util.Ndarray.t
(** Forward nonstandard transform (unnormalized, paper convention).
    Raises [Invalid_argument] when dimensions are unequal or not powers
    of two. O(N) for N total cells. *)

val decompose_parallel :
  ?num_domains:int -> Wavesyn_util.Ndarray.t -> Wavesyn_util.Ndarray.t
(** Same transform computed with OCaml 5 domains: each resolution level
    is a parallel-for over its independent blocks (double-buffered, so
    the blocks share no mutable state). [num_domains] defaults to
    [Domain.recommended_domain_count ()]; small inputs fall back to the
    sequential path. Bit-for-bit equal to {!decompose}. *)

val reconstruct : Wavesyn_util.Ndarray.t -> Wavesyn_util.Ndarray.t
(** Inverse transform. *)

val point : wavelet:Wavesyn_util.Ndarray.t -> int array -> float
(** Reconstruct a single cell in O(2^D log N). *)

val side_of_dims : int array -> int
(** The common dimension size [n] of a cube of shape [dims], checked
    from the shape alone: raises [Invalid_argument] unless [dims] is a
    valid {!Wavesyn_util.Ndarray} shape whose dimensions are equal
    powers of two. *)

val side : Wavesyn_util.Ndarray.t -> int
(** {!side_of_dims} of the array's shape. *)

val levels : Wavesyn_util.Ndarray.t -> int
(** [L = log2 n]. *)

val support_of_coeff : Wavesyn_util.Ndarray.t -> int array -> (int * int) array
(** Half-open per-dimension cell ranges that the coefficient stored at
    the given wavelet-array position contributes to. *)

val sign_at : Wavesyn_util.Ndarray.t -> coeff:int array -> cell:int array -> int
(** Contribution sign ([+1]/[-1]) of the coefficient at position
    [coeff] to the reconstruction of [cell]; [0] outside its support.
    Generalizes {!Haar1d.sign} and reproduces Figure 1(b). *)

val sign : side:int -> coeff:int array -> cell:int array -> int
(** {!sign_at} for a cube of side [side] and rank [Array.length coeff],
    without the array. *)
