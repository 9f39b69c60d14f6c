(** Standard multi-dimensional Haar decomposition (Section 2.2).

    The paper's Section 2.2 notes that the one-dimensional transform
    generalizes to multiple dimensions by two distinct constructions:
    the {e nonstandard} decomposition (implemented in {!Haar_md}, used
    by the error-tree machinery) and the {e standard} decomposition
    implemented here, which applies the complete one-dimensional
    transform along each dimension in turn.

    Standard-basis coefficients are tensor products of one-dimensional
    basis functions at {e independent} per-dimension levels, so their
    support regions are not nested the way the error-tree DP requires —
    which is why the thresholding algorithms operate on the nonstandard
    form. The standard form is provided for completeness and for
    L2-greedy thresholding comparisons. *)

val decompose : Wavesyn_util.Ndarray.t -> Wavesyn_util.Ndarray.t
(** Full 1-D transform applied along dimension 0, then 1, ... All
    dimensions must be equal powers of two. O(N log N). *)

val reconstruct : Wavesyn_util.Ndarray.t -> Wavesyn_util.Ndarray.t
(** Inverse (1-D inverses in reverse dimension order). *)

val point : wavelet:Wavesyn_util.Ndarray.t -> int array -> float
(** Reconstruct one cell in O((log N)^D) by combining the per-dimension
    path signs. *)

val threshold_l2 :
  data:Wavesyn_util.Ndarray.t -> budget:int -> (int * float) list
(** Conventional thresholding in the standard basis: the [budget]
    (flat position, value) pairs with the largest normalized magnitude. *)

val reconstruct_from : dims:int array -> (int * float) list -> Wavesyn_util.Ndarray.t
(** Reconstruct an approximation from a sparse standard-basis set. *)
