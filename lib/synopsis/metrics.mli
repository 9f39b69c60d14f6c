(** Approximation-error metrics (Sections 2.3 and 3.1).

    The two metrics the paper optimizes are

    - maximum absolute error:  [max_i |d_i - d̂_i|]
    - maximum relative error with sanity bound [s]:
      [max_i |d_i - d̂_i| / max (|d_i|, s)]

    The sanity bound prevents tiny data values from dominating the
    relative error (footnote 2 of the paper). *)

type error_metric =
  | Abs  (** maximum absolute error *)
  | Rel of { sanity : float }  (** maximum relative error, sanity bound > 0 *)

val denominator : error_metric -> float -> float
(** [denominator metric d] is the paper's [r]: [max (|d|, s)] for
    relative error, [1] for absolute error. *)

val per_point : error_metric -> data:float array -> approx:float array -> float array
(** Pointwise error values. Arrays must have equal length. *)

val max_error : error_metric -> data:float array -> approx:float array -> float
(** The objective the thresholding algorithms minimize. *)

val max_error_md :
  error_metric ->
  data:Wavesyn_util.Ndarray.t ->
  approx:Wavesyn_util.Ndarray.t ->
  float

val of_synopsis : error_metric -> data:float array -> Synopsis.t -> float
(** Max error of a one-dimensional synopsis against the original data. *)

val of_md_synopsis :
  error_metric -> data:Wavesyn_util.Ndarray.t -> Synopsis.Md.md -> float

type summary = {
  max_abs : float;
  max_rel : float;  (** with the sanity bound used to build the summary *)
  mean_abs : float;
  mean_rel : float;
  rms : float;  (** root-mean-squared (L2-average) error *)
  argmax_abs : int;  (** flat index of the worst absolute error *)
  argmax_rel : int;
}

val summary : ?sanity:float -> data:float array -> approx:float array -> unit -> summary
(** Full error profile; [sanity] defaults to [1.0]. *)

val pp_summary : Format.formatter -> summary -> unit
