(** Dense D-dimensional float arrays in row-major layout.

    This is the numeric substrate for multi-dimensional wavelet
    decomposition: OCaml has no ergonomic built-in for strided
    multi-dimensional float data, so we provide a small one. Indices are
    [int array]s of length {!ndim}. *)

type t

val create : dims:int array -> float -> t
(** [create ~dims x] is a new array of shape [dims] filled with [x].
    Every dimension must be [>= 1]. *)

val check_dims : int array -> unit
(** Raises [Invalid_argument] unless [dims] is a shape {!create}
    accepts: non-empty, every dimension [>= 1]. *)

val init : dims:int array -> (int array -> float) -> t
(** [init ~dims f] fills each cell [idx] with [f idx]. The index array
    passed to [f] is reused; copy it if you keep it. *)

val dims : t -> int array
(** Shape (a copy; mutating it does not affect the array). *)

val ndim : t -> int
(** Number of dimensions. *)

val size : t -> int
(** Total number of cells. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit

val get_flat : t -> int -> float
(** Row-major flat access. *)

val set_flat : t -> int -> float -> unit

val flat_of_index : t -> int array -> int
(** Row-major linearization of an index. *)

val index_of_flat : t -> int -> int array
(** Inverse of {!flat_of_index} (fresh array). *)

val unflatten : dims:int array -> int -> int array
(** {!index_of_flat} from the shape alone, for callers that hold dims
    but no array: a fresh array of [Array.length dims] ints. *)

val of_flat_array : dims:int array -> float array -> t
(** Wrap a row-major flat array (no copy). Length must equal the product
    of [dims]. *)

val to_flat_array : t -> float array
(** Copy of the underlying row-major data. *)

val copy : t -> t

val map : (float -> float) -> t -> t

val iteri : (int array -> float -> unit) -> t -> unit
(** Iterate in row-major order; the index array is reused between calls. *)

val equal : ?eps:float -> t -> t -> bool
(** Shape equality plus cellwise {!Float_util.approx_equal}. *)

val max_abs : t -> float
(** Largest absolute cell value. *)
