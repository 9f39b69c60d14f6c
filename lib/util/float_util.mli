(** Floating-point helpers shared across the library. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** [approx_equal a b] is true when [a] and [b] differ by at most [eps]
    in absolute terms, or by [eps] relative to the larger magnitude.
    Default [eps] is [1e-9]. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] limits [x] to the closed interval [lo, hi]. *)

val is_pow2 : int -> bool
(** True when the (positive) argument is a power of two. *)

val next_pow2 : int -> int
(** Smallest power of two that is [>=] the argument (argument must be
    [>= 1]). *)

val log2i : int -> int
(** [log2i n] is the exact base-2 logarithm of [n]; raises
    [Invalid_argument] when [n] is not a positive power of two. *)

val floor_log2 : int -> int
(** [floor_log2 n] is [floor (log2 n)] for [n >= 1]. *)

val sum : float array -> float
(** Kahan-compensated sum of an array. *)

val max_abs : float array -> float
(** Largest absolute value in the array; [0.] for an empty array. *)
