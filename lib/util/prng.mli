(** Deterministic pseudo-random streams.

    Every randomized component of the library (data generators, randomized
    rounding) threads one of these states explicitly, so that all
    experiments and tests are reproducible from a seed. *)

type t
(** A mutable pseudo-random stream. *)

val create : seed:int -> t
(** Fresh stream from an integer seed. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [[0, bound)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [[0, bound)]; [bound >= 1]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
