(** Bitmask helpers for subset enumeration in the dynamic programs. *)

val popcount : int -> int
(** Number of set bits (argument must be non-negative). *)

val iter_submasks : int -> (int -> unit) -> unit
(** [iter_submasks m f] calls [f] on every submask of [m], including [0]
    and [m] itself. *)

val iter_masks : int -> (int -> unit) -> unit
(** [iter_masks w f] calls [f] on every mask of [w] bits,
    i.e. [0 .. 2^w - 1]. *)

val to_list : int -> int list
(** Indices of the set bits, ascending. *)
