(** Wavelet synopses: sparse sets of retained Haar coefficients
    (Section 2.3).

    A synopsis stores [B << N] coefficients; all others are implicitly
    zero. One-dimensional synopses address coefficients by their
    {!Wavesyn_haar.Haar1d} index; multi-dimensional ones by the flat
    row-major position in the wavelet array. *)

type t
(** One-dimensional synopsis. *)

val make : n:int -> (int * float) list -> t
(** [make ~n coeffs] builds a synopsis over a domain of [n] cells ([n]
    a power of two). Raises [Invalid_argument] on out-of-range or
    duplicate indices. Coefficients with value [0.] are dropped. *)

val of_wavelet : wavelet:float array -> int list -> t
(** Retain the given indices of a full transform. *)

val n : t -> int
(** Domain size. *)

val size : t -> int
(** Number of retained (non-zero) coefficients — the space the synopsis
    actually occupies. *)

val coeffs : t -> (int * float) list
(** Retained coefficients, sorted by index. *)

type supports = {
  index : int array;  (** coefficient index, ascending *)
  value : float array;  (** coefficient value *)
  start : int array;  (** first cell of the support *)
  mid : int array;  (** first cell of the negative half *)
  stop : int array;  (** one past the last cell of the support *)
  level : int array;
      (** [log2 n + 1] entries: [level.(l)] is the first slot whose
          index is at least [2^l], so detail level [l] occupies slots
          [[level.(l), level.(l+1))], c0 (when retained) is slot 0
          below [level.(0)], and [level.(log2 n)] is B. *)
  rank : int array;
      (** The rank index, [ceil (n / 32)] entries: entry [b] holds in
          its low 32 bits the membership mask of indices
          [32b .. 32b + 31] (bit [j land 31] set iff [j] is retained)
          and above them the number of retained indices below [32b].
          Read through {!slot}. *)
}
(** The retained coefficients as parallel arrays in ascending index
    order, each with its {!Wavesyn_haar.Haar1d.support} [[start, stop)]
    and midpoint, computed once by {!make}, plus the rank index that
    maps a coefficient index to its slot: O(B + log N) words and
    [ceil (N / 32)] for the index. That is a dense table, but 32 times
    smaller than the O(N) data or coefficient array every serving
    backend already holds, and it makes each lookup O(1). The average
    [c0] has no negative half: its midpoint is [stop = n]. Read-only
    and never changed after {!make}: the arrays are shared with the
    synopsis, and any number of domains may read them at once. *)

val supports : t -> supports
(** Flat per-coefficient view that {!Range_query.range_sum} walks. O(1). *)

val slot : supports -> int -> int
(** [slot s j], for [j] in [[0, n)]: the slot of coefficient [j]
    (its position in [s.index]) when it is retained, else [-1]. One
    load, one bit test and one popcount; allocation-free. *)

val mem : t -> int -> bool
(** Is this coefficient index retained? O(1). *)

val reconstruct_point : t -> int -> float
(** Approximate data value [d_i] from the retained coefficients on
    cell [i]'s error-tree path only, each found by one {!slot}
    lookup: O(log N), allocating only the boxed result. Equal bit for
    bit to
    {!Wavesyn_haar.Haar1d.point_from_set} over {!coeffs} when every
    retained value is finite. With an infinite value retained, cells
    outside its support stay finite (the full fold adds [0 * inf =
    nan] to each of them). Raises [Invalid_argument] on a cell outside
    [[0, n)] of a non-empty synopsis. *)

val reconstruct : t -> float array
(** All approximate data values: scatter the retained coefficients into
    a zero transform and invert, O(N). *)

val level_histogram : t -> int array
(** Number of retained coefficients per resolution level (index 0 =
    the coarsest level, which can hold both [c_0] and [c_1]); length
    [max 1 (log2 n)]. Used to study where a thresholding strategy
    spends its budget. *)

val describe : t -> string
(** Human-readable listing such as ["{c0=2.75; c1=-1.25}"]. *)

val to_string : t -> string
(** Compact textual serialization. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Failure] on malformed input. *)

(** Multi-dimensional synopses. *)
module Md : sig
  type md

  val make : dims:int array -> (int * float) list -> md
  (** Coefficients given as (flat position, value); dimensions must be
      equal powers of two. *)

  val of_tree : Wavesyn_haar.Md_tree.t -> (int * float) list -> md

  val dims : md -> int array
  val size : md -> int
  val coeffs : md -> (int * float) list

  val reconstruct_cell : md -> int array -> float
  (** Approximate value of one cell in O(B 2^D). *)

  val reconstruct : md -> Wavesyn_util.Ndarray.t
  (** All approximate cell values via the inverse transform. *)
end
