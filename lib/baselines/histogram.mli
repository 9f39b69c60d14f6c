(** Bucket histograms: the classic synopsis family the paper's related
    work contrasts with wavelets (histogram construction is the
    "related problem" of [18]).

    A histogram partitions the domain [[0, N)] into [B] contiguous
    buckets, each storing one representative value. Storage is
    comparable to a [B]-coefficient wavelet synopsis (one boundary plus
    one value per bucket vs. one index plus one value per coefficient),
    which makes histograms the natural equal-budget comparator for the
    experiment suite (E15).

    Two optimal constructions are provided, both O(N^2 B) dynamic
    programs over bucket end points:

    - {!v_optimal}: minimizes the sum of squared errors with per-bucket
      means (the V-optimal histogram of Jagadish et al.);
    - {!max_error_optimal}: minimizes the maximum {e absolute} error
      with per-bucket midrange representatives — the histogram
      counterpart of the paper's MinMaxErr objective. (For the relative
      metric, the histogram is built for absolute error and then
      evaluated under the requested metric; an exact relative-optimal
      bucket representative has no O(1) incremental form.)

    Plus {!equal_width} as the trivial baseline. *)

type t

val buckets : t -> (int * int * float) list
(** [(lo, hi, value)] per bucket with inclusive cell bounds, ascending
    and covering the domain exactly. *)

val size : t -> int
(** Number of buckets. *)

val n : t -> int
(** Domain size. *)

val reconstruct : t -> float array

val range_sum : t -> lo:int -> hi:int -> float
(** Inclusive range sum from representatives, O(log B + #overlapped). *)

val v_optimal : data:float array -> buckets:int -> t

val max_error_optimal : data:float array -> buckets:int -> t
(** Minimizes [max_i |d_i - value(bucket_of i)|]. *)

val equal_width : data:float array -> buckets:int -> t
(** Uniform bucket widths with per-bucket means. *)

val max_abs_err : t -> data:float array -> float
(** Convenience: maximum absolute error of the histogram. *)
