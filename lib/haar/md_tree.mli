(** Multi-dimensional error-tree structure (Section 2.2 / Figure 2).

    For a D-dimensional array of side [n = 2^L], the tree has:

    - a root holding the single overall-average coefficient, with one
      child (the level-0 cube covering the whole array);
    - internal nodes [Cube {level; q}] for [level in [0, L)] and cube
      coordinates [q in [0, 2^level)^D], each holding the [2^D - 1]
      coefficients that share the node's support region, with [2^D]
      children (the quadrants);
    - data cells as leaves below the level [L - 1] cubes.

    Coefficients are referred to by their flat (row-major) position in
    the wavelet array, which is how synopses store them. *)

type t

type node = Root | Cube of { level : int; q : int array }

type children = Nodes of node list | Cells of int array list
(** Children of a node: either deeper cubes or data cells. The list
    order is the quadrant order: child rank [r] has quadrant offset
    [delta_i = (r lsr i) land 1] along dimension [i]. *)

val of_data : Wavesyn_util.Ndarray.t -> t
(** Build the tree (computes the nonstandard transform). *)

val data : t -> Wavesyn_util.Ndarray.t
val wavelet : t -> Wavesyn_util.Ndarray.t
val ndim : t -> int
val side : t -> int
val levels : t -> int

val children : t -> node -> children

val node_coeffs : t -> node -> (int * float) array
(** [(flat position, value)] pairs: one entry (the overall average) for
    [Root], [2^D - 1] entries for a cube (zero values included). *)

val sign_to_child : t -> node -> coeff_flat:int -> child_rank:int -> int
(** Contribution sign of one of the node's coefficients to everything
    below child [child_rank]. The overall average contributes [+1]
    everywhere. *)

val cell_ranges : t -> node -> (int * int) array
(** Per-dimension half-open cell ranges of the node's support region. *)

val node_count : t -> int
(** Total number of tree nodes (root + cubes), excluding data cells. *)

val all_coeffs : t -> (int * float) list
(** Every coefficient as [(flat position, value)], including zeros. *)

val nonzero_coeffs : t -> (int * float) list
(** Coefficients with non-zero value. *)

val point_from_set : t -> (int * float) list -> int array -> float
(** Reconstruct one cell from a sparse coefficient set given as
    [(flat position, value)] pairs. *)

val max_abs_coeff : t -> float
(** The paper's [R]. *)

val fold_cells : t -> ('a -> int array -> float -> 'a) -> 'a -> 'a
(** Fold over all data cells (index array reused between calls). *)
