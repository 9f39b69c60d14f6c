(** The one-dimensional error-tree structure of Section 2.1 / Figure 1(a).

    For a data array of size [N] (a power of two), nodes are indexed
    [0 .. 2N - 1]:

    - node [0] is the overall average [c_0], whose single child is node 1;
    - node [j] with [1 <= j < N] is the detail coefficient [c_j], with
      children [2j] and [2j + 1];
    - node [j] with [N <= j < 2N] is the leaf holding data value
      [d_{j - N}].

    The structure also stores the data values, so that thresholding
    algorithms can evaluate reconstruction errors directly. *)

type t

val of_data : float array -> t
(** Build the tree (computes the wavelet transform). O(N). *)

val n : t -> int
(** Number of data cells. *)

val data : t -> float array
(** The underlying data array (not a copy; do not mutate). *)

val coeffs : t -> float array
(** The wavelet transform (not a copy; do not mutate). *)

val coeff : t -> int -> float
(** Coefficient value of internal node [j < n]. *)

val leaf_value : t -> int -> float
(** Data value at leaf node [j] with [n <= j < 2n]. *)

val is_leaf : t -> int -> bool

val children : t -> int -> int list
(** [children t 0 = [1]]; internal [j] has [[2j; 2j+1]]; a leaf has
    none. *)

val parent : t -> int -> int
(** Parent node index; raises [Invalid_argument] for the root. *)

val depth : t -> int -> int
(** Number of proper ancestors of node [j] ([0] for the root). At most
    [log2 n + 1] for a leaf. *)

val ancestors : t -> int -> int list
(** Proper ancestors of node [j], root first: [[0; 1; ...; parent j]].
    Includes zero-valued coefficients (the paper's [path(u)] filters
    them out). *)

val subtree_coeff_count : t -> int -> int
(** Number of coefficients inside the subtree rooted at node [j]
    (including [j] itself when it is internal; [0] for leaves). This
    bounds how much synopsis budget the subtree can usefully consume. *)

val sign_to_child : t -> node:int -> child:int -> int
(** [+1] when [node]'s coefficient adds positively to all leaves under
    [child] (left child, or the overall average), [-1] otherwise. *)

val leaves_under : t -> int -> int * int
(** Half-open range of data-cell indices covered by the subtree at
    node [j]. *)

val max_abs_coeff : t -> float
(** The paper's [R]: largest absolute coefficient value. *)
