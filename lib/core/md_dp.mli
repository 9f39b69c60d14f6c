(** Shared engine for the approximate multi-dimensional dynamic programs
    of Section 3.2.

    Both the ε-additive scheme (3.2.1) and the truncated integer DP
    underlying the (1+ε) absolute-error scheme (3.2.2) tabulate states
    [(error-tree node, budget, incoming additive error)] and differ only
    in how coefficient values and incoming errors are represented:

    - the additive scheme rounds every child's incoming error to a
      breakpoint of the form [±(1+ε)^k];
    - the integer scheme keeps errors exact over (scaled) integer
      coefficients and optionally {e forces} large coefficients into the
      synopsis.

    This module implements the common recurrence: per node, enumerate
    retained subsets [s] of the node's non-zero coefficients (supersets
    of the forced set), propagate the incoming error plus the dropped
    coefficients' signed contributions to each child, and split the
    remaining budget across children with the sequential child-list
    generalization described in the paper. States are memoized top-down,
    so only reachable incoming-error values are ever tabulated.

    The kernel stores per-node budget rows keyed by the rounded-error
    key and reuses per-depth scratch buffers; [docs/KERNELS.md] states
    the layout and allocation contract. The test suite checks its
    outcomes bit for bit against the original tuple-keyed Hashtbl
    kernel, which lives in [test/oracle], not in this library. *)

type config = {
  coeff_value : int -> float;
      (** DP-units value of the coefficient at a flat wavelet position
          (e.g. scaled integer, as a float). *)
  round_error : float -> float;
      (** Applied to every child's incoming error (identity for the
          integer scheme). *)
  key_of_error : float -> int;
      (** Hash key for a rounded error value. Must be deterministic and
          injective on the image of [round_error]. *)
  forced : int -> bool;
      (** Coefficient must be retained (the [S_{>tau}] set of 3.2.2). *)
  leaf_denominator : int array -> float;
      (** The paper's [r] for a data cell: [max (|d_i|, s)] for relative
          error, [1] for absolute error. *)
}

type outcome = {
  value : float;
      (** DP objective in DP units: the (approximate) minimal maximum of
          [|incoming error| / r] over all cells. *)
  retained : int list;  (** flat wavelet positions chosen *)
  dp_states : int;
}

type skeleton
(** The tau-independent static structure of one error tree: dense node
    ids, per-node coefficient positions, per-child sign columns,
    children and subtree caps. Building it walks the whole tree once;
    one skeleton serves the many {!run} calls of a tau sweep (and every
    pool domain — it is immutable after construction). *)

val skeleton : tree:Wavesyn_haar.Md_tree.t -> skeleton
(** Precompute the static structure of [tree] for {!run}. *)

val run :
  ?on_state:(unit -> unit) -> skeleton -> budget:int -> config -> outcome option
(** [run sk ~budget cfg] solves the DP over the tree [sk] was built
    from. [None] when the forced coefficients alone exceed the budget.

    [on_state] is invoked once per freshly computed DP state (a memo
    miss) and may raise to abort the run cooperatively — this is how
    [Wavesyn_robust.Deadline] bounds the DP's runtime. *)
