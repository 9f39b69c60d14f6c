(** MinMaxErr: optimal deterministic one-dimensional wavelet
    thresholding for maximum-error metrics (Section 3.1, Figure 3).

    The dynamic program conditions the optimal error of an error
    subtree [T_j] on (a) the budget [b] allotted to the subtree and
    (b) the subset [S] of proper ancestors of [c_j] retained in the
    synopsis, encoded as a bitmask over the at most [log2 N + 1]
    ancestors on the root path. Because every proper ancestor keeps a
    constant sign over all of [T_j], the subset determines a single
    scalar "incoming reconstruction" that is threaded down the
    recursion.

    The split of a node's budget between its two children is the
    paper's crossover search (the child error is monotone in its
    allotment). The total running time is [O(N^2 B log B)], and the
    default kernel evaluates it bottom-up in Theorem 3.1's working
    space: one row of (ancestor mask, budget) cells per node and at
    most two live rows per depth, so at most [4 N log2 N] cells with
    the budget cap. The forward pass also stores the split decisions
    of the top depths' cells, as many depths as fit in what the arena
    leaves of that bound; the retrace reads them there and recomputes
    the rows of the deeper nodes.

    The kernel's evaluation order, working set, cost per cell and
    allocation profile (none per DP cell) are specified in
    [docs/KERNELS.md]. The test suite checks it bit for bit against the
    paper's top-down memo kernel, and its optimality against exhaustive
    search; both oracles live in [test/oracle], not in this library. *)

type split_strategy =
  | Binary_search
      (** the paper's O(log B) crossover search (default), swept along
          a row at one comparison per cell *)
  | Linear_scan  (** O(B) scan over allotments; for ablation (E12) *)

type result = {
  max_err : float;  (** optimal value [M[0, B, {}]] *)
  synopsis : Wavesyn_synopsis.Synopsis.t;
      (** a synopsis achieving [max_err] (size at most [budget]) *)
  dp_states : int;
      (** DP cells computed: every cell of the forward pass and of the
          retrace *)
  working_cells : int;
      (** cells of DP storage the solve held: the arena plus the stored
          decisions, at most [4 N log2 N] with the budget cap *)
}

val solve :
  ?split:split_strategy ->
  ?cap_budget:bool ->
  ?on_state:(unit -> unit) ->
  data:float array ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  result
(** [solve ~data ~budget metric] minimizes the maximum relative or
    absolute error over all synopses of at most [budget] coefficients.
    [data] length must be a power of two; [budget >= 0].

    [cap_budget] (default true) caps each subtree's allotment at the
    number of coefficients it contains — a state-space reduction that
    changes neither the optimum nor the synopsis. Both knobs exist for
    the E12 ablation.

    [on_state] is invoked once per computed DP cell, counted as
    [dp_states] (retrace included), and may raise to abort the solve
    cooperatively — this is how [Wavesyn_robust.Deadline] bounds the
    DP's runtime. The default does nothing. Aborting mid-solve simply
    discards the partial rows. *)

type budget_search = {
  best : result;
      (** the solution at the smallest feasible budget (or at the full
          nonzero-coefficient budget when the target is infeasible) *)
  budget : int;  (** the budget [best] was solved at *)
  feasible : bool;
      (** whether [best.max_err <= target]; [false] means the target
          cannot be reached even retaining every nonzero coefficient
          (only possible for [target < 0] in practice, since the full
          set reconstructs exactly) *)
}
(** Outcome of the dual search: the chosen solution plus an explicit
    feasibility verdict, so callers can tell an achieved target from a
    best-effort fallback. *)

val budget_for :
  data:float array ->
  target:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  budget_search
(** The dual problem: the smallest budget whose optimal maximum error
    is at most [target]. A DP cell holds the best error with at most
    its budget, so the root's row of one forward pass at the count of
    nonzero coefficients holds the optimum of every budget up to it:
    the search reads that row, with no retrace, and [best] is then one
    {!solve} at the budget found (the same result as a direct solve
    there, [dp_states] included). A target met at budget 0 is answered
    by that solve alone, with no forward pass. *)

val solve_tree :
  ?split:split_strategy ->
  ?cap_budget:bool ->
  ?on_state:(unit -> unit) ->
  tree:Wavesyn_haar.Error_tree.t ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  result
(** Same, over a prebuilt error tree (avoids re-decomposing). *)
