(** The reference [Md_dp] kernel: the original top-down recursion over
    a tuple-keyed memo Hashtbl, with its own node table built from the
    tree, [Wavesyn_core.Md_dp]'s equivalence oracle. Its outcomes equal
    the library kernel's in every field, [dp_states] included. *)

val run :
  ?on_state:(unit -> unit) ->
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  Wavesyn_core.Md_dp.config ->
  Wavesyn_core.Md_dp.outcome option
(** [Md_dp.run] on the reference kernel: [None] when the forced
    coefficients alone exceed the budget; [on_state] fires once per
    memo state. *)

val approx_abs :
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  epsilon:float ->
  Wavesyn_core.Approx_abs.result
(** [Approx_abs.solve_tree] with every τ candidate's config (from
    [Approx_abs.candidates]) run on the reference kernel and merged by
    [Approx_abs.merge]. *)

val approx_additive :
  tree:Wavesyn_haar.Md_tree.t ->
  budget:int ->
  epsilon:float ->
  Wavesyn_synopsis.Metrics.error_metric ->
  Wavesyn_core.Approx_additive.result
(** [Approx_additive.solve_tree] with its config (from
    [Approx_additive.config]) run on the reference kernel and finished
    by [Approx_additive.result_of]. *)
