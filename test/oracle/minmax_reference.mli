(** The reference MinMaxErr kernel: the original top-down recursion
    over a tuple-keyed memo Hashtbl, [Wavesyn_core.Minmax_dp]'s
    equivalence oracle. It evaluates the same recurrence with the same
    float operations and tie-breaks, so [max_err] bits and the synopsis
    equal the library's; [dp_states] and [working_cells] count its
    distinct memo states. *)

val solve :
  ?split:Wavesyn_core.Minmax_dp.split_strategy ->
  ?cap_budget:bool ->
  ?on_state:(unit -> unit) ->
  data:float array ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  Wavesyn_core.Minmax_dp.result
(** [Minmax_dp.solve] on the reference kernel; [on_state] fires once
    per memo state. *)

