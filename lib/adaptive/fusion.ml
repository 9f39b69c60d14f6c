(* Aliases onto the one evaluation path; see fusion.mli. *)

type plan = Wavesyn_synopsis.Synopsis.t

let plan syn = syn
let range_sum = Wavesyn_synopsis.Range_query.range_sum
let quantile = Wavesyn_aqp.Quantiles.estimate
