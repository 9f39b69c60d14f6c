(* Workload profiler: fold the live request stream into a
   deterministic sketch of the query mix.

   The sketch is four plain counters keyed by the query kinds of
   [Wavesyn_aqp.Workload] — no sampling, no decay, no clocks — so two
   servers fed the same request schedule hold identical sketches at
   every round boundary, which is what lets the tier planner
   ({!Tiers}) stay a pure function of the schedule. *)

module Workload = Wavesyn_aqp.Workload
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

type kind = [ `Point | `Range | `Selectivity | `Quantile ]

type t = {
  mutable points : int;
  mutable ranges : int;
  mutable selectivities : int;
  mutable quantiles : int;
  c_points : Metric.counter option;
  c_ranges : Metric.counter option;
  c_selectivities : Metric.counter option;
  c_quantiles : Metric.counter option;
}

let create ?obs () =
  let instrument kind =
    Option.map
      (fun reg ->
        Registry.counter reg
          ~help:"queryable requests observed by the workload profiler"
          ~unit_:"requests"
          ~labels:[ ("kind", kind) ]
          "adaptive.observed")
      obs
  in
  {
    points = 0;
    ranges = 0;
    selectivities = 0;
    quantiles = 0;
    c_points = instrument "point";
    c_ranges = instrument "range";
    c_selectivities = instrument "selectivity";
    c_quantiles = instrument "quantile";
  }

let observe t (kind : kind) =
  match kind with
  | `Point ->
      t.points <- t.points + 1;
      Metric.incr_opt t.c_points
  | `Range ->
      t.ranges <- t.ranges + 1;
      Metric.incr_opt t.c_ranges
  | `Selectivity ->
      t.selectivities <- t.selectivities + 1;
      Metric.incr_opt t.c_selectivities
  | `Quantile ->
      t.quantiles <- t.quantiles + 1;
      Metric.incr_opt t.c_quantiles

let observed t =
  {
    Workload.points = t.points;
    ranges = t.ranges;
    selectivities = t.selectivities;
    quantiles = t.quantiles;
  }

let total t = t.points + t.ranges + t.selectivities + t.quantiles
