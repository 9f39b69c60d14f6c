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
  c_points : Metric.counter;
  c_ranges : Metric.counter;
  c_selectivities : Metric.counter;
  c_quantiles : Metric.counter;
}

let create ?obs () =
  let reg = match obs with Some r -> r | None -> Registry.create () in
  let counter kind =
    Registry.counter reg
      ~help:"queryable requests observed by the workload profiler"
      ~unit_:"requests"
      ~labels:[ ("kind", kind) ]
      "adaptive.observed"
  in
  {
    c_points = counter "point";
    c_ranges = counter "range";
    c_selectivities = counter "selectivity";
    c_quantiles = counter "quantile";
  }

let observe t (kind : kind) =
  Metric.incr
    (match kind with
    | `Point -> t.c_points
    | `Range -> t.c_ranges
    | `Selectivity -> t.c_selectivities
    | `Quantile -> t.c_quantiles)

let observed t =
  let v = Metric.counter_value in
  {
    Workload.points = v t.c_points;
    ranges = v t.c_ranges;
    selectivities = v t.c_selectivities;
    quantiles = v t.c_quantiles;
  }

let total t =
  let v = Metric.counter_value in
  v t.c_points + v t.c_ranges + v t.c_selectivities + v t.c_quantiles
