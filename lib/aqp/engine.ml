module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Minmax_dp = Wavesyn_core.Minmax_dp
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Prob_synopsis = Wavesyn_baselines.Prob_synopsis
module Prng = Wavesyn_util.Prng
module Stats = Wavesyn_util.Stats

type strategy =
  | L2_greedy
  | Minmax of Metrics.error_metric
  | Greedy_maxerr of Metrics.error_metric
  | Probabilistic of {
      strategy : Prob_synopsis.strategy;
      metric : Metrics.error_metric;
      seed : int;
    }

let strategy_name = function
  | L2_greedy -> "l2-greedy"
  | Minmax Metrics.Abs -> "minmax-abs"
  | Minmax (Metrics.Rel _) -> "minmax-rel"
  | Greedy_maxerr Metrics.Abs -> "greedy-maxerr-abs"
  | Greedy_maxerr (Metrics.Rel _) -> "greedy-maxerr-rel"
  | Probabilistic { strategy = Prob_synopsis.Min_rel_var; _ } -> "minrelvar"
  | Probabilistic { strategy = Prob_synopsis.Min_rel_bias; _ } -> "minrelbias"

type t = { relation : Relation.t; synopsis : Synopsis.t }

let build relation ~budget strategy =
  let data = Relation.frequencies relation in
  let synopsis =
    match strategy with
    | L2_greedy -> Greedy_l2.threshold ~data ~budget
    | Minmax metric -> (Minmax_dp.solve ~data ~budget metric).Minmax_dp.synopsis
    | Greedy_maxerr metric -> Greedy_maxerr.threshold ~data ~budget metric
    | Probabilistic { strategy; metric; seed } ->
        let plan = Prob_synopsis.build ~data ~budget strategy metric in
        Prob_synopsis.round plan (Prng.create ~seed)
  in
  { relation; synopsis }

let relation t = t.relation
let synopsis t = t.synopsis
let budget_used t = Synopsis.size t.synopsis

module Ladder = Wavesyn_robust.Ladder

type 'a answer = { exact : 'a; approx : 'a; abs_err : float; rel_err : float }

let mk_answer exact approx =
  let abs_err = Float.abs (exact -. approx) in
  { exact; approx; abs_err; rel_err = abs_err /. Float.max (Float.abs exact) 1. }

let point t i =
  let data = Relation.frequencies t.relation in
  if i < 0 || i >= Relation.domain t.relation then
    invalid_arg "Engine.point: value out of domain";
  mk_answer data.(i) (Synopsis.reconstruct_point t.synopsis i)

let range_sum t ~lo ~hi =
  let data = Relation.frequencies t.relation in
  let exact = Range_query.range_sum_exact data ~lo ~hi in
  let approx = Range_query.range_sum t.synopsis ~lo ~hi in
  mk_answer exact approx

let selectivity t ~lo ~hi =
  let data = Relation.frequencies t.relation in
  let n = Array.length data in
  let total = Range_query.range_sum_exact data ~lo:0 ~hi:(n - 1) in
  let exact =
    if total <= 0. then 0.
    else Range_query.range_sum_exact data ~lo ~hi /. total
  in
  mk_answer exact (Range_query.selectivity t.synopsis ~lo ~hi)

let range_sum_interval t ~lo ~hi =
  let per_cell =
    Metrics.of_synopsis Metrics.Abs
      ~data:(Relation.frequencies t.relation)
      t.synopsis
  in
  Range_query.range_sum_bounded t.synopsis ~per_cell_bound:per_cell ~lo ~hi

type workload_report = {
  queries : int;
  mean_rel_err : float;
  max_rel_err : float;
  p95_rel_err : float;
  mean_abs_err : float;
  max_abs_err : float;
}

let run_range_workload t ranges =
  let answers = List.map (fun (lo, hi) -> range_sum t ~lo ~hi) ranges in
  let rels = Array.of_list (List.map (fun a -> a.rel_err) answers) in
  let abss = Array.of_list (List.map (fun a -> a.abs_err) answers) in
  {
    queries = List.length answers;
    mean_rel_err = Stats.mean rels;
    max_rel_err = Wavesyn_util.Float_util.max_abs rels;
    p95_rel_err = (if Array.length rels = 0 then 0. else Stats.percentile rels 95.);
    mean_abs_err = Stats.mean abss;
    max_abs_err = Wavesyn_util.Float_util.max_abs abss;
  }

let guarantee t metric =
  Metrics.of_synopsis metric ~data:(Relation.frequencies t.relation) t.synopsis

(* --- crash recovery of a supervised store --- *)

module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis

type recovered = {
  engine : t;
  tier : Ladder.tier;
  guarantee : float;
  updates : int;
  seq : int;
  recovery : Supervisor.recovery;
}

let recover ?obs ?trace ?deadline_ms ~dir () =
  match Supervisor.recover ~dir with
  | Error _ as e -> e
  | Ok r -> (
      let cfg = r.Supervisor.r_config in
      let data = Stream_synopsis.current_data r.Supervisor.r_stream in
      match
        Ladder.serve ?obs ?trace ?deadline_ms ~epsilon:cfg.Supervisor.epsilon
          ~data ~budget:cfg.Supervisor.budget cfg.Supervisor.metric
      with
      | Error _ as e -> e
      | Ok served ->
          Ok
            {
              engine =
                {
                  relation = Relation.create ~name:("store:" ^ dir) data;
                  synopsis = served.Ladder.synopsis;
                };
              tier = served.Ladder.tier;
              guarantee = served.Ladder.max_err;
              updates = Stream_synopsis.updates_seen r.Supervisor.r_stream;
              seq = r.Supervisor.r_seq;
              recovery = r.Supervisor.r_recovery;
            })
