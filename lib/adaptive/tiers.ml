(* Tiered pre-cut synopses: a coarse→fine ladder of budgets built
   ahead of overload, so a pressure change swaps the serving synopsis
   instead of re-cutting it.

   One entry per pressure level, level 0 the finest: the full budget
   cut at the ladder's exact top, coarser levels at geometrically
   shrinking budgets and the cheaper solver tops the pressure ladder
   would have re-cut with anyway ([`Approx], then [`Greedy], by
   [Ladder.top_of_pressure]). The budget schedule is chosen
   from the observed mix, not only from pressure: a range/quantile-
   heavy mix floors every degraded level at half the budget, because
   range sums and prefix-sum bisections degrade with every dropped
   coefficient, while a point-heavy mix tolerates the full geometric
   decay. Everything here is deterministic — budgets from (budget,
   levels, mix), synopses from [Ladder.serve] with no deadline — so a
   tier swap is as reproducible as the re-cut it replaces. *)

module Ladder = Wavesyn_robust.Ladder
module Workload = Wavesyn_aqp.Workload
module Synopsis = Wavesyn_synopsis.Synopsis
module Validate = Wavesyn_robust.Validate

type entry = {
  e_level : int;
  e_budget : int;
  e_name : string;
  e_synopsis : Synopsis.t;
  e_bound : float;
}

type t = { entries : entry array; built_seq : int }

(* Range sums, selectivities and quantile bisections read many
   coefficients per answer; point lookups only a root-to-leaf path. A
   mix dominated by the former deserves a higher budget floor under
   pressure. *)
let heavy mix =
  let t = Workload.mix_total mix in
  t > 0
  && 2 * (mix.Workload.ranges + mix.Workload.selectivities + mix.Workload.quantiles)
     > t

let plan ~budget ~levels ~mix =
  if levels < 1 then invalid_arg "Tiers.plan: levels must be at least 1";
  if budget < 1 then invalid_arg "Tiers.plan: budget must be at least 1";
  let floor_shift = if heavy mix then 1 else levels - 1 in
  List.init levels (fun k ->
      Stdlib.max 1 (budget asr Stdlib.min k floor_shift))

let build ~epsilon ~metric ~data ~budget ~levels ~mix ~seq =
  let budgets = Array.of_list (plan ~budget ~levels ~mix) in
  let entries = Array.make (Array.length budgets) None in
  let failed = ref None in
  Array.iteri
    (fun k b ->
      if !failed = None then
        match
          Ladder.serve ~epsilon ~top:(Ladder.top_of_pressure k) ~data
            ~budget:b metric
        with
        | Ok served ->
            entries.(k) <-
              Some
                {
                  e_level = k;
                  e_budget = b;
                  e_name =
                    Printf.sprintf "precut(b=%d,%s)" b
                      (Ladder.tier_name served.Ladder.tier);
                  e_synopsis = served.Ladder.synopsis;
                  e_bound = served.Ladder.max_err;
                }
        | Error e -> failed := Some e)
    budgets;
  match !failed with
  | Some e -> Error e
  | None -> Ok { entries = Array.map Option.get entries; built_seq = seq }

let levels t = Array.length t.entries

let select t ~level =
  let level = Stdlib.max 0 (Stdlib.min level (levels t - 1)) in
  t.entries.(level)

let built_seq t = t.built_seq
let fresh t ~seq = t.built_seq = seq

let describe t =
  String.concat ","
    (Array.to_list (Array.map (fun e -> e.e_name) t.entries))
