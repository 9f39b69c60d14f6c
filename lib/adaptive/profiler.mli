(** Workload profiler: a deterministic sketch of the observed query
    mix.

    Folds the serving tier's queryable requests into per-kind counters
    over the query kinds of {!Wavesyn_aqp.Workload} — no sampling, no
    decay, no wall clock — so the sketch at any round boundary is a
    pure function of the request schedule. The tier planner
    ({!Tiers}) reads it as a {!Wavesyn_aqp.Workload.mix}; with an
    observability registry the counts are exposed as the
    [adaptive.observed] counter family of docs/OBSERVABILITY.md. *)

type kind = [ `Point | `Range | `Selectivity | `Quantile ]
(** The queryable request kinds a server can observe. Wire traffic has
    no SELECTIVITY verb (selectivity queries travel as RANGE), so
    [`Selectivity] is only seen by in-process callers. *)

type t

val create : ?obs:Wavesyn_obs.Registry.t -> unit -> t
(** An empty sketch. Its counts are the [adaptive.observed] counters
    (labelled [kind=point/range/selectivity/quantile]), registered in
    [obs] when given, in a private registry otherwise. *)

val observe : t -> kind -> unit
(** Count one request of the given kind. *)

val observed : t -> Wavesyn_aqp.Workload.mix
(** The sketch as a workload mix: observed counts per kind, the form
    {!Tiers.build} plans budgets from and
    {!Wavesyn_aqp.Workload.mix_to_string} renders. *)

val total : t -> int
(** Total requests observed. *)
