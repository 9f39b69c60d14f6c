(** Tiered pre-cut synopses: one serving synopsis per pressure level,
    built ahead of overload.

    The pressure ladder of the serving tier ([Admit]) degrades quality
    under load by re-cutting the synopsis at a cheaper
    {!Wavesyn_robust.Ladder} top — a full solve on the pressure-change
    round. A tier ladder pre-cuts every level up front: level 0 is the
    full budget at [`Minmax], deeper levels shrink the budget
    geometrically and use the level's own ladder top ([`Approx], then
    [`Greedy], by {!Wavesyn_robust.Ladder.top_of_pressure}), so a
    pressure change becomes an O(1) swap to an already-built
    synopsis.

    The budget schedule is workload-aware: {!plan} floors every
    degraded level at half the budget when the observed mix
    ({!Profiler.observed}) is range/selectivity/quantile-heavy (those
    answers read many coefficients), and lets the budget decay
    geometrically for point-heavy mixes. Building is deterministic —
    no deadlines, no clocks — so serving from a pre-cut tier preserves
    the byte-identical-transcript contract of docs/SERVING.md.

    A ladder is valid for the journal sequence it was built at
    ({!built_seq}): after a write advances the store, {!fresh} turns
    false and the server falls back to the plain re-cut path until the
    next rebuild (the [--adapt-every] cadence). *)

type entry = {
  e_level : int;  (** pressure level this entry serves, 0 the finest *)
  e_budget : int;  (** coefficient budget the level was cut at *)
  e_name : string;
      (** transcript tier name, e.g. ["precut(b=4,greedy-maxerr)"] —
          what OVERLOAD replies advertise while this entry serves *)
  e_synopsis : Wavesyn_synopsis.Synopsis.t;
  e_bound : float;  (** re-measured max-error guarantee of the entry *)
}

type t

val plan :
  budget:int -> levels:int -> mix:Wavesyn_aqp.Workload.mix -> int list
(** The budget schedule, finest first: level [k] gets
    [max 1 (budget / 2^k)], floored at [budget / 2] for every degraded
    level when the mix is range/selectivity/quantile-heavy (strictly
    more than half the observed weight). Raises [Invalid_argument] on
    [levels < 1] or [budget < 1]. *)

val build :
  epsilon:float ->
  metric:Wavesyn_synopsis.Metrics.error_metric ->
  data:float array ->
  budget:int ->
  levels:int ->
  mix:Wavesyn_aqp.Workload.mix ->
  seq:int ->
  (t, Wavesyn_robust.Validate.error) result
(** Cut one synopsis per level of {!plan} over [data] (no deadline, so
    the result is deterministic), recording [seq] as the journal
    sequence the ladder reflects. The error is the first level's
    ladder failure — which cannot happen for finite data, as the
    greedy floor is total. *)

val select : t -> level:int -> entry
(** The entry serving a pressure level, clamped to the built range. *)

val levels : t -> int
(** Number of pre-cut levels. *)

val built_seq : t -> int
(** The journal sequence passed to {!build}. *)

val fresh : t -> seq:int -> bool
(** Whether the ladder still reflects the store: [built_seq t = seq].
    Stale ladders must not serve — their bounds predate the writes. *)

val describe : t -> string
(** Comma-joined entry names, finest first — the startup log line. *)
