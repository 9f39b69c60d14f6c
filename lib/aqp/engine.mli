(** Approximate-query-processing engine over a wavelet synopsis.

    Ties the substrate together: pick a thresholding strategy, build a
    synopsis of a relation, and answer point / range-sum / selectivity
    queries approximately with per-answer error accounting. *)

type strategy =
  | L2_greedy
      (** conventional largest-normalized-coefficient thresholding *)
  | Minmax of Wavesyn_synopsis.Metrics.error_metric
      (** the paper's optimal deterministic DP *)
  | Greedy_maxerr of Wavesyn_synopsis.Metrics.error_metric
      (** greedy max-error heuristic *)
  | Probabilistic of {
      strategy : Wavesyn_baselines.Prob_synopsis.strategy;
      metric : Wavesyn_synopsis.Metrics.error_metric;
      seed : int;
    }  (** randomized-rounding synopses of [7, 8] (one draw) *)

val strategy_name : strategy -> string

type t

val build : Relation.t -> budget:int -> strategy -> t
(** Construct the synopsis for a relation. *)

val relation : t -> Relation.t
val synopsis : t -> Wavesyn_synopsis.Synopsis.t
val budget_used : t -> int

type 'a answer = {
  exact : 'a;
  approx : 'a;
  abs_err : float;
  rel_err : float;  (** relative to the exact answer, sanity bound 1 *)
}

val point : t -> int -> float answer
(** Frequency of one domain value. *)

val range_sum : t -> lo:int -> hi:int -> float answer
(** COUNT/SUM over an inclusive domain range. *)

val selectivity : t -> lo:int -> hi:int -> float answer
(** Fraction of the total mass inside the range. *)

val range_sum_interval : t -> lo:int -> hi:int -> float * float
(** [(estimate, half_width)]: a range-sum answer with a hard error bar,
    derived from the synopsis' true per-value maximum absolute error
    (the deterministic guarantee the paper's algorithms optimize). The
    exact answer always lies within [estimate ± half_width]. *)

type workload_report = {
  queries : int;
  mean_rel_err : float;
  max_rel_err : float;
  p95_rel_err : float;
  mean_abs_err : float;
  max_abs_err : float;
}

val run_range_workload : t -> (int * int) list -> workload_report
(** Aggregate error statistics of range-sum answers over a workload. *)

val guarantee : t -> Wavesyn_synopsis.Metrics.error_metric -> float
(** The synopsis' actual maximum per-value reconstruction error under
    the given metric — the deterministic guarantee the paper's
    algorithms optimize. *)

(** {1 Recovered stores}

    A store written through {!Wavesyn_robust.Supervisor} (checkpointed
    snapshots plus a write-ahead journal) can be reopened read-only as
    a query engine. *)

type recovered = {
  engine : t;  (** query engine over the recovered state *)
  tier : Wavesyn_robust.Ladder.tier;  (** tier that re-cut the synopsis *)
  guarantee : float;
  updates : int;  (** updates folded into the recovered state *)
  seq : int;  (** last durable sequence number *)
  recovery : Wavesyn_robust.Supervisor.recovery;
}

val recover :
  ?obs:Wavesyn_obs.Registry.t ->
  ?trace:Wavesyn_obs.Trace.sink ->
  ?deadline_ms:float ->
  dir:string ->
  unit ->
  (recovered, Wavesyn_robust.Validate.error) result
(** Read-only crash recovery: rebuild the state from the newest
    verifiable snapshot generation plus journal replay, then re-cut a
    synopsis through the ladder (under [deadline_ms], if given; with
    [obs]/[trace], the re-cut records ladder metrics and spans). A
    missing store directory is an [Io_error]. *)
