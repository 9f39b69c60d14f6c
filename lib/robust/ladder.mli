(** Graceful degradation: serve every thresholding request.

    The ladder tries tiers in decreasing quality order, each under its
    own slice of the caller's deadline:

    + {!Minmax} — the exact DP (Theorem 3.1), optimal but
      [O(N^2 B log B)]; gets half the deadline.
    + {!Approx_additive} — the ε-additive scheme (Theorem 3.2) at the
      caller's ε (a quarter of the deadline), retried once at a doubled
      ε (an eighth) — coarser rounding means fewer DP states.
    + {!Greedy_maxerr} — the greedy heuristic, run {e without} deadline
      enforcement as the floor of the ladder, so a request is always
      served (and retried once fault-free if fault injection corrupted
      it).

    Whatever tier answers, its reported [max_err] is {e re-measured}
    against the pristine input with [Metrics.of_synopsis] — never
    trusted from the (possibly fault-injected, possibly rounded)
    solver — so a degraded answer's guarantee is still sound. Answers
    with a non-finite guarantee or an over-budget synopsis are rejected
    and the ladder falls through to the next tier. *)

type tier =
  | Minmax
  | Approx_additive of { epsilon : float }
  | Greedy_maxerr

val tier_name : tier -> string
(** ["minmax"], ["approx(eps=0.25)"], ["greedy-maxerr"]. *)

val top_of_pressure : int -> [ `Minmax | `Approx | `Greedy ]
(** The pressure→tier map, owned here for the serving layer's
    admission pressure and the pre-cut tiers alike: the highest tier
    worth attempting at a pressure level, 0 → [`Minmax], 1 →
    [`Approx], 2+ → [`Greedy] (the [top] of {!serve}). *)

val tier_of_top : epsilon:float -> [ `Minmax | `Approx | `Greedy ] -> tier
(** The first tier a {!serve} entered at that [top] tries:
    [`Approx] is {!Approx_additive} at [epsilon]. *)

type outcome =
  | Answered  (** this attempt produced the served synopsis *)
  | Timed_out of Deadline.stats  (** its deadline slice expired *)
  | Failed of string  (** solver raised, or the answer was unsound *)

type attempt = { tier : tier; outcome : outcome; elapsed_ms : float }

type served = {
  tier : tier;  (** the tier that answered *)
  synopsis : Wavesyn_synopsis.Synopsis.t;
  max_err : float;
      (** measured guarantee of [synopsis] on the pristine input, under
          the metric passed to {!serve} — always finite *)
  attempts : attempt list;
      (** every attempt in the order tried, the serving one last *)
  total_ms : float;
}

val describe_attempts : attempt list -> string
(** One line, e.g.
    ["minmax=deadline approx(eps=0.25)=deadline greedy-maxerr=served"]
    (no timings, so output is stable for tests). *)

val serve :
  ?obs:Wavesyn_obs.Registry.t ->
  ?trace:Wavesyn_obs.Trace.sink ->
  ?deadline_ms:float ->
  ?epsilon:float ->
  ?top:[ `Minmax | `Approx | `Greedy ] ->
  ?fault:Fault.t ->
  data:float array ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  (served, Validate.error) result
(** Serve a thresholding request.

    [deadline_ms] is the total time budget, sliced across tiers as
    documented above; absent, tiers run to completion (so the answer is
    the exact {!Minmax} optimum unless a fault degrades it). [epsilon]
    (default 0.25) seeds the approximation tier. [top] (default
    [`Minmax]) enters the ladder below its top: [`Approx] skips the
    exact DP, [`Greedy] goes straight to the floor — how an overloaded
    serving layer sheds build cost while keeping the exact degradation
    semantics (skipped tiers are not attempted and record nothing).
    [fault] (default {!Fault.none}) injects faults at this ladder's
    fault points. With no [deadline_ms] and no armed
    [Expire_deadline] fault nothing can expire, so unless [obs] counts
    states the solvers get no per-state hook at all.

    [obs] enables metrics: the serve records [ladder.serve.ms],
    [ladder.serves{tier}], [ladder.attempts{tier,outcome}],
    [dp.phase.ms{tier}] and [dp.states{solver}] into the registry (see
    [docs/OBSERVABILITY.md] for the contract). DP states are counted by
    composing onto the solvers' existing [on_state] hooks at this call
    site — the DP hot loops are not touched, and with [obs] absent the
    request runs the exact uninstrumented code path. [trace] (honoured
    only together with [obs]) additionally records one [tier:*] span
    per attempt into the sink.

    Errors are returned only for invalid {e input} (empty / non-pow2 /
    non-finite data, negative budget, ε outside (0,1]); once input
    validates, the ladder always serves. *)
