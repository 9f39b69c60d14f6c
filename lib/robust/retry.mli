(** Seeded exponential backoff and a circuit breaker — the supervision
    primitives the durable serving loop leans on.

    Both are fully deterministic under test: the backoff's jitter comes
    from a seeded {!Wavesyn_util.Prng}, sleeping is a caller-supplied
    hook, and the breaker's clock is injectable. *)

type policy

val policy :
  ?base_ms:float ->
  ?factor:float ->
  ?max_ms:float ->
  seed:int ->
  unit ->
  policy
(** Exponential backoff: attempt [k] (counting from 1) waits
    [min max_ms (base_ms * factor^(k-1))], scaled by a seeded jitter
    draw from [[0.75, 1.25]]. Defaults: 1ms base, factor 2, 1s cap.
    Raises [Invalid_argument] on nonsensical parameters. *)

val delay_ms : policy -> attempt:int -> float
(** The (jittered) delay after failed attempt [attempt >= 1]. Consumes
    PRNG state: successive calls for the same attempt differ, the whole
    sequence is reproducible from the seed. *)

val with_retries :
  ?sleep:(float -> unit) ->
  policy ->
  attempts:int ->
  (unit -> ('a, 'e) result) ->
  ('a, 'e) result
(** Run [f] up to [attempts] times, backing off between failures and
    returning the first [Ok] or the last [Error]. [sleep] (default: a
    no-op, for deterministic tests and single-threaded serving loops
    that must not stall) receives each delay in milliseconds. *)

(** A closed / open / half-open circuit breaker.

    Closed: calls pass through; [threshold] {e consecutive} failures
    trip it open. Open: calls are rejected outright (no work done)
    until [cooldown_ms] of the breaker's clock elapses, after which it
    is half-open. Half-open: one probe call is let through — success
    recloses the breaker, failure reopens it for another cooldown. *)
module Breaker : sig
  type state = Closed | Open | Half_open

  val state_value : state -> float
  (** The one gauge encoding of a breaker state, ordered by badness:
      [0.] closed, [1.] half-open, [2.] open. Both
      [retry.breaker.state] and [store.breaker.state] export it. *)

  type t

  val create :
    ?threshold:int ->
    ?cooldown_ms:float ->
    ?clock:(unit -> float) ->
    ?obs:Wavesyn_obs.Registry.t ->
    ?name:string ->
    unit ->
    t
  (** Defaults: threshold 3, cooldown 1000ms, clock
      {!Deadline.now_ms} (injectable for deterministic tests).

      With [obs], the breaker exposes itself under the [retry.*]
      family, labelled [{breaker=name}] (default ["default"]):
      [retry.breaker.state] (gauge, {!state_value}),
      [retry.breaker.trips] and [retry.breaker.rejected] (counters);
      without it they live in a private registry. {!trips} and
      {!rejected} read those counters either way.
      State transitions update the gauge at the transition point, so a
      scrape between calls sees the current state, not the last
      queried one. *)

  val state : t -> state
  val trips : t -> int
  (** Times the breaker has opened. *)

  val rejected : t -> int
  (** Calls refused while open. *)

  type 'e rejection =
    | Open_circuit  (** refused without running — breaker is open *)
    | Inner of 'e  (** ran and failed with the callee's error *)

  val call : t -> (unit -> ('a, 'e) result) -> ('a, 'e rejection) result
  (** Run [f] under the breaker. An exception from [f] counts as a
      failure and is re-raised. *)
end
