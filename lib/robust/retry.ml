module Prng = Wavesyn_util.Prng

let log_src = Logs.Src.create "wavesyn.retry" ~doc:"Backoff and circuit breaking"

module Log = (val Logs.src_log log_src : Logs.LOG)

type policy = {
  base_ms : float;
  factor : float;
  max_ms : float;
  rng : Prng.t;
}

let jitter = 0.25

let policy ?(base_ms = 1.0) ?(factor = 2.0) ?(max_ms = 1000.0) ~seed () =
  if base_ms < 0. || factor < 1. || max_ms < base_ms then
    invalid_arg "Retry.policy: need base_ms >= 0, factor >= 1, max_ms >= base_ms";
  { base_ms; factor; max_ms; rng = Prng.create ~seed }

let delay_ms p ~attempt =
  if attempt < 1 then invalid_arg "Retry.delay_ms: attempts count from 1";
  let raw =
    Float.min p.max_ms
      (p.base_ms *. (p.factor ** float_of_int (attempt - 1)))
  in
  (* Full deterministic jitter: scale by a seeded draw from
     [1-jitter, 1+jitter]. *)
  let u = Prng.float p.rng 2.0 -. 1.0 in
  raw *. (1.0 +. (jitter *. u))

let with_retries ?(sleep = fun (_ : float) -> ()) p ~attempts f =
  if attempts < 1 then invalid_arg "Retry.with_retries: attempts must be >= 1";
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error _ as err ->
        if attempt >= attempts then err
        else begin
          let d = delay_ms p ~attempt in
          Log.debug (fun m ->
              m "attempt %d/%d failed; backing off %.3fms" attempt attempts d);
          sleep d;
          go (attempt + 1)
        end
  in
  go 1

module Breaker = struct
  module Registry = Wavesyn_obs.Registry
  module Metric = Wavesyn_obs.Metric

  type state = Closed | Open | Half_open

  let state_value = function Closed -> 0. | Half_open -> 1. | Open -> 2.

  type t = {
    threshold : int;
    cooldown_ms : float;
    clock : unit -> float;
    g_state : Metric.gauge;
    c_trips : Metric.counter;
    c_rejected : Metric.counter;
    mutable st : state;
    mutable consecutive_failures : int;
    mutable opened_at_ms : float;
  }

  let set_state t st =
    t.st <- st;
    Metric.set t.g_state (state_value st)

  let create ?(threshold = 3) ?(cooldown_ms = 1000.0) ?clock ?obs
      ?(name = "default") () =
    if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
    if cooldown_ms < 0. then
      invalid_arg "Breaker.create: cooldown must be non-negative";
    let clock = Option.value clock ~default:Deadline.now_ms in
    let reg = match obs with Some r -> r | None -> Registry.create () in
    let labels = [ ("breaker", name) ] in
    {
      threshold;
      cooldown_ms;
      clock;
      g_state =
        Registry.gauge reg ~labels
          ~help:"breaker state: 0 closed, 1 half-open, 2 open"
          "retry.breaker.state";
      c_trips =
        Registry.counter reg ~labels ~unit_:"trips"
          ~help:"times the breaker opened" "retry.breaker.trips";
      c_rejected =
        Registry.counter reg ~labels ~unit_:"calls"
          ~help:"calls refused while the breaker was open"
          "retry.breaker.rejected";
      st = Closed;
      consecutive_failures = 0;
      opened_at_ms = 0.;
    }

  let refresh t =
    if t.st = Open && t.clock () -. t.opened_at_ms >= t.cooldown_ms then
      set_state t Half_open

  let state t =
    refresh t;
    t.st

  let trips t = Metric.counter_value t.c_trips
  let rejected t = Metric.counter_value t.c_rejected

  let trip t =
    set_state t Open;
    t.opened_at_ms <- t.clock ();
    Metric.incr t.c_trips;
    Log.info (fun m ->
        m "circuit opened after %d consecutive failures"
          t.consecutive_failures)

  type 'e rejection = Open_circuit | Inner of 'e

  let call t f =
    refresh t;
    match t.st with
    | Open ->
        Metric.incr t.c_rejected;
        Error Open_circuit
    | Closed | Half_open -> (
        let probing = t.st = Half_open in
        match f () with
        | Ok _ as ok ->
            t.consecutive_failures <- 0;
            set_state t Closed;
            ok
        | Error e ->
            t.consecutive_failures <- t.consecutive_failures + 1;
            if probing || t.consecutive_failures >= t.threshold then trip t;
            Error (Inner e)
        | exception e ->
            t.consecutive_failures <- t.consecutive_failures + 1;
            if probing || t.consecutive_failures >= t.threshold then trip t;
            raise e)
end
