(* Admission control: a bounded FIFO request queue plus a pressure
   signal that steps the serving tier down the degradation ladder.

   Pressure is driven by shedding, not by wall-clock latency, so a
   fixed request schedule produces the same pressure trajectory on
   every run and on every --jobs value: each round that sheds raises
   the pressure one level (capped at [max_pressure]), and each run of
   [relax_after] consecutive quiet rounds (nothing shed, queue fully
   drained) lowers it one level. *)

module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

let max_pressure = 2
let relax_after = 8

type 'a t = {
  bound : int;
  queue : 'a Queue.t;
  mutable pressure : int;
  mutable quiet_rounds : int;
  m_depth : Metric.gauge;
  m_pressure : Metric.gauge;
  m_shed : Metric.counter;
  m_admitted : Metric.counter;
}

let create ?obs ~bound () =
  if bound < 1 then invalid_arg "Admit.create: bound must be at least 1";
  let reg = match obs with Some r -> r | None -> Registry.create () in
  Metric.set_int
    (Registry.gauge reg ~help:"admission queue capacity" ~unit_:"requests"
       "server.queue.bound")
    bound;
  {
    bound;
    queue = Queue.create ();
    pressure = 0;
    quiet_rounds = 0;
    m_depth =
      Registry.gauge reg ~help:"admission queue depth at last update"
        ~unit_:"requests" "server.queue.depth";
    m_pressure =
      Registry.gauge reg ~help:"admission pressure level (0..2)"
        ~unit_:"level" "server.pressure";
    m_shed =
      Registry.counter reg ~help:"requests shed by admission control"
        ~unit_:"requests" "server.shed";
    m_admitted =
      Registry.counter reg ~help:"requests admitted past the queue bound"
        ~unit_:"requests" "server.admitted";
  }

let depth t = Queue.length t.queue
let bound t = t.bound
let pressure t = t.pressure
let shed_total t = Metric.counter_value t.m_shed
let admitted_total t = Metric.counter_value t.m_admitted
let set_depth t = Metric.set_int t.m_depth (depth t)

let offer t x =
  if Queue.length t.queue >= t.bound then begin
    Metric.incr t.m_shed;
    false
  end
  else begin
    Queue.add x t.queue;
    Metric.incr t.m_admitted;
    set_depth t;
    true
  end

let take_batch t =
  let out = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  set_depth t;
  out

let set_pressure t p =
  t.pressure <- p;
  Metric.set_int t.m_pressure p

let note_round t ~shed =
  let before = t.pressure in
  if shed > 0 then begin
    t.quiet_rounds <- 0;
    if t.pressure < max_pressure then set_pressure t (t.pressure + 1)
  end
  else if depth t = 0 then begin
    t.quiet_rounds <- t.quiet_rounds + 1;
    if t.quiet_rounds >= relax_after && t.pressure > 0 then begin
      t.quiet_rounds <- 0;
      set_pressure t (t.pressure - 1)
    end
  end
  else t.quiet_rounds <- 0;
  t.pressure <> before
