type stats = {
  elapsed_ms : float;
  states : int;
  checks : int;
  budget_ms : float option;
}

exception Deadline_exceeded of stats

type t = {
  started_ns : int64;
  budget_ms : float option;
  probe : (stats -> bool) option;
  mutable states : int;
  mutable checks : int;
  mutable tripped : bool;
}

let now_ns () = Monotonic_clock.now ()
let now_ms () = Int64.to_float (now_ns ()) /. 1e6

let create ?ms ?probe () =
  {
    started_ns = now_ns ();
    budget_ms = ms;
    probe;
    states = 0;
    checks = 0;
    tripped = false;
  }

let unlimited () = create ()

let elapsed_ms t =
  Int64.to_float (Int64.sub (now_ns ()) t.started_ns) /. 1e6

let stats t =
  {
    elapsed_ms = elapsed_ms t;
    states = t.states;
    checks = t.checks;
    budget_ms = t.budget_ms;
  }

let over t =
  t.tripped
  || (match t.budget_ms with
     | Some ms -> elapsed_ms t > ms
     | None -> false)
  ||
  match t.probe with Some p -> p (stats t) | None -> false

let expired t = if t.tripped then true else over t

let tick t =
  t.states <- t.states + 1;
  t.checks <- t.checks + 1;
  if over t then begin
    t.tripped <- true;
    raise (Deadline_exceeded (stats t))
  end
