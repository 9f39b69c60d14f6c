(** Admission control for the query server: a bounded FIFO request
    queue plus a deterministic pressure signal.

    Overload never drops a connection — a request that does not fit the
    queue is {e shed} ([{!offer}] returns [false]) and the caller sends
    a structured [OVERLOAD] reply in its slot. Pressure is a small
    integer (0..2) driven purely by shedding history, never by
    wall-clock time: a shedding round raises it one level, a run of
    eight consecutive quiet rounds (nothing shed, queue drained) lowers
    it one level. The level's owner of record is
    {!Wavesyn_robust.Ladder.top_of_pressure}, which maps it to the
    highest ladder tier the server should attempt, so the serving path
    steps down the very same ladder the in-process path uses — and the
    trajectory is identical for every [--jobs] value. *)

type 'a t

val create : ?obs:Wavesyn_obs.Registry.t -> bound:int -> unit -> 'a t
(** [create ~bound ()] makes an empty queue admitting at most [bound]
    requests between drains. It keeps the [server.queue.bound],
    [server.queue.depth], [server.pressure] gauges and the
    [server.shed], [server.admitted] counters that {!shed_total} and
    {!admitted_total} read, registered in [obs] when given and in a
    private registry otherwise. Raises [Invalid_argument] if
    [bound < 1]. *)

val offer : 'a t -> 'a -> bool
(** Enqueue one request; [false] means the queue is full and the
    request was shed (counted, not stored). *)

val take_batch : 'a t -> 'a list
(** Drain the whole queue in FIFO order. *)

val depth : 'a t -> int
(** Requests currently queued. *)

val bound : 'a t -> int
(** The capacity passed to {!create}. *)

val pressure : 'a t -> int
(** Current pressure level, 0 (calm) to 2 (saturated). *)

val note_round : 'a t -> shed:int -> bool
(** Record the end of a serving round that shed [shed] requests and
    update the pressure level; [true] when the level changed (the
    server then re-cuts its synopsis at the new ladder top). *)

val shed_total : 'a t -> int
(** Requests shed since creation. *)

val admitted_total : 'a t -> int
(** Requests admitted since creation. *)
