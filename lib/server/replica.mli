(** The follower's side of journal shipping: pull [SYNC] batches from
    a primary's query server and fold them into a local follower
    store.

    Every batch is applied with
    {!Wavesyn_robust.Supervisor.apply_shipped} — journal first, then
    the in-memory state, the exact ingest discipline — so a caught-up
    follower's coefficient state is bit-identical to the primary's,
    and so is any synopsis cut from it. A cursor that fell behind the
    primary's compaction receives a snapshot bootstrap instead and
    re-syncs from the snapshot's sequence. *)

type progress = {
  batches : int;  (** record batches applied *)
  records : int;  (** records applied through them *)
  snapshots : int;  (** snapshot bootstraps installed *)
  final_seq : int;  (** the follower's sequence when current *)
}

val sync :
  ?batch:int ->
  Client.t ->
  Wavesyn_robust.Supervisor.t ->
  (progress, Wavesyn_robust.Validate.error) result
(** Pull batches of up to [batch] (default 64) records until the
    follower is current with the primary. The store must be a
    [Follower] ([Bad_option] otherwise). On a mid-sync failure the
    store keeps every record applied so far — safe to call again. *)

type follower = {
  store : Wavesyn_robust.Supervisor.t;  (** open; the caller closes it *)
  config : Wavesyn_robust.Supervisor.config;  (** parsed from [manifest] *)
  manifest : string;  (** the primary's manifest text, byte-exact *)
  progress : progress;  (** the catch-up {!sync} *)
}

val bootstrap :
  ?obs:Wavesyn_obs.Registry.t ->
  ?batch:int ->
  dir:string ->
  Client.t ->
  (follower, Wavesyn_robust.Validate.error) result
(** Probe the primary ([SYNC since=0 max=0]) for its manifest — a
    [Bad_shape] when the peer has no ship source (it was not started
    from a store) — create (or re-open) a follower store at [dir] from
    it, so domain, budget, metric and epsilon match exactly, then
    {!sync} it current. On a failed sync the store is closed before
    the error returns. *)
