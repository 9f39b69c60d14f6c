(** Incremental re-cut: keep a served synopsis — and a {e true}
    max-error bound for it — current under live point updates without
    re-running the full ladder per write.

    The error tree is split at a fixed frontier level [F]
    ([= min 8 (n/2)], at least 1): nodes [F .. 2F-1] root disjoint
    {e frontier subtrees} whose supports partition the data cells,
    and nodes [0 .. F-1] are the {e global} coefficients every cell's
    path crosses. A full {!Ladder} cut freezes a per-subtree budget
    share (how many of the served coefficients fell in each subtree);
    between full cuts, an update [d_i += delta] dirties only the
    [log2 N + 1] coefficients on [path(i)], so a {!refresh} re-solves
    just the dirtied subtrees — greedy re-selection of each one's
    frozen share by absolute coefficient value, the greedy floor of the
    ladder restricted to that subtree — and re-measures their error
    exactly. Clean subtrees keep their last exact measurement plus a
    triangle-inequality {e slack} for any {e dropped} global
    coefficient that drifted since ([|error| <= old error + Σ |Δc|]
    along the cells' paths). The served bound

    {v bound = max over subtrees s of (err s + slack s) v}

    is therefore always an upper bound on the true current max error —
    exact right after a subtree is re-solved, conservatively padded on
    clean subtrees — which is what lets reads between updates state a
    sound guarantee. A {!full_cut} on the [full_every] cadence (see
    {!due_full}) re-tightens the bound and re-balances the shares.

    All selection is deterministically tie-broken (value magnitude
    descending, index ascending), so two replicas applying the same
    update sequence serve bit-identical synopses and bounds.

    Cost. The state is flat arrays over the [n] coefficients. A
    {!note_update} is O(log N) and allocates nothing. A {!refresh}
    costs O(log N) for the globals above each dirty subtree, plus
    O(n/F · log k) per dirty subtree to re-select its share [k] of
    [n/F] coefficients and re-measure its [n/F] cells in one top-down
    walk, plus an O(n) scan that rebuilds the synopsis in index order.
    It allocates only that synopsis: about 600 words at [n = 256],
    [B = 32]. *)

type t

val create :
  ?obs:Wavesyn_obs.Registry.t ->
  ?full_every:int ->
  budget:int ->
  metric:Wavesyn_synopsis.Metrics.error_metric ->
  epsilon:float ->
  Wavesyn_stream.Stream_synopsis.t ->
  t
(** Build the incremental state over a stream and run the initial full
    cut. [full_every] (default 32) is how many applied updates may
    accumulate before {!due_full} asks for a full re-cut; raises
    [Invalid_argument] when below 1. The [recut.*] metric family (see
    [docs/OBSERVABILITY.md]), whose counters {!stats} reads, is
    registered in [obs] when given, in a private registry otherwise. *)

val note_update : t -> i:int -> delta:float -> unit
(** Record one applied update: marks the [log2 N + 1] path coefficients
    dirty, accumulating each one's exact |Δ coefficient| for the slack
    bound. O(log N), no stream access. Out-of-domain [i] is ignored
    (the caller validates before applying). *)

val refresh : t -> Wavesyn_stream.Stream_synopsis.t -> unit
(** Fold every update noted since the last refresh into the served
    state: update dirty retained globals in place, re-solve and
    re-measure dirty subtrees, pad clean subtrees' slack for dirty
    dropped globals, restate the bound, rebuild the synopsis. No-op
    when nothing is dirty. *)

val due_full : t -> bool
(** [full_every] or more updates noted since the last full cut. *)

val full_cut :
  ?top:[ `Minmax | `Approx | `Greedy ] ->
  t ->
  Wavesyn_stream.Stream_synopsis.t ->
  (Ladder.served, Validate.error) result
(** Re-run the full ladder on the stream's current data, adopt its
    answer, re-freeze the per-subtree shares and reset all slack. [top]
    enters the ladder below its top tier exactly as {!Ladder.serve}
    does — the serving layer passes its admission pressure here. On
    [Error] (impossible for finite stream data) the previous served
    state is kept. *)

val synopsis : t -> Wavesyn_synopsis.Synopsis.t
(** The currently served synopsis. *)

val bound : t -> float
(** Sound upper bound on the synopsis's max error against the current
    data. *)

val tier : t -> string
(** {!Ladder.tier_name} of the last full cut ([+ "+inc"] is the
    caller's business to render if desired). *)

type stats = {
  full_cuts : int;
  incrementals : int;  (** refreshes that had dirty work *)
  subtrees_resolved : int;
  since_full : int;  (** updates noted since the last full cut *)
}

val stats : t -> stats
(** Counters since creation ([since_full] since the last full cut). *)
