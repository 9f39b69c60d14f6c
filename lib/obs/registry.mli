(** The metric registry: stable dotted names, label sets, exposition.

    A registry maps {e families} — a dotted lowercase name like
    ["store.ingest.ms"] plus a kind, help string, and unit — to
    instruments, one per distinct label set. Lookups are idempotent:
    requesting an existing (family, labels) pair returns the very same
    instrument, so call sites can re-request instruments cheaply
    instead of threading them around. Re-registering a name with a
    {e different} kind, help, unit or bucket layout raises
    [Invalid_argument] — a collision is a programming error, caught
    loudly at the first conflicting call (see the registry tests).

    Metric names form the public contract documented in
    [docs/OBSERVABILITY.md]; treat renames as breaking changes. *)

type t

val create : unit -> t
(** An empty registry. Instrument creation is not free of allocation —
    create instruments at component start-up (or rely on idempotent
    lookup), not inside hot loops. *)

type labels = (string * string) list
(** Label pairs, e.g. [[("tier", "minmax")]]. Keys must match
    [[a-z_][a-z0-9_]*]; values must not contain ['"'], ['\n'] or
    [','], so both exposition formats stay unambiguous. Order is
    irrelevant: labels are sorted by key internally. *)

val counter :
  t -> ?help:string -> ?unit_:string -> ?labels:labels -> string ->
  Metric.counter
(** [counter reg name] registers (or re-finds) a counter. [name] is
    dot-separated segments, each starting with a lowercase letter and
    continuing with lowercase letters, digits or underscores. [unit_]
    is documentation-only (e.g. ["updates"]). Raises
    [Invalid_argument] on a malformed name/labels or a family
    collision. *)

val gauge :
  t -> ?help:string -> ?unit_:string -> ?labels:labels -> string ->
  Metric.gauge

val histogram :
  t ->
  ?help:string ->
  ?unit_:string ->
  ?labels:labels ->
  ?bounds:float array ->
  string ->
  Metric.histogram
(** [bounds] defaults to {!Metric.histogram}'s latency layout; all
    instruments of one family share the layout of the first
    registration (a differing [bounds] on a later call is a
    collision). *)

val size : t -> int
(** Number of registered instruments (not families). *)

(** {1 Exposition}

    Both renderers emit instruments sorted by (name, labels), so output
    is stable across runs up to the recorded values themselves. *)

val render_table : t -> string
(** Human-oriented table, one instrument per line:

    {v
    counter    store.ingest.accepted                40 updates
    histogram  store.ingest.ms                      count=40 sum=1.234 min=0.012 p50<=0.050 p95<=0.100 p99<=0.100 max=0.071 ms
    v}

    The [p50<=]/[p95<=]/[p99<=] fields are the deterministic bucket
    bounds of {!Metric.quantile_le} (a pure function of the bucket
    counts; [inf] when only the overflow bucket qualifies). Histogram
    statistics print with three decimals ([%.3f]) — always containing
    a ['.'] — while counters print as plain integers, so tests can
    mask the (timing-dependent) float fields and keep exact integer
    counts. An empty histogram prints [count=0] only. *)

val render_prometheus : t -> string
(** Prometheus text exposition (v0.0.4-style): [# HELP] / [# TYPE]
    headers per family, name mangled as
    ["wavesyn_" ^ name with '.' -> '_'], label sets rendered inline,
    histograms as cumulative [_bucket{le="..."}] series plus [_sum] and
    [_count]. Gauges and histogram values print with [%g]. *)
