(** Online maintenance of Haar coefficients under point updates —
    extension in the spirit of the dynamic-maintenance work the paper
    cites ([16], [10]).

    A point update [d_i += delta] changes exactly the [log2 N + 1]
    coefficients on [path(d_i)]: the overall average by [delta / N] and
    the level-[l] detail coefficient by [± delta / support_size]. The
    structure keeps the full coefficient set exact at O(log N) per
    update, so a fresh synopsis of any flavour can be cut at any time.

    The state is dense: one float per coefficient, O(N) words whatever
    the data, and a coefficient read is an array read. An update walks
    its path arithmetically and allocates nothing (an attached observer
    may). {!nonzero_count} and {!coeffs} scan all N coefficients. *)

type t

val create : n:int -> t
(** All-zero data over a power-of-two domain. *)

val of_data : float array -> t

val n : t -> int

val update : t -> i:int -> delta:float -> unit
(** [d_i += delta] in O(log N). *)

val updates_seen : t -> int

val set_observer : t -> (int -> unit) option -> unit
(** Attach (or with [None] detach) an update observer: after each
    applied {!update} it receives the number of coefficients touched
    ([log2 N + 1]). This keeps the stream layer free of any metrics
    dependency — the serving layer bridges the callback into its
    registry — and an unobserved structure pays only a [None] branch
    per update. The observer is deliberately {e not} captured by
    {!coeffs}/{!restore}: recovery replay reattaches it explicitly so
    replayed updates are not double-counted as live traffic. *)

val coefficient : t -> int -> float
(** Current value of one coefficient. *)

val nonzero_count : t -> int
(** Number of non-zero coefficients, O(N). *)

val coeffs : t -> (int * float) list
(** The non-zero coefficients, sorted by index — the canonical
    serialization order used by the durability layer. O(N). *)

val restore : n:int -> updates:int -> (int * float) list -> t
(** Rebuild a state captured by {!coeffs} and {!updates_seen} (used by
    snapshot recovery). Zero coefficients are dropped; raises
    [Invalid_argument] on out-of-range indices, on any index given
    twice (a zero entry included), negative [updates], or
    non-power-of-two [n]. *)

val current_data : t -> float array
(** Reconstruct the exact current data in O(N). *)

val cut_l2 : t -> budget:int -> Wavesyn_synopsis.Synopsis.t
(** Conventional B-largest-normalized synopsis of the current state. *)

val cut_minmax :
  t ->
  budget:int ->
  Wavesyn_synopsis.Metrics.error_metric ->
  Wavesyn_synopsis.Synopsis.t
(** Optimal max-error synopsis of the current state (runs the full DP
    on the reconstructed data: O(N^2 B log B), intended for periodic
    re-thresholding rather than per-update use). *)
