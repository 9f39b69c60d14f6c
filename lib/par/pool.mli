(** A fixed-size, dependency-free domain pool with {e deterministic}
    fan-out semantics.

    The pool is built from the OCaml 5 stdlib only ([Domain], [Mutex],
    [Condition] — domainslib is deliberately not a dependency). Work is
    submitted as an indexed range, chunked {e by index}, and results are
    delivered positionally, so the outcome of every combinator is a pure
    function of the task function and the range — {b bit-for-bit
    independent of the number of domains} and of scheduling order.
    Reductions merge in ascending index order, so equal-error ties
    resolve exactly as the sequential left fold would
    (see [docs/PARALLELISM.md] for the full contract).

    A pool created with [~domains:1] spawns no domain at all: every
    combinator degrades to a plain inline loop, which keeps the
    sequential path's behaviour (and its goldens) untouched.

    Worker threads help while they wait: a task may submit nested work
    to the same pool without deadlocking, because a blocked submitter
    steals pending chunks (its own or other batches') instead of
    sleeping while runnable work exists. *)

type t
(** A pool of domains. Values of this type own OS resources (the
    spawned domains); release them with {!shutdown}. *)

val create : ?obs:Wavesyn_obs.Registry.t -> domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    submitting thread is the remaining member). [domains >= 1] or
    [Invalid_argument] is raised. When [obs] is given, the pool
    registers the [par.*] instruments documented in
    [docs/PARALLELISM.md] ([par.pool.domains] gauge, [par.tasks] and
    [par.chunks] counters, [par.grain] gauge, [par.chunk.ms]
    histogram) and records into them. *)

val domains : t -> int
(** The pool size passed to {!create} (including the submitter). *)

val default_grain : items:int -> domains:int -> int
(** The grain (items per chunk) the solvers use when fanning [items]
    sub-problems over [domains] domains: [max 1 (items / (domains *
    4))], i.e. about four chunks per domain. Coarse enough that a
    chunk amortizes the pool's per-chunk overhead, fine enough that
    the help-while-wait scheduler can still balance cost skew (see
    docs/KERNELS.md for the measured per-state costs this is derived
    from, docs/PARALLELISM.md for how to re-measure). *)

val map_chunked : ?grain:int -> t -> int -> (int -> 'a) -> 'a array
(** [map_chunked pool n f] is [[| f 0; f 1; …; f (n-1) |]], with the
    index range split into chunks of [grain] consecutive indices
    (default [1]) executed across the pool. Results are written into
    their own slots, so the returned array is identical to the
    sequential map regardless of [domains], [grain] or scheduling.

    If one or more tasks raise, the exception of the {e
    lowest-indexed} failing chunk is re-raised (with its backtrace)
    after all chunks have finished — again deterministic. A
    one-domain pool runs the tasks in index order on the calling
    domain and re-raises the first failure at once, which is the same
    exception; the tasks after it do not run. [f] must be
    safe to call from another domain: it should only read shared data
    (all wavesyn trees and arrays passed to solvers are immutable).

    Raises [Invalid_argument] on [n < 0], [grain < 1], or a pool that
    was already {!shutdown}. *)

val shutdown : t -> unit
(** Drain in-flight work, stop and join every worker domain.
    Idempotent: further calls return immediately. Submitting to a pool
    after [shutdown] raises [Invalid_argument]. *)
