(** Cooperative time / state budgets for the dynamic programs.

    The exact DP is optimal but [O(N^2 B log B)] (Theorem 3.1) — at
    serving time a caller needs a way to say "give up after t ms (or
    after s DP states) and let me fall back". A [Deadline.t] combines a
    monotonic-clock budget with a probe on the DP-state count; solvers
    thread {!tick} through their memo loops via their [?on_state] hooks
    ([Minmax_dp.solve], [Approx_additive.solve], [Md_dp.run]).

    Expiry raises {!Deadline_exceeded} carrying partial-progress
    statistics; it is an ordinary catchable exception, and the solver's
    intermediate state is simply discarded (all solvers are pure up to
    their own local tables). *)

type stats = {
  elapsed_ms : float;  (** monotonic time since {!create} *)
  states : int;  (** DP states computed before expiry *)
  checks : int;  (** number of {!tick} calls made *)
  budget_ms : float option;  (** the configured time budget *)
}

exception Deadline_exceeded of stats

type t

val create : ?ms:float -> ?probe:(stats -> bool) -> unit -> t
(** Start the clock now. [ms] is a wall-clock budget on a monotonic
    clock (immune to system-time jumps); [probe], if given, is
    consulted on every tick (after the state is counted) and forces
    expiry by returning [true] — the fault injection hook used by
    {!Fault}, and a deterministic state budget
    ([fun st -> st.states > cap]). With no arguments the deadline never
    expires on its own. *)

val unlimited : unit -> t
(** A deadline that never expires (but still counts states). *)

val tick : t -> unit
(** Count one DP state and raise {!Deadline_exceeded} if any budget is
    exhausted. Cost is one clock read — negligible next to the cost of
    a DP state. Once expired, every subsequent call raises again. *)

val expired : t -> bool
(** Non-raising variant of the expiry check (does not count a state). *)

val stats : t -> stats

val elapsed_ms : t -> float

val now_ms : unit -> float
(** The monotonic clock itself, in milliseconds from an arbitrary
    origin — exposed so callers time tiers on the same clock. *)
