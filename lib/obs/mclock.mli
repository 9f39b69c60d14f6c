(** Monotonic time for the observability layer.

    A thin wrapper over the process monotonic clock (the same source
    {!Wavesyn_robust.Deadline} uses), so timers never jump with wall
    clock adjustments. All instruments in this library stamp and
    measure through this module only, which keeps the conversion
    convention (nanosecond integers at the source, millisecond floats
    at the surface) in one place. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary fixed origin; strictly
    non-decreasing. *)

val ms_since : int64 -> float
(** [ms_since t0] is the elapsed time in milliseconds since the
    {!now_ns} stamp [t0]. *)
