(** Deterministic fault injection for chaos-testing the serving layer.

    A fault plan is a seeded PRNG plus a set of armed fault kinds and a
    firing rate. Fault points consult the plan at well-defined places —
    the solver tiers of {!Ladder.serve} and the storage operations of
    {!Snapshot} and {!Journal} — so a whole chaos run is reproducible
    from the seed. *)

type kind =
  | Expire_deadline
      (** force the tier's deadline to trip on its next {!Deadline.tick} *)
  | Nan_coefficient
      (** hand the tier a copy of the input with a NaN injected, as if a
          coefficient were corrupted in flight *)
  | Alloc_pressure
      (** simulate allocation failure: the fault point raises
          {!Injected} [Alloc_pressure] before the tier's solver runs *)
  | Torn_write
      (** a write is cut short mid-record and the process "dies": the
          storage layer persists a strict prefix of the payload and then
          raises {!Injected} [Torn_write] (the simulated kill) *)
  | Bit_flip
      (** silent corruption: one bit of the payload is flipped before it
          reaches disk; the write {e appears} to succeed, and only the
          CRC on the read path can tell *)
  | Io_flaky
      (** transient I/O failure: the operation performs no work and
          reports [Io_error], as a flaky disk or full queue would —
          retryable through {!Retry} *)
  | Conn_drop
      (** the connection is severed abruptly: the peer observes EOF
          mid-conversation, as if the process died or an LB reset the
          flow *)
  | Conn_delay
      (** a frame's delivery is deferred by (at least) one event-loop
          round / a few milliseconds — reordering-free latency *)
  | Conn_truncate
      (** a strict prefix of a frame is written and then the connection
          dies — the network analogue of [Torn_write] *)
  | Corrupt_frame
      (** one bit of an encoded frame is flipped in flight; only the
          frame CRC on the receiving side can tell *)
  | Blackhole
      (** bytes are silently swallowed and never answered: the
          connection stays open but the peer hears nothing — the case
          that only a read deadline can escape *)

exception Injected of kind

val kind_name : kind -> string
(** Stable lower-snake name, used in chaos-test output. *)

val conn_kinds : kind list
(** The network-level kinds consulted by the serving layer's
    connection fault points ({!Conn}, client-side chaos). *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name} — parses CLI [--chaos] kind lists. *)

type t

val create : ?kinds:kind list -> ?rate:float -> seed:int -> unit -> t
(** A plan arming [kinds] (default: every injectable kind), each firing
    independently with probability [rate] (default 1.0 — always fire)
    at every fault point, driven by a PRNG seeded with [seed]. *)

val none : t
(** The empty plan: no kind armed, nothing ever fires. *)

val armed : t -> bool
(** Whether any fault point of this plan can fire (or draw): false for
    {!none}, so a caller may skip preparing a fault point's input. *)

val fires : t -> kind -> bool
(** Draw from the plan: [true] when [kind] is armed and its coin comes
    up. Consumes PRNG state, so call sites must be deterministic. *)

val corrupt_data : t -> float array -> float array
(** A copy of the input with a NaN written at a PRNG-chosen index
    (the array itself is never mutated). *)

val deadline_probe : t -> (Deadline.stats -> bool) option
(** Probe for {!Deadline.create}: forces expiry when [Expire_deadline]
    fires. The draw is made once, at the first probe, so a tier either
    expires immediately or runs its full slice. [None] when the plan
    can never fire [Expire_deadline] (no PRNG, or the kind not armed):
    {!fires} draws nothing there, so a probe would only cost a clock
    read and a stats record per DP state. *)

val pressure : t -> unit
(** Fault point for allocation pressure: raises {!Injected}
    [Alloc_pressure] when armed and firing, otherwise a no-op. *)

val torn_prefix : t -> string -> string option
(** Fault point for torn writes: when [Torn_write] fires on a payload of
    at least two bytes, a strict non-empty prefix of it (PRNG-chosen cut
    point); [None] otherwise. The caller persists the prefix and raises
    {!Injected} [Torn_write]. *)

val flip_bit : t -> string -> string option
(** Fault point for silent corruption: when [Bit_flip] fires on a
    non-empty payload, a copy with one PRNG-chosen bit flipped; [None]
    otherwise. *)

val io_fails : t -> bool
(** Fault point for transient I/O failure ([Io_flaky]). *)

val conn_truncate : t -> string -> string option
(** Fault point for mid-frame connection death: when [Conn_truncate]
    fires on at least two bytes of outgoing data, a strict non-empty
    prefix to write before severing the connection; [None] otherwise. *)

val corrupt_frame : t -> string -> string option
(** Fault point for in-flight corruption: when [Corrupt_frame] fires on
    non-empty outgoing data, a copy with one PRNG-chosen bit flipped;
    [None] otherwise. The frame CRC on the receiving side rejects it. *)
