(** Blocking client for the query server's binary protocol.

    One connection, one outstanding request at a time: {!request}
    sends a frame and reads exactly the replies that frame commands
    (a [BATCH] of [k] yields [k] replies, anything else one). All
    failures are {!Wavesyn_robust.Validate.Io_error} values, so CLI
    callers exit through the standard error path. *)

type t

val connect :
  ?wait_ms:float ->
  ?timeout_ms:float ->
  string ->
  (t, Wavesyn_robust.Validate.error) result
(** [connect path] opens the server's Unix-domain socket. [wait_ms]
    (default 0) keeps retrying a refused or missing socket for that
    long — the standard way to race a server that is still binding.
    Retries back off from 2 ms up to 50 ms for TCP, and poll a Unix
    socket at least every 1 ms; no sleep runs past [wait_ms].
    [timeout_ms] (absent: wait forever) arms a kernel deadline on
    every read and write, so a blackholed or wedged server surfaces as
    a structured {!Wavesyn_robust.Validate.Timeout} instead of a hang.
    Raises [Invalid_argument] on a non-positive [timeout_ms]. *)

val request :
  t -> Wire.request -> (Wire.reply list, Wavesyn_robust.Validate.error) result
(** Send one request frame and read its replies, in order. *)

val request_one :
  t -> Wire.request -> (Wire.reply, Wavesyn_robust.Validate.error) result
(** {!request} for non-batch requests: exactly one reply. *)

val send_raw : t -> string -> (unit, Wavesyn_robust.Validate.error) result
(** Write raw bytes without reading a reply — the chaos harness's hook
    for torn and corrupt frames. Not for normal use. *)

val close : t -> unit
(** Close the connection; idempotent. *)
