(** Result-typed validation of untrusted inputs.

    The library-internal entry points ([Minmax_dp.solve], …) keep their
    [Invalid_argument] contract for programming errors; this module is
    the boundary for {e data} errors — malformed files, non-finite
    floats, impossible shapes and budgets — which must never surface as
    an uncaught exception in a serving path. Every check returns a
    [result] carrying a structured {!error} that maps to a stable
    message ({!to_string}) and process exit code ({!exit_code}). *)

type error =
  | Bad_value of {
      path : string option;  (** source file, when parsing one *)
      line : int;  (** 1-based line (or array position) of the value *)
      token : string;  (** the offending token, verbatim *)
      reason : string;
    }  (** a single value is malformed or non-finite (NaN/Inf) *)
  | Bad_shape of { what : string; reason : string }
      (** a dataset as a whole is unusable (empty, wrong length, …) *)
  | Bad_budget of { budget : int; reason : string }
  | Bad_epsilon of { epsilon : float; reason : string }
  | Bad_option of { what : string; reason : string }
      (** usage errors: conflicting flags, unknown names *)
  | Io_error of { path : string; reason : string }
  | Timeout of { what : string; ms : float }
      (** a bounded network operation exceeded its deadline — the peer
          may be alive but unresponsive (blackholed, overloaded), so
          the condition is transient and retry-worthy, unlike
          [Io_error] *)

val to_string : error -> string
(** One-line human-readable rendering, [file:line:] prefixed where a
    source location is known. *)

val exit_code : error -> int
(** Process exit code for a CLI rejecting this input: 2 for usage
    errors ([Bad_option]), 66 for [Io_error] (sysexits EX_NOINPUT),
    75 for [Timeout] (EX_TEMPFAIL — transient, retry may succeed),
    65 for data errors (EX_DATAERR). Never 0. *)

val parse_float :
  ?path:string -> line:int -> string -> (float, error) result
(** Parse one float token, rejecting non-numeric input {e and} NaN or
    infinite literals (which [float_of_string] happily accepts). *)

val read_whole : string -> (string, error) result
(** A whole file's bytes, unparsed — how the sealed store artifacts
    (snapshots, the manifest) are read before decoding. An unreadable
    path or a short read is an [Io_error]. *)

val default_max_values : int
(** The most values one dataset may hold (2^22): {!read_file}'s default
    cap, and the CLI's cap on a generated [-n]. *)

val read_file :
  ?max_bytes:int ->
  ?max_line_bytes:int ->
  ?max_values:int ->
  string ->
  (float array, error) result
(** Read a dataset (one float per line; blank lines skipped) with
    per-line error reporting. Empty files and files with no data lines
    are [Bad_shape]; unreadable paths are [Io_error].

    Line endings are tolerant: CRLF ("\r\n") terminators are accepted
    (the '\r' does not count against [max_line_bytes] and never
    reaches the token parser), and a final line without a trailing
    newline is parsed like any other.

    Reads are bounded against adversarial inputs: files over
    [max_bytes] (default 64 MiB) or with more than [max_values]
    (default 2^22) values are [Bad_shape], and any single line longer
    than [max_line_bytes] (default 1024) is a [Bad_value] — the caps
    trip {e before} the offending bytes are buffered, so memory use is
    bounded whatever the input. *)

val read_updates :
  ?max_bytes:int ->
  ?max_line_bytes:int ->
  ?max_values:int ->
  string ->
  ((int * float) array, error) result
(** Read a point-update stream (["<cell> <delta>"] per line, blank
    lines skipped) under the same bounds, line-ending tolerance and
    error reporting as {!read_file}. Cell indices must be non-negative integers; deltas
    must be finite. Domain range checking is the consumer's job
    (the store knows its [n], this parser does not). *)

val data :
  ?what:string ->
  ?require_pow2:bool ->
  float array ->
  (float array, error) result
(** Check a dataset already in memory: non-empty, every value finite,
    and (when [require_pow2], default false) power-of-two length. The
    array is returned unchanged on success. [Bad_value.line] is the
    1-based array position. *)

val budget : int -> (int, error) result
(** Budgets must be non-negative. Budgets exceeding the dataset size
    are legal (solvers cap them), so no upper check is made here. *)

val epsilon : float -> (float, error) result
(** Per-rounding ratios must lie in (0, 1] and be finite. *)
