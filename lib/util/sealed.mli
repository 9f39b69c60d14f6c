(** The CRC-sealed text layout shared by every durable or shipped
    artifact: journal records and SHIP batches ([Journal]), INGEST
    storms ([Wire]), snapshots ([Snapshot]) and the store manifest
    ([Supervisor]). This module is the only code that renders or checks
    a sealed CRC; each artifact keeps just its own field parsing on top.

    A {e sealed line} carries its body and the CRC-32 of that body:

    {v <body> <crc> v}

    A {e sealed block} is a body (empty, or newline-terminated lines)
    followed by one trailer line whose CRC covers every byte above it:

    {v
<body lines>
<keyword> <crc>
    v}

    The keyword is [end] for SHIP batches and storms and [crc] for
    snapshots and the manifest. A {e counted block} is a sealed block
    whose body is one header line declaring a count, then exactly that
    many sealed lines — a record is checked by its own CRC and by the
    block's:

    {v
<header naming count>
<body> <crc>            (count lines)
end <crc>
    v}

    Every [<crc>] is exactly the 8 lowercase hex digits of
    {!Crc32.to_hex}. Decoding is byte-exact: nothing is trimmed, a
    block must end with its trailer's newline, and an empty line where
    a sealed line belongs is a corrupt line. So any single flipped bit
    or any truncation is an [Error], never a different value. Error
    reasons are short phrases ("missing trailer", "CRC mismatch", ...)
    that each artifact's decoder reports under its own name. *)

val line : string -> string
(** [line body] is [body ^ " " ^ crc ^ "\n"]. [body] must not contain
    a newline. *)

val open_line : string -> string option
(** The body of one sealed line given {e without} its newline, when the
    CRC field after its last space is canonical and matches. *)

val block : trailer:string -> string -> string
(** [block ~trailer body] appends the [<trailer> <crc>] line sealing
    [body] (empty, or newline-terminated). *)

val open_block : trailer:string -> string -> (string list, string) result
(** The body lines (without newlines) of a sealed block whose last line
    is [<trailer> <crc>] with its newline, and whose CRC matches. *)

val counted : trailer:string -> header:(int -> string) -> string list -> string
(** [counted ~trailer ~header bodies] is the counted block of [header
    count] (without newline) and one sealed {!line} per body. *)

val open_counted :
  trailer:string ->
  header:(string -> ('h * int) option) ->
  line:(string -> 'a option) ->
  string ->
  ('h * 'a list, string) result
(** Open a {!counted} block: check the trailer, parse the header line
    with [header] (into its fields and declared count, [None] when
    malformed), require exactly that many lines, and open and parse
    each one with [line]. Returns the header's fields and the parsed
    lines in order. *)
