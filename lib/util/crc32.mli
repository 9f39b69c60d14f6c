(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum guarding
    the durability layer's snapshot and journal records.

    Values are the usual reflected CRC-32 held in an OCaml [int]
    (always within [0, 0xFFFFFFFF]), so checksums are portable across
    the textual store formats that print them as [%08x]. *)

val string : string -> int
(** Checksum of a whole string. *)

val update : int -> string -> int
(** [update crc s] extends a running checksum: [update (string a) b =
    string (a ^ b)]. Start a chain from [string ""] (which is [0]). *)

val update_bytes : int -> Bytes.t -> pos:int -> len:int -> int
(** [update_bytes crc b ~pos ~len] extends a running checksum with the
    [len] bytes of [b] from [pos], without copying them out. *)

val to_hex : int -> string
(** Fixed-width lowercase hex rendering ([%08x]). *)

val of_hex : string -> int option
(** Parse {!to_hex} output: exactly 8 lowercase hex digits, so every
    value has one accepted spelling; [None] on anything else. *)
