(** Fixed-width text tables for the experiment harness output. *)

type t
(** A table under construction. *)

val create : columns:string list -> t
(** New table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are columns. *)

val add_float_row : t -> ?decimals:int -> string -> float list -> unit
(** [add_float_row t label xs] appends a row whose first cell is [label]
    and remaining cells are [xs] printed with [decimals] (default 4)
    digits. The table must have [1 + List.length xs] columns. *)

val to_string : ?title:string -> t -> string
(** Render the table with aligned columns and an optional title line. *)
