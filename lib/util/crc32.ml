let mask = 0xFFFFFFFF

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update_bytes crc b ~pos ~len =
  let table = Lazy.force table in
  let c = ref (crc lxor mask) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 b i) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor mask land mask

let update crc s =
  update_bytes crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let string s = update 0 s

let to_hex c = Printf.sprintf "%08x" (c land mask)

(* Canonical fields only: exactly the 8 lowercase hex digits [to_hex]
   writes, so no other spelling (uppercase, [_] separators) of a CRC
   is accepted. *)
let of_hex s =
  if
    String.length s = 8
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  then int_of_string_opt ("0x" ^ s)
  else None
