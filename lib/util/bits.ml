let popcount m =
  if m < 0 then invalid_arg "Bits.popcount: negative mask";
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 m

(* Standard submask-walk trick: s-1 land m enumerates submasks in
   descending order. *)
let iter_submasks m f =
  if m < 0 then invalid_arg "Bits.iter_submasks: negative mask";
  let rec go s =
    f s;
    if s > 0 then go ((s - 1) land m)
  in
  go m

let iter_masks w f =
  if w < 0 || w > 30 then invalid_arg "Bits.iter_masks: width out of range";
  for m = 0 to (1 lsl w) - 1 do
    f m
  done

let to_list mask =
  let rec go acc i m =
    if m = 0 then List.rev acc
    else if m land 1 = 1 then go (i :: acc) (i + 1) (m lsr 1)
    else go acc (i + 1) (m lsr 1)
  in
  go [] 0 mask
