module Prng = Wavesyn_util.Prng

type kind =
  | Expire_deadline
  | Nan_coefficient
  | Alloc_pressure
  | Torn_write
  | Bit_flip
  | Io_flaky
  | Conn_drop
  | Conn_delay
  | Conn_truncate
  | Corrupt_frame
  | Blackhole

exception Injected of kind

let kind_name = function
  | Expire_deadline -> "expire-deadline"
  | Nan_coefficient -> "nan-coefficient"
  | Alloc_pressure -> "alloc-pressure"
  | Torn_write -> "torn-write"
  | Bit_flip -> "bit-flip"
  | Io_flaky -> "io-flaky"
  | Conn_drop -> "conn-drop"
  | Conn_delay -> "conn-delay"
  | Conn_truncate -> "conn-truncate"
  | Corrupt_frame -> "corrupt-frame"
  | Blackhole -> "blackhole"

let all_kinds =
  [
    Expire_deadline;
    Nan_coefficient;
    Alloc_pressure;
    Torn_write;
    Bit_flip;
    Io_flaky;
    Conn_drop;
    Conn_delay;
    Conn_truncate;
    Corrupt_frame;
    Blackhole;
  ]

let conn_kinds = [ Conn_drop; Conn_delay; Conn_truncate; Corrupt_frame; Blackhole ]

let kind_of_name name =
  List.find_opt (fun k -> kind_name k = name) all_kinds

type t = { rng : Prng.t option; kinds : kind list; rate : float }

let create ?(kinds = all_kinds) ?(rate = 1.0) ~seed () =
  { rng = Some (Prng.create ~seed); kinds; rate }

let none = { rng = None; kinds = []; rate = 0. }
let armed t = Option.is_some t.rng

let fires t kind =
  match t.rng with
  | None -> false
  | Some rng -> List.mem kind t.kinds && Prng.bernoulli rng t.rate

let corrupt_data t data =
  let copy = Array.copy data in
  (match t.rng with
  | None -> ()
  | Some rng ->
      if Array.length copy > 0 then
        copy.(Prng.int rng (Array.length copy)) <- Float.nan);
  copy

let deadline_probe t =
  match t.rng with
  | Some _ when List.mem Expire_deadline t.kinds ->
      (* One draw per tier: decided lazily at the first probe so arming
         the plan costs nothing for tiers that never tick. *)
      let decided = ref None in
      Some
        (fun (_ : Deadline.stats) ->
          match !decided with
          | Some d -> d
          | None ->
              let d = fires t Expire_deadline in
              decided := Some d;
              d)
  | _ -> None

let pressure t = if fires t Alloc_pressure then raise (Injected Alloc_pressure)

let torn_prefix t payload =
  match t.rng with
  | None -> None
  | Some rng ->
      if fires t Torn_write && String.length payload > 1 then
        Some (String.sub payload 0 (1 + Prng.int rng (String.length payload - 1)))
      else None

let flip_bit t payload =
  match t.rng with
  | None -> None
  | Some rng ->
      if fires t Bit_flip && String.length payload > 0 then begin
        let b = Bytes.of_string payload in
        let pos = Prng.int rng (Bytes.length b) in
        let bit = 1 lsl Prng.int rng 8 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
        Some (Bytes.to_string b)
      end
      else None

let io_fails t = fires t Io_flaky

(* Network fault points share the mechanics of their storage cousins
   ([torn_prefix] / [flip_bit]) but draw on their own kinds, so a plan
   can arm disk chaos and wire chaos independently. *)

let prefix_of rng payload =
  String.sub payload 0 (1 + Prng.int rng (String.length payload - 1))

let conn_truncate t payload =
  match t.rng with
  | None -> None
  | Some rng ->
      if fires t Conn_truncate && String.length payload > 1 then
        Some (prefix_of rng payload)
      else None

let corrupt_frame t payload =
  match t.rng with
  | None -> None
  | Some rng ->
      if fires t Corrupt_frame && String.length payload > 0 then begin
        let b = Bytes.of_string payload in
        let pos = Prng.int rng (Bytes.length b) in
        let bit = 1 lsl Prng.int rng 8 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
        Some (Bytes.to_string b)
      end
      else None
