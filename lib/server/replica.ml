(* The follower's side of journal shipping: pull SYNC batches from a
   primary and fold them into a local follower store until the cursor
   is current.

   Every applied batch goes through Supervisor.apply_shipped — journal
   first, then the in-memory state, the exact ingest discipline — so a
   caught-up follower's coefficient state is bit-identical to the
   primary's. A cursor that fell behind the primary's compaction gets
   a snapshot bootstrap (Ship_snapshot) and re-syncs from there. *)

module Validate = Wavesyn_robust.Validate
module Journal = Wavesyn_robust.Journal
module Snapshot = Wavesyn_robust.Snapshot
module Supervisor = Wavesyn_robust.Supervisor

type progress = {
  batches : int;
  records : int;
  snapshots : int;
  final_seq : int;
}

let bad reason = Error (Validate.Bad_shape { what = "sync"; reason })

let handshake client =
  match Client.request_one client (Wire.Sync { since = 0; max = 0 }) with
  | Ok (Wire.Ship { manifest; _ }) -> Ok manifest
  | Ok (Wire.Error { message; _ }) ->
      bad ("primary refused the SYNC probe: " ^ message)
  | Ok reply -> bad ("unexpected SYNC reply: " ^ Wire.describe_reply reply)
  | Error _ as e -> e

let sync ?(batch = 64) client sup =
  if batch < 1 then invalid_arg "Replica.sync: batch must be at least 1";
  if Supervisor.role sup <> Supervisor.Follower then
    Error
      (Validate.Bad_option
         { what = "sync"; reason = "store is not a follower" })
  else begin
    let batches = ref 0 and records = ref 0 and snapshots = ref 0 in
    let rec loop () =
      let since = Supervisor.seq sup in
      match Client.request_one client (Wire.Sync { since; max = batch }) with
      | Ok (Wire.Ship { body = Wire.Ship_none; last_seq; _ }) ->
          (* Nothing to move: the primary says we are current. A
             record-free reply claiming a higher sequence would loop
             forever — reject it instead. *)
          if last_seq <= since then
            Ok
              {
                batches = !batches;
                records = !records;
                snapshots = !snapshots;
                final_seq = since;
              }
          else
            bad
              (Printf.sprintf
                 "primary at seq %d shipped nothing for cursor %d" last_seq
                 since)
      | Ok (Wire.Ship { body = Wire.Ship_records text; _ }) -> (
          match Journal.decode_batch text with
          | Error _ as e -> e
          | Ok b when b.Journal.b_records = [] && not b.Journal.b_complete ->
              (* An empty, incomplete batch makes no progress — refuse
                 to spin on it. *)
              bad "empty incomplete batch"
          | Ok b -> (
              match Supervisor.apply_shipped sup b with
              | Error _ as e -> e
              | Ok seq ->
                  incr batches;
                  records := !records + List.length b.Journal.b_records;
                  if b.Journal.b_complete && seq >= b.Journal.b_last_seq then
                    Ok
                      {
                        batches = !batches;
                        records = !records;
                        snapshots = !snapshots;
                        final_seq = seq;
                      }
                  else loop ()))
      | Ok (Wire.Ship { body = Wire.Ship_snapshot text; _ }) -> (
          match Snapshot.decode ~what:"shipped snapshot" text with
          | Error _ as e -> e
          | Ok state -> (
              match Supervisor.install_snapshot sup state with
              | Error _ as e -> e
              | Ok _ ->
                  incr snapshots;
                  loop ()))
      | Ok (Wire.Error { message; _ }) ->
          bad ("primary refused SYNC: " ^ message)
      | Ok reply -> bad ("unexpected SYNC reply: " ^ Wire.describe_reply reply)
      | Error _ as e -> e
    in
    loop ()
  end

type follower = {
  store : Supervisor.t;
  config : Supervisor.config;
  manifest : string;
  progress : progress;
}

let bootstrap ?obs ?batch ~dir client =
  match handshake client with
  | Error _ as e -> e
  | Ok manifest -> (
      match Supervisor.config_of_manifest ~dir manifest with
      | Error _ as e -> e
      | Ok config -> (
          match Supervisor.open_store ?obs ~role:Supervisor.Follower config with
          | Error _ as e -> e
          | Ok store -> (
              match sync ?batch client store with
              | Error e ->
                  Supervisor.close store;
                  Error e
              | Ok progress -> Ok { store; config; manifest; progress })))
