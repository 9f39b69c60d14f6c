(* Server process control: spawn, set-up timing, the socket client, the
   server's own CPU and memory from /proc, STATS scraping, and the
   SIGUSR1 counter dumps. *)

module Wire = Wavesyn_server.Wire
module Client = Wavesyn_server.Client
module Mclock = Wavesyn_obs.Mclock

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

type t = {
  pid : int;
  mutable client : Client.t option;
  mutable dumps : int;
  mutable reaped : bool;
}

(* Every live server child, so the watchdog and every exit path can
   kill and reap them. *)
let children : t list ref = ref []

let now_s () = Int64.to_float (Mclock.now_ns ()) /. 1e9

let reap t =
  if not t.reaped then begin
    t.reaped <- true;
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    children := List.filter (fun c -> c != t) !children
  end

let kill t =
  Option.iter Client.close t.client;
  t.client <- None;
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t
  end

let kill_all () = List.iter kill !children

(* Start the server [argv] (`wsbench.exe serve ...`, or `wavesyn
   server ...`) on [sock] (a short name relative to the run's directory,
   far below the 108-byte sun_path cap) and time it until the first PING
   is answered. *)
let spawn ~argv ~sock ~log =
  let t0 = now_s () in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin out out in
  Unix.close out;
  let t = { pid; client = None; dumps = 0; reaped = false } in
  children := t :: !children;
  let deadline = t0 +. 120. in
  let rec connect () =
    match Client.connect ~timeout_ms:60_000. sock with
    | Ok c -> c
    | Error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            t.reaped <- true;
            abort "server exited during set-up (see %s)" log);
        if now_s () > deadline then abort "server did not come up";
        Unix.sleepf 0.0005;
        connect ()
  in
  let c = connect () in
  t.client <- Some c;
  (match Client.request_one c Wire.Ping with
  | Ok Wire.Pong -> ()
  | _ -> abort "first PING not answered");
  (t, now_s () -. t0)

let client t =
  match t.client with Some c -> c | None -> abort "no connection"

let request t req =
  match Client.request (client t) req with
  | Ok replies -> replies
  | Error e -> abort "transport: %s" (Wavesyn_robust.Validate.to_string e)

let shutdown t =
  (match t.client with
  | Some c -> ignore (Client.request c Wire.Shutdown)
  | None -> ());
  Option.iter Client.close t.client;
  t.client <- None;
  reap t

let read_file path =
  match open_in path with
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      Some s
  | exception Sys_error _ -> None

(* On-CPU nanoseconds of every thread of the server (shard servers run
   as threads of the same process). *)
let cpu_ns t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | Some s -> (
          match String.split_on_char ' ' (String.trim s) with
          | ns :: _ -> acc +. float_of_string ns
          | [] -> acc)
      | None -> acc)
    0.
    (try Sys.readdir dir with Sys_error _ -> [||])

(* A "Field:   <n> kB" line of /proc/<pid>/status, in KiB. *)
let status_kib t field =
  let prefix = field ^ ":" in
  match read_file (Printf.sprintf "/proc/%d/status" t.pid) with
  | None -> abort "no /proc status"
  | Some s -> (
      match
        List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' s)
      with
      | Some l -> Scanf.sscanf l "%_s %f" Fun.id
      | None -> abort "no %s in /proc status" field)

(* STATS scraping. The front-end's own table comes first; shard
   sections (after a "== shard" header) are skipped. Counters and
   gauges map to their value, histograms to (count, sum). *)
type stats = (string, float * float) Hashtbl.t

let stats t : stats =
  let text =
    match request t Wire.Stats with
    | [ Wire.Stats_text s ] -> s
    | _ -> abort "STATS not answered"
  in
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | [] -> ()
    | l :: _ when String.starts_with ~prefix:"==" l -> ()
    | l :: rest ->
        (match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | ("counter" | "gauge") :: name :: v :: _ ->
            Hashtbl.replace tbl name (float_of_string v, 0.)
        | "histogram" :: name :: fields ->
            let field key =
              List.find_map
                (fun f ->
                  match String.split_on_char '=' f with
                  | [ k; v ] when k = key -> float_of_string_opt v
                  | _ -> None)
                fields
            in
            Hashtbl.replace tbl name
              ( Option.value ~default:0. (field "count"),
                Option.value ~default:0. (field "sum") )
        | _ -> ());
        go rest
  in
  go (String.split_on_char '\n' text);
  tbl

let stat (s : stats) name = match Hashtbl.find_opt s name with Some (v, _) -> v | None -> 0.
let hist_sum (s : stats) name = match Hashtbl.find_opt s name with Some (_, v) -> v | None -> 0.

(* SIGUSR1 dump: minor and major words allocated so far, plus (traced
   servers) the number of spans finished so far and the retained
   server.round spans as (id, ms). *)
type dump = {
  minor : float;
  major : float;
  recorded : int;
  spans : (int * float) list;
}

let dump t =
  t.dumps <- t.dumps + 1;
  let file = Printf.sprintf "usr1.%d.%d" t.pid t.dumps in
  Unix.kill t.pid Sys.sigusr1;
  let deadline = now_s () +. 10. in
  let rec wait () =
    match read_file file with
    | Some s -> s
    | None ->
        if now_s () > deadline then abort "server did not dump counters";
        Unix.sleepf 0.001;
        wait ()
  in
  let text = wait () in
  Sys.remove file;
  List.fold_left
    (fun d l ->
      match String.split_on_char ' ' l with
      | [ "gc"; mi; ma ] -> { d with minor = float_of_string mi; major = float_of_string ma }
      | [ "recorded"; n ] -> { d with recorded = int_of_string n }
      | [ "span"; id; ms ] -> { d with spans = (int_of_string id, float_of_string ms) :: d.spans }
      | _ -> d)
    { minor = 0.; major = 0.; recorded = 0; spans = [] }
    (String.split_on_char '\n' text)
  |> fun d -> { d with spans = List.rev d.spans }
