(* Endpoint strings: the one place the serving tier tells a Unix-domain
   socket path apart from a TCP address. Every CLI flag, failover
   target and shard backend stays a plain string — "tcp:HOST:PORT"
   selects TCP, anything else is a filesystem socket path — so the
   replication plumbing (which ships endpoint strings around) carries
   TCP targets without change. *)

type t =
  | Unix_path of string
  | Tcp of { host : string; port : int }

let tcp_prefix = "tcp:"

let parse s =
  let plen = String.length tcp_prefix in
  if String.length s < plen || String.sub s 0 plen <> tcp_prefix then
    Ok (Unix_path s)
  else
    let rest = String.sub s plen (String.length s - plen) in
    match String.rindex_opt rest ':' with
    | None ->
        Error
          (Printf.sprintf "tcp endpoint needs HOST:PORT, got %S" rest)
    | Some cut -> (
        let host = String.sub rest 0 cut in
        let host = if host = "" then "127.0.0.1" else host in
        let port = String.sub rest (cut + 1) (String.length rest - cut - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp { host; port = p })
        | Some p -> Error (Printf.sprintf "tcp port %d out of range" p)
        | None -> Error (Printf.sprintf "tcp port is not an integer: %S" port))

let domain = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* Numeric addresses plus "localhost": serving infrastructure should
   not take a DNS dependency (or its nondeterminism) for the loopback
   and static-fleet cases this tier targets. *)
let resolve host =
  if host = "localhost" then Ok Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string host with
    | addr -> Ok addr
    | exception Failure _ ->
        Error
          (Printf.sprintf
             "cannot resolve host %S (use a numeric address or localhost)"
             host)

let sockaddr = function
  | Unix_path p -> Ok (Unix.ADDR_UNIX p)
  | Tcp { host; port } ->
      Result.map (fun addr -> Unix.ADDR_INET (addr, port)) (resolve host)
