(** Endpoint strings for the serving tier.

    Every transport target in the system — listen addresses, client
    connect targets, failover standbys, shard backends — travels as a
    plain string. A string starting with ["tcp:"] is parsed as
    ["tcp:HOST:PORT"]; anything else names a Unix-domain socket path.
    Centralising the split here keeps the replication and failover
    plumbing transport-agnostic. *)

type t =
  | Unix_path of string  (** a filesystem socket path *)
  | Tcp of { host : string; port : int }  (** a TCP address *)

val parse : string -> (t, string) result
(** [parse s] reads an endpoint string. Unix paths never fail; a
    ["tcp:"]-prefixed string fails with a reason when the port is
    missing, non-numeric or out of [1, 65535]. An empty TCP host
    means the IPv4 loopback. *)

val domain : t -> Unix.socket_domain
(** [domain ep] is the socket domain to create for this endpoint:
    [PF_UNIX] for paths, [PF_INET] for TCP. *)

val sockaddr : t -> (Unix.sockaddr, string) result
(** [sockaddr ep] resolves the endpoint to a bindable/connectable
    address. TCP hosts must be numeric or ["localhost"] — the serving
    tier deliberately takes no DNS dependency — and fail with a
    reason otherwise. *)
