(** Memcached server and memslap load generator (§6).

    Memcached is the paper's representative communication-intensive,
    latency-sensitive application. Requests are small (key-sized),
    responses value-sized; the server charges a small per-request
    service cost. memslap drives a configurable concurrency against a
    set of servers, round-robin, optionally stopping after a total
    request count (the 2M-request finish-time experiments). *)

val port : int
val request_size : int
(** 64 B: key plus protocol overhead. *)

val install_server : vm:Host.Vm.t -> ?service_cost:Dcsim.Simtime.span -> unit -> unit

val memslap :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  servers:Netcore.Ipv4.t list ->
  ?concurrency:int ->
  ?total_requests:int ->
  unit ->
  Transactions.Client.t
(** [concurrency] (default 8) pipelined requests over one connection
    per server. *)
