(** Memcached server and memslap load generator (§6).

    Memcached is the paper's representative communication-intensive,
    latency-sensitive application. Requests are small (64 B, key-sized),
    responses value-sized; the server charges a small per-request
    service cost. memslap drives a configurable concurrency against a
    set of servers, round-robin, optionally stopping after a total
    request count (the 2M-request finish-time experiments). *)

val port : int

val install_server : vm:Host.Vm.t -> unit
(** Serve [port] with 1024 B values at 2.5 us of service per request. *)

val memslap :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  servers:Netcore.Ipv4.t list ->
  concurrency:int ->
  total_requests:int option ->
  Transactions.Client.t
(** [concurrency] pipelined requests over one connection per server,
    from source ports 45000 up; [total_requests] stops the client after
    that many ([None] runs until stopped). *)
