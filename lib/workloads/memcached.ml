module Simtime = Dcsim.Simtime

let port = 11211
let request_size = 64
let value_size = 1024

let service_cost = Simtime.span_us 2.5

let install_server ~vm =
  Transactions.Server.install ~vm ~port ~service_cost ~response_size:value_size ()

let memslap ~engine ~vm ~servers ~concurrency ~total_requests =
  Transactions.Client.start ~engine ~vm
    {
      Transactions.Client.servers = List.map (fun ip -> (ip, port)) servers;
      connections = 1;
      outstanding = concurrency;
      request_size;
      total_requests;
      src_port_base = 45000;
    }
