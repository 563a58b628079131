let app_data_sizes = [ 64; 600; 1448; 32000 ]
let rr_port = 12865
let stream_port = 12866

let install_rr_server ~vm ~response_size =
  Transactions.Server.install ~vm ~port:rr_port ~response_size ()

let install_stream_sink ~vm = Stream.install_sink ~vm ~port:stream_port ()

let tcp_stream ~engine ~vm ~dst_ip ~size ?(threads = 3) () =
  List.init threads (fun i ->
      let config =
        {
          (Stream.default_config ~dst_ip) with
          Stream.dst_port = stream_port;
          src_port = 41000 + i;
          message_size = size;
        }
      in
      Stream.start ~engine ~vm config)

let tcp_rr ~engine ~vm ~dst_ip ~size =
  Transactions.Client.start ~engine ~vm
    {
      Transactions.Client.servers = [ (dst_ip, rr_port) ];
      connections = 1;
      outstanding = 1;
      request_size = size;
      total_requests = None;
      src_port_base = 42000;
    }

let burst_rr ~engine ~vm ~dst_ip ~size =
  Transactions.Client.start ~engine ~vm
    {
      Transactions.Client.servers = [ (dst_ip, rr_port) ];
      connections = 3;
      outstanding = 32;
      request_size = size;
      total_requests = None;
      src_port_base = 43000;
    }
