module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Fifo = Dcsim.Fifo

module Server = struct
  let install ~vm ~port ?(service_cost = Compute.Cost_params.server_app_default_cost)
      ~response_size () =
    Host.Vm.register_listener vm ~port (fun pkt ->
        Compute.Cpu_pool.submit (Host.Vm.apps vm) ~cost:service_cost (fun () ->
            let reply_flow = Fkey.reverse pkt.Packet.flow in
            (* sent_at is only used by clients to trace their own
               packets; zero is fine for server replies. *)
            let reply =
              Packet.create ~now:Simtime.zero ~flow:reply_flow
                ~payload:response_size ()
            in
            Host.Vm.send vm reply))
end

module Client = struct
  type config = {
    servers : (Netcore.Ipv4.t * int) list;
    connections : int;
    outstanding : int;
    request_size : int;
    total_requests : int option;
    src_port_base : int;
  }

  type conn = {
    flow : Fkey.t;
    send_times : Simtime.t Fifo.t;  (* FIFO; responses match in order *)
    mutable conn_issued : int;
    mutable budget : int;  (* max_int when unbounded *)
  }

  type t = {
    engine : Engine.t;
    vm : Host.Vm.t;
    config : config;
    conns : conn array;
    latency : Dcsim.Stats.Histogram.t;
    mutable completed : int;
    mutable issued : int;
    mutable window_start : Simtime.t;
    mutable window_completed : int;
    mutable finish_time : Simtime.t option;
    mutable finish_cb : unit -> unit;
    mutable running : bool;
    mutable retries : int;
  }

  let retry_timeout = Simtime.span_ms 250.0
  let retry_scan_period = Simtime.span_ms 100.0

  (* Each connection owns a fixed share of the request budget, the way
     memslap splits its total across servers: a slow server cannot hand
     its work to a fast one, which is exactly why the paper's Table 2
     finish times are dominated by the slowest member. *)
  let issue t conn =
    if t.running && conn.conn_issued < conn.budget then begin
      conn.conn_issued <- conn.conn_issued + 1;
      t.issued <- t.issued + 1;
      let now = Engine.now t.engine in
      Fifo.push conn.send_times now;
      let pkt =
        Packet.create ~now ~flow:conn.flow ~payload:t.config.request_size ()
      in
      Host.Vm.send t.vm pkt
    end

  let on_response t conn _pkt =
    if not (Fifo.is_empty conn.send_times) then begin
      let sent_at = Fifo.pop conn.send_times in
      let now = Engine.now t.engine in
      let latency_us = Simtime.span_to_us (Simtime.diff now sent_at) in
      Dcsim.Stats.Histogram.add t.latency latency_us;
      Obs.Slo.observe_latency_us
        ~tenant:(Netcore.Tenant.to_int (Host.Vm.tenant t.vm))
        latency_us;
      t.completed <- t.completed + 1;
      t.window_completed <- t.window_completed + 1;
      match t.config.total_requests with
      | Some n when t.completed = n ->
          t.finish_time <- Some now;
          t.running <- false;
          t.finish_cb ()
      | _ -> ()
    end;
    issue t conn

  (* Requests lost in flight (e.g. dropped during a rule migration) are
     re-issued after an application-level timeout, as memslap/netperf
     over TCP would retransmit; the stale FIFO timestamp is discarded. *)
  let rec watchdog t engine =
    if t.running then
      ignore
        (Engine.after engine retry_scan_period (fun () ->
             let now = Engine.now engine in
             Array.iter
               (fun conn ->
                 if
                   (not (Fifo.is_empty conn.send_times))
                   && Simtime.span_compare
                        (Simtime.diff now (Fifo.peek conn.send_times))
                        retry_timeout
                      > 0
                 then begin
                   ignore (Fifo.pop conn.send_times);
                   t.retries <- t.retries + 1;
                   Fifo.push conn.send_times now;
                   let pkt =
                     Packet.create ~now ~flow:conn.flow
                       ~payload:t.config.request_size ()
                   in
                   Host.Vm.send t.vm pkt
                 end)
               t.conns;
             watchdog t engine))

  let start ~engine ~vm config =
    if config.connections <= 0 || config.outstanding <= 0 then
      invalid_arg "Transactions.Client.start: bad concurrency";
    let conn_list =
      List.concat_map
        (fun conn_index ->
          List.mapi
            (fun server_index (dst_ip, dst_port) ->
              let flow =
                Fkey.make ~src_ip:(Host.Vm.ip vm) ~dst_ip
                  ~src_port:
                    (config.src_port_base + (conn_index * List.length config.servers)
                    + server_index)
                  ~dst_port ~proto:Fkey.Tcp ~tenant:(Host.Vm.tenant vm)
              in
              { flow; send_times = Fifo.create (); conn_issued = 0; budget = max_int })
            config.servers)
        (List.init config.connections (fun i -> i))
    in
    (match config.total_requests with
    | None -> ()
    | Some n ->
        let conns = List.length conn_list in
        List.iteri
          (fun i conn ->
            (* Distribute the total as evenly as integer division allows. *)
            conn.budget <- (n / conns) + (if i < n mod conns then 1 else 0))
          conn_list);
    let t =
      {
        engine;
        vm;
        config;
        conns = Array.of_list conn_list;
        latency = Dcsim.Stats.Histogram.create ();
        completed = 0;
        issued = 0;
        window_start = Engine.now engine;
        window_completed = 0;
        finish_time = None;
        finish_cb = ignore;
        running = true;
        retries = 0;
      }
    in
    watchdog t engine;
    Array.iter
      (fun conn ->
        Host.Vm.register_flow_handler vm (Fkey.reverse conn.flow) (fun pkt ->
            on_response t conn pkt);
        for _ = 1 to config.outstanding do
          issue t conn
        done)
      t.conns;
    t

  let completed t = t.completed

  let tps t ~now =
    let elapsed = Simtime.span_to_sec (Simtime.diff now t.window_start) in
    if elapsed <= 0.0 then 0.0 else float_of_int t.window_completed /. elapsed

  let mean_latency_us t = Dcsim.Stats.Histogram.mean t.latency
  let p99_latency_us t = Dcsim.Stats.Histogram.percentile t.latency 99.0
  let finish_time t = t.finish_time
  let on_finish t cb = t.finish_cb <- cb

  let reset_measurement t ~now =
    Dcsim.Stats.Histogram.clear t.latency;
    t.window_start <- now;
    t.window_completed <- 0

  let stop t = t.running <- false
  let retries t = t.retries
end
