(* The benchmark's workloads: whole runs of the paper's experiments and
   of the soak and fabric-chaos runs, each called through its public
   entry point. Each stresses a different layer (see README.md). *)

open Experiments

(* [Full] is the benchmark's size; [Smoke] a tiny horizon for the
   @e2e-smoke alias. *)
type size = Full | Smoke

type outcome = {
  report : unit -> unit;  (** The experiment's own report, on stdout. *)
  broken : string option;  (** An invariant the run broke, if any. *)
  counts : (string * float) list;
      (** Counts only the result record exposes, e.g. engine events. *)
}

type t = {
  name : string;
  seeded : bool;  (** Whether [--seed] reaches the experiment. *)
  prepare : size:size -> seed:int -> unit -> outcome;
      (** [prepare ~size ~seed] does the set-up; the closure it returns
          is the timed call. *)
}

let check cond msg = if cond then None else Some msg

(* Open loop: 2 racks x 2 servers of production-shaped load with
   tenant churn; the most VRF churn and the densest cluster windows. *)
let soak_mixed =
  let prepare ~size ~seed =
    let config =
      {
        Soak.racks = 2;
        servers_per_rack = 2;
        duration = (match size with Full -> 0.5 | Smoke -> 0.05);
        workload = Soak.Mixed;
        churn_rate = 2.0;
        base_rate = 2000.0;
        seed;
      }
    in
    fun () ->
      let r = Soak.run ~config () in
      {
        report = (fun () -> Soak.print r);
        broken =
          check
            (r.Soak.tor_no_route_drops = 0 && r.core_dropped = 0)
            "soak: packets dropped for want of a route";
        counts =
          [
            ("dcsim.events", float_of_int r.events);
            ("dcsim.windows", float_of_int r.windows);
            ( "dcsim.events_per_window",
              float_of_int r.events /. float_of_int r.windows );
          ];
      }
  in
  { name = "soak-mixed"; seeded = true; prepare }

(* Table 4's controller cadence, scaled with the request count exactly
   as the table4 experiment scales it. *)
let table4_config () =
  let epoch = 2.5 *. !Memcached_eval.requests_scale in
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Dcsim.Simtime.span_sec epoch;
    poll_gap = Dcsim.Simtime.span_sec (Float.min 0.1 (epoch /. 2.5));
    min_score = 1000.0;
  }

(* Closed loop: Table 4's "VIF+FasTrak" row, 5 memslap clients against
   4 memcached VMs with a disk-bound scp each, one engine. *)
let memcached_fastrak =
  let prepare ~size ~seed:_ =
    Memcached_eval.requests_scale :=
      (match size with Full -> 0.015 | Smoke -> 0.002);
    let setup =
      Memcached_eval.build ~mem_vm_count:4 ~vf_indices:[] ~background:`Scp
        ~total_requests:(Memcached_eval.finish_requests ())
        ()
    in
    let tb = setup.Memcached_eval.tb in
    let rm =
      Fastrak.Rule_manager.create ~engine:tb.Testbed.engine
        ~config:(table4_config ()) ~tor:tb.Testbed.tor
        ~servers:(Array.to_list tb.Testbed.servers)
        ()
    in
    Testbed.connect_tunnels tb;
    Fastrak.Rule_manager.start rm;
    fun () ->
      let row = Memcached_eval.run_to_finish ~label:"VIF+FasTrak" setup in
      let offloaded = Fastrak.Rule_manager.offloaded_count rm in
      let promoted =
        match Obs.Metrics.find "fastrak.promotions" with
        | Some (Obs.Metrics.Counter_v n) -> n
        | _ -> 0
      in
      {
        report =
          (fun () ->
            Memcached_eval.print_rows ~title:"Table 4: memcached under FasTrak"
              [ row ];
            Printf.printf "offloaded aggregates: %d\n" offloaded);
        broken = check (promoted > 0) "memcached: nothing was offloaded";
        counts =
          [
            ( "dcsim.events",
              float_of_int (Dcsim.Engine.events_processed tb.Testbed.engine) );
          ];
      }
  in
  { name = "memcached-fastrak"; seeded = false; prepare }

(* One bulk TCP flow moved from the VIF to SR-IOV mid-run (fig12). *)
let fig12_migration =
  let prepare ~size ~seed:_ =
    let migrate_at, duration =
      match size with Full -> (0.15, 0.6) | Smoke -> (0.05, 0.2)
    in
    fun () ->
      let r = Migration_tcp.run ~migrate_at ~duration () in
      {
        report = (fun () -> Migration_tcp.print r);
        broken =
          check (r.Migration_tcp.timeouts = 0) "fig12: the flow timed out";
        counts = [];
      }
  in
  { name = "fig12-migration"; seeded = false; prepare }

(* 16 racks of paced express lanes under the [fabric] fault schedule:
   lane outage and failover, TCAM faults, a controller crash. *)
let fabric_chaos_16 =
  let prepare ~size ~seed =
    let config =
      {
        Fabric_chaos.default_config with
        Fabric_chaos.racks = (match size with Full -> 16 | Smoke -> 4);
        duration = (match size with Full -> 6.0 | Smoke -> 3.0);
        drain = 1.0;
        seed;
      }
    in
    fun () ->
      let r = Fabric_chaos.run ~config () in
      {
        report = (fun () -> Fabric_chaos.print r);
        broken =
          check
            (r.Fabric_chaos.reconciled && r.crash_outcome = "recovered"
           && r.no_route_drops = 0)
            "fabric-chaos: views did not reconcile after the crash";
        counts = [];
      }
  in
  { name = "fabric-chaos-16"; seeded = true; prepare }

let all = [ soak_mixed; memcached_fastrak; fig12_migration; fabric_chaos_16 ]
let find name = List.find_opt (fun w -> w.name = name) all
