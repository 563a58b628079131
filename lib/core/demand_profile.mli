(** Per-VM network demand profile (§4.3.1).

    "The per-VM aggregated flow data collected by the ME forms its
    network demand profile ... maintained over the lifetime of the VM
    and migrated along with the VM", and used to bootstrap offload
    decisions for freshly migrated or cloned VMs. The profile lives as
    long as the VM; each entry lives as long as the ME measures its
    aggregate, and the local controller {!expire}s it once no report
    has refreshed it for a whole history window. *)

type entry = {
  pattern : Netcore.Fkey.Pattern.t;
  median_pps : float;
  median_bps : float;
  epochs_active : int;
  last_interval : int;
      (** Control interval of the last observation, on the clock of
          the ME that owns the profile now. *)
}

type t

val create : tenant:Netcore.Tenant.id -> vm_ip:Netcore.Ipv4.t -> t
val vm_ip : t -> Netcore.Ipv4.t

val update : t -> Measurement_engine.report -> unit
(** Fold a control-interval report in; only entries owned by this VM
    are retained. *)

val expire : t -> before:int -> unit
(** Forget every entry last observed before control interval
    [before]. *)

val restamp : t -> interval:int -> unit
(** Mark every entry as observed at [interval]: an adopted profile's
    entries age from their adoption, on the adopting ME's clock. *)

val entries : t -> entry list
val entry_count : t -> int

val clone_for : t -> vm_ip:Netcore.Ipv4.t -> t
(** The profile a VM cloned from this one starts with (same history,
    patterns re-homed to the new address where they referenced the old
    one). *)
