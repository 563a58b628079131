(** Per-VM network demand profile (§4.3.1).

    "The per-VM aggregated flow data collected by the ME forms its
    network demand profile ... maintained over the lifetime of the VM
    and migrated along with the VM", and used to bootstrap offload
    decisions for freshly migrated or cloned VMs. *)

type entry = {
  pattern : Netcore.Fkey.Pattern.t;
  median_pps : float;
  median_bps : float;
  epochs_active : int;
  last_interval : int;  (** Control interval of the last observation. *)
}

type t

val create : tenant:Netcore.Tenant.id -> vm_ip:Netcore.Ipv4.t -> t
val vm_ip : t -> Netcore.Ipv4.t

val update : t -> Measurement_engine.report -> unit
(** Fold a control-interval report in; only entries owned by this VM
    are retained. *)

val entries : t -> entry list
val entry_count : t -> int

val clone_for : t -> vm_ip:Netcore.Ipv4.t -> t
(** The profile a VM cloned from this one starts with (same history,
    patterns re-homed to the new address where they referenced the old
    one). *)

val pp : Format.formatter -> t -> unit
