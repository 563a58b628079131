(** Tunnel mappings: tenant VM address → provider location.

    To support overlapping tenant address spaces (C1), the network keeps
    a mapping from each (tenant, VM IP) to the provider addresses that
    locate it: the physical server (VXLAN tunnel endpoint used by the
    vswitch path) and the ToR (GRE tunnel endpoint used by the hardware
    path). These mappings migrate with the VM (S4). *)

type endpoint = {
  server_ip : Netcore.Ipv4.t;  (** VXLAN tunnel destination. *)
  tor_ip : Netcore.Ipv4.t;  (** GRE tunnel destination (ToR loopback). *)
}

type t = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  endpoint : endpoint;
}

val make :
  tenant:Netcore.Tenant.id -> vm_ip:Netcore.Ipv4.t -> endpoint -> t

module Map : sig
  (** Mutable mapping used by vswitches, ToRs and controllers. *)

  type rule := t
  type t

  val create : unit -> t
  val install : t -> rule -> unit
  (** Replaces any previous mapping for the same (tenant, vm_ip). *)

  val remove : t -> tenant:Netcore.Tenant.id -> vm_ip:Netcore.Ipv4.t -> unit
  val lookup :
    t -> tenant:Netcore.Tenant.id -> vm_ip:Netcore.Ipv4.t -> endpoint option

  val size : t -> int
end
