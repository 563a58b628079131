(** Compilation of offloaded flows into hardware rules.

    "The offloaded flow rules must comply with configured policy. To
    ensure this, a rule that most specifically defines the policy for
    the flow being offloaded is constructed by FasTrak controllers to be
    placed in the TOR" (§4.3). Given the flow (or aggregate) selected
    for offload and the owning VM's policy, this module produces the
    exact set of VRF entries the ToR needs: an explicit allow ACL no
    broader than the selection and the GRE tunnel mapping(s) for the
    destination(s). *)

type compiled = {
  tenant : Netcore.Tenant.id;
  acl_pattern : Netcore.Fkey.Pattern.t;
      (** Most-specific allow pattern: the intersection of the selection
          with the matching policy ACL. *)
  tunnels : Tunnel_rule.t list;
      (** GRE mappings the ToR must hold for this selection. *)
  tcam_entries : int;
      (** Hardware fast-path entries consumed: 1 ACL + tunnels. *)
}

type error =
  | Denied_by_policy
      (** The policy denies (part of) the selection; offloading it would
          punch a hole through tenant isolation, so refuse. *)
  | No_tunnel_mapping of Netcore.Ipv4.t
      (** A destination has no known location. *)

val compile :
  policy:Policy.t ->
  selection:Netcore.Fkey.Pattern.t ->
  destinations:Netcore.Ipv4.t list ->
  (compiled, error) result
(** [destinations] are the concrete destination VM addresses observed
    for the selection (the ME knows them); each needs a GRE mapping. An
    exact-match selection needs exactly its own destination. *)

val compile_flow :
  policy:Policy.t -> flow:Netcore.Fkey.t -> (compiled, error) result
(** Convenience wrapper for a single exact flow. *)

val pp_error : Format.formatter -> error -> unit
