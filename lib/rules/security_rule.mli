(** Tenant security (ACL) rules.

    Amazon VPC-style allow/deny rules, up to a few hundred per VM
    (requirement C2). When a flow is offloaded, the matching rule is
    compiled into an explicit allow in the ToR VRF with a default deny
    backstop (§4.1.3). *)

type action = Allow | Deny

type t = {
  pattern : Netcore.Fkey.Pattern.t;
  action : action;
  priority : int;  (** Higher wins. *)
}

val make : ?priority:int -> Netcore.Fkey.Pattern.t -> action -> t
(** Default priority is the pattern's specificity. *)

val allow_all : Netcore.Tenant.id -> t
(** Lowest-priority allow-everything rule for a tenant, used in
    permissive test setups. *)

val deny_all : Netcore.Tenant.id -> t
(** Default deny backstop (priority -1, below any real rule). *)

val matches : t -> Netcore.Fkey.t -> bool
