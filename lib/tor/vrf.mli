(** A per-tenant Virtual Routing and Forwarding table (§4.1.3).

    Holds the rules FasTrak offloads for one tenant: explicit allow
    ACLs (default deny) and GRE tunnel mappings keyed by destination
    VM. Rule installation draws entries from the shared {!Tcam};
    removal returns them. *)

type t

val create : engine:Dcsim.Engine.t -> tenant:Netcore.Tenant.id -> tcam:Tcam.t -> t
(** An empty VRF for [tenant] drawing entries from the shared [tcam].
    Its TCAM trace events are stamped with [engine]'s clock. *)

val tenant : t -> Netcore.Tenant.id
(** The owning tenant. *)

type handle
(** Names one installed rule set for later {!remove}. *)

val install :
  t ->
  Rules.Rule_compiler.compiled ->
  (handle, [ `Tcam_full | `Install_fault ]) result
(** Install a compiled offload rule set. Fails atomically when the TCAM
    cannot hold all its entries ([`Tcam_full]) or when the injected
    install-fault hook fires ([`Install_fault]); neither failure
    consumes TCAM entries, so there is never anything to roll back. *)

val remove : t -> handle -> unit
(** Idempotent. *)

val installed_count : t -> int
(** Live rule sets (installs minus removes). *)

val is_live : t -> handle -> bool
(** True iff the handle names a currently installed rule set. The
    anti-entropy audit uses this to detect rules lost to soft errors. *)

val live_handles : t -> handle list
(** All currently installed handles — the audit's hardware-side view,
    used to find orphans with no matching controller intent. *)

val set_install_fault : t -> (unit -> bool) option -> unit
(** Install (or clear) the fault hook consulted before each {!install};
    returning true fails that install with [`Install_fault], bumps the
    [tor.tcam.install_faults] counter and emits a [Tcam_error] trace
    event. [None] (the default) is the reliable path. *)

val evict_random : t -> rng:Dcsim.Rng.t -> handle option
(** Inject one TCAM soft error: silently evict a uniformly random
    installed rule set (rules and tunnel mappings vanish with no
    notification — only the audit can repair the divergence). Returns
    the evicted handle, or [None] if the VRF is empty. Bumps
    [tor.tcam.soft_errors] and emits a [Tcam_error] trace event. *)

val permits : t -> Netcore.Fkey.t -> bool
(** The ACL check: true iff some installed rule set's allow-pattern
    covers the flow. False is the default deny (§4.1.3: a malicious VM
    pushing disallowed traffic through the SR-IOV path is dropped
    here).

    The lookup is a tuple-space index, one hash table per distinct
    pattern mask, so its cost follows the number of masks, not of
    entries, and it stops at the first match. A candidate counts only
    if its pattern matches the flow, so a hash collision can never
    allow a denied flow. Allocates nothing. *)

val tunnel_for :
  t -> dst_ip:Netcore.Ipv4.t -> Rules.Tunnel_rule.endpoint option
(** GRE endpoint for the destination VM, if an installed rule set
    carries a tunnel mapping for it. *)
