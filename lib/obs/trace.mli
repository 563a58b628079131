(** Structured trace sink for the simulator.

    Every decision the FasTrak control plane makes — promoting a flow to
    the express lane, evicting its rules from the TCAM, re-splitting a
    rate limit — is announced as a typed {!event} stamped with the
    emitting engine's sim time. Events are serialised as one JSON
    object per line (JSONL), so a run's trace can be replayed, diffed,
    or fed to external tooling.

    Tracing is off by default and the disabled path is a no-op: emission
    sites guard with {!enabled} before constructing an event, so an
    untraced run performs no allocation, no formatting and no I/O, and
    its outputs are byte-identical to a build without this module.

    See [docs/METRICS.md] for the reference of every event and the
    module that emits it, and [ARCHITECTURE.md] for where each event
    sits in a packet's life. *)

type path = Software | Express
(** [Software] is the vswitch (VIF) path, [Express] the SR-IOV (VF)
    hardware path. *)

type event =
  | Flow_promoted of {
      pattern : Netcore.Fkey.Pattern.t;
      tenant : Netcore.Tenant.id;
      vm_ip : Netcore.Ipv4.t;
      server : string;
      score : float;  (** S = n x m_pps x c at the moment of promotion. *)
      tcam_entries : int;  (** TCAM entries the compiled rules consume. *)
    }
      (** The TOR controller offloaded an aggregate's rules to hardware. *)
  | Flow_demoted of {
      pattern : Netcore.Fkey.Pattern.t;
      tenant : Netcore.Tenant.id;
      vm_ip : Netcore.Ipv4.t;
      server : string;
      reason : string;  (** ["deselected"] or ["vm_migration"]. *)
    }
      (** The TOR controller returned an aggregate to the software path. *)
  | Tcam_install of {
      tenant : Netcore.Tenant.id;
      entries : int;
      used : int;  (** TCAM occupancy after the install. *)
      capacity : int;
    }  (** A compiled rule set was written into a tenant VRF. *)
  | Tcam_evict of {
      tenant : Netcore.Tenant.id;
      entries : int;
      used : int;  (** TCAM occupancy after the eviction. *)
      capacity : int;
    }  (** A VRF rule set was removed and its entries returned. *)
  | Fps_split of {
      vm_ip : Netcore.Ipv4.t;
      soft_bps : float;  (** New VIF limit (Ls + O). *)
      hard_bps : float;  (** New VF limit (Lh + O). *)
      total_bps : float;  (** The contracted limit being split (Ls + Lh). *)
      overflow_bps : float;
          (** The overflow allowance O added to each path, so
              conservation means [soft + hard <= total + 2 O]
              ({!Obs.Monitor} checks exactly this). *)
    }  (** The local controller re-adjusted a VM's FPS rate split. *)
  | Path_transition of {
      vm_ip : Netcore.Ipv4.t;
      pattern : Netcore.Fkey.Pattern.t;
      path : path;
    }
      (** A local flow placer was reprogrammed: subsequent packets of
          the aggregate take [path]. *)
  | Rule_pushed of {
      server : string;
      pattern : Netcore.Fkey.Pattern.t;
      push : [ `Offload | `Demote ];
      seq : int;
          (** The rack-global sequence number the directive was issued
              under. Freshly issued directives carry strictly
              increasing [seq] per rack; unreconciled-demote {e
              replays} keep their original number and are not
              re-announced here. *)
    }
      (** A freshly issued directive left the TOR controller on the
          directive channel toward [server]'s local controller. *)
  | Epoch_tick of {
      me : string;  (** Measurement-engine name, e.g. ["server0.me"]. *)
      epoch : int;
      interval : int;  (** Control intervals completed so far. *)
    }  (** A measurement engine finished one polling epoch. *)
  | Ctrl_drop of { channel : string }
      (** A [Fabric.Channel]'s fault injector dropped a message
          (probabilistic loss, a link-down window, or a one-shot
          trigger) on any faulty channel, control or data plane;
          [channel] is the channel's name. *)
  | Ctrl_retry of { server : string; seq : int; attempt : int; span : int }
      (** A directive to [server] timed out unacked and is being
          retransmitted ([attempt] counts transmissions, so the first
          retry is attempt 2). [span] is the directive round-trip's
          {!Obs.Span} id (0 when the span was started while tracing
          was off), so every retransmission of one directive is
          attributable to the same causal span. *)
  | Peer_state of { server : string; alive : bool }
      (** The TOR controller's dead-peer detector changed its verdict
          on a server's local controller. A transition to dead demotes
          the server's offloaded flows (graceful degradation). *)
  | Lane_state of { lane : string; up : bool }
      (** The express-lane liveness detector changed its verdict on one
          lane (a named probe path between two ToRs). A transition to
          down demotes the flows riding the lane to the software path;
          a transition back to up re-promotes them. *)
  | Tcam_error of { tenant : Netcore.Tenant.id; kind : string; entries : int }
      (** A TCAM failure was injected: [kind] is ["install_fault"] (a
          rule-set install failed outright; [entries] is the size it
          wanted) or ["soft_error"] (an installed rule set of [entries]
          entries was silently evicted). *)
  | Flow_progress of { flow : string; sent : int; acked : int }
      (** Periodic per-flow delivery progress from a workload: [sent]
          and [acked] are cumulative progress counters (bytes, for
          [Workloads.Stream]; any monotone unit works). The
          [no_blackhole] monitor watches these — a flow whose [sent]
          grows while [acked] stalls beyond the allowed window is
          blackholing. *)
  | Migration_stage of {
      vm_ip : Netcore.Ipv4.t;
      stage : [ `Prepare | `Commit | `Abort ];
    }
      (** Two-phase VM migration progress: [`Prepare] returned the VM's
          rules to the hypervisor, [`Commit] adopted the profile at the
          destination, [`Abort] re-installed the returned rules at the
          source because the destination never confirmed. *)
  | Span_begin of {
      span : int;  (** Unique id within the trace, from {!Obs.Span}. *)
      parent : int;  (** Enclosing span's id, 0 for a root span. *)
      kind : string;
          (** Span family: ["directive"], ["install"], ["offload"],
              ["migration"], ["aggregate"] — see [docs/METRICS.md]. *)
      name : string;  (** Human-readable label (Perfetto slice name). *)
      track : string;
          (** Timeline row the span belongs to: a server name or
              ["tor"] ({!Obs.Export} turns each track into a process
              row). *)
    }  (** A causal span opened. Always paired with a {!Span_end}. *)
  | Span_end of { span : int; outcome : string }
      (** A causal span closed; [outcome] is e.g. ["acked"],
          ["failed"], ["installed"], ["commit"], ["abort"],
          ["deselected"]. *)
  | Cache_hit of {
      vif : string;  (** VIF name, e.g. ["vif3"]. *)
      flow : Netcore.Fkey.Pattern.t;  (** Exact pattern of the flow key. *)
      tier : [ `Exact | `Megaflow ];
      cached : string;
          (** The served verdict, [Rules.Policy.verdict_to_string]-encoded. *)
      fresh : string;
          (** A fresh full-policy evaluation of the same flow, computed
              at emission time so the cache-coherence monitor can check
              [cached = fresh] without depending on the rules library. *)
    }
      (** The datapath cache served a verdict without an upcall. One
          event per flow-group lookup (not per packet), traced-runs
          only. *)
  | Cache_miss of { vif : string; flow : Netcore.Fkey.Pattern.t }
      (** No cache tier covered the flow; an upcall follows. *)
  | Cache_invalidate of {
      vif : string;
      reason : string;
          (** ["policy_change"], ["flow_blocked"], ["flow_unblocked"],
              ["fps_resplit"], ["vm_migration"], ["idle"], ["lru"] or
              ["revalidate"]. *)
      dropped : int;  (** Entries removed (both tiers). *)
      exact : int;  (** Exact-tier occupancy after the invalidation. *)
      megaflow : int;  (** Megaflow-tier occupancy after. *)
    }
      (** The revalidator or a rule-mutation hook dropped cache
          entries. *)

(** {1 Sinks} *)

val enabled : unit -> bool
(** True when a sink is installed. Emission sites check this before
    building an event so that disabled tracing costs one load and one
    branch. *)

val emit : now:Dcsim.Simtime.t -> event -> unit
(** Hand an event, stamped [now], to the current sink; a no-op when
    tracing is off. [now] is the clock of the engine the emitting site
    runs on: there is no process-wide clock, so two simulations in one
    process never stamp each other's events. *)

val use_jsonl : out_channel -> unit
(** Route events to [oc], one JSON object per line. The caller keeps
    ownership of the channel; call {!disable} before closing it. *)

val use_callback : (Dcsim.Simtime.t -> event -> unit) -> unit
(** Route events to an in-process consumer (used by tests). *)

val use_tee : (Dcsim.Simtime.t -> event -> unit) -> unit
(** Chain a consumer {e in front of} whatever sink is currently
    installed: every event reaches [f] first, then the previous sink
    (if any). With no previous sink this is {!use_callback} — either
    way {!enabled} becomes true, so e.g. an {!Obs.Monitor} can watch a
    run that writes no trace file. {!disable} drops the whole chain. *)

val disable : unit -> unit
(** Drop the sink (flushing a JSONL channel first); {!enabled} becomes
    false. *)

val disable_count : unit -> int
(** How many times {!disable} has run — a sink-chain epoch. A consumer
    added with {!use_tee} stays in the chain exactly while {!enabled}
    is true and this count has not moved, which is how {!Obs.Monitor}
    answers "is a monitor attached right now". *)

(** {1 Codec} *)

val to_jsonl : Dcsim.Simtime.t -> event -> string
(** One-line JSON encoding, without the trailing newline. The sim time
    is carried as an exact nanosecond integer under ["t_ns"] plus a
    human-friendly ["t"] in seconds; the event constructor is under
    ["ev"]. *)

val encode_into : Buffer.t -> Dcsim.Simtime.t -> event -> unit
(** Append the {!to_jsonl} encoding of one event (no trailing newline)
    to [b]. The JSONL sink and {!Obs.Flight} dumps reuse one buffer
    across events through this, so encoding allocates only the payload
    strings, never a fresh buffer per event. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped b s] appends [s] to [b] as the body of a JSON string:
    double quote and backslash are backslash-escaped, control
    characters become [\u00XX], and every other byte (UTF-8 included)
    is copied as is. The JSONL encoder, the metrics dumps and
    {!Obs.Export} write their strings through this. *)

val of_jsonl : string -> (Dcsim.Simtime.t * event) option
(** Inverse of {!to_jsonl}; [None] on malformed input. Round-trips
    exactly, including float payloads. *)

val pattern_to_string : Netcore.Fkey.Pattern.t -> string
(** Compact codec for flow patterns:
    [src_ip/dst_ip/src_port/dst_port/proto/tenant] with ["*"] for
    wildcards, e.g. ["10.7.0.1/*/11211/*/*/7"]. *)

val pattern_of_string : string -> Netcore.Fkey.Pattern.t option

type json_value = S of string | I of int | F of float
(** A scalar field of a flat JSON object. *)

val parse_flat : string -> (string * json_value) list option
(** Parse one flat JSON object (string/number values only, no nesting)
    into its fields in textual order; [None] on malformed input,
    including a trailing comma, a repeated key, or anything but JSON
    whitespace after the closing brace (two events merged on one line
    by a torn write parse as neither). This
    is the parser behind {!of_jsonl}, exposed for tooling that reads
    adjacent JSONL formats (e.g. {!Obs.Export}'s validator). *)
