(** The simulated network: topology construction plus the IP data plane.

    A {!t} owns a discrete-event {!Engine}, a {!Trace} and a set of nodes.
    Nodes are hosts or routers; interfaces attach them to Ethernet
    {e segments} (broadcast domains with MAC addressing and ARP) or to
    point-to-point links.  The data plane implements:

    - origin sends with {e route-override hooks} consulted before the
      routing table — the mechanism the paper's Linux implementation uses
      for its mobility policy table (§7);
    - router forwarding with TTL, {!Filter} policies (ingress
      source-address filtering, transit prohibition, firewalls) and
      fragmentation/ICMP-fragmentation-needed on MTU violations;
    - ARP with per-node caches, {e proxy ARP} and {e gratuitous ARP}
      (RFC 1027) — how a home agent captures packets for an absent mobile
      host;
    - delivery to protocol handlers, with fragment reassembly;
    - link-layer-addressed sends ([~l2_dst]) so a correspondent on the same
      segment can deliver a packet whose IP destination "does not belong"
      on that segment — the paper's In-DH method;
    - segment-local multicast delivery with group membership.

    Every IP packet travels inside a frame with a unique id and a [flow]
    id preserved across encapsulation and fragmentation, feeding the
    {!Trace}. *)

type t
type node
type iface
type segment

(** {1 Network and topology} *)

val create : unit -> t
val engine : t -> Engine.t
val trace : t -> Trace.t

val set_tracing : t -> bool -> unit
(** [set_tracing t false] turns off per-packet tracing for this world
    ({!Trace.set_enabled} on its trace): the data plane stops building
    trace events, so throughput runs skip all per-hop record allocation.
    An installed trace consumer (observer, sink or ring) overrides the
    switch — oracle and [--trace-json] runs see identical events either
    way.  Default on. *)

val now : t -> float

val run : ?until:float -> ?max_events:int -> t -> unit
(** Run the world to quiescence (or [until]).  Unsharded worlds delegate
    to {!Engine.run} on the primary engine; sharded worlds dispatch to
    the sequential merged executor or the parallel barrier executor (see
    {!set_shards}).  [max_events] (default 10M) is the runaway guard. *)

val stats : t -> Engine.stats
(** Aggregate engine statistics across shards: executed, pending and
    truncated counts are summed, [sim_time] and [max_pending] are maxima,
    wall/CPU time is the coordinator's.  On an unsharded world this is
    [Engine.stats (engine t)]. *)

val add_host : t -> string -> node
val add_router : t -> string -> node
(** @raise Invalid_argument if the name is already taken. *)

val find_node : t -> string -> node option
val node_name : node -> string
val is_router : node -> bool
val nodes : t -> node list
val node_net : node -> t
val node_engine : node -> Engine.t
val node_now : node -> float

(** {1 Sharded simulation}

    A world can be partitioned into {e shards}: groups of nodes, each
    with its own event queue, that only interact across point-to-point
    links.  The partition is derived deterministically from the topology:
    segment co-members, lossy-link endpoints and [~same] pairs are forced
    into one shard (they share mutable state — ARP broadcast domains,
    seeded loss generators); loss-free point-to-point links are the only
    shard cuts, and their minimum latency is the {e lookahead}.

    Two executors:

    - {e sequential merged} (default): one thread repeatedly runs the
      globally minimal event across shard queues.  All shards share the
      primary clock and tie-break counter, so the event order — and every
      trace byte — is identical to the unsharded world.  Safe with every
      feature (faults, ICMP signaling, observers).
    - {e parallel} ([~parallel:true]): conservative barrier windows of
      width [lookahead].  Each {!run} spawns one worker domain per shard
      beyond the first, when its first window with work begins (a run
      over empty queues spawns nothing), runs shard 0 on the calling
      domain, and joins the workers before it returns.  A window is one
      barrier: waiters spin briefly, then park (at once when there are
      more shards than [Domain.recommended_domain_count ()]).  An
      exception raised on any shard stops and joins the workers, then
      {!run} re-raises it; when several shards raise in one window, the
      lowest shard index wins.  Cross-shard frames travel through
      bounded per-(src,dst) outboxes drained at barriers in seeded
      deterministic order; per-shard traces are buffered and merged by
      (time, shard) at each barrier, so runs replay identically for a
      fixed shard count and seed (event order may differ from the
      sequential schedule only in same-timestamp interleavings across
      shards).  Parallel runs refuse fault hooks and ICMP error
      signaling (call-order-dependent shared state), and require agents
      to use per-node accessors ({!node_engine}, {!node_now},
      {!new_flow_on}) rather than the world-level ones. *)

val set_shards :
  ?parallel:bool -> ?seed:int -> ?same:(node * node) list -> t -> int -> unit
(** Partition the world into at most [n] shards (fewer when the topology
    has fewer independent components; 1 collapses back to unsharded).
    [parallel] (default [false]) selects the parallel barrier executor;
    it spawns no domain here — each {!run} brings up its own worker pool
    and joins it before returning (see above).  [seed] (default 0)
    controls the merge order of same-timestamp cross-shard arrivals in
    parallel runs; [same] pins node pairs into one shard (e.g. a mobile
    host with every router it will roam to).
    @raise Invalid_argument if [n < 1], if a previous shard still has
    pending events, or if [~parallel] and the primary engine is not
    idle, or the topology has a zero-latency or lossy cross-shard link. *)

val shard_count : t -> int
val parallel : t -> bool

type barrier_stats = {
  windows : int;  (** barrier windows run *)
  window_events : int;  (** events run inside those windows, all shards *)
  max_window_events : int;  (** the most events any one window ran *)
  barrier_wait : float array;
      (** per shard, seconds its domain spent spinning or parked at
          barriers; the coordinator's entry is shard 0 *)
  peak_outbox : int array array;
      (** [.(src).(dst)]: the most cross-shard frames one window left in
          that outbox *)
}

val barrier_stats : t -> barrier_stats
(** Telemetry of the parallel executor, cumulative over every run since
    the last {!set_shards}; all zero (and [peak_outbox] empty) on a
    world that is not parallel.  Kept apart from {!stats}, so gathering
    it costs two clock reads per shard per window and nothing per
    event. *)

val lookahead : t -> float
(** Minimum latency over cross-shard links — the conservative window
    width; [infinity] when no link crosses shards. *)

val node_shard : node -> int
(** Which shard the node lives on (0 on an unsharded world). *)

val service : node -> 'a Type.Id.t -> (node -> 'a) -> 'a
(** [service node key create] is the node's service under [key], made by
    [create node] on the first call: one per key per node, living as long
    as the node's world.  Each transport module keeps one key. *)

val node_pool : node -> Pool.t
(** The byte-buffer pool of the node's shard — workload generators
    allocate payloads here so capacity runs recycle buffers per shard. *)

val new_flow_on : node -> int
(** A fresh flow id drawn on the node's shard: identical to {!new_flow}
    on sequential worlds, strided per-shard (collision-free and
    replayable) on parallel ones.  Parallel-safe code must use this (or
    {!send} without [?flow]) instead of {!new_flow}. *)

val add_segment :
  t -> name:string -> ?latency:float -> ?bandwidth:float -> ?mtu:int ->
  ?loss:float -> ?loss_seed:int -> unit -> segment
(** An Ethernet broadcast domain.  Defaults: 0.5 ms latency, unlimited
    bandwidth, MTU 1500, no loss.  [?loss] is a per-frame drop
    probability in [0,1) driven by a seeded deterministic generator
    ([?loss_seed]), so lossy experiments replay identically.
    @raise Invalid_argument if [loss >= 1.0]. *)

val segment_name : segment -> string
val segment_mtu : segment -> int

val attach :
  node -> segment -> ifname:string -> addr:Ipv4_addr.t ->
  prefix:Ipv4_addr.Prefix.t -> iface
(** Create an interface on the segment and install the connected route.
    Its MAC is the world's next one, so rebuilding a world gives the same
    MACs.
    @raise Invalid_argument if the node already has an interface with this
    name. *)

val p2p :
  t -> ?latency:float -> ?bandwidth:float -> ?mtu:int ->
  ?loss:float -> ?loss_seed:int ->
  prefix:Ipv4_addr.Prefix.t ->
  node * string * Ipv4_addr.t -> node * string * Ipv4_addr.t ->
  iface * iface
(** A point-to-point link (no MAC layer).  Defaults: 10 ms latency,
    unlimited bandwidth, MTU 1500, no loss (see {!add_segment} for the
    loss model).  Installs connected routes on both ends. *)

(** {1 Interfaces} *)

val iface_name : iface -> string
val iface_addr : iface -> Ipv4_addr.t
val iface_prefix : iface -> Ipv4_addr.Prefix.t
val iface_mtu : iface -> int
val iface_mac : iface -> Mac_addr.t option
(** [None] on point-to-point links. *)

val iface_node : iface -> node
val iface_up : iface -> bool
val set_iface_addr : iface -> addr:Ipv4_addr.t -> prefix:Ipv4_addr.Prefix.t -> unit
(** Re-address an interface (mobile host arriving on a new network);
    replaces its connected route. *)

val detach : iface -> unit
(** Take the interface down and remove it from its segment and its routes
    from the table. *)

val reattach : iface -> segment -> unit
(** Attach an existing (detached) interface to a new segment and restore
    its connected route. *)

val ifaces : node -> iface list
val find_iface : node -> string -> iface option

(** {1 Node configuration} *)

val routing : node -> Routing.table
val set_filter : node -> Filter.policy -> unit
val filter : node -> Filter.policy

val claim_address : node -> Ipv4_addr.t -> unit
(** Declare that this node owns (accepts delivery for) an address beyond
    its interface addresses — a mobile host's home address while roaming,
    or a home agent intercepting for an absent mobile host. *)

val unclaim_address : node -> Ipv4_addr.t -> unit
val owns_address : node -> Ipv4_addr.t -> bool

val set_option_processing_delay : node -> float -> unit
(** Extra forwarding delay this router applies to packets carrying IP
    options (default 1 ms for routers, 0 for hosts) — "current IP routers
    typically handle packets with options much more slowly than normal
    unadorned IP packets" (§4).  Experiment A1 measures the consequence
    for loose-source-routed Mobile IP. *)

val option_processing_delay : node -> float

type override_action =
  | Resubmit of Ipv4_packet.t
      (** Replace the packet and run resolution again — the paper's
          "virtual interface that encapsulates and resubmits to IP". *)
  | Via of {
      out : iface;
      next_hop : Ipv4_addr.t option;
      l2_dst : Mac_addr.t option;
    }  (** Force a specific interface/next-hop/link-layer destination. *)
  | Discard of string  (** Drop locally with a reason. *)

val set_route_override :
  node -> (Ipv4_packet.t -> override_action option) option -> unit
(** Install (or clear) the hook consulted before the routing table for
    locally-originated packets. *)

val set_protocol_handler :
  node -> Ipv4_packet.protocol ->
  (node -> iface option -> Ipv4_packet.t -> unit) -> unit
(** Handler for delivered packets of the given protocol.  The [iface]
    argument is [None] for loopback deliveries.  Replaces any previous
    handler for that protocol. *)

val clear_protocol_handler : node -> Ipv4_packet.protocol -> unit

val set_delivery_observer : node -> (Ipv4_packet.t -> unit) option -> unit
(** Called on every delivered packet, before the protocol handler. *)

val set_intercept :
  node -> (flow:int -> Ipv4_packet.t -> bool) option -> unit
(** Install (or clear) a capture hook that runs after reassembly but before
    the packet is considered delivered.  Returning [true] consumes the
    packet: no Deliver trace event, no observer, no protocol handler.  This
    is how a home agent captures packets addressed to an absent mobile
    host's home address (jointly with proxy ARP and {!claim_address}) and
    re-tunnels them. *)

val inject_local :
  node -> flow:int -> Ipv4_packet.t -> unit
(** Deliver a packet locally as if it had just arrived (trace Deliver,
    observer, protocol handler) — used to hand a decapsulated inner packet
    back to the stack.  The intercept hook is {e not} consulted, so a node
    that both captures and decapsulates cannot loop. *)

val trace_tunnel : node -> Trace.kind -> flow:int -> Ipv4_packet.t -> unit
(** Trace a tunnel endpoint's work at [node]: [Trace.K_encapsulate] with
    the new outer packet, or [Trace.K_decapsulate] with the revealed
    inner one (frame id 0).  The event goes into the node's shard trace,
    stamped with {!node_now}, so parallel sharded runs merge it in the
    same place an unsharded run records it. *)

(** {1 ARP} *)

val add_proxy_arp : node -> iface -> Ipv4_addr.t -> unit
(** Answer ARP requests for the address on this interface's segment with
    our own MAC (proxy ARP). *)

val remove_proxy_arp : node -> iface -> Ipv4_addr.t -> unit

val proxy_arp_entries : node -> Ipv4_addr.t list
(** Every address this node currently answers proxy ARP for, across all
    its interfaces, in installation order — the node's proxy-ARP
    {e footprint}, which the invariant oracle checks is torn down when the
    binding behind it goes away. *)

val gratuitous_arp : node -> iface -> Ipv4_addr.t -> unit
(** Broadcast an unsolicited ARP reply binding the address to this
    interface's MAC, updating caches on the segment. *)

val arp_lookup : node -> Ipv4_addr.t -> Mac_addr.t option
(** Inspect the node's ARP cache (for tests). *)

val clear_arp : node -> unit
(** Flush the ARP cache (a mobile host changing segments must not keep
    neighbour state from the previous network). *)

val neighbour_mac : node -> Ipv4_addr.t -> Mac_addr.t option
(** Ground truth: the MAC currently bound to an address on any segment this
    node is attached to (what a mobile-aware host uses for In-DH once it
    knows its peer is local). *)

val neighbour_on_segment :
  node -> Ipv4_addr.t -> (iface * Mac_addr.t) option
(** Like {!neighbour_mac} but also returns our interface on the shared
    segment, ready for an In-DH [Via] decision. *)

(** {1 Multicast} *)

val join_group : node -> iface -> Ipv4_addr.t -> unit
(** Join a multicast group on an interface; segment-local delivery only.
    @raise Invalid_argument if the address is not multicast. *)

val leave_group : node -> iface -> Ipv4_addr.t -> unit

(** {1 Sending} *)

val new_flow : t -> int

val send :
  node -> ?flow:int -> ?via:iface -> ?l2_dst:Mac_addr.t -> Ipv4_packet.t -> int
(** Originate a packet.  Resolution order: destination owned by self
    (loopback delivery) / route-override hook / [?via] / routing table.
    [?l2_dst] forces the link-layer destination of the first hop (In-DH).
    Returns the flow id (fresh unless [?flow] given). *)

val same_segment : node -> node -> bool
(** True when the two nodes have interfaces attached to a common segment —
    the applicability test for the paper's Row C. *)

val set_checksum_debug : bool -> unit
(** When on (default off), every forwarding hop cross-checks the RFC 1624
    incremental header-checksum update against a full field-wise recompute
    and fails loudly on divergence.  Global; used by the test suite. *)

(** {1 ICMP error signaling}

    Off by default: filtering routers, routers with no route, and nodes
    whose ARP retries exhaust all drop packets silently, exactly like the
    seed behaviour.  When enabled on a world, those three drop points
    answer with a real RFC 792 destination-unreachable quoting the
    offending datagram's IP header plus 8 payload bytes —
    [Admin_prohibited] for filter rejections, [Host_unreachable] for
    missing routes and dead (ARP-unresolvable) next hops — so senders get
    fast negative feedback they can adapt to (§7.1.2).  Emission is held
    down per (node, offender) with deterministic seeded jitter, and never
    answers ICMP, unspecified, broadcast or multicast traffic.  Each
    emission is traced as {!Trace.Icmp_error} when tracing is on. *)

val enable_error_signaling : ?min_interval:float -> ?seed:int -> t -> unit
(** Turn on ICMP error signaling for this world.  [min_interval] (default
    1.0 s) is the per-(node, offender) hold-down, jittered up to +25% by a
    generator seeded with [seed].  Re-enabling keeps the sent counter but
    resets the hold-down state.
    @raise Invalid_argument if [min_interval] is negative. *)

val disable_error_signaling : t -> unit
(** Back to silent drops (and the sent counter reads 0 again). *)

val error_signaling : t -> bool
val icmp_errors_sent : t -> int
(** ICMP errors emitted since signaling was enabled (0 while disabled). *)

(** {1 Fault injection}

    The data plane consults an optional per-network hook for every frame
    copy about to be put on a link, after the link's own loss model.  The
    hook is how {!Fault} implements scripted link flaps, partitions,
    latency spikes, duplication and reordering without the data plane
    knowing about schedules or seeds. *)

type fault_verdict =
  | Fault_pass  (** deliver normally *)
  | Fault_drop of Trace.drop_reason
      (** drop this copy, recording the reason (IP frames only; ARP frames
          are dropped silently, like link loss) *)
  | Fault_deliver of { extra_delay : float; duplicate : bool }
      (** deliver after [extra_delay] additional seconds; when [duplicate],
          deliver a second copy at the same instant *)

val set_fault_hook :
  t -> (link:string -> src:string -> dst:string -> fault_verdict) option -> unit
(** Install (or clear) the fault hook.  [link] is the segment or
    point-to-point link name; [src]/[dst] are the transmitting and
    receiving node names.  Called once per receiving interface (a broadcast
    on a segment consults the hook for each member). *)
