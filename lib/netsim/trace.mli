(** Per-packet life-cycle tracing.

    Every wire packet in the simulator is wrapped in a frame carrying a
    unique [id] and a [flow] identifier that survives encapsulation,
    decapsulation and fragmentation.  The trace records what happened to
    each frame — where it was sent, forwarded, dropped (and why) or
    delivered — so tests and experiments can assert exact paths, hop
    counts, wire bytes and drop reasons.

    Hop counts in the experiment tables are [transmissions]: the number of
    link traversals a flow's bytes made, which is the paper's notion of
    "distance travelled through the Internet". *)

type drop_reason =
  | Ingress_filter
      (** boundary router: outside packet claiming an inside source (Fig 2) *)
  | Transit_filter  (** foreign source on a non-transit tail circuit *)
  | Firewall of string
  | Ttl_expired
  | No_route
  | Mtu_exceeded  (** over-MTU packet with the DF bit set *)
  | Arp_unresolved
  | Not_for_me  (** unicast packet reaching a host that does not own it *)
  | Link_down
  | Link_loss  (** random loss on a lossy link (seeded, deterministic) *)
  | Link_flap  (** link scripted down by a {!Fault} plan *)
  | Partitioned  (** sender and receiver on opposite sides of a scripted partition *)
  | Reassembly_timeout
  | Custom of string

val pp_drop_reason : Format.formatter -> drop_reason -> unit
val drop_reason_equal : drop_reason -> drop_reason -> bool

type frame_info = { id : int; flow : int; pkt : Ipv4_packet.t }

type event =
  | Send of { node : string; frame : frame_info }
  | Transmit of { link : string; frame : frame_info; bytes : int }
  | Forward of {
      node : string;
      in_iface : string;
      out_iface : string;
      frame : frame_info;
    }
  | Drop of { node : string; reason : drop_reason; frame : frame_info }
  | Deliver of { node : string; frame : frame_info }
  | Encapsulate of { node : string; frame : frame_info }
      (** [frame] is the new outer frame; its [flow] is inherited. *)
  | Decapsulate of { node : string; frame : frame_info }
      (** [frame] is the revealed inner frame. *)
  | Icmp_error of { node : string; reason : drop_reason; frame : frame_info }
      (** [node] originated an ICMP error in response to a drop with
          [reason]; [frame] is the generated error packet (its payload
          quotes the offending datagram).  Emitted only when error
          signaling is enabled on the net ({!Net.enable_error_signaling}). *)

type record = { time : float; event : event }

val frame_of : event -> frame_info
(** The frame an event is about, whatever its constructor. *)

type t

val create : unit -> t
val record : t -> time:float -> event -> unit
val records : t -> record list
(** All records, oldest first. *)

val clear : t -> unit
val length : t -> int

val set_enabled : t -> bool -> unit
(** Turn per-packet tracing on or off (default on).  While off {e and} no
    observer or sink is installed, {!interested} is false and the data
    plane skips building events — the per-hop fast path allocates nothing
    for tracing.  Records written while an observer or sink keeps the
    trace interested are still logged normally; attached rings keep
    {!interested} true but do {e not} revive the unbounded log. *)

val enabled : t -> bool

val set_buffered : t -> bool -> unit
(** Quarantine mode for per-shard traces in parallel sharded runs.  While
    buffered, {!record} only appends to this trace's in-memory log: no
    per-flow index, no observers, no process-wide sinks, no attached
    rings — so a shard's domain never touches process-global state.  The
    barrier coordinator {!drain}s the log between windows and replays it
    through the main trace (in deterministic merged order), which feeds
    every consumer exactly once.  Default off. *)

val buffered : t -> bool

val drain : t -> record list
(** Remove and return the buffered records, oldest first — what the
    barrier coordinator merges into the main trace.  Leaves enabled/
    buffered state untouched. *)

val interested : t -> bool
(** Whether anything wants trace events right now: the trace is enabled,
    or a consumer (observer, sink or attached ring) is installed.  The
    data plane checks this before constructing an event. *)

(** {1 Consumers}

    A consumer is either a function called with every {!record}, or a
    {!ring} fed field by field.  Each trace has its own consumer set
    (observers); one process-wide set holds the sinks and the attached
    rings.  Any number of each can be installed at once — the invariant
    oracle, the flight recorder, [--trace-json] and [--pcap] all
    coexist.  Every record reaches this trace's observers, then the
    process-wide functions, then the rings, each set in installation
    order.  A buffered trace ({!set_buffered}) feeds none of them: its
    records reach consumers only when replayed through the main trace.
    A consumer must not call back into the trace it is observing.

    Function consumers receive allocated records, so any one of them
    forces the data plane to build the frame/event/record graph for
    every traced event.  When rings are the only consumers, {!emit}
    writes their slot arrays straight from the emit site and allocates
    nothing — what lets the flight recorder stay attached during
    capacity runs at a few percent of throughput.  Either way a ring
    sees each event exactly once. *)

type observer
(** Handle for one per-trace consumer. *)

type sink
(** Handle for one process-wide consumer (function or ring). *)

val add_observer : t -> (record -> unit) -> observer
(** Install a consumer called with every record written to {e this}
    trace — how the {!Invariant} oracle (and a per-run flight recorder)
    watches a run without disturbing the process-wide sinks. *)

val remove_observer : t -> observer -> unit
(** Removing twice, or removing a never-installed handle, is a no-op. *)

val add_sink : (record -> unit) -> sink
(** Install a consumer receiving every record from {e every} trace as it
    is written — the hook behind the CLI's [--trace-json] and [--pcap]
    streaming exports, which observe worlds built deep inside experiment
    runners. *)

val remove_sink : sink -> unit
(** Remove a sink or an attached ring; a no-op when already removed. *)

type ring
(** A preallocated fixed-capacity last-K event store — the storage
    primitive behind [Netobs.Recorder], which adds the user-facing
    capture API (install, tail, JSONL/pcap dumps). *)

val make_ring : ?sample_every:int -> ?seed:int -> capacity:int -> unit -> ring
(** A ring holding the last [capacity] events.  [sample_every] (default
    1 — keep everything) records roughly one flow in N, decided by a
    deterministic hash of [(flow, seed)] so sampled captures keep whole
    conversations and replay identically; [seed] (default 0) varies
    which flows are kept.
    @raise Invalid_argument unless [capacity] and [sample_every] are
    positive. *)

val attach_ring : ring -> sink
(** Install the ring process-wide; {!remove_sink} detaches it.  Each
    call is a separate entry, as with {!add_sink}. *)

val ring_store_record : ring -> record -> unit
(** Offer one record to the ring: the sampling decision, then the slot
    stores — for feeding a ring from an observer. *)

val ring_records : ring -> record list
(** Rebuild the ring's contents as structurally identical records,
    oldest first — at most [capacity] of them.  Cold path. *)

val ring_sampled : ring -> int -> bool
(** Whether a flow id passes the ring's sampling filter. *)

val ring_capacity : ring -> int
val ring_seen : ring -> int
(** Events offered, sampled-out ones included. *)

val ring_kept : ring -> int
(** Events that passed sampling and entered the ring (cumulative). *)

val ring_length : ring -> int
(** Events currently held: [min kept capacity]. *)

val ring_clear : ring -> unit

(** {1 Emitting} *)

val set_time_source : t -> floatarray -> unit
(** Point the trace at the one-element cell {!emit} reads the current
    time from ({!Engine.clock_cell} of the owning net's engine).  Until
    set, emits are stamped 0.0 — every real trace gets wired by
    [Net.make].  The trace never writes the cell. *)

(** Event kinds, one per {!event} constructor. *)
type kind =
  | K_send
  | K_transmit
  | K_forward
  | K_drop
  | K_deliver
  | K_encapsulate
  | K_decapsulate
  | K_icmp_error

val emit :
  t ->
  kind ->
  name:string ->
  in_iface:string ->
  out_iface:string ->
  reason:drop_reason ->
  bytes:int ->
  id:int ->
  flow:int ->
  Ipv4_packet.t ->
  unit
(** [emit t kind ~name ~in_iface ~out_iface ~reason ~bytes ~id ~flow pkt]
    is {!record} of the event of that kind (stamped from the
    {!set_time_source} cell), built only when a function consumer or
    the enabled log wants it.  [name] is the node, or the link for
    [K_transmit]; [in_iface]/[out_iface] apply to [K_forward], [reason]
    to [K_drop] and [K_icmp_error], [bytes] to [K_transmit].  Fields a
    kind does not carry are ignored.  Self-gated: when only rings are
    interested it stores into them without building the event, and when
    nothing is it does nothing at all. *)

(** {1 Flow queries}

    All flow queries are served from a per-flow index maintained
    incrementally by {!record}: [transmissions] and [wire_bytes] are O(1)
    running counters, the others walk only the flow's own records. *)

val flows : t -> int list
(** Every flow id that has at least one record, ascending. *)

val flow_records : t -> flow:int -> record list
val transmissions : t -> flow:int -> int
(** Link traversals made by the flow — the "hops" metric. *)

val wire_bytes : t -> flow:int -> int
(** Total bytes the flow put on links (fragments and encapsulation
    included). *)

val delivered : t -> flow:int -> node:string -> bool
val delivery_time : t -> flow:int -> node:string -> float option
(** Time of first delivery at [node]. *)

val send_time : t -> flow:int -> float option
val drops : t -> flow:int -> (string * drop_reason) list
(** (node, reason) pairs for every drop of the flow. *)

val path : t -> flow:int -> string list
(** Nodes the flow visited, in order: origin, forwarders
    (encapsulation/decapsulation points included), final deliveries. *)

val pp_event : Format.formatter -> event -> unit
val pp_record : Format.formatter -> record -> unit
val dump : Format.formatter -> t -> unit
