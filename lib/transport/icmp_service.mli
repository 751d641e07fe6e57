(** Per-node ICMP dispatch: echo (ping), error listeners, and the paper's
    care-of-address advertisements.

    The service owns the node's ICMP protocol handler.  Echo requests are
    answered automatically (every host answers ping).  Other consumers —
    the Mobile IP correspondent software listening for care-of adverts, TCP
    reacting to fragmentation-needed — register listeners here so a single
    protocol handler serves them all. *)

type t

val get : Netsim.Net.node -> t
(** The node's ICMP service: one service per node, owned by the node's world. *)

val node : t -> Netsim.Net.node

val ping :
  t ->
  ?src:Netsim.Ipv4_addr.t ->
  ?payload_size:int ->
  dst:Netsim.Ipv4_addr.t ->
  (rtt:float -> unit) ->
  unit
(** Send an echo request; the callback fires when the matching reply
    arrives (it may never fire if the path drops packets). *)

val on_care_of_advert :
  t ->
  (home:Netsim.Ipv4_addr.t ->
   care_of:Netsim.Ipv4_addr.t ->
   lifetime:int ->
   unit)
  option ->
  unit
(** Install (or clear) the listener for care-of advertisements. *)

val on_unreachable :
  t ->
  (code:Netsim.Icmp_wire.unreach_code ->
  src:Netsim.Ipv4_addr.t ->
  original:(Netsim.Ipv4_addr.t * Netsim.Ipv4_addr.t) option ->
  unit)
  option ->
  unit
(** Install (or clear) the listener for destination-unreachable errors.
    [src] is the error's sender (the signaling router); [original] is the
    (source, destination) pair of the offending datagram recovered from
    the quoted context, when the context carries a full IP header — this
    is what lets the mobility layer map an error back to the destination
    whose delivery method must change. *)

val send_care_of_advert :
  t ->
  src:Netsim.Ipv4_addr.t ->
  dst:Netsim.Ipv4_addr.t ->
  home:Netsim.Ipv4_addr.t ->
  care_of:Netsim.Ipv4_addr.t ->
  lifetime:int ->
  unit
(** Used by the home agent (§3.2, first discovery mechanism). *)

val echo_requests_answered : t -> int
(** Number of echo requests this node has replied to (test visibility). *)
