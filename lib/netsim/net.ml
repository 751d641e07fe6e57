type fault_verdict =
  | Fault_pass
  | Fault_drop of Trace.drop_reason
  | Fault_deliver of { extra_delay : float; duplicate : bool }

(* One shard of the simulation: an engine (event queue + clock), the
   trace its nodes write, and per-shard resources.  An unsharded net is
   exactly one shard wrapping the net's own engine and trace, so the
   data plane goes through [node.shard] uniformly with no special case.
   In sequential sharded mode every shard shares the primary engine's
   clock cell and tie-break counter (one global timeline); in parallel
   mode each shard has its own clock, its own buffered trace and its own
   id counters (strided so ids stay globally unique and deterministic). *)
type shard = {
  sh_idx : int;
  sh_engine : Engine.t;
  mutable sh_trace : Trace.t;
  sh_pool : Pool.t;
  mutable sh_next_frame : int;
  mutable sh_next_flow : int;
  mutable sh_wait : float;
      (* parallel runs: seconds this shard's domain spent spinning or
         parked at barriers, written only by that domain *)
}

type t = {
  engine : Engine.t;
  trace : Trace.t;
  mutable all_nodes : node list;
  by_name : (string, node) Hashtbl.t;
      (* its size is the creation counter: nodes carry their index so the
         shard partitioner orders components deterministically *)
  mutable next_frame : int;
  mutable next_flow : int;
  mutable next_mac : int;  (* MACs are numbered per world *)
  mutable fault_hook :
    (link:string -> src:string -> dst:string -> fault_verdict) option;
  mutable icmp_errors : icmp_errors option;
      (* ICMP error signaling config; None (the default) keeps every drop
         silent and costs the fast path a single field load. *)
  mutable shards : shard array;  (* length 1 = unsharded *)
  mutable parallel : bool;
  mutable lookahead : float;
      (* minimum latency of any cross-shard link: the conservative
         window size for parallel barriers *)
  mutable merge_seed : int;
      (* seeds the ordering of same-timestamp cross-shard arrivals from
         different source shards at a barrier *)
  mutable frame_base : int;
  mutable flow_base : int;
      (* id counters frozen at [set_shards ~parallel:true]: parallel ids
         are [base + local * nshards + shard_idx + 1] so they never
         collide across shards and replay identically *)
  mutable outboxes : outbox array array;
      (* [src].(dst): bounded SPSC cross-shard channels, written only by
         the source shard's domain during a window, drained only by the
         coordinator at the barrier *)
  mutable windows : int;
  mutable window_events : int;
  mutable max_window_events : int;
      (* barrier windows run, and events run in them, since the last
         [set_shards] *)
}

and outbox = {
  mutable ob_rev : xevent list;
  mutable ob_count : int;
  mutable ob_peak : int;  (* largest [ob_count] seen at a barrier *)
}
and xevent = { x_at : float; x_target : iface; x_frame : frame }

(* Opt-in ICMP error signaling: per-(node, offender) hold-down with a
   seeded LCG jitter so error emission is deterministic yet a packet storm
   cannot amplify into a synchronized error storm. *)
and icmp_errors = {
  err_min_interval : float;
  mutable err_lcg : int;
  mutable errors_sent : int;
  err_recent : (string * Ipv4_addr.t, float) Hashtbl.t;
}

and node = {
  name : string;
  router : bool;
  net : t;
  created : int;  (* creation index, orders the shard partitioner *)
  mutable shard : shard;
  mutable node_ifaces : iface list;
  table : Routing.table;
  mutable policy : Filter.policy;
  mutable claimed : Ipv4_addr.t list;
  mutable override : (Ipv4_packet.t -> override_action option) option;
  (* Int-keyed flat maps ({!Addr_map}) rather than generic Hashtbls: the
     protocol and ARP lookups run per delivered/emitted packet, and the
     polymorphic-hash walk over a boxed int32 key was measurable there. *)
  handlers : (node -> iface option -> Ipv4_packet.t -> unit) Addr_map.t;
  mutable observer : (Ipv4_packet.t -> unit) option;
  mutable intercept : (flow:int -> Ipv4_packet.t -> bool) option;
  arp_cache : Mac_addr.t Addr_map.t;
  arp_pending : pending Addr_map.t;
  reasm : Fragment.Reassembly.t;
  mutable option_penalty : float;
  mutable services : service list;
      (* at most one entry per key: the node's transport services *)
}

and service = Service : 'a Type.Id.t * 'a -> service

and iface = {
  ifname : string;
  owner : node;
  mac : Mac_addr.t;
  mutable addr : Ipv4_addr.t;
  mutable prefix : Ipv4_addr.Prefix.t;
  mutable mtu : int;
  mutable attachment : attachment;
  mutable up : bool;
  mutable proxy : Ipv4_addr.t list;
  mutable groups : Ipv4_addr.t list;
}

and attachment = Detached | Seg of segment | Ptp of ptp

and segment = {
  seg_name : string;
  seg_latency : float;
  seg_bandwidth : float option;
  seg_mtu : int;
  seg_loss : loss_gen option;
  mutable members : iface list;
}

and ptp = {
  ptp_name : string;
  ptp_latency : float;
  ptp_bandwidth : float option;
  ptp_loss : loss_gen option;
  mutable ends : iface list;
}

(* Deterministic per-link loss: a seeded linear congruential generator, so
   lossy-link experiments replay identically. *)
and loss_gen = { rate : float; mutable lcg : int }

and pending = { mutable queued : (iface * frame) list; mutable tries : int }

and frame = {
  fid : int;
  flow : int;
  content : content;
  l2_src : Mac_addr.t;
  l2_dst : Mac_addr.t;
  csum : int;
      (* Header checksum of the IP packet in [content], computed once at
         origin and updated incrementally (RFC 1624) at each forwarding
         hop; -1 when not computed (ARP, locally injected frames). *)
}

and content = Ip of Ipv4_packet.t | Arp_msg of arp

and arp = {
  op : [ `Request | `Reply ];
  spa : Ipv4_addr.t;
  sha : Mac_addr.t;
  tpa : Ipv4_addr.t;
}

and override_action =
  | Resubmit of Ipv4_packet.t
  | Via of {
      out : iface;
      next_hop : Ipv4_addr.t option;
      l2_dst : Mac_addr.t option;
    }
  | Discard of string

let create () =
  let engine = Engine.create () in
  let trace = Trace.create () in
  Trace.set_time_source trace (Engine.clock_cell engine);
  let shard0 =
    {
      sh_idx = 0;
      sh_engine = engine;
      sh_trace = trace;
      sh_pool = Pool.create ();
      sh_next_frame = 0;
      sh_next_flow = 0;
      sh_wait = 0.0;
    }
  in
  {
    engine;
    trace;
    all_nodes = [];
    by_name = Hashtbl.create 64;
    next_frame = 0;
    next_flow = 0;
    next_mac = 0;
    fault_hook = None;
    icmp_errors = None;
    shards = [| shard0 |];
    parallel = false;
    lookahead = infinity;
    merge_seed = 0;
    frame_base = 0;
    flow_base = 0;
    outboxes = [||];
    windows = 0;
    window_events = 0;
    max_window_events = 0;
  }

let set_fault_hook t f = t.fault_hook <- f

let enable_error_signaling ?(min_interval = 1.0) ?(seed = 0x1c3e) t =
  if min_interval < 0.0 then
    invalid_arg "Net: error-signaling min_interval must be >= 0";
  let errors_sent =
    match t.icmp_errors with Some c -> c.errors_sent | None -> 0
  in
  t.icmp_errors <-
    Some
      {
        err_min_interval = min_interval;
        err_lcg = seed land 0x3fffffff;
        errors_sent;
        err_recent = Hashtbl.create 32;
      }

let disable_error_signaling t = t.icmp_errors <- None
let error_signaling t = t.icmp_errors <> None

let icmp_errors_sent t =
  match t.icmp_errors with None -> 0 | Some c -> c.errors_sent

(* When on, every forwarding hop cross-checks the RFC 1624 incremental
   checksum against a full field-wise recompute.  Global (not per-world):
   it guards an algorithm, not a topology. *)
let checksum_debug = ref false
let set_checksum_debug b = checksum_debug := b
let set_tracing t b = Trace.set_enabled t.trace b

let engine t = t.engine
let trace t = t.trace
let now t = Engine.now t.engine

let add_node t name router =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Net: node %S already exists" name);
  let node =
    {
      name;
      router;
      net = t;
      created = Hashtbl.length t.by_name;
      shard = t.shards.(0);
      node_ifaces = [];
      table = Routing.create ();
      policy = Filter.accept_all;
      claimed = [];
      override = None;
      handlers = Addr_map.create ~size:8 ();
      observer = None;
      intercept = None;
      arp_cache = Addr_map.create ~size:16 ();
      arp_pending = Addr_map.create ~size:8 ();
      reasm = Fragment.Reassembly.create ();
      option_penalty = (if router then 0.001 else 0.0);
      services = [];
    }
  in
  Hashtbl.replace t.by_name name node;
  t.all_nodes <- node :: t.all_nodes;
  node

let add_host t name = add_node t name false
let add_router t name = add_node t name true
let find_node t name = Hashtbl.find_opt t.by_name name
let node_name n = n.name
let is_router n = n.router
let nodes t = List.rev t.all_nodes
let node_net n = n.net
let node_engine n = n.shard.sh_engine
let node_now n = Engine.now n.shard.sh_engine
let node_pool n = n.shard.sh_pool
let node_shard n = n.shard.sh_idx

let service (type a) node (key : a Type.Id.t) create : a =
  let rec find = function
    | [] ->
        let s = create node in
        node.services <- Service (key, s) :: node.services;
        s
    | Service (k, s) :: rest -> (
        match Type.Id.provably_equal k key with
        | Some Type.Equal -> s
        | None -> find rest)
  in
  find node.services

let shard_count t = Array.length t.shards
let parallel t = t.parallel
let lookahead t = t.lookahead

let make_loss_gen ?loss ?(loss_seed = 0x5eed) () =
  match loss with
  | Some rate when rate > 0.0 ->
      if rate >= 1.0 then invalid_arg "Net: loss rate must be < 1.0";
      Some { rate; lcg = loss_seed land 0x3fffffff }
  | Some _ | None -> None

let loss_roll = function
  | None -> false
  | Some g ->
      g.lcg <- ((g.lcg * 1103515245) + 12345) land 0x3fffffff;
      float_of_int g.lcg /. 1073741824.0 < g.rate

let add_segment t ~name ?(latency = 0.0005) ?bandwidth ?(mtu = 1500) ?loss
    ?loss_seed () =
  ignore t;
  {
    seg_name = name;
    seg_latency = latency;
    seg_bandwidth = bandwidth;
    seg_mtu = mtu;
    seg_loss = make_loss_gen ?loss ?loss_seed ();
    members = [];
  }

let segment_name s = s.seg_name
let segment_mtu s = s.seg_mtu

let check_fresh_iface node ifname =
  if List.exists (fun i -> i.ifname = ifname) node.node_ifaces then
    invalid_arg
      (Printf.sprintf "Net: node %S already has interface %S" node.name ifname)

let install_connected_route iface =
  Routing.add iface.owner.table ~prefix:iface.prefix ~iface:iface.ifname ()

(* A new interface on [node] with its connected route.  Its MAC is the
   world's next one (0x02 prefix: locally administered, unicast). *)
let add_iface node ~ifname ~addr ~prefix ~mtu attachment =
  let t = node.net in
  t.next_mac <- t.next_mac + 1;
  let mac = (0x02 lsl 40) lor (t.next_mac land 0xff_ffff_ffff) in
  let iface =
    {
      ifname;
      owner = node;
      mac = Mac_addr.of_int mac;
      addr;
      prefix;
      mtu;
      attachment;
      up = true;
      proxy = [];
      groups = [];
    }
  in
  node.node_ifaces <- node.node_ifaces @ [ iface ];
  install_connected_route iface;
  iface

let attach node segment ~ifname ~addr ~prefix =
  check_fresh_iface node ifname;
  let iface =
    add_iface node ~ifname ~addr ~prefix ~mtu:segment.seg_mtu (Seg segment)
  in
  segment.members <- iface :: segment.members;
  iface

let p2p t ?(latency = 0.010) ?bandwidth ?(mtu = 1500) ?loss ?loss_seed ~prefix
    (node_a, name_a, addr_a) (node_b, name_b, addr_b) =
  check_fresh_iface node_a name_a;
  check_fresh_iface node_b name_b;
  let link =
    {
      ptp_name = Printf.sprintf "%s<->%s" node_a.name node_b.name;
      ptp_latency = latency;
      ptp_bandwidth = bandwidth;
      ptp_loss = make_loss_gen ?loss ?loss_seed ();
      ends = [];
    }
  in
  let mk node ifname addr =
    let iface = add_iface node ~ifname ~addr ~prefix ~mtu (Ptp link) in
    link.ends <- link.ends @ [ iface ];
    iface
  in
  ignore t;
  let ia = mk node_a name_a addr_a in
  let ib = mk node_b name_b addr_b in
  (ia, ib)

let iface_name i = i.ifname
let iface_addr i = i.addr
let iface_prefix i = i.prefix
let iface_mtu i = i.mtu

let iface_mac i =
  match i.attachment with Seg _ -> Some i.mac | Ptp _ | Detached -> None

let iface_node i = i.owner
let iface_up i = i.up

let set_iface_addr i ~addr ~prefix =
  (* Only this interface's connected route: another iface may legitimately
     hold a route for the same prefix. *)
  Routing.remove i.owner.table ~iface:i.ifname ~prefix:i.prefix ();
  i.addr <- addr;
  i.prefix <- prefix;
  install_connected_route i

let detach i =
  (match i.attachment with
  | Seg s -> s.members <- List.filter (fun m -> m != i) s.members
  | Ptp l -> l.ends <- List.filter (fun m -> m != i) l.ends
  | Detached -> ());
  i.attachment <- Detached;
  i.up <- false;
  Routing.remove_iface i.owner.table ~iface:i.ifname

let reattach i segment =
  (match i.attachment with
  | Detached -> ()
  | Seg _ | Ptp _ -> detach i);
  i.attachment <- Seg segment;
  i.mtu <- segment.seg_mtu;
  i.up <- true;
  segment.members <- i :: segment.members;
  install_connected_route i

let ifaces node = node.node_ifaces
let find_iface node name = List.find_opt (fun i -> i.ifname = name) node.node_ifaces
let routing node = node.table
let set_filter node p = node.policy <- p
let filter node = node.policy

let claim_address node addr =
  if not (List.exists (Ipv4_addr.equal addr) node.claimed) then
    node.claimed <- addr :: node.claimed

let unclaim_address node addr =
  node.claimed <- List.filter (fun a -> not (Ipv4_addr.equal a addr)) node.claimed

let owns_address node addr =
  List.exists (fun i -> i.up && Ipv4_addr.equal i.addr addr) node.node_ifaces
  || List.exists (Ipv4_addr.equal addr) node.claimed

let set_route_override node f = node.override <- f

let set_protocol_handler node protocol handler =
  Addr_map.replace node.handlers (Ipv4_packet.protocol_to_int protocol) handler

let clear_protocol_handler node protocol =
  Addr_map.remove node.handlers (Ipv4_packet.protocol_to_int protocol)

let set_delivery_observer node f = node.observer <- f
let set_intercept node f = node.intercept <- f
let set_option_processing_delay node d = node.option_penalty <- d
let option_processing_delay node = node.option_penalty

let add_proxy_arp _node iface addr =
  if not (List.exists (Ipv4_addr.equal addr) iface.proxy) then
    iface.proxy <- addr :: iface.proxy

let remove_proxy_arp _node iface addr =
  iface.proxy <- List.filter (fun a -> not (Ipv4_addr.equal a addr)) iface.proxy

let proxy_arp_entries node =
  List.concat_map (fun iface -> List.rev iface.proxy) node.node_ifaces

let arp_lookup node addr = Addr_map.find node.arp_cache (Addr_map.of_addr addr)
let clear_arp node = Addr_map.reset node.arp_cache

let neighbour_on_segment node addr =
  List.find_map
    (fun i ->
      match i.attachment with
      | Seg s ->
          List.find_map
            (fun m ->
              if m != i && m.up && Ipv4_addr.equal m.addr addr then
                Some (i, m.mac)
              else None)
            s.members
      | Ptp _ | Detached -> None)
    node.node_ifaces

let neighbour_mac node addr =
  Option.map snd (neighbour_on_segment node addr)

let join_group _node iface group =
  if not (Ipv4_addr.is_multicast group) then
    invalid_arg
      (Printf.sprintf "Net.join_group: %s is not multicast"
         (Ipv4_addr.to_string group));
  if not (List.exists (Ipv4_addr.equal group) iface.groups) then
    iface.groups <- group :: iface.groups

let leave_group _node iface group =
  iface.groups <- List.filter (fun g -> not (Ipv4_addr.equal g group)) iface.groups

let new_flow t =
  t.next_flow <- t.next_flow + 1;
  t.next_flow

(* Flow allocation with a node in hand: sequential modes share the net
   counter (ids identical to the unsharded world); parallel mode strides
   a per-shard counter so concurrent shards never collide and a replay
   hands out the same ids. *)
let new_flow_on node =
  let t = node.net in
  if not t.parallel then new_flow t
  else begin
    let sh = node.shard in
    sh.sh_next_flow <- sh.sh_next_flow + 1;
    t.flow_base + ((sh.sh_next_flow - 1) * Array.length t.shards) + sh.sh_idx + 1
  end

let new_frame_id node =
  let t = node.net in
  if not t.parallel then begin
    t.next_frame <- t.next_frame + 1;
    t.next_frame
  end
  else begin
    let sh = node.shard in
    sh.sh_next_frame <- sh.sh_next_frame + 1;
    t.frame_base
    + ((sh.sh_next_frame - 1) * Array.length t.shards)
    + sh.sh_idx + 1
  end

(* Placeholder for the [reason] of kinds that carry none. *)
let no_reason = Trace.Custom ""

(* Every traced event goes through [Trace.emit] into the node's shard
   trace, stamped from the shard engine's clock.  [emit] is self-gated
   (no event is built unless a function consumer or the log wants it),
   so call sites use it unguarded.  This covers the events named by the
   node; transmits (named by their link) and forwards (which carry
   interfaces) call [Trace.emit] with those fields. *)
let trace_event node kind reason ~id ~flow pkt =
  Trace.emit node.shard.sh_trace kind ~name:node.name ~in_iface:""
    ~out_iface:"" ~reason ~bytes:0 ~id ~flow pkt

let same_segment a b =
  List.exists
    (fun ia ->
      match ia.attachment with
      | Seg s -> List.exists (fun ib -> ib.owner == b && ib.up) s.members
      | Ptp _ | Detached -> false)
    a.node_ifaces

(* ---------------------------------------------------------------- *)
(* Data plane                                                        *)
(* ---------------------------------------------------------------- *)

let frame_bytes = function
  | Ip pkt -> Ipv4_packet.byte_length pkt
  | Arp_msg _ -> 28

let link_delay ~latency ~bandwidth bytes =
  latency
  +. (match bandwidth with
     | Some bps when bps > 0.0 -> float_of_int (bytes * 8) /. bps
     | _ -> 0.0)

let rec deliver_frame_to iface frame =
  if iface.up then
    match frame.content with
    | Arp_msg a -> arp_input iface frame a
    | Ip pkt -> ip_input iface frame pkt

(* Put a frame on the wire of [out]'s link.  [l2_dst] must already be
   resolved for segments. *)
and emit out frame =
  let node = out.owner in
  let bytes = frame_bytes frame.content in
  (match frame.content with
  | Ip pkt ->
      let link_name =
        match out.attachment with
        | Seg s -> s.seg_name
        | Ptp l -> l.ptp_name
        | Detached -> "detached"
      in
      Trace.emit node.shard.sh_trace Trace.K_transmit ~name:link_name
        ~in_iface:"" ~out_iface:"" ~reason:no_reason ~bytes ~id:frame.fid
        ~flow:frame.flow pkt
  | Arp_msg _ -> ());
  match out.attachment with
  | Detached -> (
      match frame.content with
      | Ip pkt ->
          trace_event node Trace.K_drop Trace.Link_down ~id:frame.fid
            ~flow:frame.flow pkt
      | Arp_msg _ -> ())
  | Ptp l ->
      if loss_roll l.ptp_loss then trace_drop node Trace.Link_loss frame
      else begin
        let delay =
          link_delay ~latency:l.ptp_latency ~bandwidth:l.ptp_bandwidth bytes
        in
        let peers = List.filter (fun e -> e != out) l.ends in
        List.iter
          (fun peer -> fault_deliver node ~link:l.ptp_name ~delay peer frame)
          peers
      end
  | Seg s ->
      if loss_roll s.seg_loss then trace_drop node Trace.Link_loss frame
      else begin
        let delay =
          link_delay ~latency:s.seg_latency ~bandwidth:s.seg_bandwidth bytes
        in
        let targets =
          if Mac_addr.is_broadcast frame.l2_dst then
            List.filter (fun m -> m != out) s.members
          else
            List.filter (fun m -> Mac_addr.equal m.mac frame.l2_dst) s.members
        in
        List.iter
          (fun target -> fault_deliver node ~link:s.seg_name ~delay target frame)
          targets
      end

(* Per-target delivery, filtered through the network's fault plan (if any).
   The hook sees the link name and both node names; it can drop the copy
   (with a trace reason), delay it, or duplicate it. *)
and fault_deliver node ~link ~delay target frame =
  let schedule d =
    let src = node.shard and dst = target.owner.shard in
    if src == dst then
      Engine.after src.sh_engine d (fun () -> deliver_frame_to target frame)
    else begin
      (* Cross-shard hop.  The timestamp is the *sender's* clock plus the
         link delay.  Sequential sharded mode schedules straight into the
         target shard's queue (shared clock and tie-break counter keep
         the global order identical to unsharded); parallel mode may not
         touch another domain's queue, so the frame goes into the bounded
         SPSC outbox and is merged at the next barrier. *)
      let at = Engine.now src.sh_engine +. d in
      if node.net.parallel then push_xshard node.net src dst ~at target frame
      else
        Engine.schedule dst.sh_engine ~at (fun () ->
            deliver_frame_to target frame)
    end
  in
  match node.net.fault_hook with
  | None -> schedule delay
  | Some hook -> (
      match hook ~link ~src:node.name ~dst:target.owner.name with
      | Fault_pass -> schedule delay
      | Fault_drop reason -> trace_drop node reason frame
      | Fault_deliver { extra_delay; duplicate } ->
          schedule (delay +. extra_delay);
          if duplicate then schedule (delay +. extra_delay))

and trace_drop node reason frame =
  match frame.content with
  | Ip pkt ->
      trace_event node Trace.K_drop reason ~id:frame.fid ~flow:frame.flow pkt
  | Arp_msg _ -> ()

and push_xshard t src dst ~at target frame =
  let ob = t.outboxes.(src.sh_idx).(dst.sh_idx) in
  if ob.ob_count >= 65536 then
    failwith
      (Printf.sprintf
         "Net: cross-shard channel %d->%d overflowed (65536 frames in one \
          window)"
         src.sh_idx dst.sh_idx);
  ob.ob_rev <- { x_at = at; x_target = target; x_frame = frame } :: ob.ob_rev;
  ob.ob_count <- ob.ob_count + 1

and send_arp out ~l2_dst arp =
  let node = out.owner in
  let frame =
    {
      fid = new_frame_id node;
      flow = 0;
      content = Arp_msg arp;
      l2_src = out.mac;
      l2_dst;
      csum = -1;
    }
  in
  emit out frame

and arp_request_retry out next_hop =
  let node = out.owner in
  match Addr_map.find node.arp_pending (Addr_map.of_addr next_hop) with
  | None -> ()
  | Some pending when pending.tries >= 3 ->
      Addr_map.remove node.arp_pending (Addr_map.of_addr next_hop);
      List.iter
        (fun (_, frame) ->
          match frame.content with
          | Ip pkt ->
              trace_event node Trace.K_drop Trace.Arp_unresolved
                ~id:frame.fid ~flow:frame.flow pkt;
              (* Dead next hop: three unanswered ARP requests.  Signal the
                 sender rather than black-holing the queued packets. *)
              send_icmp_error node ~reason:Trace.Arp_unresolved
                ~code:Icmp_wire.Host_unreachable ~src:out.addr pkt
          | Arp_msg _ -> ())
        pending.queued
  | Some pending ->
      pending.tries <- pending.tries + 1;
      send_arp out ~l2_dst:Mac_addr.broadcast
        { op = `Request; spa = out.addr; sha = out.mac; tpa = next_hop };
      Engine.after node.shard.sh_engine 0.5 (fun () ->
          arp_request_retry out next_hop)

and arp_resolve out next_hop frame =
  let node = out.owner in
  match Addr_map.find node.arp_cache (Addr_map.of_addr next_hop) with
  | Some mac -> emit out { frame with l2_dst = mac }
  | None -> (
      match Addr_map.find node.arp_pending (Addr_map.of_addr next_hop) with
      | Some pending -> pending.queued <- pending.queued @ [ (out, frame) ]
      | None ->
          Addr_map.replace node.arp_pending
            (Addr_map.of_addr next_hop)
            { queued = [ (out, frame) ]; tries = 0 };
          arp_request_retry out next_hop)

and arp_input iface frame arp =
  let node = iface.owner in
  if not (Ipv4_addr.equal arp.spa Ipv4_addr.any) then begin
    Addr_map.replace node.arp_cache (Addr_map.of_addr arp.spa) arp.sha;
    (* Flush any frames waiting on this mapping. *)
    match Addr_map.find node.arp_pending (Addr_map.of_addr arp.spa) with
    | Some pending ->
        Addr_map.remove node.arp_pending (Addr_map.of_addr arp.spa);
        List.iter
          (fun (out, f) -> emit out { f with l2_dst = arp.sha })
          pending.queued
    | None -> ()
  end;
  match arp.op with
  | `Reply -> ()
  | `Request ->
      let answers =
        (iface.up && Ipv4_addr.equal iface.addr arp.tpa)
        || List.exists (Ipv4_addr.equal arp.tpa) iface.proxy
      in
      if answers then
        send_arp iface ~l2_dst:frame.l2_src
          { op = `Reply; spa = arp.tpa; sha = iface.mac; tpa = arp.spa }

and ip_output node ~out ~next_hop ?l2_dst ~flow ?(csum = -1) pkt =
  if not out.up then
    trace_event node Trace.K_drop Trace.Link_down ~id:(new_frame_id node) ~flow
      pkt
  else
    match Fragment.fragment ~mtu:out.mtu pkt with
    | Error _ ->
        trace_event node Trace.K_drop Trace.Mtu_exceeded
          ~id:(new_frame_id node) ~flow pkt;
        (* RFC 1191-style feedback so senders can adapt. *)
        if pkt.Ipv4_packet.protocol <> Ipv4_packet.P_icmp then begin
          let context = Bytes.create 0 in
          let icmp =
            Icmp_wire.Dest_unreachable
              { code = Icmp_wire.Fragmentation_needed; context }
          in
          let reply =
            Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src:out.addr
              ~dst:pkt.Ipv4_packet.src (Ipv4_packet.Icmp icmp)
          in
          originate node ~flow:(new_flow_on node) reply
        end
    | Ok pieces ->
        List.iter
          (fun piece ->
            let frame =
              {
                fid = new_frame_id node;
                flow;
                content = Ip piece;
                l2_src = out.mac;
                l2_dst = Mac_addr.broadcast;
                (* Fragmenting rewrites length/flags/offset, so each piece
                   gets its own full checksum; the common unfragmented case
                   returns the packet unchanged and keeps the carried one. *)
                csum =
                  (if piece == pkt then
                     if csum >= 0 then csum
                     else Ipv4_packet.header_checksum pkt
                   else Ipv4_packet.header_checksum piece);
              }
            in
            match out.attachment with
            | Ptp _ | Detached -> emit out frame
            | Seg _ -> (
                match l2_dst with
                | Some mac -> emit out { frame with l2_dst = mac }
                | None ->
                    let dst = piece.Ipv4_packet.dst in
                    if
                      Ipv4_addr.equal dst Ipv4_addr.broadcast
                      || Ipv4_addr.is_multicast dst
                      || Ipv4_addr.equal dst (Ipv4_addr.Prefix.broadcast_addr out.prefix)
                    then emit out frame
                    else arp_resolve out next_hop frame))
          pieces

and ip_input iface frame pkt =
  let node = iface.owner in
  match Filter.evaluate node.policy ~in_iface:iface.ifname pkt with
  | Filter.Reject reason ->
      trace_event node Trace.K_drop reason ~id:frame.fid ~flow:frame.flow pkt;
      (* §7.1.2: a filtering router that signals its refusal lets the
         sender adapt its delivery method instead of timing out. *)
      send_icmp_error node ~reason ~code:Icmp_wire.Admin_prohibited
        ~src:iface.addr pkt
  | Filter.Pass ->
      let dst = pkt.Ipv4_packet.dst in
      let local =
        owns_address node dst
        || Ipv4_addr.equal dst Ipv4_addr.broadcast
        || Ipv4_addr.equal dst (Ipv4_addr.Prefix.broadcast_addr iface.prefix)
        || (Ipv4_addr.is_multicast dst
           && List.exists (Ipv4_addr.equal dst) iface.groups)
      in
      if local then deliver node (Some iface) frame pkt
      else if Ipv4_addr.is_multicast dst || Ipv4_addr.equal dst Ipv4_addr.broadcast
      then (* not joined / not ours: ignore silently *) ()
      else if node.router then forward node iface frame pkt
      else
        trace_event node Trace.K_drop Trace.Not_for_me ~id:frame.fid
          ~flow:frame.flow pkt

and deliver node in_iface frame pkt =
  match Fragment.Reassembly.add node.reasm ~now:(Engine.now node.shard.sh_engine) pkt with
  | None -> (* incomplete datagram; wait for more fragments *) ()
  | Some whole -> (
      (* Loose source routing: a packet addressed to us whose route is not
         exhausted is rewritten toward its next listed hop (RFC 791). *)
      match Ipv4_options.lsr_next_hop whole.Ipv4_packet.options with
      | Some next -> (
          match
            Ipv4_options.advance_lsr whole.Ipv4_packet.options
              ~here:whole.Ipv4_packet.dst
          with
          | Some options ->
              let rerouted =
                { whole with Ipv4_packet.dst = next; options }
              in
              Trace.emit node.shard.sh_trace Trace.K_forward ~name:node.name
                ~in_iface:"lsr" ~out_iface:"lsr" ~reason:no_reason ~bytes:0
                ~id:frame.fid ~flow:frame.flow rerouted;
              originate node ~flow:frame.flow rerouted
          | None -> ())
      | None -> deliver_local node in_iface frame whole)

and deliver_local node in_iface frame whole =
      let consumed =
        match node.intercept with
        | Some hook ->
            Prof.enter Prof.Agent;
            let c = hook ~flow:frame.flow whole in
            Prof.leave Prof.Agent;
            c
        | None -> false
      in
      if not consumed then begin
        trace_event node Trace.K_deliver no_reason ~id:frame.fid
          ~flow:frame.flow whole;
        (match node.observer with Some f -> f whole | None -> ());
        let proto = Ipv4_packet.protocol_to_int whole.Ipv4_packet.protocol in
        match Addr_map.find node.handlers proto with
        | Some handler -> handler node in_iface whole
        | None -> ()
      end

and forward node in_iface frame pkt =
  match Ipv4_packet.decrement_ttl pkt with
  | None ->
      trace_event node Trace.K_drop Trace.Ttl_expired ~id:frame.fid
        ~flow:frame.flow pkt
  | Some pkt ->
      forward_routed node in_iface frame
        ~csum:
          (if frame.csum >= 0 then begin
             (* Only the TTL/protocol word changed: RFC 1624 incremental
                update instead of re-summing the whole header.  [frame.csum]
                belongs to the pre-decrement packet, so derive from the
                original frame content. *)
             let c =
               match frame.content with
               | Ip orig ->
                   Ipv4_packet.decrement_ttl_checksum ~checksum:frame.csum
                     orig
               | Arp_msg _ -> Ipv4_packet.header_checksum pkt
             in
             if !checksum_debug then begin
               let full = Ipv4_packet.header_checksum pkt in
               if c <> full then
                 failwith
                   (Printf.sprintf
                      "Net.forward: incremental checksum %#x <> recompute %#x"
                      c full)
             end;
             c
           end
           else Ipv4_packet.header_checksum pkt)
        pkt

and forward_routed node in_iface frame ~csum pkt =
  (match Routing.lookup node.table pkt.Ipv4_packet.dst with
      | None ->
          trace_event node Trace.K_drop Trace.No_route ~id:frame.fid
            ~flow:frame.flow pkt;
          send_icmp_error node ~reason:Trace.No_route
            ~code:Icmp_wire.Host_unreachable ~src:in_iface.addr pkt
      | Some route -> (
          match find_iface node route.Routing.iface with
          | None ->
              trace_event node Trace.K_drop Trace.No_route ~id:frame.fid
                ~flow:frame.flow pkt;
              send_icmp_error node ~reason:Trace.No_route
                ~code:Icmp_wire.Host_unreachable ~src:in_iface.addr pkt
          | Some out ->
              Trace.emit node.shard.sh_trace Trace.K_forward ~name:node.name
                ~in_iface:in_iface.ifname ~out_iface:out.ifname
                ~reason:no_reason ~bytes:0 ~id:frame.fid ~flow:frame.flow pkt;
              let next_hop =
                match route.Routing.gateway with
                | Some g -> g
                | None -> pkt.Ipv4_packet.dst
              in
              (* Optioned packets take the router's slow path (§4). *)
              if
                node.option_penalty > 0.0
                && Ipv4_options.has_options pkt.Ipv4_packet.options
              then
                Engine.after node.shard.sh_engine node.option_penalty (fun () ->
                    ip_output node ~out ~next_hop ~flow:frame.flow ~csum pkt)
              else ip_output node ~out ~next_hop ~flow:frame.flow ~csum pkt))

(* Answer a drop with a real RFC 792 error quoting the offending datagram
   (IP header + 8 payload bytes), so senders get fast negative feedback
   instead of a silent black hole.  Opt-in per net
   ([enable_error_signaling]); never errors about ICMP, unspecified,
   broadcast or multicast traffic; held down per (node, offender) with
   seeded jitter. *)
and send_icmp_error node ~reason ~code ~src pkt =
  match node.net.icmp_errors with
  | None -> ()
  | Some cfg ->
      let offender = pkt.Ipv4_packet.src in
      if
        pkt.Ipv4_packet.protocol <> Ipv4_packet.P_icmp
        && (not (Ipv4_addr.equal src Ipv4_addr.any))
        && (not (Ipv4_addr.equal offender Ipv4_addr.any))
        && (not (Ipv4_addr.equal offender Ipv4_addr.broadcast))
        && (not (Ipv4_addr.is_multicast offender))
        && (not (Ipv4_addr.equal pkt.Ipv4_packet.dst Ipv4_addr.broadcast))
        && not (Ipv4_addr.is_multicast pkt.Ipv4_packet.dst)
      then begin
        let key = (node.name, offender) in
        let t_now = Engine.now node.shard.sh_engine in
        let due =
          match Hashtbl.find_opt cfg.err_recent key with
          | None -> true
          | Some last ->
              cfg.err_lcg <-
                ((cfg.err_lcg * 1103515245) + 12345) land 0x3fffffff;
              let jitter = float_of_int cfg.err_lcg /. 1073741824.0 in
              t_now -. last
              >= cfg.err_min_interval *. (1.0 +. (0.25 *. jitter))
        in
        if due then begin
          Hashtbl.replace cfg.err_recent key t_now;
          cfg.errors_sent <- cfg.errors_sent + 1;
          let context = Icmp_wire.quote_context (Ipv4_packet.encode pkt) in
          let icmp = Icmp_wire.Dest_unreachable { code; context } in
          let reply =
            Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src ~dst:offender
              (Ipv4_packet.Icmp icmp)
          in
          let flow = new_flow_on node in
          trace_event node Trace.K_icmp_error reason ~id:0 ~flow reply;
          originate node ~flow reply
        end
      end

(* Origin transmission: loopback, override hook, routing table. *)
and originate ?(depth = 0) node ~flow ?via ?l2_dst pkt =
  if depth > 8 then
    invalid_arg "Net.send: route-override resubmit loop (depth > 8)"
  else begin
    (* Fill an unspecified source from the outgoing interface only after
       the route-override hook has seen the packet: an unbound source is
       itself a signal the mobility policy keys on (§7.1.1). *)
    let fill_src out pkt =
      if Ipv4_addr.equal pkt.Ipv4_packet.src Ipv4_addr.any then
        { pkt with Ipv4_packet.src = out.addr }
      else pkt
    in
    let fake_frame pkt =
      { fid = new_frame_id node; flow; content = Ip pkt;
        l2_src = Mac_addr.broadcast; l2_dst = Mac_addr.broadcast;
        csum = Ipv4_packet.header_checksum pkt }
    in
    let emit_via out ~next_hop ?l2_dst pkt =
      let pkt = fill_src out pkt in
      let f = fake_frame pkt in
      trace_event node Trace.K_send no_reason ~id:f.fid ~flow pkt;
      ip_output node ~out ~next_hop ?l2_dst ~flow ~csum:f.csum pkt
    in
    if owns_address node pkt.Ipv4_packet.dst then begin
      (* Loopback delivery: never touches a wire. *)
      let pkt =
        if Ipv4_addr.equal pkt.Ipv4_packet.src Ipv4_addr.any then
          { pkt with Ipv4_packet.src = pkt.Ipv4_packet.dst }
        else pkt
      in
      let f = fake_frame pkt in
      trace_event node Trace.K_send no_reason ~id:f.fid ~flow pkt;
      deliver node None f pkt
    end
    else begin
      let decision =
        match node.override with
        | Some hook ->
            Prof.enter Prof.Agent;
            let d = hook pkt in
            Prof.leave Prof.Agent;
            d
        | None -> None
      in
      match decision with
      | Some (Resubmit pkt') ->
          originate ~depth:(depth + 1) node ~flow ?via ?l2_dst pkt'
      | Some (Discard reason) ->
          trace_event node Trace.K_drop (Trace.Custom reason)
            ~id:(new_frame_id node) ~flow pkt
      | Some (Via { out; next_hop; l2_dst = forced_l2 }) ->
          let next_hop = Option.value next_hop ~default:pkt.Ipv4_packet.dst in
          emit_via out ~next_hop ?l2_dst:forced_l2 pkt
      | None -> (
          match via with
          | Some out -> emit_via out ~next_hop:pkt.Ipv4_packet.dst ?l2_dst pkt
          | None -> (
              match Routing.lookup node.table pkt.Ipv4_packet.dst with
              | None ->
                  trace_event node Trace.K_drop Trace.No_route
                    ~id:(new_frame_id node) ~flow pkt
              | Some route -> (
                  match find_iface node route.Routing.iface with
                  | None ->
                      trace_event node Trace.K_drop Trace.No_route
                        ~id:(new_frame_id node) ~flow pkt
                  | Some out ->
                      let next_hop =
                        match route.Routing.gateway with
                        | Some g -> g
                        | None -> pkt.Ipv4_packet.dst
                      in
                      emit_via out ~next_hop ?l2_dst pkt)))
    end
  end

let send node ?flow ?via ?l2_dst pkt =
  let flow = match flow with Some f -> f | None -> new_flow_on node in
  originate node ~flow ?via ?l2_dst pkt;
  flow

let trace_tunnel node kind ~flow pkt =
  trace_event node kind no_reason ~id:0 ~flow pkt

let inject_local node ~flow pkt =
  let frame =
    { fid = new_frame_id node; flow; content = Ip pkt;
      l2_src = Mac_addr.broadcast; l2_dst = Mac_addr.broadcast; csum = -1 }
  in
  trace_event node Trace.K_deliver no_reason ~id:frame.fid ~flow pkt;
  (match node.observer with Some f -> f pkt | None -> ());
  let proto = Ipv4_packet.protocol_to_int pkt.Ipv4_packet.protocol in
  (match Addr_map.find node.handlers proto with
  | Some handler -> handler node None pkt
  | None -> ())

let gratuitous_arp _node iface addr =
  send_arp iface ~l2_dst:Mac_addr.broadcast
    { op = `Reply; spa = addr; sha = iface.mac; tpa = addr }

(* ---------------------------------------------------------------- *)
(* Sharding                                                          *)
(* ---------------------------------------------------------------- *)

(* Union-find over node creation indices.  Roots are always the minimum
   creation index of their component, so component identity (and with it
   the whole partition) is a pure function of topology construction
   order — re-running the same build re-derives the same shards. *)
let uf_find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  let rec compress i =
    if parent.(i) <> r then begin
      let p = parent.(i) in
      parent.(i) <- r;
      compress p
    end
  in
  compress i;
  r

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb

(* Walk every link once: anything that would let two shards touch the
   same mutable state must end up in one component.  Segments are shared
   ARP/broadcast domains; lossy point-to-point links carry a shared
   seeded LCG.  Loss-free point-to-point links are the only permitted
   shard cuts — their latency is the conservative lookahead. *)
let merge_colocated parent arr ~same =
  Array.iter
    (fun nd ->
      List.iter
        (fun i ->
          match i.attachment with
          | Seg s ->
              List.iter
                (fun m -> uf_union parent nd.created m.owner.created)
                s.members
          | Ptp l ->
              if l.ptp_loss <> None then
                List.iter
                  (fun m -> uf_union parent nd.created m.owner.created)
                  l.ends
          | Detached -> ())
        nd.node_ifaces)
    arr;
  List.iter (fun (a, b) -> uf_union parent a.created b.created) same

(* Cross-shard audit: returns the conservative lookahead (minimum latency
   over links that span shards).  With [strict] (parallel runs) it also
   rejects configurations the barrier executor cannot handle — checked
   again at every run start, because roaming ([reattach]) can move an
   interface onto a foreign shard's segment after partitioning. *)
let validate_shards t ~strict =
  let la = ref infinity in
  List.iter
    (fun nd ->
      List.iter
        (fun i ->
          match i.attachment with
          | Seg s ->
              if strict then
                List.iter
                  (fun m ->
                    if m.owner.shard != nd.shard then
                      invalid_arg
                        (Printf.sprintf
                           "Net: segment %S spans shards %d and %d; parallel \
                            runs need each segment confined to one shard \
                            (pass ~same hints to set_shards for roaming \
                            nodes)"
                           s.seg_name nd.shard.sh_idx m.owner.shard.sh_idx))
                  s.members
          | Ptp l ->
              List.iter
                (fun m ->
                  if m.owner.shard != nd.shard then begin
                    if strict && l.ptp_loss <> None then
                      invalid_arg
                        (Printf.sprintf
                           "Net: lossy link %S spans shards; its loss \
                            generator is shared state (co-shard the \
                            endpoints)"
                           l.ptp_name);
                    if strict && l.ptp_latency <= 0.0 then
                      invalid_arg
                        (Printf.sprintf
                           "Net: link %S crosses shards with zero latency; \
                            conservative parallel windows need lookahead > 0"
                           l.ptp_name);
                    if l.ptp_latency < !la then la := l.ptp_latency
                  end)
                l.ends
          | Detached -> ())
        nd.node_ifaces)
    (nodes t);
  !la

let collapse_shards t =
  let shard0 = t.shards.(0) in
  shard0.sh_trace <- t.trace;
  shard0.sh_next_frame <- 0;
  shard0.sh_next_flow <- 0;
  t.shards <- [| shard0 |];
  t.parallel <- false;
  t.lookahead <- infinity;
  t.outboxes <- [||];
  List.iter (fun nd -> nd.shard <- shard0) t.all_nodes

let set_shards ?(parallel = false) ?(seed = 0) ?(same = []) t n =
  if n < 1 then invalid_arg "Net.set_shards: shard count must be >= 1";
  Array.iter
    (fun sh ->
      if sh.sh_idx > 0 && Engine.pending sh.sh_engine > 0 then
        invalid_arg
          "Net.set_shards: cannot repartition with events pending on a \
           non-primary shard")
    t.shards;
  if parallel && Engine.pending t.engine > 0 then
    invalid_arg
      "Net.set_shards: parallel sharding requires an idle primary engine \
       (events scheduled before partitioning could touch any shard)";
  List.iter
    (fun (a, b) ->
      if a.net != t || b.net != t then
        invalid_arg "Net.set_shards: ~same pair from a different net")
    same;
  let count = Hashtbl.length t.by_name in
  let arr = Array.of_list (nodes t) in
  let parent = Array.init (max count 1) (fun i -> i) in
  merge_colocated parent arr ~same;
  (* Components keyed by root (their minimum creation index). *)
  let comp_tbl = Hashtbl.create 16 in
  Array.iter
    (fun nd ->
      let r = uf_find parent nd.created in
      let cur = try Hashtbl.find comp_tbl r with Not_found -> [] in
      Hashtbl.replace comp_tbl r (nd :: cur))
    arr;
  let comps =
    Hashtbl.fold
      (fun r members acc -> (r, List.rev members, List.length members) :: acc)
      comp_tbl []
  in
  (* Deterministic greedy packing: components largest-first (root index
     breaks ties), each into the least-loaded bin (lowest index breaks
     ties).  Loads are node counts. *)
  let comps =
    List.sort
      (fun (r1, _, s1) (r2, _, s2) ->
        if s1 <> s2 then compare s2 s1 else compare r1 r2)
      comps
  in
  let bins = Array.make n [] and loads = Array.make n 0 in
  List.iter
    (fun (_, members, size) ->
      let best = ref 0 in
      for i = 1 to n - 1 do
        if loads.(i) < loads.(!best) then best := i
      done;
      bins.(!best) <- members :: bins.(!best);
      loads.(!best) <- loads.(!best) + size)
    comps;
  let nonempty =
    Array.to_list bins |> List.filter (fun b -> b <> []) |> List.map List.rev
  in
  let k = List.length nonempty in
  t.windows <- 0;
  t.window_events <- 0;
  t.max_window_events <- 0;
  t.shards.(0).sh_wait <- 0.0;
  if k <= 1 then collapse_shards t
  else begin
    let shard0 = t.shards.(0) in
    shard0.sh_next_frame <- 0;
    shard0.sh_next_flow <- 0;
    let shards =
      Array.init k (fun i ->
          if i = 0 then shard0
          else
            {
              sh_idx = i;
              sh_engine = Engine.create ();
              sh_trace = t.trace;
              sh_pool = Pool.create ();
              sh_next_frame = 0;
              sh_next_flow = 0;
              sh_wait = 0.0;
            })
    in
    if parallel then begin
      (* Each shard gets its own clock, starting where the primary's is,
         and its own quarantined trace: buffered, stamped from the shard
         clock, drained and merged at barriers.  Frozen id bases keep
         per-shard strided frame/flow ids disjoint and replayable. *)
      Array.iter
        (fun sh ->
          if sh.sh_idx > 0 then
            Engine.set_now sh.sh_engine (Engine.now t.engine);
          let tr = Trace.create () in
          Trace.set_time_source tr (Engine.clock_cell sh.sh_engine);
          Trace.set_buffered tr true;
          sh.sh_trace <- tr)
        shards;
      t.frame_base <- t.next_frame;
      t.flow_base <- t.next_flow;
      t.outboxes <-
        Array.init k (fun _ ->
            Array.init k (fun _ -> { ob_rev = []; ob_count = 0; ob_peak = 0 }))
    end
    else begin
      (* Sequential sharded mode: one global timeline.  Every shard
         engine shares the primary's clock cell and tie-break counter and
         writes the primary trace, so the merged pick loop reproduces the
         unsharded event order bit-for-bit. *)
      shard0.sh_trace <- t.trace;
      Array.iter
        (fun sh ->
          if sh.sh_idx > 0 then begin
            Engine.use_clock_cell sh.sh_engine (Engine.clock_cell t.engine);
            Engine.use_seq_counter sh.sh_engine (Engine.seq_counter t.engine)
          end)
        shards;
      t.outboxes <- [||]
    end;
    t.shards <- shards;
    t.parallel <- parallel;
    t.merge_seed <- seed;
    List.iteri
      (fun i members ->
        List.iter
          (fun comp -> List.iter (fun nd -> nd.shard <- shards.(i)) comp)
          members)
      nonempty;
    t.lookahead <- validate_shards t ~strict:parallel
  end

(* Barrier merge of cross-shard frames.  Arrivals are sorted by
   (timestamp, seeded source-shard key, destination shard, push order) —
   a total, seed-controlled order — then scheduled into the destination
   queues in that order, so tie-break counters advance identically on
   every run. *)
let drain_outboxes t ~horizon =
  let k = Array.length t.shards in
  let all = ref [] in
  for s = 0 to k - 1 do
    let skey = (s + t.merge_seed) * 0x9E3779B1 land 0x3fffffff in
    for d = 0 to k - 1 do
      let ob = t.outboxes.(s).(d) in
      if ob.ob_count > 0 then begin
        if ob.ob_count > ob.ob_peak then ob.ob_peak <- ob.ob_count;
        let xs = List.rev ob.ob_rev in
        ob.ob_rev <- [];
        ob.ob_count <- 0;
        List.iteri
          (fun i x ->
            if x.x_at < horizon then
              failwith
                (Printf.sprintf
                   "Net: conservative lookahead violated: cross-shard frame \
                    %d->%d at t=%g inside window ending %g"
                   s d x.x_at horizon);
            all := (x.x_at, skey, d, i, x) :: !all)
          xs
      end
    done
  done;
  let evs =
    List.sort
      (fun (a1, k1, d1, i1, _) (a2, k2, d2, i2, _) ->
        compare (a1, k1, d1, i1) (a2, k2, d2, i2))
      !all
  in
  List.iter
    (fun (_, _, _, _, x) ->
      let dst = x.x_target.owner.shard in
      Engine.schedule dst.sh_engine ~at:x.x_at (fun () ->
          deliver_frame_to x.x_target x.x_frame))
    evs

(* Replay each shard's buffered records through the main trace in
   (time, shard index) order.  Records are time-ordered within a shard
   already, and the sort is stable, so same-time records keep their
   shard-local order — one deterministic interleaving, delivered to the
   flow index, observers, sinks and rings exactly once. *)
let merge_shard_traces t =
  let tagged = ref [] in
  Array.iter
    (fun sh ->
      List.iter
        (fun r -> tagged := (r, sh.sh_idx) :: !tagged)
        (Trace.drain sh.sh_trace))
    t.shards;
  let ordered =
    List.stable_sort
      (fun ((r1 : Trace.record), s1) ((r2 : Trace.record), s2) ->
        compare (r1.Trace.time, s1) (r2.Trace.time, s2))
      (List.rev !tagged)
  in
  List.iter
    (fun ((r : Trace.record), _) ->
      Trace.record t.trace ~time:r.Trace.time r.Trace.event)
    ordered

(* Sequential sharded executor: repeatedly run the event whose
   (timestamp, tie-break) key is globally minimal across shard queues.
   With the shared clock cell and shared counter this is, by induction,
   exactly the order the single-queue engine would execute. *)
let run_merged ?until ?(max_events = 10_000_000) t =
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let events = ref 0 in
  let continue = ref true in
  while !continue && !events < max_events do
    let best = ref None in
    Array.iter
      (fun sh ->
        match Engine.next_key sh.sh_engine with
        | None -> ()
        | Some key -> (
            match !best with
            | Some (bk, _) when compare bk key <= 0 -> ()
            | _ -> best := Some (key, sh)))
      t.shards;
    match !best with
    | None -> continue := false
    | Some ((at, _), sh) -> (
        match until with
        | Some limit when at > limit ->
            if limit > Engine.now t.engine then Engine.set_now t.engine limit;
            continue := false
        | _ ->
            ignore (Engine.step sh.sh_engine);
            incr events)
  done;
  let still_pending =
    Array.exists (fun sh -> Engine.pending sh.sh_engine > 0) t.shards
  in
  if !continue && !events >= max_events && still_pending then
    Engine.mark_truncated ~max_events t.engine;
  Engine.add_run_time t.engine
    ~wall:(Unix.gettimeofday () -. wall0)
    ~cpu:(Sys.time () -. cpu0);
  Engine.notify_observer t.engine

(* The parallel executor's worker pool, one domain per non-primary shard.
   A window is one generation: the coordinator publishes the horizon and
   budget, bumps [gen], runs shard 0 itself, then waits for [running] to
   count down to zero.  Plain fields written before an [Atomic] write are
   visible to a domain that reads the new value, so the generation
   counter also publishes the window.  Waiters spin [spin] rounds of
   [Domain.cpu_relax], then park on [lock]; a state change is followed by
   a locked broadcast, so a waiter that checked under the lock cannot
   miss it. *)
type crew = {
  gen : int Atomic.t;
  running : int Atomic.t;  (* workers still inside the current window *)
  mutable horizon : float;
  mutable budget : int;
  mutable stop : bool;
  executed : int array;
      (* per shard, events run in the current window; shard 0's entry
         stays 0, the coordinator counts its own *)
  failed : (exn * Printexc.raw_backtrace) option array;
  lock : Mutex.t;
  wake : Condition.t;  (* a generation was published *)
  idle : Condition.t;  (* the last worker finished its window *)
  spin : int;
  mutable domains : unit Domain.t list;
}

(* About 0.7 ms of [Domain.cpu_relax] on a 2-core Xeon VM: longer than a
   busy window's barrier wait, short enough that an idle pool soon parks
   instead of burning its cores. *)
let spin_rounds = 20_000

let crew_await c cond ready =
  let n = ref c.spin in
  while !n > 0 && not (ready ()) do
    Domain.cpu_relax ();
    decr n
  done;
  if not (ready ()) then begin
    Mutex.lock c.lock;
    while not (ready ()) do
      Condition.wait cond c.lock
    done;
    Mutex.unlock c.lock
  end

let crew_notify c cond =
  Mutex.lock c.lock;
  Condition.broadcast cond;
  Mutex.unlock c.lock

(* A worker runs its shard's share of every generation until [stop].  An
   exception is recorded, never raised: the worker still completes the
   barrier and stays joinable, and the coordinator re-raises. *)
let crew_worker c ?until sh () =
  let rec loop seen done_at =
    crew_await c c.wake (fun () -> Atomic.get c.gen <> seen);
    let seen = Atomic.get c.gen in
    sh.sh_wait <- sh.sh_wait +. (Unix.gettimeofday () -. done_at);
    if not c.stop then begin
      (try
         c.executed.(sh.sh_idx) <-
           Engine.run_window ?until ~max_events:c.budget ~horizon:c.horizon
             sh.sh_engine
       with e ->
         c.failed.(sh.sh_idx) <- Some (e, Printexc.get_raw_backtrace ()));
      let done_at = Unix.gettimeofday () in
      if Atomic.fetch_and_add c.running (-1) = 1 then crew_notify c c.idle;
      loop seen done_at
    end
  in
  loop 0 (Unix.gettimeofday ())

let crew_create k =
  {
    gen = Atomic.make 0;
    running = Atomic.make 0;
    horizon = 0.0;
    budget = 0;
    stop = false;
    executed = Array.make k 0;
    failed = Array.make k None;
    lock = Mutex.create ();
    wake = Condition.create ();
    idle = Condition.create ();
    (* Oversubscribed: a spinning waiter would burn the core that the
       domain it waits for needs. *)
    spin = (if k > Domain.recommended_domain_count () then 0 else spin_rounds);
    domains = [];
  }

(* Run one generation: shard 0 here, the others on the workers.  Returns
   the events run, or re-raises the lowest-index worker exception. *)
let crew_window ?until c t ~horizon ~budget =
  c.horizon <- horizon;
  c.budget <- budget;
  Atomic.set c.running (Array.length t.shards - 1);
  Atomic.incr c.gen;
  crew_notify c c.wake;
  let sh0 = t.shards.(0) in
  let e0 = Engine.run_window ?until ~max_events:budget ~horizon sh0.sh_engine in
  let t0 = Unix.gettimeofday () in
  crew_await c c.idle (fun () -> Atomic.get c.running = 0);
  sh0.sh_wait <- sh0.sh_wait +. (Unix.gettimeofday () -. t0);
  Array.iter
    (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt))
    c.failed;
  Array.fold_left ( + ) e0 c.executed

(* Let an in-flight window finish, then stop and join every worker. *)
let crew_stop c =
  crew_await c c.idle (fun () -> Atomic.get c.running = 0);
  c.stop <- true;
  Atomic.incr c.gen;
  crew_notify c c.wake;
  List.iter Domain.join c.domains

(* Parallel barrier executor.  Each iteration: find the global minimum
   next-event time N, run every shard up to the horizon N + lookahead
   (cross-shard frames can only arrive at or after the horizon, so the
   window is causally closed), then merge outboxes and traces at the
   barrier, repeat.  Shard 0 runs on the calling domain, every other
   shard on a worker of a pool that lives for this call only (see
   [crew]): spawned at the first window that has work, so a run over
   empty queues spawns nothing, and joined before the call returns,
   whether it returns or raises.  A shard's exception is re-raised here
   after the pool is joined; when several shards raise in one window,
   the lowest shard index wins. *)
let run_parallel ?until ?(max_events = 10_000_000) t =
  if t.fault_hook <> None then
    invalid_arg
      "Net.run: parallel sharded runs do not support fault hooks (the plan \
       RNG is call-order dependent); use sequential sharding";
  if t.icmp_errors <> None then
    invalid_arg
      "Net.run: parallel sharded runs do not support ICMP error signaling \
       (shared hold-down state); use sequential sharding";
  t.lookahead <- validate_shards t ~strict:true;
  (* Shard traces must capture whenever anything observes the main trace;
     refreshing here picks up observers/sinks/rings installed since
     set_shards. *)
  let want = Trace.interested t.trace in
  Array.iter (fun sh -> Trace.set_enabled sh.sh_trace want) t.shards;
  (* A frame sent from outside any event (before this run) waits in an
     outbox; schedule it now, or a run over otherwise empty queues would
     never see it. *)
  drain_outboxes t ~horizon:neg_infinity;
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let budget = ref max_events in
  let crew = ref None in
  let pool () =
    match !crew with
    | Some c -> c
    | None ->
        let c = crew_create (Array.length t.shards) in
        (* registered before spawning, so a failed spawn still joins the
           workers spawned before it *)
        crew := Some c;
        for i = 1 to Array.length t.shards - 1 do
          c.domains <-
            Domain.spawn (crew_worker c ?until t.shards.(i)) :: c.domains
        done;
        c
  in
  let continue = ref true in
  Fun.protect
    ~finally:(fun () -> Option.iter crew_stop !crew)
    (fun () ->
      while !continue && !budget > 0 do
        let n =
          Array.fold_left
            (fun acc sh ->
              match Engine.next_key sh.sh_engine with
              | None -> acc
              | Some (at, _) -> Float.min acc at)
            infinity t.shards
        in
        if n = infinity then continue := false
        else
          match until with
          | Some limit when n > limit ->
              Array.iter
                (fun sh ->
                  if limit > Engine.now sh.sh_engine then
                    Engine.set_now sh.sh_engine limit)
                t.shards;
              continue := false
          | _ ->
              let horizon = n +. t.lookahead in
              let executed =
                crew_window ?until (pool ()) t ~horizon ~budget:!budget
              in
              budget := !budget - executed;
              t.windows <- t.windows + 1;
              t.window_events <- t.window_events + executed;
              if executed > t.max_window_events then
                t.max_window_events <- executed;
              drain_outboxes t ~horizon;
              merge_shard_traces t;
              if executed = 0 then
                (* The shard owning the minimum event always makes progress
                   (its event is strictly inside the window); reaching here
                   means every queue head was beyond [until]. *)
                continue := false
      done);
  let still_pending =
    Array.exists (fun sh -> Engine.pending sh.sh_engine > 0) t.shards
  in
  if !budget <= 0 && still_pending then
    Engine.mark_truncated ~max_events t.engine;
  (* Barrier clocks drift apart by design; align them forward so [now]
     and [stats] read one consistent end time. *)
  let tmax =
    Array.fold_left
      (fun acc sh -> Float.max acc (Engine.now sh.sh_engine))
      0.0 t.shards
  in
  Array.iter
    (fun sh ->
      if tmax > Engine.now sh.sh_engine then Engine.set_now sh.sh_engine tmax)
    t.shards;
  (* Advance the sequential id counters past everything the strided
     per-shard counters handed out, so a later unsharded run (or a
     repartition) never reissues an id. *)
  let k = Array.length t.shards in
  let maxf =
    Array.fold_left (fun acc sh -> max acc sh.sh_next_frame) 0 t.shards
  in
  let maxw =
    Array.fold_left (fun acc sh -> max acc sh.sh_next_flow) 0 t.shards
  in
  t.next_frame <- max t.next_frame (t.frame_base + (maxf * k));
  t.next_flow <- max t.next_flow (t.flow_base + (maxw * k));
  Engine.add_run_time t.engine
    ~wall:(Unix.gettimeofday () -. wall0)
    ~cpu:(Sys.time () -. cpu0);
  Engine.notify_observer t.engine

type barrier_stats = {
  windows : int;
  window_events : int;
  max_window_events : int;
  barrier_wait : float array;
  peak_outbox : int array array;
}

let barrier_stats (t : t) =
  {
    windows = t.windows;
    window_events = t.window_events;
    max_window_events = t.max_window_events;
    barrier_wait = Array.map (fun sh -> sh.sh_wait) t.shards;
    peak_outbox = Array.map (Array.map (fun ob -> ob.ob_peak)) t.outboxes;
  }

let run ?until ?max_events t =
  if Array.length t.shards = 1 then Engine.run ?until ?max_events t.engine
  else if t.parallel then run_parallel ?until ?max_events t
  else run_merged ?until ?max_events t

let stats t =
  Array.fold_left
    (fun (acc : Engine.stats) sh ->
      let s = Engine.stats sh.sh_engine in
      {
        Engine.executed = acc.Engine.executed + s.Engine.executed;
        pending = acc.Engine.pending + s.Engine.pending;
        max_pending = max acc.Engine.max_pending s.Engine.max_pending;
        truncated = acc.Engine.truncated + s.Engine.truncated;
        sim_time = Float.max acc.Engine.sim_time s.Engine.sim_time;
        wall_time = acc.Engine.wall_time +. s.Engine.wall_time;
        cpu_time = acc.Engine.cpu_time +. s.Engine.cpu_time;
      })
    {
      Engine.executed = 0;
      pending = 0;
      max_pending = 0;
      truncated = 0;
      sim_time = 0.0;
      wall_time = 0.0;
      cpu_time = 0.0;
    }
    t.shards
