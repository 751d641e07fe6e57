(* E21 — sharded scale-out: the E18 capacity story taken across OCaml
   domains.  A hub-and-spoke world of R independent regions (router +
   Ethernet segment + H hosts each) joined through a central hub by 5 ms
   point-to-point links gives the partitioner R+1 components and the
   parallel executor a 5 ms conservative lookahead.  Each region runs
   mostly region-local UDP-style ping-pong traffic plus one cross-region
   flow, so shards are busy between barriers but the barriers still carry
   real cross-shard frames.

   The ladder runs the identical workload at 1/2/4/8 shards
   ([Net.set_shards ~parallel:true]; 1 collapses to the plain engine) and
   reports end-to-end deliveries, engine events, wall seconds and
   packets/sec per rung, with the barrier windows run and the mean
   per-shard barrier wait ({!Net.barrier_stats}).  Deliveries must agree
   across rungs — the determinism half of the claim.  The speedup half
   is host wall time: each parallel run spawns its shard domains once
   and meets them at one barrier per window, so what a rung pays beyond
   the simulation is that barrier, and it shows in the wait column.
   Rungs with more shards than cores park their idle domains instead of
   spinning, and time-slice the rest.

   The workload deliberately uses raw protocol handlers, per-node id
   allocation ({!Net.new_flow_on} semantics via frame ids), per-shard
   payload pools ({!Net.node_pool}) and per-slot counter arrays indexed
   so each cell is only ever touched by one shard's domain — the
   parallel-safe idioms the sharded engine requires. *)

open Netsim

let regions = 8
let hosts_per_region = 4
let exchanges = 200
let cross_exchanges = 50
    (* cross-region RTTs are ~20x the region-local ones, so their exchange
       budget sets the simulated duration — and with it the number of
       conservative windows the parallel rungs pay for *)
let req_size = 256
let rep_size = 512
let shard_ladder = [ 1; 2; 4; 8 ]
let proto = Ipv4_packet.P_other 253

type rung = {
  shards_requested : int;
  shards_actual : int;
  delivered : int;
  expected : int;
  events : int;
  wall : float;
  packets_per_sec : float;
  windows : int;
  barrier_wait : float;  (* seconds, mean over shards *)
}

(* One flow slot: [a] pings, [b] pongs, [exchanges] times.  Slots are
   identified on the wire by the IP [ident] field, so one raw handler per
   host demultiplexes every slot it terminates. *)
type slot = {
  a : Net.node;
  a_addr : Ipv4_addr.t;
  b : Net.node;
  b_addr : Ipv4_addr.t;
  budget : int;  (* exchanges this slot runs *)
}

let prefix = Ipv4_addr.Prefix.of_string

let build_world () =
  let net = Net.create () in
  let hub = Net.add_router net "hub" in
  let region k =
    let rr = Net.add_router net (Printf.sprintf "rr%d" k) in
    let p = prefix (Printf.sprintf "10.200.%d.0/30" k) in
    let hub_addr = Ipv4_addr.Prefix.host p 1 in
    let rr_addr = Ipv4_addr.Prefix.host p 2 in
    ignore
      (Net.p2p net ~latency:0.005 ~prefix:p
         (hub, Printf.sprintf "r%d" k, hub_addr)
         (rr, "wan", rr_addr));
    let rp = prefix (Printf.sprintf "10.%d.0.0/16" (10 + k)) in
    let seg =
      Net.add_segment net ~name:(Printf.sprintf "lan%d" k) ~latency:0.0005 ()
    in
    let rr_lan = Ipv4_addr.Prefix.host rp 1 in
    ignore (Net.attach rr seg ~ifname:"lan" ~addr:rr_lan ~prefix:rp);
    Routing.add_default (Net.routing rr) ~gateway:hub_addr ~iface:"wan";
    Routing.add (Net.routing hub) ~gateway:rr_addr ~prefix:rp
      ~iface:(Printf.sprintf "r%d" k) ();
    let hosts =
      Array.init hosts_per_region (fun h ->
          let n = Net.add_host net (Printf.sprintf "h%d-%d" k h) in
          let a = Ipv4_addr.Prefix.host rp (10 + h) in
          ignore (Net.attach n seg ~ifname:"eth0" ~addr:a ~prefix:rp);
          Routing.add_default (Net.routing n) ~gateway:rr_lan ~iface:"eth0";
          (n, a))
    in
    hosts
  in
  let region_hosts = Array.init regions region in
  (net, region_hosts)

let make_slots region_hosts =
  let slots = ref [] in
  for k = regions - 1 downto 0 do
    let h = region_hosts.(k) in
    let next = region_hosts.((k + 1) mod regions) in
    let pair budget (a, a_addr) (b, b_addr) = { a; a_addr; b; b_addr; budget } in
    (* one cross-region flow, then two region-local ones *)
    slots :=
      pair cross_exchanges h.(0) next.(0)
      :: pair exchanges h.(0) h.(1)
      :: pair exchanges h.(2) h.(3)
      :: !slots
  done;
  Array.of_list !slots

let run_rung n =
  let net, region_hosts = build_world () in
  Net.set_tracing net false;
  if n > 1 then Net.set_shards ~parallel:true net n;
  let slots = make_slots region_hosts in
  let nslots = Array.length slots in
  (* Per-slot counters, each cell written only by the shard owning its
     endpoint: [recv_a]/[sent] by the initiator's shard, [recv_b] by the
     responder's. *)
  let recv_a = Array.make nslots 0 in
  let recv_b = Array.make nslots 0 in
  let sent = Array.make nslots 0 in
  let payload node size =
    Ipv4_packet.Raw (Pool.alloc (Net.node_pool node) size)
  in
  let release node = function
    | Ipv4_packet.Raw b -> Pool.release (Net.node_pool node) b
    | _ -> ()
  in
  let send_slot i ~src ~from_node ~dst size =
    ignore
      (Net.send from_node
         (Ipv4_packet.make ~ident:i ~protocol:proto ~src ~dst
            (payload from_node size)))
  in
  let handler node _iface (pkt : Ipv4_packet.t) =
    let i = pkt.Ipv4_packet.ident in
    let s = slots.(i) in
    release node pkt.Ipv4_packet.payload;
    if node == s.b then begin
      recv_b.(i) <- recv_b.(i) + 1;
      send_slot i ~src:s.b_addr ~from_node:s.b ~dst:s.a_addr rep_size
    end
    else begin
      recv_a.(i) <- recv_a.(i) + 1;
      if sent.(i) < s.budget then begin
        sent.(i) <- sent.(i) + 1;
        send_slot i ~src:s.a_addr ~from_node:s.a ~dst:s.b_addr req_size
      end
    end
  in
  Array.iter
    (fun (n, _) -> Net.set_protocol_handler n proto handler)
    (Array.concat (Array.to_list region_hosts));
  Array.iteri
    (fun i s ->
      Engine.after (Net.node_engine s.a)
        (float_of_int i *. 0.0003)
        (fun () ->
          sent.(i) <- 1;
          send_slot i ~src:s.a_addr ~from_node:s.a ~dst:s.b_addr req_size))
    slots;
  Net.run net;
  let st = Net.stats net in
  let delivered =
    Array.fold_left ( + ) 0 recv_a + Array.fold_left ( + ) 0 recv_b
  in
  let wall = st.Engine.wall_time in
  let bs = Net.barrier_stats net in
  {
    shards_requested = n;
    shards_actual = Net.shard_count net;
    delivered;
    expected = Array.fold_left (fun acc s -> acc + (2 * s.budget)) 0 slots;
    events = st.Engine.executed;
    wall;
    packets_per_sec =
      (if wall > 0.0 then float_of_int delivered /. wall else 0.0);
    windows = bs.Net.windows;
    barrier_wait =
      Array.fold_left ( +. ) 0.0 bs.Net.barrier_wait
      /. float_of_int (Array.length bs.Net.barrier_wait);
  }

let run () =
  let rungs = List.map run_rung shard_ladder in
  let base = List.hd rungs in
  let deterministic =
    List.for_all (fun r -> r.delivered = base.delivered) rungs
  in
  let row r =
    [
      (if r.shards_actual = r.shards_requested then
         string_of_int r.shards_requested
       else Printf.sprintf "%d(%d)" r.shards_requested r.shards_actual);
      Printf.sprintf "%d/%d" r.delivered r.expected;
      string_of_int r.events;
      Printf.sprintf "%.1f" (r.wall *. 1e3);
      (if r.shards_actual = 1 then "-" else string_of_int r.windows);
      (if r.shards_actual = 1 then "-"
       else Printf.sprintf "%.1f" (r.barrier_wait *. 1e3));
      Printf.sprintf "%.0f" r.packets_per_sec;
      (if r.shards_requested = 1 then "-"
       else if base.packets_per_sec > 0.0 then
         Printf.sprintf "%.2fx" (r.packets_per_sec /. base.packets_per_sec)
       else "-");
    ]
  in
  {
    Table.id = "E21";
    title =
      Printf.sprintf
        "Sharded scale-out: %d regions x %d hosts, %d-exchange ping-pong per \
         local flow, parallel domains"
        regions hosts_per_region exchanges;
    paper_claim =
      "harness, not paper: the conservative parallel engine keeps the \
       simulation deterministic while shards run on separate domains; \
       throughput scales with cores, never at the cost of replayability";
    columns =
      [
        "shards";
        "delivered";
        "sim events";
        "wall ms";
        "windows";
        "barrier wait ms";
        "packets/sec";
        "vs 1";
      ];
    rows = List.map row rungs;
    notes =
      [
        (if deterministic then
           "determinism: every rung delivered exactly the same datagram \
            count — the schedule changes with the shard count, the \
            simulation does not"
         else "DETERMINISM VIOLATION: rungs disagree on delivered counts");
        Printf.sprintf
          "topology: %d regions behind a hub over 5 ms links (the \
           conservative lookahead); 2 region-local flows + 1 cross-region \
           flow per region; payloads recycled through per-shard pools"
          regions;
        Printf.sprintf
          "wall is host wall-clock inside the run on %d available core(s); \
           the shard domains live for the whole run and meet once per 5 ms \
           window; barrier wait is the mean per shard of the time spent \
           spinning or parked at barriers (rungs with more shards than \
           cores park at once instead of spinning)"
          (Domain.recommended_domain_count ());
      ];
  }
