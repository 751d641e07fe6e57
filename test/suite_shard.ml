(* The sharded simulation: partition derivation, the sequential merged
   executor's bit-for-bit equivalence with the unsharded engine, the
   parallel barrier executor's determinism, cancellation across barrier
   windows, and the supporting data structures (seq-keyed Pqueue,
   Addr_map, per-shard Pool). *)

open Netsim

(* ------------------------------------------------------------------ *)
(* Pqueue: explicit sequence numbers and the merged-min key            *)
(* ------------------------------------------------------------------ *)

let test_pqueue_add_seq_orders () =
  let q = Pqueue.create () in
  (* same priority, sequence numbers supplied out of insertion order:
     the pop order must follow the sequence numbers, not insertion *)
  Pqueue.add_seq q ~priority:1.0 ~seq:30 "c";
  Pqueue.add_seq q ~priority:1.0 ~seq:10 "a";
  Pqueue.add_seq q ~priority:1.0 ~seq:20 "b";
  Pqueue.add_seq q ~priority:0.5 ~seq:99 "z";
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string))
    "(priority, seq) order" [ "z"; "a"; "b"; "c" ]
    (List.rev !out)

let test_pqueue_min_key () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty has no key" true (Pqueue.min_key q = None);
  Pqueue.add_seq q ~priority:2.0 ~seq:7 "x";
  Pqueue.add_seq q ~priority:2.0 ~seq:3 "y";
  (match Pqueue.min_key q with
  | Some (p, s) ->
      Alcotest.(check (float 0.0)) "min priority" 2.0 p;
      Alcotest.(check int) "min seq among ties" 3 s
  | None -> Alcotest.fail "min_key on non-empty queue");
  Alcotest.(check int) "min_key does not remove" 2 (Pqueue.length q)

(* The merged executor's core move: several queues sharing one global
   sequence counter, always popping the queue with the least (time, seq)
   key, must replay the exact order a single queue would. *)
let prop_merged_queues_equal_single =
  QCheck.Test.make ~name:"min_key merge of shared-seq queues == one queue"
    ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 5)))
    (fun inserts ->
      let single = Pqueue.create () in
      let parts = Array.init 3 (fun _ -> Pqueue.create ()) in
      List.iteri
        (fun i (p, which) ->
          let priority = float_of_int p in
          Pqueue.add_seq single ~priority ~seq:i i;
          Pqueue.add_seq parts.(which mod 3) ~priority ~seq:i i)
        inserts;
      let drain_single acc =
        let rec go acc =
          match Pqueue.pop single with
          | Some (_, v) -> go (v :: acc)
          | None -> List.rev acc
        in
        go acc
      in
      let rec drain_merged acc =
        let best = ref None in
        Array.iter
          (fun q ->
            match (Pqueue.min_key q, !best) with
            | Some k, Some (bk, _) when k < bk -> best := Some (k, q)
            | Some k, None -> best := Some (k, q)
            | _ -> ())
          parts;
        match !best with
        | None -> List.rev acc
        | Some (_, q) -> (
            match Pqueue.pop q with
            | Some (_, v) -> drain_merged (v :: acc)
            | None -> List.rev acc)
      in
      drain_single [] = drain_merged [])

(* ------------------------------------------------------------------ *)
(* A miniature multi-region world (the E21 shape, scaled down)         *)
(* ------------------------------------------------------------------ *)

let proto = Ipv4_packet.P_other 251
let prefix = Ipv4_addr.Prefix.of_string

(* [regions] routers behind a hub over 5 ms p2p links (the lookahead),
   each with a 0.5 ms Ethernet segment carrying two hosts. *)
let build_mini regions =
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
    Array.init 2 (fun h ->
        let n = Net.add_host net (Printf.sprintf "h%d-%d" k h) in
        let a = Ipv4_addr.Prefix.host rp (10 + h) in
        ignore (Net.attach n seg ~ifname:"eth0" ~addr:a ~prefix:rp);
        Routing.add_default (Net.routing n) ~gateway:rr_lan ~iface:"eth0";
        (n, a))
  in
  (net, Array.init regions region)

type mini_slot = {
  a : Net.node;
  a_addr : Ipv4_addr.t;
  b : Net.node;
  b_addr : Ipv4_addr.t;
  budget : int;
}

(* Decode a qcheck int seed into a ping-pong slot over the mini world. *)
let slot_of_seed hosts ~regions seed =
  let s = abs seed in
  let ra = s mod regions and rb = s / 7 mod regions in
  let ha = s / 3 mod 2 and hb = s / 5 mod 2 in
  let a, a_addr = hosts.(ra).(ha) and b, b_addr = hosts.(rb).(hb) in
  if a == b then None
  else Some { a; a_addr; b; b_addr; budget = 1 + (s mod 3) }

let install_pingpong ?(on_receive = ignore) net hosts slots =
  let nslots = Array.length slots in
  let recv_a = Array.make nslots 0 in
  let recv_b = Array.make nslots 0 in
  let sent = Array.make nslots 0 in
  let send_slot i ~src ~from_node ~dst =
    ignore
      (Net.send from_node
         (Ipv4_packet.make ~ident:i ~protocol:proto ~src ~dst
            (Ipv4_packet.Raw (Bytes.make 64 'p'))))
  in
  let handler node _iface (pkt : Ipv4_packet.t) =
    on_receive node;
    let i = pkt.Ipv4_packet.ident in
    let s = slots.(i) in
    if node == s.b then begin
      recv_b.(i) <- recv_b.(i) + 1;
      send_slot i ~src:s.b_addr ~from_node:s.b ~dst:s.a_addr
    end
    else begin
      recv_a.(i) <- recv_a.(i) + 1;
      if sent.(i) < s.budget then begin
        sent.(i) <- sent.(i) + 1;
        send_slot i ~src:s.a_addr ~from_node:s.a ~dst:s.b_addr
      end
    end
  in
  Array.iter
    (fun row ->
      Array.iter (fun (n, _) -> Net.set_protocol_handler n proto handler) row)
    hosts;
  Array.iteri
    (fun i s ->
      Engine.after (Net.node_engine s.a)
        (float_of_int i *. 0.0007)
        (fun () ->
          sent.(i) <- 1;
          send_slot i ~src:s.a_addr ~from_node:s.a ~dst:s.b_addr))
    slots;
  ignore net;
  (recv_a, recv_b)

(* One full run at a given shard count; returns the literal trace. *)
let run_mini ~regions ~shards ~parallel seeds =
  let net, hosts = build_mini regions in
  if shards > 1 || parallel then Net.set_shards ~parallel net shards;
  let slots =
    Array.of_list
      (List.filter_map (slot_of_seed hosts ~regions) seeds)
  in
  let recv_a, recv_b = install_pingpong net hosts slots in
  Net.run net;
  let delivered =
    Array.fold_left ( + ) 0 recv_a + Array.fold_left ( + ) 0 recv_b
  in
  (Trace.records (Net.trace net), delivered)

(* ------------------------------------------------------------------ *)
(* Sequential merged executor: bit-for-bit the unsharded world         *)
(* ------------------------------------------------------------------ *)

let prop_seq_merge_deterministic =
  QCheck.Test.make
    ~name:"sharded (seq merge) trace == unsharded trace, shards in {1,2,4}"
    ~count:30
    QCheck.(pair (2 -- 4) (list_of_size Gen.(1 -- 8) (int_bound 10_000)))
    (fun (regions, seeds) ->
      let regions = max 2 regions (* the shrinker ignores the range *) in
      let seeds = 1 :: seeds in
      let reference, _ = run_mini ~regions ~shards:1 ~parallel:false seeds in
      reference <> []
      && List.for_all
           (fun k ->
             let tr, _ = run_mini ~regions ~shards:k ~parallel:false seeds in
             tr = reference)
           [ 1; 2; 4 ])

let test_seq_merge_topo_scenario () =
  (* The CLI path: a Topo world built with ?shards must replay the
     unsharded world's trace byte for byte. *)
  let run shards =
    let w = Scenarios.Topo.build ?shards () in
    Scenarios.Topo.roam_static w ();
    Scenarios.Topo.come_home w;
    Scenarios.Topo.run w;
    Trace.records (Net.trace w.Scenarios.Topo.net)
  in
  let plain = run None in
  let sharded = run (Some 4) in
  Alcotest.(check bool) "trace non-empty" true (plain <> []);
  Alcotest.(check bool) "identical records" true (plain = sharded)

(* Same seed, same trace bytes, however many worlds the process built
   before: the cellular roam's DHCP request carries the interface MAC,
   which each world numbers itself. *)
let test_trace_independent_of_history () =
  let lines () =
    let w = Scenarios.Topo.build ~with_cellular:true () in
    Scenarios.Topo.roam_cellular w ();
    Scenarios.Topo.run w;
    List.map Netobs.Export.line_of_record
      (Trace.records (Net.trace w.Scenarios.Topo.net))
  in
  let first = lines () in
  ignore (Scenarios.Topo.build ());
  Alcotest.(check bool) "trace non-empty" true (first <> []);
  Alcotest.(check (list string)) "same JSONL lines after another world" first
    (lines ())

(* ------------------------------------------------------------------ *)
(* Parallel barrier executor                                           *)
(* ------------------------------------------------------------------ *)

let test_parallel_matches_sequential () =
  let seeds = [ 12; 345; 6789; 1011; 1213 ] in
  let _, seq_delivered = run_mini ~regions:4 ~shards:1 ~parallel:false seeds in
  let _, par_delivered = run_mini ~regions:4 ~shards:4 ~parallel:true seeds in
  Alcotest.(check bool) "delivered something" true (seq_delivered > 0);
  Alcotest.(check int) "parallel delivers the same datagram count"
    seq_delivered par_delivered

let test_parallel_replays_identically () =
  let seeds = [ 100; 200; 55 ] in
  let tr1, d1 = run_mini ~regions:3 ~shards:3 ~parallel:true seeds in
  let tr2, d2 = run_mini ~regions:3 ~shards:3 ~parallel:true seeds in
  Alcotest.(check bool) "trace non-empty" true (tr1 <> []);
  Alcotest.(check int) "same deliveries" d1 d2;
  Alcotest.(check bool) "same trace, record for record" true (tr1 = tr2)

(* A tunnel endpoint on a worker shard traces through its own shard:
   the merged record carries that node's clock, not the coordinator's,
   and lands in the same place on every replay. *)
let test_parallel_tunnel_events_use_node_clock () =
  let run () =
    let net, hosts = build_mini 2 in
    Net.set_shards ~parallel:true net 2;
    let stamps = ref [] in
    Array.iter
      (Array.iter (fun (n, _) ->
           Net.set_protocol_handler n proto (fun node _ pkt ->
               if Net.node_shard node = 1 then begin
                 Net.trace_tunnel node Trace.K_decapsulate ~flow:0 pkt;
                 stamps := (Net.node_name node, Net.node_now node) :: !stamps
               end)))
      hosts;
    let all = Array.to_list (Array.concat (Array.to_list hosts)) in
    let on k = List.filter (fun (n, _) -> Net.node_shard n = k) all in
    let receivers = on 1 and src, src_addr = List.hd (on 0) in
    List.iteri
      (fun i (_, dst) ->
        Engine.after (Net.node_engine src)
          (0.001 *. float_of_int (i + 1))
          (fun () ->
            ignore
              (Net.send src
                 (Ipv4_packet.make ~ident:i ~protocol:proto ~src:src_addr ~dst
                    (Ipv4_packet.Raw (Bytes.make 64 'p'))))))
      receivers;
    Net.run net;
    let decaps =
      List.filter_map
        (fun r ->
          match r.Trace.event with
          | Trace.Decapsulate { node; _ } -> Some (node, r.Trace.time)
          | _ -> None)
        (Trace.records (Net.trace net))
    in
    (Trace.records (Net.trace net), decaps, List.rev !stamps)
  in
  let tr1, decaps, stamps = run () in
  Alcotest.(check bool) "receivers on shard 1 were reached" true (stamps <> []);
  Alcotest.(check (list (pair string (float 0.0))))
    "each decapsulate carries its node's clock" stamps decaps;
  let tr2, _, _ = run () in
  Alcotest.(check bool) "same trace, record for record" true (tr1 = tr2)

(* A frame sent from outside any event, before [Net.run], onto a link
   that crosses the cut waits in an outbox: the run must still deliver
   it. *)
let test_parallel_send_before_run () =
  let net, hosts = build_mini 2 in
  Net.set_shards ~parallel:true net 2;
  let node name = Option.get (Net.find_node net name) in
  let hub_shard = Net.node_shard (node "hub") in
  let far = if Net.node_shard (node "rr0") <> hub_shard then 0 else 1 in
  let rr = node (Printf.sprintf "rr%d" far) in
  Alcotest.(check bool) "the router's uplink crosses the cut" true
    (Net.node_shard rr <> hub_shard);
  let dst, dst_addr = hosts.(1 - far).(0) in
  let got = ref 0 in
  Net.set_protocol_handler dst proto (fun _ _ _ -> incr got);
  let src =
    Ipv4_addr.Prefix.host (prefix (Printf.sprintf "10.200.%d.0/30" far)) 2
  in
  ignore
    (Net.send rr
       (Ipv4_packet.make ~protocol:proto ~src ~dst:dst_addr
          (Ipv4_packet.Raw (Bytes.make 64 'p'))));
  Net.run net;
  Alcotest.(check int) "delivered across the cut" 1 !got

let test_cancellable_across_barriers () =
  (* A timer scheduled several conservative windows ahead must survive
     the barriers if left alone, and must never fire once cancelled —
     even when the cancel happens windows after the schedule. *)
  let net, hosts = build_mini 2 in
  Net.set_shards ~parallel:true net 2;
  Alcotest.(check int) "two shards" 2 (Net.shard_count net);
  Alcotest.(check (float 1e-9)) "lookahead is the hub link" 0.005
    (Net.lookahead net);
  let n0, _ = hosts.(0).(0) in
  let n1, _ = hosts.(1).(0) in
  let fired_live = ref false in
  let fired_cancelled = ref false in
  let e0 = Net.node_engine n0 in
  let e1 = Net.node_engine n1 in
  Engine.after e0 0.001 (fun () ->
      (* ~10 windows out at 5 ms lookahead *)
      let (_ : unit -> unit) =
        Engine.cancellable_after e0 0.05 (fun () -> fired_live := true)
      in
      let cancel =
        Engine.cancellable_after e0 0.05 (fun () -> fired_cancelled := true)
      in
      (* cancel from a later event, several barriers downstream *)
      Engine.after e0 0.02 cancel);
  (* keep the other shard's clock moving on its own timers too *)
  let ticks = ref 0 in
  let rec tick () =
    incr ticks;
    if !ticks < 12 then Engine.after e1 0.004 tick
  in
  Engine.after e1 0.004 tick;
  Net.run net;
  Alcotest.(check bool) "uncancelled timer fired across windows" true
    !fired_live;
  Alcotest.(check bool) "cancelled timer never fired" false !fired_cancelled;
  Alcotest.(check int) "other shard ran its ticks" 12 !ticks

(* ------------------------------------------------------------------ *)
(* The per-run worker pool                                             *)
(* ------------------------------------------------------------------ *)

(* A 2-shard parallel mini world: one ping-pong slot each way across the
   cut plus one inside each region, so both shards send and receive on
   every window. *)
let two_shard_world ?on_receive () =
  let net, hosts = build_mini 2 in
  Net.set_shards ~parallel:true net 2;
  let slot (a, a_addr) (b, b_addr) = { a; a_addr; b; b_addr; budget = 6 } in
  let slots =
    [|
      slot hosts.(0).(0) hosts.(1).(0);
      slot hosts.(1).(1) hosts.(0).(1);
      slot hosts.(0).(1) hosts.(0).(0);
      slot hosts.(1).(0) hosts.(1).(1);
    |]
  in
  let recv_a, recv_b = install_pingpong ?on_receive net hosts slots in
  let expected = Array.fold_left (fun acc s -> acc + (2 * s.budget)) 0 slots in
  (net, hosts, recv_a, recv_b, expected)

let delivered (recv_a, recv_b) =
  Array.fold_left ( + ) 0 recv_a + Array.fold_left ( + ) 0 recv_b

(* A raw handler on a host of shard [k] raises on its third receipt: the
   run re-raises that exception, and a fresh parallel world built next in
   this process still runs to completion (no domain left spinning or
   parked holding the pool). *)
let raise_on_shard k () =
  let target = ref None and hits = ref 0 in
  let on_receive node =
    match !target with
    | Some n when n == node ->
        incr hits;
        if !hits = 3 then failwith "boom"
    | _ -> ()
  in
  let net, hosts, _, _, _ = two_shard_world ~on_receive () in
  let all = Array.to_list (Array.concat (Array.to_list hosts)) in
  target := Some (fst (List.find (fun (n, _) -> Net.node_shard n = k) all));
  Alcotest.check_raises "Net.run re-raises the shard's exception"
    (Failure "boom") (fun () -> Net.run net);
  Alcotest.(check int) "raised on the third receipt" 3 !hits;
  let net, _, recv_a, recv_b, expected = two_shard_world () in
  Net.run net;
  Alcotest.(check int) "a fresh world afterwards delivers everything"
    expected (delivered (recv_a, recv_b))

let test_worker_exception_propagates () = raise_on_shard 1 ()
let test_coordinator_exception_propagates () = raise_on_shard 0 ()

(* [Net.run ~until] in uneven slices — each slice spawning and retiring
   its own workers, each ending on the [until] clamp — must equal one
   run: the same per-slot deliveries, the same merged trace records and
   the same final clock. *)
let test_sliced_runs_equal_one_run () =
  let net, _, recv_a, recv_b, expected = two_shard_world () in
  Net.run net;
  let whole = Trace.records (Net.trace net) and t_end = Net.now net in
  Alcotest.(check int) "one run delivers everything" expected
    (delivered (recv_a, recv_b));
  let net', _, recv_a', recv_b', _ = two_shard_world () in
  List.iter
    (fun frac -> Net.run ~until:(frac *. t_end) net')
    [ 0.03; 0.11; 0.12; 0.4; 0.55; 0.9; 3.0 ];
  Alcotest.(check (array int)) "same initiator deliveries" recv_a recv_a';
  Alcotest.(check (array int)) "same responder deliveries" recv_b recv_b';
  Alcotest.(check bool) "trace non-empty" true (whole <> []);
  Alcotest.(check bool) "same trace, record for record" true
    (whole = Trace.records (Net.trace net'));
  Alcotest.(check (float 0.0)) "same final clock" t_end (Net.now net')

let test_max_events_truncates () =
  let net, _, recv_a, recv_b, expected = two_shard_world () in
  Net.run ~max_events:5 net;
  Alcotest.(check int) "run marked truncated" 1
    (Net.stats net).Engine.truncated;
  Alcotest.(check bool) "work left over" true
    (delivered (recv_a, recv_b) < expected);
  Net.run net;
  Alcotest.(check int) "a later run finishes the work" expected
    (delivered (recv_a, recv_b))

let test_barrier_stats () =
  let net, _, _, _, _ = two_shard_world () in
  Net.run net;
  let bs = Net.barrier_stats net in
  let st = Net.stats net in
  Alcotest.(check bool) "windows counted" true (bs.Net.windows > 0);
  Alcotest.(check int) "every event ran inside a window" st.Engine.executed
    bs.Net.window_events;
  Alcotest.(check bool) "max window within the total" true
    (bs.Net.max_window_events > 0
    && bs.Net.max_window_events <= bs.Net.window_events);
  Alcotest.(check int) "one wait per shard" 2
    (Array.length bs.Net.barrier_wait);
  Alcotest.(check bool) "waits are non-negative" true
    (Array.for_all (fun w -> w >= 0.0) bs.Net.barrier_wait);
  Alcotest.(check bool) "frames crossed the cut both ways" true
    (bs.Net.peak_outbox.(0).(1) > 0 && bs.Net.peak_outbox.(1).(0) > 0);
  Alcotest.(check int) "no shard sends to itself" 0 bs.Net.peak_outbox.(0).(0);
  let plain, _ = build_mini 2 in
  Net.run plain;
  Alcotest.(check int) "no windows on an unsharded world" 0
    (Net.barrier_stats plain).Net.windows

(* ------------------------------------------------------------------ *)
(* Partition derivation and validation                                 *)
(* ------------------------------------------------------------------ *)

let test_set_shards_validates () =
  let net, _ = build_mini 2 in
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Net.set_shards: shard count must be >= 1") (fun () ->
      Net.set_shards net 0)

let test_parallel_requires_idle_engine () =
  let net, _ = build_mini 2 in
  Engine.after (Net.engine net) 1.0 (fun () -> ());
  (match Net.set_shards ~parallel:true net 2 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "world left unsharded" 1 (Net.shard_count net)

let test_parallel_rejects_zero_latency_cut () =
  let net = Net.create () in
  let r0 = Net.add_router net "r0" in
  let r1 = Net.add_router net "r1" in
  let p = prefix "10.0.0.0/30" in
  ignore
    (Net.p2p net ~latency:0.0 ~prefix:p
       (r0, "a", Ipv4_addr.Prefix.host p 1)
       (r1, "b", Ipv4_addr.Prefix.host p 2));
  (match Net.set_shards ~parallel:true net 2 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_lossy_link_pins_one_shard () =
  (* A lossy p2p link's seeded loss generator is shared mutable state:
     the partitioner must keep its endpoints on one shard rather than
     let the cut race the generator. *)
  let net = Net.create () in
  let r0 = Net.add_router net "r0" in
  let r1 = Net.add_router net "r1" in
  let p = prefix "10.0.0.0/30" in
  ignore
    (Net.p2p net ~latency:0.005 ~loss:0.1 ~prefix:p
       (r0, "a", Ipv4_addr.Prefix.host p 1)
       (r1, "b", Ipv4_addr.Prefix.host p 2));
  Net.set_shards net 2;
  Alcotest.(check int) "collapsed to one shard" 1 (Net.shard_count net)

let test_partition_respects_segments () =
  let net, hosts = build_mini 4 in
  Net.set_shards net 4;
  Alcotest.(check int) "four components, four shards" 4 (Net.shard_count net);
  Array.iteri
    (fun k row ->
      let (h0, _), (h1, _) = (row.(0), row.(1)) in
      Alcotest.(check int)
        (Printf.sprintf "region %d co-members share a shard" k)
        (Net.node_shard h0) (Net.node_shard h1))
    hosts;
  (* asking for more shards than components caps at the component count *)
  let net2, _ = build_mini 2 in
  Net.set_shards net2 8;
  Alcotest.(check bool) "capped by component count" true
    (Net.shard_count net2 <= 3)

let test_same_pins_nodes_together () =
  let net, hosts = build_mini 2 in
  let a, _ = hosts.(0).(0) in
  let b, _ = hosts.(1).(0) in
  Net.set_shards ~same:[ (a, b) ] net 2;
  Alcotest.(check int) "~same forces one shard" (Net.node_shard a)
    (Net.node_shard b)

(* ------------------------------------------------------------------ *)
(* Addr_map and Pool                                                   *)
(* ------------------------------------------------------------------ *)

let prop_addr_map_matches_hashtbl =
  QCheck.Test.make ~name:"Addr_map behaves like Hashtbl" ~count:200
    QCheck.(list (pair (int_bound 500) (option (int_bound 100))))
    (fun ops ->
      let m = Addr_map.create () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          match v with
          | Some v ->
              Addr_map.replace m k v;
              Hashtbl.replace h k v
          | None ->
              Addr_map.remove m k;
              Hashtbl.remove h k)
        ops;
      Addr_map.length m = Hashtbl.length h
      && List.for_all
           (fun k -> Addr_map.find m k = Hashtbl.find_opt h k)
           (List.init 501 Fun.id))

let test_addr_map_addr_keys () =
  let m = Addr_map.create () in
  let a = Ipv4_addr.of_string "131.7.0.22" in
  Addr_map.replace m (Addr_map.of_addr a) "mh";
  Alcotest.(check (option string))
    "address round-trips" (Some "mh")
    (Addr_map.find m (Addr_map.of_addr a));
  (* colliding keys survive a backward-shift deletion in between *)
  let cap = 16 in (* default capacity: keys differing by it probe-collide *)
  Addr_map.replace m 3 "x";
  Addr_map.replace m (3 + cap) "y";
  Addr_map.replace m (3 + (2 * cap)) "z";
  Addr_map.remove m (3 + cap);
  Alcotest.(check (option string)) "head survives" (Some "x")
    (Addr_map.find m 3);
  Alcotest.(check (option string)) "tail shifted back" (Some "z")
    (Addr_map.find m (3 + (2 * cap)))

let test_pool_recycles () =
  let p = Pool.create () in
  let b1 = Pool.alloc p 512 in
  Alcotest.(check int) "sized as asked" 512 (Bytes.length b1);
  Alcotest.(check int) "first alloc is a miss" 1 (Pool.misses p);
  Pool.release p b1;
  Alcotest.(check int) "released buffer pooled" 1 (Pool.pooled p);
  let b2 = Pool.alloc p 512 in
  Alcotest.(check bool) "same buffer back" true (b1 == b2);
  Alcotest.(check int) "second alloc is a hit" 1 (Pool.hits p);
  let b3 = Pool.alloc p 512 in
  Alcotest.(check bool) "distinct when pool empty" true (not (b2 == b3));
  Alcotest.(check int) "live tracks outstanding" 2 (Pool.live p)

let test_node_pools_are_per_shard () =
  let net, hosts = build_mini 2 in
  Net.set_shards net 2;
  let a, _ = hosts.(0).(0) in
  let a', _ = hosts.(0).(1) in
  let b, _ = hosts.(1).(0) in
  Alcotest.(check bool) "co-shard nodes share a pool" true
    (Net.node_pool a == Net.node_pool a');
  if Net.node_shard a <> Net.node_shard b then
    Alcotest.(check bool) "cross-shard nodes do not" true
      (not (Net.node_pool a == Net.node_pool b))

let suites =
  [
    ( "shard.pqueue",
      [
        Alcotest.test_case "add_seq orders by (priority, seq)" `Quick
          test_pqueue_add_seq_orders;
        Alcotest.test_case "min_key peeks the merged key" `Quick
          test_pqueue_min_key;
        QCheck_alcotest.to_alcotest prop_merged_queues_equal_single;
      ] );
    ( "shard.determinism",
      [
        QCheck_alcotest.to_alcotest prop_seq_merge_deterministic;
        Alcotest.test_case "Topo ?shards replays the scenario trace" `Quick
          test_seq_merge_topo_scenario;
        Alcotest.test_case "trace bytes do not depend on earlier worlds"
          `Quick test_trace_independent_of_history;
      ] );
    ( "shard.parallel",
      [
        Alcotest.test_case "matches sequential deliveries" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "replays identically run to run" `Quick
          test_parallel_replays_identically;
        Alcotest.test_case "tunnel events carry the node's clock" `Quick
          test_parallel_tunnel_events_use_node_clock;
        Alcotest.test_case "cancellable_after across barrier windows" `Quick
          test_cancellable_across_barriers;
        Alcotest.test_case "a frame sent before the run crosses the cut"
          `Quick test_parallel_send_before_run;
      ] );
    ( "shard.pool",
      [
        Alcotest.test_case "a worker's exception propagates, leaks nothing"
          `Quick test_worker_exception_propagates;
        Alcotest.test_case "shard 0's exception stops the workers" `Quick
          test_coordinator_exception_propagates;
        Alcotest.test_case "sliced runs equal one run" `Quick
          test_sliced_runs_equal_one_run;
        Alcotest.test_case "max_events truncates and returns" `Quick
          test_max_events_truncates;
        Alcotest.test_case "barrier telemetry" `Quick test_barrier_stats;
      ] );
    ( "shard.partition",
      [
        Alcotest.test_case "rejects n < 1" `Quick test_set_shards_validates;
        Alcotest.test_case "parallel requires an idle engine" `Quick
          test_parallel_requires_idle_engine;
        Alcotest.test_case "parallel rejects zero-latency cuts" `Quick
          test_parallel_rejects_zero_latency_cut;
        Alcotest.test_case "lossy links pin their endpoints" `Quick
          test_lossy_link_pins_one_shard;
        Alcotest.test_case "segments never span shards" `Quick
          test_partition_respects_segments;
        Alcotest.test_case "~same pins node pairs" `Quick
          test_same_pins_nodes_together;
      ] );
    ( "shard.structures",
      [
        QCheck_alcotest.to_alcotest prop_addr_map_matches_hashtbl;
        Alcotest.test_case "Addr_map keys addresses" `Quick
          test_addr_map_addr_keys;
        Alcotest.test_case "Pool recycles by size" `Quick test_pool_recycles;
        Alcotest.test_case "node pools are per shard" `Quick
          test_node_pools_are_per_shard;
      ] );
  ]
