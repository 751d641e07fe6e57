(* Trace query helpers on crafted records, plus topology construction
   invariants for every parameter combination. *)

open Netsim

let a = Ipv4_addr.of_string

let dummy_pkt =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(a "1.1.1.1")
    ~dst:(a "2.2.2.2")
    (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make 10 'd')))

let fi id flow = { Trace.id; flow; pkt = dummy_pkt }

let crafted_trace () =
  let t = Trace.create () in
  Trace.record t ~time:0.0 (Trace.Send { node = "s"; frame = fi 1 7 });
  Trace.record t ~time:0.1
    (Trace.Transmit { link = "l1"; frame = fi 1 7; bytes = 38 });
  Trace.record t ~time:0.2
    (Trace.Forward { node = "r"; in_iface = "a"; out_iface = "b"; frame = fi 1 7 });
  Trace.record t ~time:0.3
    (Trace.Transmit { link = "l2"; frame = fi 1 7; bytes = 38 });
  Trace.record t ~time:0.4 (Trace.Deliver { node = "d"; frame = fi 1 7 });
  (* an unrelated flow *)
  Trace.record t ~time:0.5 (Trace.Send { node = "x"; frame = fi 2 8 });
  Trace.record t ~time:0.6
    (Trace.Drop { node = "y"; reason = Trace.No_route; frame = fi 2 8 });
  t

let test_flow_queries () =
  let t = crafted_trace () in
  Alcotest.(check int) "transmissions" 2 (Trace.transmissions t ~flow:7);
  Alcotest.(check int) "wire bytes" 76 (Trace.wire_bytes t ~flow:7);
  Alcotest.(check bool) "delivered" true (Trace.delivered t ~flow:7 ~node:"d");
  Alcotest.(check (option (float 0.0))) "delivery time" (Some 0.4)
    (Trace.delivery_time t ~flow:7 ~node:"d");
  Alcotest.(check (option (float 0.0))) "send time" (Some 0.0)
    (Trace.send_time t ~flow:7);
  Alcotest.(check (list string)) "path" [ "s"; "r"; "d" ]
    (Trace.path t ~flow:7);
  Alcotest.(check int) "flow 8 not mixed in" 0 (Trace.transmissions t ~flow:8);
  Alcotest.(check bool) "flow 8 dropped" true
    (List.exists
       (fun (n, r) -> n = "y" && Trace.drop_reason_equal r Trace.No_route)
       (Trace.drops t ~flow:8));
  Alcotest.(check int) "record count" 7 (Trace.length t);
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

let test_path_dedups_consecutive () =
  let t = Trace.create () in
  Trace.record t ~time:0.0 (Trace.Send { node = "s"; frame = fi 1 7 });
  Trace.record t ~time:0.1 (Trace.Encapsulate { node = "s"; frame = fi 2 7 });
  Trace.record t ~time:0.2 (Trace.Deliver { node = "d"; frame = fi 3 7 });
  Alcotest.(check (list string)) "s appears once" [ "s"; "d" ]
    (Trace.path t ~flow:7)

(* ---- topology invariants ---- *)

let ping_home topo =
  let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
  let got = ref None in
  Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
    (fun ~rtt -> got := Some rtt);
  Scenarios.Topo.run topo;
  !got

let test_every_ch_position_builds_and_works () =
  List.iter
    (fun pos ->
      let topo = Scenarios.Topo.build ~ch_position:pos () in
      Scenarios.Topo.roam topo ();
      Alcotest.(check bool) "registered" true
        (Mobileip.Mobile_host.registered topo.Scenarios.Topo.mh);
      Alcotest.(check bool) "reachable via tunnel" true (ping_home topo <> None))
    Scenarios.Topo.
      [ Inside_home; Remote; Near_visited; On_visited_segment ]

let test_backbone_length_parametric () =
  List.iter
    (fun n ->
      let topo = Scenarios.Topo.build ~backbone_hops:n () in
      Scenarios.Topo.roam topo ();
      Alcotest.(check bool)
        (Printf.sprintf "works with %d backbone hops" n)
        true
        (ping_home topo <> None))
    [ 2; 3; 7 ]

let test_roam_static_variant () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam_static topo ();
  Alcotest.(check bool) "registered" true
    (Mobileip.Mobile_host.registered topo.Scenarios.Topo.mh);
  Alcotest.(check (option string)) "static coa" (Some "131.7.0.200")
    (Option.map Ipv4_addr.to_string
       (Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh))

let test_strict_filtering_blocks_both_ways () =
  (* Under strict filtering (home ingress + visited no-transit), Out-DH
     dies at the *visited* boundary before it even leaves. *)
  let topo =
    Scenarios.Topo.build ~ch_position:Scenarios.Topo.Remote
      ~filtering:Scenarios.Topo.strict ()
  in
  Scenarios.Topo.roam topo ();
  Mobileip.Mobile_host.set_default_method topo.Scenarios.Topo.mh
    Mobileip.Grid.Out_DH;
  Trace.clear (Net.trace topo.Scenarios.Topo.net);
  let udp = Transport.Udp_service.get topo.Scenarios.Topo.mh_node in
  let flow =
    Transport.Udp_service.send udp ~src:topo.Scenarios.Topo.mh_home_addr
      ~dst:topo.Scenarios.Topo.ch_addr ~src_port:7100 ~dst_port:9
      (Bytes.make 16 't')
  in
  Scenarios.Topo.run topo;
  Alcotest.(check bool) "dropped at vr with transit-filter" true
    (List.exists
       (fun (n, r) ->
         n = "vr" && Trace.drop_reason_equal r Trace.Transit_filter)
       (Trace.drops (Net.trace topo.Scenarios.Topo.net) ~flow))

let test_dhcp_leases_accumulate () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  Alcotest.(check int) "one lease" 1
    (Transport.Dhcp.Server.outstanding topo.Scenarios.Topo.dhcp);
  (* Same client re-requesting keeps its lease (stable per MAC). *)
  Scenarios.Topo.come_home topo;
  Scenarios.Topo.roam topo ();
  Alcotest.(check int) "still one lease" 1
    (Transport.Dhcp.Server.outstanding topo.Scenarios.Topo.dhcp)

let test_workload_udp_transaction () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let answered, rtt =
    Scenarios.Workload.udp_request_response ~net:topo.Scenarios.Topo.net
      ~client:topo.Scenarios.Topo.mh_node ~server:topo.Scenarios.Topo.ch_node
      ~server_addr:topo.Scenarios.Topo.ch_addr ~port:Transport.Well_known.nfs
      ~src:topo.Scenarios.Topo.mh_home_addr ()
  in
  Alcotest.(check bool) "answered" true answered;
  Alcotest.(check bool) "rtt positive" true (rtt > 0.0)

let test_workload_http_fetch () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Workload.install_http_server topo.Scenarios.Topo.ch_node ();
  Scenarios.Topo.roam topo ();
  let ok, elapsed =
    Scenarios.Workload.http_fetch ~net:topo.Scenarios.Topo.net
      ~client:topo.Scenarios.Topo.mh_node
      ~server_addr:topo.Scenarios.Topo.ch_addr
      ~src:topo.Scenarios.Topo.mh_home_addr ()
  in
  Alcotest.(check bool) "fetched" true ok;
  Alcotest.(check bool) "took time" true (elapsed > 0.0)

(* ---- trace gating ---- *)

let gating_world () =
  let net = Net.create () in
  let h1 = Net.add_host net "h1" in
  let h2 = Net.add_host net "h2" in
  let seg = Net.add_segment net ~name:"lan" () in
  let pfx = Ipv4_addr.Prefix.of_string "10.0.0.0/24" in
  let _ = Net.attach h1 seg ~ifname:"eth0" ~addr:(a "10.0.0.1") ~prefix:pfx in
  let _ = Net.attach h2 seg ~ifname:"eth0" ~addr:(a "10.0.0.2") ~prefix:pfx in
  ignore (Transport.Icmp_service.get h2);
  (net, h1)

let gating_ping net h1 =
  let got = ref false in
  Transport.Icmp_service.ping
    (Transport.Icmp_service.get h1)
    ~dst:(a "10.0.0.2")
    (fun ~rtt:_ -> got := true);
  Net.run net;
  !got

let render r = Format.asprintf "%.6f %a" r.Trace.time Trace.pp_record r

let test_gating_disabled_records_nothing () =
  let net, h1 = gating_world () in
  Net.set_tracing net false;
  Alcotest.(check bool) "ping still works" true (gating_ping net h1);
  Alcotest.(check int) "no records while disabled" 0
    (Trace.length (Net.trace net));
  (* Re-enabling resumes recording on the same trace. *)
  Net.set_tracing net true;
  Alcotest.(check bool) "second ping works" true (gating_ping net h1);
  Alcotest.(check bool) "records resume" true (Trace.length (Net.trace net) > 0)

(* The gating worlds: each builds a net and returns the run that
   exercises it.  The tunnelled world takes a static care-of address
   (DHCP embeds interface MACs, which come from a global counter and so
   differ between two builds in one process), pings the mobile host
   through the home agent's tunnel and sends an Out-DH datagram that
   strict filtering drops — so encapsulate, decapsulate and drop events
   all reach the consumer. *)
let lan_world () =
  let net, h1 = gating_world () in
  (net, fun () -> Alcotest.(check bool) "ping answered" true (gating_ping net h1))

let tunnel_world () =
  let open Scenarios.Topo in
  let topo = build ~ch_position:Remote ~filtering:strict () in
  ( topo.net,
    fun () ->
      roam_static topo ();
      ignore (ping_home topo);
      Mobileip.Mobile_host.set_default_method topo.mh Mobileip.Grid.Out_DH;
      let udp = Transport.Udp_service.get topo.mh_node in
      ignore
        (Transport.Udp_service.send udp ~src:topo.mh_home_addr
           ~dst:topo.ch_addr ~src_port:7100 ~dst_port:9 (Bytes.make 16 't'));
      run topo )

let is_encap r = match r.Trace.event with Trace.Encapsulate _ -> true | _ -> false
let is_decap r = match r.Trace.event with Trace.Decapsulate _ -> true | _ -> false
let is_drop r = match r.Trace.event with Trace.Drop _ -> true | _ -> false

let gating_worlds =
  [
    ("lan", lan_world, []);
    ( "tunnel",
      tunnel_world,
      [ ("encapsulate", is_encap); ("decapsulate", is_decap); ("drop", is_drop) ]
    );
  ]

(* A consumer must keep the data plane emitting events even when the
   trace itself is disabled, and the events must be exactly those an
   enabled run records.  [attach] installs the consumer on the disabled
   world and returns what it saw plus its removal; [logged] says whether
   the world's own log still fills (it does for function consumers, not
   for a ring-only run). *)
let check_consumer_sees_enabled_events ~attach ~logged =
  List.iter
    (fun (label, world, kinds) ->
      let net1, go1 = world () in
      go1 ();
      let records = Trace.records (Net.trace net1) in
      List.iter
        (fun (kind, p) ->
          Alcotest.(check bool)
            (label ^ ": reference run has " ^ kind)
            true (List.exists p records))
        kinds;
      let reference = List.map render records in
      Alcotest.(check bool) (label ^ ": reference run recorded") true
        (reference <> []);
      let net2, go2 = world () in
      Net.set_tracing net2 false;
      let seen, detach = attach net2 in
      Fun.protect ~finally:detach go2;
      Alcotest.(check (list string))
        (label ^ ": consumer sees the enabled-run events")
        reference
        (List.map render (seen ()));
      Alcotest.(check (list string))
        (label ^ ": world log")
        (if logged then reference else [])
        (List.map render (Trace.records (Net.trace net2))))
    gating_worlds

let collect () =
  let seen = ref [] in
  (seen, fun r -> seen := r :: !seen)

let test_gating_observer_sees_identical_events () =
  check_consumer_sees_enabled_events ~logged:true ~attach:(fun net ->
      let seen, f = collect () in
      let h = Trace.add_observer (Net.trace net) f in
      ( (fun () -> List.rev !seen),
        fun () -> Trace.remove_observer (Net.trace net) h ))

let test_gating_sink_sees_identical_events () =
  check_consumer_sees_enabled_events ~logged:true ~attach:(fun _ ->
      let seen, f = collect () in
      let h = Trace.add_sink f in
      ((fun () -> List.rev !seen), fun () -> Trace.remove_sink h))

(* Only a flight recorder listening: every event takes the ring-only
   fast path, which must capture what the full path records. *)
let test_gating_recorder_sees_identical_events () =
  check_consumer_sees_enabled_events ~logged:false ~attach:(fun _ ->
      let r = Netobs.Recorder.create ~capacity:4096 () in
      Netobs.Recorder.install r;
      ( (fun () -> Netobs.Recorder.records r),
        fun () -> Netobs.Recorder.uninstall r ))

let suites =
  [
    ( "trace+topo",
      [
        Alcotest.test_case "flow queries" `Quick test_flow_queries;
        Alcotest.test_case "path dedups" `Quick test_path_dedups_consecutive;
        Alcotest.test_case "every ch position works" `Quick
          test_every_ch_position_builds_and_works;
        Alcotest.test_case "backbone length parametric" `Quick
          test_backbone_length_parametric;
        Alcotest.test_case "roam static" `Quick test_roam_static_variant;
        Alcotest.test_case "strict filtering at visited boundary" `Quick
          test_strict_filtering_blocks_both_ways;
        Alcotest.test_case "dhcp leases stable per client" `Quick
          test_dhcp_leases_accumulate;
        Alcotest.test_case "workload udp transaction" `Quick
          test_workload_udp_transaction;
        Alcotest.test_case "workload http fetch" `Quick
          test_workload_http_fetch;
        Alcotest.test_case "gating: disabled records nothing" `Quick
          test_gating_disabled_records_nothing;
        Alcotest.test_case "gating: observer sees identical events" `Quick
          test_gating_observer_sees_identical_events;
        Alcotest.test_case "gating: sink sees identical events" `Quick
          test_gating_sink_sees_identical_events;
        Alcotest.test_case "gating: recorder sees identical events" `Quick
          test_gating_recorder_sees_identical_events;
      ] );
  ]
