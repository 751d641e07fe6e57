(* ARP behaviour: resolution, caching, proxy ARP, gratuitous ARP,
   unresolvable destinations, and MAC address utilities. *)

open Netsim

let a = Ipv4_addr.of_string
let p = Ipv4_addr.Prefix.of_string

let lan_world () =
  let net = Net.create () in
  let h1 = Net.add_host net "h1" in
  let h2 = Net.add_host net "h2" in
  let h3 = Net.add_host net "h3" in
  let seg = Net.add_segment net ~name:"lan" () in
  let i1 = Net.attach h1 seg ~ifname:"eth0" ~addr:(a "10.0.0.1") ~prefix:(p "10.0.0.0/24") in
  let i2 = Net.attach h2 seg ~ifname:"eth0" ~addr:(a "10.0.0.2") ~prefix:(p "10.0.0.0/24") in
  let i3 = Net.attach h3 seg ~ifname:"eth0" ~addr:(a "10.0.0.3") ~prefix:(p "10.0.0.0/24") in
  (net, (h1, i1), (h2, i2), (h3, i3))

let send_udp net h ~dst =
  let udp = Transport.Udp_service.get h in
  let flow =
    Transport.Udp_service.send udp ~dst ~src_port:1000 ~dst_port:2000
      (Bytes.make 8 'a')
  in
  Net.run net;
  flow

let test_mac_utilities () =
  let m = Mac_addr.of_string "02:00:00:00:ab:cd" in
  Alcotest.(check string) "roundtrip" "02:00:00:00:ab:cd" (Mac_addr.to_string m);
  Alcotest.(check bool) "broadcast" true (Mac_addr.is_broadcast Mac_addr.broadcast);
  Alcotest.check_raises "bad string"
    (Invalid_argument "Mac_addr.of_string: \"zz:00:00:00:00:00\"") (fun () ->
      ignore (Mac_addr.of_string "zz:00:00:00:00:00"))

(* MACs are numbered per world: distinct within one, and the same world
   built again (after another was built) gets the same ones. *)
let test_world_macs () =
  let macs () =
    let _, (_, i1), (_, i2), (_, i3) = lan_world () in
    List.map
      (fun i -> Mac_addr.to_string (Option.get (Net.iface_mac i)))
      [ i1; i2; i3 ]
  in
  let first = macs () in
  Alcotest.(check int) "distinct within a world" 3
    (List.length (List.sort_uniq compare first));
  Alcotest.(check (list string)) "same MACs on rebuild" first (macs ())

let test_resolution_and_cache () =
  let net, (h1, _), (h2, i2), _ = lan_world () in
  Alcotest.(check bool) "cold cache" true (Net.arp_lookup h1 (a "10.0.0.2") = None);
  let flow = send_udp net h1 ~dst:(a "10.0.0.2") in
  Alcotest.(check bool) "delivered" true
    (Trace.delivered (Net.trace net) ~flow ~node:"h2");
  (match Net.arp_lookup h1 (a "10.0.0.2") with
  | Some m ->
      Alcotest.(check string) "cached MAC is h2's"
        (Mac_addr.to_string (Option.get (Net.iface_mac i2)))
        (Mac_addr.to_string m)
  | None -> Alcotest.fail "no cache entry");
  (* The responder also learned the requester from the ARP request. *)
  Alcotest.(check bool) "h2 learned h1" true
    (Net.arp_lookup h2 (a "10.0.0.1") <> None)

let test_unresolvable_dropped () =
  let net, (h1, _), _, _ = lan_world () in
  let flow = send_udp net h1 ~dst:(a "10.0.0.99") in
  let drops = Trace.drops (Net.trace net) ~flow in
  Alcotest.(check bool) "arp-unresolved drop" true
    (List.exists
       (fun (n, r) -> n = "h1" && Trace.drop_reason_equal r Trace.Arp_unresolved)
       drops)

let test_proxy_arp_captures_traffic () =
  let net, (h1, _), (h2, i2), _ = lan_world () in
  (* h2 proxies for 10.0.0.50 (an absent host). *)
  Net.add_proxy_arp h2 i2 (a "10.0.0.50");
  Net.claim_address h2 (a "10.0.0.50");
  let flow = send_udp net h1 ~dst:(a "10.0.0.50") in
  Alcotest.(check bool) "captured by the proxy" true
    (Trace.delivered (Net.trace net) ~flow ~node:"h2")

let test_gratuitous_arp_redirects () =
  let net, (h1, _), (_h2, i2), (h3, i3) = lan_world () in
  (* h1 talks to h2 and caches its MAC.  Then h3 gratuitously claims
     10.0.0.2 (the mobility handover trick): h1's next packet goes to
     h3. *)
  ignore (send_udp net h1 ~dst:(a "10.0.0.2"));
  ignore (Net.iface_mac i2);
  Net.claim_address h3 (a "10.0.0.2");
  Net.gratuitous_arp h3 i3 (a "10.0.0.2");
  Net.run net;
  (match Net.arp_lookup h1 (a "10.0.0.2") with
  | Some m ->
      Alcotest.(check string) "cache now points at h3"
        (Mac_addr.to_string (Option.get (Net.iface_mac i3)))
        (Mac_addr.to_string m)
  | None -> Alcotest.fail "cache lost");
  let flow = send_udp net h1 ~dst:(a "10.0.0.2") in
  Alcotest.(check bool) "traffic redirected to h3" true
    (Trace.delivered (Net.trace net) ~flow ~node:"h3")

let test_remove_proxy_arp () =
  let net, (h1, _), (h2, i2), _ = lan_world () in
  Net.add_proxy_arp h2 i2 (a "10.0.0.50");
  Net.remove_proxy_arp h2 i2 (a "10.0.0.50");
  let flow = send_udp net h1 ~dst:(a "10.0.0.50") in
  Alcotest.(check bool) "no longer answered" false
    (Trace.delivered (Net.trace net) ~flow ~node:"h2")

let test_neighbour_scan () =
  let _net, (h1, _), (_, i2), _ = lan_world () in
  (match Net.neighbour_on_segment h1 (a "10.0.0.2") with
  | Some (own_iface, m) ->
      Alcotest.(check string) "neighbour mac"
        (Mac_addr.to_string (Option.get (Net.iface_mac i2)))
        (Mac_addr.to_string m);
      Alcotest.(check string) "via our eth0" "eth0" (Net.iface_name own_iface)
  | None -> Alcotest.fail "neighbour not found");
  Alcotest.(check bool) "absent neighbour" true
    (Net.neighbour_on_segment h1 (a "10.0.0.99") = None)

let test_clear_arp () =
  let net, (h1, _), _, _ = lan_world () in
  ignore (send_udp net h1 ~dst:(a "10.0.0.2"));
  Net.clear_arp h1;
  Alcotest.(check bool) "flushed" true (Net.arp_lookup h1 (a "10.0.0.2") = None)

let suites =
  [
    ( "arp",
      [
        Alcotest.test_case "mac utilities" `Quick test_mac_utilities;
        Alcotest.test_case "world MACs: distinct, same on rebuild" `Quick
          test_world_macs;
        Alcotest.test_case "resolution and caching" `Quick
          test_resolution_and_cache;
        Alcotest.test_case "unresolvable dropped" `Quick
          test_unresolvable_dropped;
        Alcotest.test_case "proxy arp captures traffic" `Quick
          test_proxy_arp_captures_traffic;
        Alcotest.test_case "gratuitous arp redirects" `Quick
          test_gratuitous_arp_redirects;
        Alcotest.test_case "remove proxy arp" `Quick test_remove_proxy_arp;
        Alcotest.test_case "neighbour scan" `Quick test_neighbour_scan;
        Alcotest.test_case "clear arp" `Quick test_clear_arp;
      ] );
  ]
