(* Per-world state: transport services live on their node, node names are
   looked up per world, and a world leaves nothing behind once it is
   dropped. *)

open Netsim
open Transport

let addr = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

(* Hosts "a" and "b" on one segment. *)
let lan () =
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let b = Net.add_host net "b" in
  let seg = Net.add_segment net ~name:"lan" () in
  let on h ip =
    ignore
      (Net.attach h seg ~ifname:"eth0" ~addr:(addr ip)
         ~prefix:(prefix "10.0.0.0/24"))
  in
  on a "10.0.0.1";
  on b "10.0.0.2";
  (net, a, b)

let test_get_returns_the_same_service () =
  let _, a, _ = lan () in
  let u = Udp_service.get a and t = Tcp.get a and i = Icmp_service.get a in
  Alcotest.(check bool) "udp" true (u == Udp_service.get a);
  Alcotest.(check bool) "tcp" true (t == Tcp.get a);
  Alcotest.(check bool) "icmp" true (i == Icmp_service.get a)

let test_worlds_do_not_share_services () =
  let net_a, a1, _ = lan () in
  let net_b, b1, b2 = lan () in
  Alcotest.(check bool) "distinct udp" true
    (Udp_service.get a1 != Udp_service.get b1);
  Alcotest.(check bool) "distinct tcp" true (Tcp.get a1 != Tcp.get b1);
  Alcotest.(check bool) "distinct icmp" true
    (Icmp_service.get a1 != Icmp_service.get b1);
  let heard_a = ref 0 and heard_b = ref 0 in
  Udp_service.listen (Udp_service.get a1) ~port:7 (fun _ _ -> incr heard_a);
  Udp_service.listen (Udp_service.get b1) ~port:7 (fun _ _ -> incr heard_b);
  ignore
    (Udp_service.send (Udp_service.get b2) ~dst:(addr "10.0.0.1")
       ~src_port:1000 ~dst_port:7 (Bytes.of_string "hi"));
  Net.run net_b;
  Net.run net_a;
  Alcotest.(check int) "world B's listener heard it" 1 !heard_b;
  Alcotest.(check int) "world A's listener did not" 0 !heard_a

let test_node_names_per_world () =
  let net, a, _ = lan () in
  let is node = function Some n -> n == node | None -> false in
  Alcotest.(check bool) "found by name" true (is a (Net.find_node net "a"));
  Alcotest.(check bool) "unknown name" true (Net.find_node net "zz" = None);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Net: node \"a\" already exists") (fun () ->
      ignore (Net.add_host net "a"));
  let other, a', _ = lan () in
  Alcotest.(check bool) "same name, other world" true
    (is a' (Net.find_node other "a") && a' != a)

(* Worlds are garbage once dropped: N build-roam-run cycles keep the live
   heap where the first cycle left it (a world that stayed reachable
   would add thousands of words per cycle). *)
let test_worlds_do_not_leak () =
  let cycle () =
    let w = Scenarios.Topo.build () in
    Scenarios.Topo.roam w ();
    Scenarios.Topo.run w;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let first = cycle () in
  let last = ref first in
  for _ = 2 to 12 do
    last := cycle ()
  done;
  if !last - first > 1_000 then
    Alcotest.failf "live words grew from %d to %d over 12 builds" first !last

let suites =
  [
    ( "world",
      [
        Alcotest.test_case "get returns the same service" `Quick
          test_get_returns_the_same_service;
        Alcotest.test_case "worlds do not share services" `Quick
          test_worlds_do_not_share_services;
        Alcotest.test_case "node names are per world" `Quick
          test_node_names_per_world;
        Alcotest.test_case "live words stay flat over builds" `Quick
          test_worlds_do_not_leak;
      ] );
  ]
