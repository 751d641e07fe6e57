(* Unit and property tests for Ipv4_addr and Ipv4_addr.Prefix. *)

open Netsim

let addr = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

let test_parse_print_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Ipv4_addr.to_string (addr s)))
    [ "0.0.0.0"; "255.255.255.255"; "36.1.0.5"; "10.0.0.1"; "131.7.200.9" ]

let test_parse_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check (option reject))
        (Printf.sprintf "%S rejected" s)
        None
        (Ipv4_addr.of_string_opt s))
    [
      ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "-1.2.3.4"; "a.b.c.d";
      "1..2.3"; "1.2.3.04x"; "0x10.1.1.1"; " 1.2.3.4"; "1.2.3.4 ";
      "1111.2.3.4";
    ]

let test_octets_roundtrip () =
  let a = Ipv4_addr.of_octets 192 168 255 1 in
  Alcotest.(check string) "octets" "192.168.255.1" (Ipv4_addr.to_string a);
  let o1, o2, o3, o4 = Ipv4_addr.to_octets a in
  Alcotest.(check (list int)) "to_octets" [ 192; 168; 255; 1 ] [ o1; o2; o3; o4 ]

let test_octets_range_checked () =
  Alcotest.check_raises "octet 256"
    (Invalid_argument "Ipv4_addr.of_octets: octet 256 out of range")
    (fun () -> ignore (Ipv4_addr.of_octets 256 0 0 0))

let test_unsigned_compare () =
  (* 200.0.0.0 has the sign bit set as an int32; ordering must still be
     numeric. *)
  Alcotest.(check bool) "10.0.0.0 < 200.0.0.0" true
    (Ipv4_addr.compare (addr "10.0.0.0") (addr "200.0.0.0") < 0);
  Alcotest.(check bool) "255.255.255.255 is max" true
    (Ipv4_addr.compare Ipv4_addr.broadcast (addr "254.0.0.0") > 0)

let test_predicates () =
  Alcotest.(check bool) "224.0.0.1 multicast" true
    (Ipv4_addr.is_multicast (addr "224.0.0.1"));
  Alcotest.(check bool) "239.255.255.255 multicast" true
    (Ipv4_addr.is_multicast (addr "239.255.255.255"));
  Alcotest.(check bool) "223.255.255.255 not multicast" false
    (Ipv4_addr.is_multicast (addr "223.255.255.255"));
  Alcotest.(check bool) "240.0.0.0 not multicast" false
    (Ipv4_addr.is_multicast (addr "240.0.0.0"));
  Alcotest.(check bool) "127.0.0.1 loopback" true
    (Ipv4_addr.is_loopback Ipv4_addr.localhost);
  Alcotest.(check bool) "128.0.0.1 not loopback" false
    (Ipv4_addr.is_loopback (addr "128.0.0.1"))

let test_succ_wraps () =
  Alcotest.(check string) "succ" "1.2.3.5"
    (Ipv4_addr.to_string (Ipv4_addr.succ (addr "1.2.3.4")));
  Alcotest.(check string) "carry" "1.2.4.0"
    (Ipv4_addr.to_string (Ipv4_addr.succ (addr "1.2.3.255")));
  Alcotest.(check string) "wrap" "0.0.0.0"
    (Ipv4_addr.to_string (Ipv4_addr.succ Ipv4_addr.broadcast))

let test_prefix_basics () =
  let p = prefix "36.1.0.0/16" in
  Alcotest.(check string) "to_string" "36.1.0.0/16"
    (Ipv4_addr.Prefix.to_string p);
  Alcotest.(check int) "bits" 16 (Ipv4_addr.Prefix.bits p);
  Alcotest.(check string) "netmask" "255.255.0.0"
    (Ipv4_addr.to_string (Ipv4_addr.Prefix.netmask p));
  Alcotest.(check bool) "mem inside" true
    (Ipv4_addr.Prefix.mem (addr "36.1.200.9") p);
  Alcotest.(check bool) "mem outside" false
    (Ipv4_addr.Prefix.mem (addr "36.2.0.1") p);
  Alcotest.(check string) "broadcast" "36.1.255.255"
    (Ipv4_addr.to_string (Ipv4_addr.Prefix.broadcast_addr p))

let test_prefix_zeroes_host_bits () =
  let p = Ipv4_addr.Prefix.make (addr "36.1.200.9") 16 in
  Alcotest.(check string) "host bits cleared" "36.1.0.0/16"
    (Ipv4_addr.Prefix.to_string p)

let test_prefix_extremes () =
  Alcotest.(check bool) "/0 contains everything" true
    (Ipv4_addr.Prefix.mem (addr "200.1.2.3") Ipv4_addr.Prefix.global);
  let host_route = Ipv4_addr.Prefix.make (addr "1.2.3.4") 32 in
  Alcotest.(check bool) "/32 contains itself" true
    (Ipv4_addr.Prefix.mem (addr "1.2.3.4") host_route);
  Alcotest.(check bool) "/32 excludes neighbour" false
    (Ipv4_addr.Prefix.mem (addr "1.2.3.5") host_route);
  Alcotest.check_raises "/33 rejected"
    (Invalid_argument "Prefix.make: bad mask length 33") (fun () ->
      ignore (Ipv4_addr.Prefix.make (addr "1.2.3.4") 33))

let test_prefix_subset () =
  Alcotest.(check bool) "/24 subset of /16" true
    (Ipv4_addr.Prefix.subset (prefix "36.1.5.0/24") (prefix "36.1.0.0/16"));
  Alcotest.(check bool) "/16 not subset of /24" false
    (Ipv4_addr.Prefix.subset (prefix "36.1.0.0/16") (prefix "36.1.5.0/24"));
  Alcotest.(check bool) "disjoint" false
    (Ipv4_addr.Prefix.subset (prefix "37.0.0.0/8") (prefix "36.0.0.0/8"))

let test_prefix_host () =
  let p = prefix "192.168.1.0/24" in
  Alcotest.(check string) "host 1" "192.168.1.1"
    (Ipv4_addr.to_string (Ipv4_addr.Prefix.host p 1));
  Alcotest.(check string) "host 254" "192.168.1.254"
    (Ipv4_addr.to_string (Ipv4_addr.Prefix.host p 254));
  Alcotest.check_raises "host 256 out of /24"
    (Invalid_argument "Prefix.host: 256 outside 192.168.1.0/24") (fun () ->
      ignore (Ipv4_addr.Prefix.host p 256))

let test_prefix_parse_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check (option reject))
        (Printf.sprintf "%S rejected" s)
        None
        (Ipv4_addr.Prefix.of_string_opt s))
    [ "1.2.3.4"; "1.2.3.4/"; "1.2.3.4/33"; "/8"; "1.2.3/8"; "1.2.3.4/-1" ]

(* Properties *)

let arb_addr =
  QCheck.map
    (fun (a, b, c, d) -> Ipv4_addr.of_octets a b c d)
    QCheck.(quad (0 -- 255) (0 -- 255) (0 -- 255) (0 -- 255))

(* Octets biased towards the digit-count boundaries. *)
let arb_edge_addr =
  let octet = QCheck.Gen.(oneof [ oneofl [ 0; 1; 9; 10; 99; 100; 255 ]; int_bound 255 ]) in
  QCheck.make ~print:Ipv4_addr.to_string
    QCheck.Gen.(
      map
        (fun (a, b, c, d) -> Ipv4_addr.of_octets a b c d)
        (quad octet octet octet octet))

let prop_to_string_printf =
  QCheck.Test.make ~name:"addr to_string = Printf dotted quad" ~count:1000
    arb_edge_addr (fun a ->
      let w, x, y, z = Ipv4_addr.to_octets a in
      Ipv4_addr.to_string a = Printf.sprintf "%d.%d.%d.%d" w x y z)

let prop_parse_roundtrip =
  QCheck.Test.make ~name:"addr to_string/of_string roundtrip" ~count:500
    arb_addr (fun a ->
      Ipv4_addr.equal a (Ipv4_addr.of_string (Ipv4_addr.to_string a)))

let prop_prefix_mem_network =
  QCheck.Test.make ~name:"prefix contains its own network and broadcast"
    ~count:500
    QCheck.(pair arb_addr (0 -- 32))
    (fun (a, bits) ->
      let p = Ipv4_addr.Prefix.make a bits in
      Ipv4_addr.Prefix.mem (Ipv4_addr.Prefix.network p) p
      && Ipv4_addr.Prefix.mem (Ipv4_addr.Prefix.broadcast_addr p) p)

let prop_prefix_subset_reflexive =
  QCheck.Test.make ~name:"prefix subset is reflexive" ~count:200
    QCheck.(pair arb_addr (0 -- 32))
    (fun (a, bits) ->
      let p = Ipv4_addr.Prefix.make a bits in
      Ipv4_addr.Prefix.subset p p)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    QCheck.(pair arb_addr arb_addr)
    (fun (a, b) ->
      let c1 = Ipv4_addr.compare a b and c2 = Ipv4_addr.compare b a in
      (c1 = 0 && c2 = 0 && Ipv4_addr.equal a b) || c1 * c2 < 0)

let suites =
  [
    ( "ipv4_addr",
      [
        Alcotest.test_case "parse/print roundtrip" `Quick
          test_parse_print_roundtrip;
        Alcotest.test_case "parse rejects garbage" `Quick
          test_parse_rejects_garbage;
        Alcotest.test_case "octets roundtrip" `Quick test_octets_roundtrip;
        Alcotest.test_case "octets range-checked" `Quick
          test_octets_range_checked;
        Alcotest.test_case "unsigned compare" `Quick test_unsigned_compare;
        Alcotest.test_case "multicast/loopback predicates" `Quick
          test_predicates;
        Alcotest.test_case "succ and wrap" `Quick test_succ_wraps;
        Alcotest.test_case "prefix basics" `Quick test_prefix_basics;
        Alcotest.test_case "prefix zeroes host bits" `Quick
          test_prefix_zeroes_host_bits;
        Alcotest.test_case "prefix extremes /0 /32" `Quick
          test_prefix_extremes;
        Alcotest.test_case "prefix subset" `Quick test_prefix_subset;
        Alcotest.test_case "prefix host extraction" `Quick test_prefix_host;
        Alcotest.test_case "prefix parse rejects" `Quick
          test_prefix_parse_rejects;
        QCheck_alcotest.to_alcotest prop_parse_roundtrip;
        QCheck_alcotest.to_alcotest prop_to_string_printf;
        QCheck_alcotest.to_alcotest prop_prefix_mem_network;
        QCheck_alcotest.to_alcotest prop_prefix_subset_reflexive;
        QCheck_alcotest.to_alcotest prop_compare_antisym;
      ] );
  ]
