(* Trace records in every shape the JSONL export writes: the eight event
   kinds, every drop reason, details and names that need escaping, each
   encapsulation, an options-bearing packet, a fragment, and times whose
   shortest decimal takes 15, 16 or 17 significant digits or is integral.
   [golden] is the fixed set behind test/trace_golden.jsonl; [gen] draws
   random records over the same shapes. *)

open Netsim

let addr = Ipv4_addr.of_string

let udp ?options ?(size = 32) ~src ~dst () =
  Ipv4_packet.make ?options ~protocol:Ipv4_packet.P_udp ~src:(addr src)
    ~dst:(addr dst)
    (Ipv4_packet.Udp
       (Udp_wire.make ~src_port:5000 ~dst_port:9 (Bytes.make size 'x')))

let inner () = udp ~src:"36.1.0.5" ~dst:"44.2.0.10" ()

let encap payload protocol =
  Ipv4_packet.make ~protocol ~src:(addr "36.1.0.2") ~dst:(addr "131.7.0.100")
    payload

let ipip () = encap (Ipv4_packet.Encap (inner ())) Ipv4_packet.P_ipip
let gre () = encap (Ipv4_packet.Gre_encap (inner ())) Ipv4_packet.P_gre
let minimal () = encap (Ipv4_packet.Min_encap (inner ())) Ipv4_packet.P_minimal

(* Router alert (RFC 2113) plus end-of-options padding: 8 option bytes. *)
let with_options () =
  udp
    ~options:(Bytes.of_string "\x94\x04\x00\x00\x01\x00\x00\x00")
    ~src:"10.0.0.1" ~dst:"255.255.255.255" ()

let tcp () =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_tcp ~src:(addr "192.168.100.200")
    ~dst:(addr "0.0.0.0")
    (Ipv4_packet.Tcp
       (Tcp_wire.make ~src_port:1023 ~dst_port:80 ~seq:0xfffffff0 ~ack_n:7
          ~flags:Tcp_wire.flag_syn_ack (Bytes.of_string "GET /\r\n")))

(* The second fragment of a datagram too big for a 576-byte MTU. *)
let fragment () =
  match
    Fragment.fragment ~mtu:576
      (udp ~size:1400 ~src:"36.1.0.5" ~dst:"44.2.0.10" ())
  with
  | Ok (_ :: second :: _) -> second
  | _ -> failwith "trace_shapes: expected at least two fragments"

let icmp_error () =
  let context = Icmp_wire.quote_context (Ipv4_packet.encode (inner ())) in
  Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src:(addr "10.0.0.1")
    ~dst:(addr "44.2.0.10")
    (Ipv4_packet.Icmp
       (Icmp_wire.Dest_unreachable
          { code = Icmp_wire.Admin_prohibited; context }))

let packets () =
  [
    inner ();
    ipip ();
    gre ();
    minimal ();
    with_options ();
    tcp ();
    fragment ();
    icmp_error ();
  ]

(* Strings that exercise every escape the writer knows, a control byte
   with no short escape, and UTF-8 that passes through. *)
let awkward = "q\"b\\s\nn\r\t\b\012\001\031 caf\xc3\xa9 /"

let reasons =
  Trace.
    [
      Ingress_filter;
      Transit_filter;
      Firewall awkward;
      Firewall "";
      Ttl_expired;
      No_route;
      Mtu_exceeded;
      Arp_unresolved;
      Not_for_me;
      Link_down;
      Link_loss;
      Link_flap;
      Partitioned;
      Reassembly_timeout;
      Custom awkward;
      Custom "policy-7";
    ]

let events (frame : Trace.frame_info) =
  Trace.
    [
      Send { node = "ch"; frame };
      Transmit { link = "b0<->b1"; frame; bytes = 1420 };
      Forward { node = "hr"; in_iface = "if0"; out_iface = "if1"; frame };
      Drop { node = "vr"; reason = Ttl_expired; frame };
      Deliver { node = "mh"; frame };
      Encapsulate { node = "ha"; frame };
      Decapsulate { node = "mh"; frame };
      Icmp_error { node = "hr"; reason = Ingress_filter; frame };
    ]

(* 0.1 needs 15 significant digits, 1/3 needs 16, 0.1 + 0.2 needs 17; the
   integral ones print with a ".0" suffix or an exponent. *)
let times =
  [
    0.0;
    1.0;
    42.0;
    0.1;
    1.0 /. 3.0;
    0.1 +. 0.2;
    1234.5678;
    1e-7;
    1e21;
    5e-324;
    1e300;
  ]

let golden () =
  let time i = List.nth times (i mod List.length times) in
  let i = ref 0 in
  let record event =
    let r = { Trace.time = time !i; event } in
    incr i;
    r
  in
  let per_packet =
    List.concat
      (List.mapi
         (fun k pkt ->
           List.map record
             (events { Trace.id = k + 1; flow = (k mod 3) + 1; pkt }))
         (packets ()))
  in
  let frame = { Trace.id = max_int; flow = 0; pkt = inner () } in
  let per_reason =
    List.concat_map
      (fun reason ->
        [
          record (Trace.Drop { node = "vr"; reason; frame });
          record (Trace.Icmp_error { node = "vr"; reason; frame });
        ])
      reasons
  in
  let awkward_names =
    List.map record
      Trace.
        [
          Send { node = awkward; frame };
          Transmit { link = awkward; frame; bytes = 0 };
          Forward
            { node = awkward; in_iface = awkward; out_iface = ""; frame };
        ]
  in
  (* Equal as floats, different on the wire: a timestamp memo must key
     on the bits. *)
  let signed_zeros =
    List.map
      (fun time -> { Trace.time; event = Trace.Deliver { node = "mh"; frame } })
      [ 0.0; -0.0; 0.0 ]
  in
  per_packet @ per_reason @ awkward_names @ signed_zeros

(* ---------- random records over the same shapes ---------- *)

let gen_name =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "ch"; "mh"; "ha"; "if0"; ""; awkward ];
        string_size ~gen:char (int_bound 12);
        string_size ~gen:printable (int_bound 12);
      ])

let gen_reason =
  QCheck.Gen.(
    oneof
      [
        oneofl reasons;
        map (fun s -> Trace.Firewall s) gen_name;
        map (fun s -> Trace.Custom s) gen_name;
      ])

let gen_time =
  QCheck.Gen.(
    oneof
      [
        oneofl times;
        map
          (fun f -> if Float.is_finite f then Float.abs f else 0.5)
          float;
        map (fun n -> float_of_int n /. 1000.) (int_bound 100_000_000);
        map (fun n -> float_of_int n) (int_bound 1_000_000);
      ])

let gen_packet =
  QCheck.Gen.(
    oneof
      [
        oneofl (packets ());
        map
          (fun size -> udp ~size ~src:"36.1.0.5" ~dst:"44.2.0.10" ())
          (int_bound 1400);
        map
          (fun size ->
            encap
              (Ipv4_packet.Min_encap
                 (udp ~size ~src:"36.1.0.5" ~dst:"44.2.0.10" ()))
              Ipv4_packet.P_minimal)
          (int_bound 200);
      ])

let gen =
  QCheck.Gen.(
    let* time = gen_time in
    let* pkt = gen_packet in
    let* id = oneof [ small_nat; oneofl [ 0; max_int ] ] in
    let* flow = small_nat in
    let* node = gen_name in
    let* other = gen_name in
    let* reason = gen_reason in
    let* bytes = small_nat in
    let frame = { Trace.id; flow; pkt } in
    let+ event =
      oneofl
        Trace.
          [
            Send { node; frame };
            Transmit { link = node; frame; bytes };
            Forward { node; in_iface = other; out_iface = node; frame };
            Drop { node; reason; frame };
            Deliver { node; frame };
            Encapsulate { node; frame };
            Decapsulate { node; frame };
            Icmp_error { node; reason; frame };
          ]
    in
    { Trace.time; event })
