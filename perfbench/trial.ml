(* One benchmark trial: build one world from the seed, drive one workload
   through the public functions of the simulator libraries, check the
   simulated outcomes, and print the raw measurements as one JSON line.

   perfbench/run.py starts every trial in a fresh process, so no trial
   inherits the process-wide state (transport registries, trace sinks,
   profiler accumulators) of a world built before it.  [--repeat 2] runs
   trials back to back in one process: the isolation probe that shows
   what that inheritance would cost.

     trial.exe WORKLOAD --seed N [--size N] [--flows N] [--shards N]
               [--count] [--micro] [--spans FILE] [--out DIR] [--repeat K]
               [--setup-only]
     trial.exe reference      (time the host-speed reference, Reference.run)
     trial.exe reference-parallel   (the two-core one, Reference.run_parallel)

   Layers are timed from outside: spans around the calls this file makes
   into each library, and per-call costs from calling the layer's public
   functions on this workload's own inputs ([--micro], after the timed
   phase).  [--count] turns on the exact [Netsim.Prof] call counters
   during the timed phase; its times are not used. *)

open Netsim
module Topo = Scenarios.Topo
module Ha = Mobileip.Home_agent
module Mh = Mobileip.Mobile_host
module Udp = Transport.Udp_service

(* ---------- output ---------- *)

type value = I of int | F of float | S of string | B of bool

let fields : (string * value) list ref = ref []
let put k v = fields := (k, v) :: !fields
let puti k n = put k (I n)
let putf k x = put k (F x)

let print_fields () =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: " k;
      match v with
      | I n -> Printf.bprintf b "%d" n
      | F x when Float.is_finite x -> Printf.bprintf b "%.17g" x
      | F _ -> Buffer.add_string b "null"
      | S s -> Printf.bprintf b "%S" s
      | B v -> Buffer.add_string b (if v then "true" else "false"))
    (List.rev !fields);
  Buffer.add_char b '}';
  print_endline (Buffer.contents b);
  fields := []

(* Correctness checks: every failed check is named in the output and
   makes the trial fail. *)
let failed_checks = ref []
let check name ok = if not ok then failed_checks := name :: !failed_checks

(* ---------- spans ---------- *)

let clock = Unix.gettimeofday

type span = { name : string; parent : string; t0 : float; t1 : float }

let spans = ref []
let open_spans = ref []

let span name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let t0 = clock () in
  let finally () =
    open_spans := List.tl !open_spans;
    spans := { name; parent; t0; t1 = clock () } :: !spans
  in
  Fun.protect ~finally f

let span_seconds name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

let write_spans file ~trial =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"trial\": %d, \"name\": %S, \"parent\": %S, \"start\": %.6f, \
         \"end\": %.6f}\n"
        trial s.name s.parent s.t0 s.t1)
    (List.rev !spans);
  close_out oc

(* [--setup-only]: stop once the world is set up. *)
exception Setup_done

let setup_only = ref false
let setup_done () = if !setup_only then raise Setup_done

(* ---------- inputs ---------- *)

(* Datagram payload sizes: per-packet cost dominates the smallest,
   checksum, copy and encapsulation costs the largest. *)
let mix = [| 32; 512; 1400 |]

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] sizes in equal shares of [mix], in a seeded order: the seed moves
   sizes between flows, never the workload's total bytes. *)
let size_mix r n = shuffle r (Array.init n (fun i -> mix.(i mod Array.length mix)))

(* ---------- the timed phase ---------- *)

(* Run the world to quiescence with the layer counters of [--count]
   around it, and record engine and GC figures. *)
let timed_run ~count net =
  let s0 = Net.stats net in
  let minor0, promoted0, major0 = Gc.counters () in
  let q0 = Gc.quick_stat () in
  if count then begin
    Prof.reset ();
    Prof.set_enabled true
  end;
  let c0 = Sys.time () in
  let w0 = clock () in
  span "run" (fun () -> Net.run net);
  let wall = clock () -. w0 in
  let cpu = Sys.time () -. c0 in
  if count then begin
    Prof.set_enabled false;
    List.iter
      (fun e -> puti ("prof." ^ Prof.label e.Prof.cat) e.Prof.calls)
      (Prof.snapshot ())
  end;
  let minor1, promoted1, major1 = Gc.counters () in
  let q1 = Gc.quick_stat () in
  let s1 = Net.stats net in
  let events = s1.Engine.executed - s0.Engine.executed in
  check "engine not truncated" (s1.Engine.truncated = 0);
  check "engine drained" (s1.Engine.pending = 0);
  putf "wall_s" wall;
  putf "cpu_s" cpu;
  puti "events" events;
  puti "max_pending" s1.Engine.max_pending;
  putf "sim_end" (Net.now net);
  putf "minor_words" (minor1 -. minor0);
  putf "promoted_words" (promoted1 -. promoted0);
  putf "major_words" (major1 -. major0);
  puti "minor_gcs" (q1.Gc.minor_collections - q0.Gc.minor_collections);
  puti "major_gcs" (q1.Gc.major_collections - q0.Gc.major_collections);
  (* What the world holds once its garbage is gone: the unbounded trace
     log shows up here. *)
  Gc.full_major ();
  let st = Gc.stat () in
  putf "live_heap_mb" (float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. 1e6)

let finish ~digest_parts ~attempted ~failed =
  let digest = Digest.to_hex (Digest.string (String.concat "|" digest_parts)) in
  put "digest" (S digest);
  puti "attempted" attempted;
  puti "failed" failed;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  putf "top_heap_mb" (float_of_int (top * (Sys.word_size / 8)) /. 1e6)

(* ---------- per-call costs (--micro) ---------- *)

(* Median nanoseconds per call of [f i] over seven batches, each batch
   long enough (>= 5 ms) for the clock to resolve it; [i] counts calls so
   the probe can cycle through the workload's inputs. *)
let ns_per_call f =
  let batch n =
    let t0 = clock () in
    for i = 0 to n - 1 do
      f i
    done;
    clock () -. t0
  in
  let rec calibrate n = if batch n >= 0.005 || n >= 1 lsl 24 then n else calibrate (n * 2) in
  let n = calibrate 1 in
  let samples = Array.init 7 (fun _ -> batch n /. float_of_int n) in
  Array.sort compare samples;
  samples.(3) *. 1e9

let udp_packet ~src ~dst size =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src ~dst
    (Ipv4_packet.Udp
       (Udp_wire.make ~src_port:47000 ~dst_port:9 (Bytes.make size 'q')))

(* A record sample shaped like one tunneled datagram's trace, at the
   workload's payload sizes. *)
let sample_records sizes =
  let a = Ipv4_addr.of_string in
  let records = ref [] in
  Array.iteri
    (fun i size ->
      let inner = udp_packet ~src:(a "44.2.0.10") ~dst:(a "36.1.0.5") size in
      let outer =
        Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src:(a "36.1.0.2")
          ~dst:(a "131.7.0.100") inner
      in
      let fr id pkt = { Trace.id; flow = i; pkt } in
      let t = float_of_int i *. 0.001 in
      let bytes pkt = Ipv4_packet.byte_length pkt in
      List.iter
        (fun event -> records := { Trace.time = t; event } :: !records)
        [
          Trace.Send { node = "ch"; frame = fr (3 * i) inner };
          Trace.Transmit
            { link = "b1<->b2"; frame = fr (3 * i) inner; bytes = bytes inner };
          Trace.Forward
            {
              node = "b1";
              in_iface = "l1";
              out_iface = "r1";
              frame = fr (3 * i) inner;
            };
          Trace.Encapsulate { node = "ha"; frame = fr ((3 * i) + 1) outer };
          Trace.Transmit
            {
              link = "hr<->b0";
              frame = fr ((3 * i) + 1) outer;
              bytes = bytes outer;
            };
          Trace.Decapsulate { node = "mh"; frame = fr ((3 * i) + 2) inner };
          Trace.Deliver { node = "mh"; frame = fr ((3 * i) + 2) inner };
        ])
    sizes;
  Array.of_list (List.rev !records)

(* The flight recorder's records from a capture run. *)
let captured : Trace.record array ref = ref [||]

(* A three-node line (host, router, host) for the per-hop cost. *)
let hop_world () =
  let net = Net.create () in
  Net.set_tracing net false;
  let p1 = Ipv4_addr.Prefix.of_string "10.1.0.0/24"
  and p2 = Ipv4_addr.Prefix.of_string "10.2.0.0/24" in
  let s1 = Net.add_segment net ~name:"s1" ()
  and s2 = Net.add_segment net ~name:"s2" () in
  let a = Net.add_host net "a" and r = Net.add_router net "r"
  and b = Net.add_host net "b" in
  let h p n = Ipv4_addr.Prefix.host p n in
  ignore (Net.attach a s1 ~ifname:"eth0" ~addr:(h p1 10) ~prefix:p1);
  ignore (Net.attach r s1 ~ifname:"l" ~addr:(h p1 1) ~prefix:p1);
  ignore (Net.attach r s2 ~ifname:"r" ~addr:(h p2 1) ~prefix:p2);
  ignore (Net.attach b s2 ~ifname:"eth0" ~addr:(h p2 10) ~prefix:p2);
  Routing.add_default (Net.routing a) ~gateway:(h p1 1) ~iface:"eth0";
  Routing.add_default (Net.routing b) ~gateway:(h p2 1) ~iface:"eth0";
  let got = ref 0 in
  Net.set_protocol_handler b (Ipv4_packet.P_other 253) (fun _ _ _ -> incr got);
  (net, a, h p1 10, h p2 10, got)

(* Per-call costs on the workload's own inputs: [sizes] are its payload
   sizes, [dests] its destinations, [net] its world (routing tables, and
   the transport registry it left behind). *)
let micro ~seed ~out ~sizes ~dests net =
  span "micro" @@ fun () ->
  let r = rng seed 0x3c40 in
  let tables = Array.of_list (List.map Net.routing (Net.nodes net)) in
  let dests = Array.of_list dests in
  let pairs =
    Array.init 4096 (fun j ->
        ( tables.(j mod Array.length tables),
          dests.(Random.State.int r (Array.length dests)) ))
  in
  putf "micro.routing_ns"
    (span "micro.routing" (fun () ->
         ns_per_call (fun i ->
             let t, d = pairs.(i land 4095) in
             ignore (Sys.opaque_identity (Routing.lookup t d)))));
  let nsz = Array.length sizes in
  let a = Ipv4_addr.of_string in
  (* The data plane sums a 20-byte header or a UDP segment per call. *)
  let ck_bufs =
    Array.concat
      [
        Array.map (fun s -> Bytes.make (s + 8) 'c') sizes;
        Array.make nsz (Bytes.make 20 'h');
      ]
  in
  let nck = Array.length ck_bufs in
  putf "micro.checksum_ns"
    (span "micro.checksum" (fun () ->
         ns_per_call (fun i ->
             ignore (Sys.opaque_identity (Checksum.compute ck_bufs.(i mod nck))))));
  let inner =
    Array.map (fun s -> udp_packet ~src:(a "44.2.0.10") ~dst:(a "36.1.0.5") s) sizes
  in
  let wrap p =
    Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src:(a "36.1.0.2")
      ~dst:(a "131.7.0.100") p
  in
  let outer = Array.map wrap inner in
  putf "micro.wrap_ns"
    (span "micro.encap" (fun () ->
         ns_per_call (fun i -> ignore (Sys.opaque_identity (wrap inner.(i mod nsz))))));
  putf "micro.unwrap_ns"
    (span "micro.encap" (fun () ->
         ns_per_call (fun i ->
             ignore (Sys.opaque_identity (Mobileip.Encap.unwrap outer.(i mod nsz))))));
  (* Engine dispatch: schedule and run a batch of empty events. *)
  let eng = Engine.create () in
  putf "micro.event_ns"
    (span "micro.engine" (fun () ->
         ns_per_call (fun _ ->
             for _ = 1 to 100 do
               Engine.after eng 0.001 ignore
             done;
             Engine.run eng)
         /. 100.0));
  (* Send-and-drain of one datagram over one router. *)
  let hnet, hsrc, hsrc_addr, hdst_addr, got = hop_world () in
  let hop_pkts =
    Array.map
      (fun s ->
        Ipv4_packet.make ~protocol:(Ipv4_packet.P_other 253) ~src:hsrc_addr
          ~dst:hdst_addr (Ipv4_packet.Raw (Bytes.make s 'p')))
      sizes
  in
  ignore (Net.send hsrc hop_pkts.(0));
  Net.run hnet;
  putf "micro.hop_ns"
    (span "micro.net" (fun () ->
         ns_per_call (fun i ->
             ignore (Net.send hsrc hop_pkts.(i mod nsz));
             Net.run hnet)));
  check "hop probe delivered" (!got > 1);
  (* Capture consumers, per record: on the records the run captured, or,
     when it captured none, on a tunneled datagram's records. *)
  let records =
    match !captured with [||] -> sample_records sizes | recs -> recs
  in
  let nrec = Array.length records in
  let cap_path = Filename.concat out "micro.cap" in
  let oc = open_out_bin cap_path in
  putf "micro.jsonl_ns"
    (span "micro.trace" (fun () ->
         ns_per_call (fun i -> Netobs.Export.sink_to_channel oc records.(i mod nrec))));
  seek_out oc 0;
  putf "micro.pcap_ns"
    (span "micro.trace" (fun () ->
         ns_per_call (fun i -> Netobs.Pcap.sink_to_channel oc records.(i mod nrec))));
  close_out oc;
  Sys.remove cap_path;
  let recorder = Netobs.Recorder.create ~capacity:4096 () in
  putf "micro.recorder_ns"
    (span "micro.trace" (fun () ->
         ns_per_call (fun i -> Netobs.Recorder.note recorder records.(i mod nrec))));
  (* Worst-case transport lookup: the first-registered node sits at the
     far end of the process-wide registry.  Find it, then time it. *)
  let nodes = Array.of_list (Net.nodes net) in
  Array.iter (fun n -> ignore (Udp.get n)) nodes;
  let worst = ref nodes.(0) and worst_t = ref 0.0 in
  Array.iter
    (fun n ->
      let t0 = clock () in
      for _ = 1 to 3 do
        ignore (Sys.opaque_identity (Udp.get n))
      done;
      let t = clock () -. t0 in
      if t > !worst_t then begin
        worst := n;
        worst_t := t
      end)
    nodes;
  putf "micro.udp_get_ns"
    (span "micro.transport" (fun () ->
         ns_per_call (fun _ -> ignore (Sys.opaque_identity (Udp.get !worst)))))

(* ---------- tunnel-flood and capture-flood ---------- *)

(* The registration lifetime is shorter than every tunnel-flood run, so
   the tunnel stays up only if keepalive renews it. *)
let flood_lifetime = 20
let keepalive_margin = 5.0

(* Capture consumers attached the way --trace-json, --pcap and the
   flight recorder attach them, streaming to files under [out]. *)
type capture = {
  jsonl_path : string;
  pcap_path : string;
  jsonl_oc : out_channel;
  pcap_oc : out_channel;
  sinks : Trace.sink list;
  recorder : Netobs.Recorder.t;
  lines : int ref;
  packets : int ref;
}

let attach_capture ~out =
  let jsonl_path = Filename.concat out "capture.jsonl"
  and pcap_path = Filename.concat out "capture.pcap" in
  let jsonl_oc = open_out jsonl_path and pcap_oc = open_out_bin pcap_path in
  Netobs.Pcap.write_header pcap_oc;
  let lines = ref 0 and packets = ref 0 in
  let jsonl =
    Trace.add_sink (fun r ->
        incr lines;
        Netobs.Export.sink_to_channel jsonl_oc r)
  in
  let pcap =
    Trace.add_sink (fun r ->
        match Netobs.Pcap.packet_of_record r with
        | Some (time, payload) ->
            incr packets;
            Netobs.Pcap.append_packet pcap_oc ~time payload
        | None -> ())
  in
  let recorder = Netobs.Recorder.create ~capacity:4096 () in
  Netobs.Recorder.install recorder;
  {
    jsonl_path;
    pcap_path;
    jsonl_oc;
    pcap_oc;
    sinks = [ jsonl; pcap ];
    recorder;
    lines;
    packets;
  }

(* Remove every consumer, then check what was written against the trace
   log and that nothing process-wide is left listening. *)
let detach_capture c trace =
  List.iter Trace.remove_sink c.sinks;
  Netobs.Recorder.uninstall c.recorder;
  close_out c.jsonl_oc;
  close_out c.pcap_oc;
  let probe = Trace.create () in
  Trace.set_enabled probe false;
  check "capture consumers removed" (not (Trace.interested probe));
  let records = Trace.records trace in
  let transmits =
    List.length
      (List.filter
         (fun r -> match r.Trace.event with Trace.Transmit _ -> true | _ -> false)
         records)
  in
  let file_lines =
    let ic = open_in_bin c.jsonl_path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  let pcap_read =
    match Netobs.Pcap.read_file c.pcap_path with
    | Ok pkts -> List.length pkts
    | Error _ -> -1
  in
  captured := Array.of_list (Netobs.Recorder.records c.recorder);
  let bytes =
    (Unix.stat c.jsonl_path).Unix.st_size + (Unix.stat c.pcap_path).Unix.st_size
  in
  Sys.remove c.jsonl_path;
  Sys.remove c.pcap_path;
  check "jsonl lines = records written"
    (file_lines = !(c.lines) && file_lines = Trace.length trace);
  check "pcap packets = transmit records"
    (pcap_read = !(c.packets) && pcap_read = transmits);
  check "recorder saw every record"
    (Netobs.Recorder.seen c.recorder = Trace.length trace);
  puti "trace_records" (Trace.length trace);
  puti "trace_bytes" bytes;
  puti "jsonl_lines" file_lines;
  puti "pcap_packets" pcap_read

let flood ~seed ~flows ~exchanges ~capture ~count ~out =
  let sizes = size_mix (rng seed 0xf100d) flows in
  let topo, net =
    span "setup" (fun () ->
        let topo =
          span "setup.build" (fun () -> Topo.build ~mh_lifetime:flood_lifetime ())
        in
        span "setup.settle" (fun () ->
            Topo.roam topo ();
            Mh.enable_keepalive topo.Topo.mh ~margin:keepalive_margin
              ~max_renewals:100_000 ());
        (topo, topo.Topo.net))
  in
  setup_done ();
  let trace = Net.trace net in
  Trace.clear trace;
  Net.set_tracing net capture;
  let cap = if capture then Some (attach_capture ~out) else None in
  let mh_udp = Udp.get topo.Topo.mh_node and ch_udp = Udp.get topo.Topo.ch_node in
  let per_flow = Array.make flows 0 and per_bytes = Array.make flows 0 in
  let received i (d : Udp.datagram) =
    per_flow.(i) <- per_flow.(i) + 1;
    per_bytes.(i) <- per_bytes.(i) + Bytes.length d.Udp.payload
  in
  let replies = Array.make flows 0 in
  let running = ref flows in
  let base_port = 47000 in
  Udp.listen ch_udp ~port:9 (fun svc d ->
      let i = d.Udp.src_port - base_port in
      received i d;
      ignore
        (Udp.send svc ~src:d.Udp.dst ~dst:d.Udp.src ~src_port:9
           ~dst_port:d.Udp.src_port (Bytes.make sizes.(i) 'r')));
  let request i =
    ignore
      (Udp.send mh_udp ~src:topo.Topo.mh_home_addr ~dst:topo.Topo.ch_addr
         ~src_port:(base_port + i) ~dst_port:9 (Bytes.make sizes.(i) 'q'))
  in
  let eng = Net.engine net in
  for i = 0 to flows - 1 do
    Udp.listen mh_udp ~port:(base_port + i) (fun _ d ->
        received i d;
        replies.(i) <- replies.(i) + 1;
        if replies.(i) < exchanges then request i
        else begin
          decr running;
          (* Let the world drain once the last flow is done. *)
          if !running = 0 then Mh.disable_keepalive topo.Topo.mh
        end);
    Engine.after eng (float_of_int i *. 0.003) (fun () -> request i)
  done;
  let t_start = Net.now net in
  timed_run ~count net;
  let span_s = Net.now net -. t_start in
  (match cap with Some c -> detach_capture c trace | None -> ());
  let delivered = Array.fold_left ( + ) 0 per_flow in
  let expected = 2 * flows * exchanges in
  let mh = topo.Topo.mh and ha = topo.Topo.ha in
  let attempts = Mh.registration_attempts mh in
  let accepted = Ha.registrations_accepted ha in
  let denied = Ha.registrations_denied ha in
  check "delivered = expected" (delivered = expected);
  check "every flow completed" (Array.for_all (fun n -> n = 2 * exchanges) per_flow);
  check "keepalive held the binding"
    (Mh.registered mh && Ha.binding_for ha topo.Topo.mh_home_addr <> None);
  check "every registration accepted" (accepted = attempts && denied = 0);
  (* Runs longer than the lifetime must have renewed along the way. *)
  check "keepalive renewed"
    (span_s < float_of_int flood_lifetime || accepted >= 2);
  puti "flows" flows;
  puti "delivered" delivered;
  puti "expected" expected;
  puti "sent" expected;
  puti "regs_attempted" attempts;
  puti "regs_accepted" accepted;
  puti "regs_denied" denied;
  puti "retransmissions" (attempts - accepted - denied);
  puti "bindings_final" (List.length (Ha.bindings ha));
  puti "handovers" 0;
  puti "lost" 0;
  puti "tunneled" (Ha.packets_tunneled ha);
  puti "encapsulated" (Mh.packets_encapsulated mh);
  puti "shards" (Net.shard_count net);
  putf "span_sim_s" span_s;
  if not capture then begin
    puti "trace_records" (Trace.length trace);
    puti "trace_bytes" 0
  end;
  finish
    ~digest_parts:
      (Array.to_list
         (Array.mapi (fun i n -> Printf.sprintf "%d:%d" n per_bytes.(i)) per_flow)
      @ [
          string_of_int accepted;
          string_of_int (List.length (Ha.bindings ha));
          Printf.sprintf "%.9f" (Net.now net);
        ])
    ~attempted:(expected + attempts)
    ~failed:(expected - delivered + (attempts - accepted));
  let dests =
    [ topo.Topo.ch_addr; topo.Topo.mh_home_addr; Ha.address ha ]
    @ Option.to_list (Mh.care_of_address mh)
  in
  (net, sizes, dests)

(* ---------- roaming-population ---------- *)

(* H home networks (a home agent and [per_home] mobile hosts each), H
   visited networks and one correspondent, every network a stub router
   on a point-to-point link to one core router.  Home and visited
   networks grow with the population, so simulated work per host stays
   constant and any growth in host time per event is the simulator's own.

   Open loop in simulated time: the correspondent sends one datagram to
   every mobile host's home address at the start of each 2 s round; each
   host moves [moves] times, to seeded visited networks at seeded times
   in the middle of seeded rounds.  A handover completes in tens of
   milliseconds, well before the next round, so every datagram has a
   binding to follow and none may be lost. *)
let per_home = 16
let rounds = 40
let moves = 3
let round_s = 2.0

let roaming ~seed ~hosts ~count =
  let homes = max 1 (hosts / per_home) in
  let hosts = homes * per_home in
  let visited = homes in
  let r = rng seed 0x40a3 in
  (* Inputs: per host, [moves] distinct rounds, a time inside each, and a
     visited network different from the one it leaves. *)
  let plan =
    Array.init hosts (fun _ ->
        let chosen = Array.sub (shuffle r (Array.init (rounds - 1) Fun.id)) 0 moves in
        Array.sort compare chosen;
        let prev = ref (-1) in
        Array.map
          (fun k ->
            let v =
              let v = Random.State.int r visited in
              if v = !prev then (v + 1) mod visited else v
            in
            prev := v;
            ((float_of_int k *. round_s) +. 0.6 +. Random.State.float r 0.8, v))
          chosen)
  in
  let recv = Array.make hosts 0 in
  let on_reg_ok = ref 0 and on_reg_fail = ref 0 in
  let a = Ipv4_addr.of_octets and host = Ipv4_addr.Prefix.host in
  let net, core, has, mhs, vnets, ch_udp, ch_addr =
    span "setup" @@ fun () ->
    span "setup.build" @@ fun () ->
    let net = Net.create () in
    Net.set_tracing net false;
    let core = Net.add_router net "core" in
    let links = ref 0 in
    let stub name lan =
      let k = !links in
      incr links;
      let b = k * 4 in
      let p =
        Ipv4_addr.Prefix.make (a 10 (b lsr 16) ((b lsr 8) land 255) (b land 255)) 30
      in
      let rt = Net.add_router net name in
      ignore
        (Net.p2p net ~latency:0.005 ~prefix:p (core, name, host p 1) (rt, "wan", host p 2));
      let seg = Net.add_segment net ~name:(name ^ "-lan") () in
      ignore (Net.attach rt seg ~ifname:"lan" ~addr:(host lan 1) ~prefix:lan);
      Routing.add_default (Net.routing rt) ~gateway:(host p 1) ~iface:"wan";
      Routing.add (Net.routing core) ~gateway:(host p 2) ~prefix:lan ~iface:name ();
      seg
    in
    let add_host name seg addr lan =
      let n = Net.add_host net name in
      let ifc = Net.attach n seg ~ifname:"eth0" ~addr ~prefix:lan in
      Routing.add_default (Net.routing n) ~gateway:(host lan 1) ~iface:"eth0";
      (n, ifc)
    in
    let ch_lan = Ipv4_addr.Prefix.make (a 44 2 0 0) 24 in
    let ch_seg = stub "chr" ch_lan in
    let ch_node, _ = add_host "ch" ch_seg (host ch_lan 10) ch_lan in
    let vnets =
      Array.init visited (fun v ->
          let lan = Ipv4_addr.Prefix.make (a (64 + (v lsr 8)) (v land 255) 0 0) 16 in
          (stub (Printf.sprintf "vr%d" v) lan, lan))
    in
    let home_nets =
      Array.init homes (fun h ->
          let lan = Ipv4_addr.Prefix.make (a 20 (h lsr 8) (h land 255) 0) 24 in
          let seg = stub (Printf.sprintf "hr%d" h) lan in
          let ha_node, ha_if = add_host (Printf.sprintf "ha%d" h) seg (host lan 2) lan in
          (lan, seg, Ha.create ha_node ~home_iface:ha_if ()))
    in
    let mhs =
      Array.init hosts (fun i ->
          let lan, seg, _ = home_nets.(i / per_home) in
          let home = host lan (10 + (i mod per_home)) in
          let n, ifc = add_host (Printf.sprintf "mh%d" i) seg home lan in
          let mh =
            Mh.create n ~iface:ifc ~home ~home_prefix:lan ~home_agent:(host lan 2) ()
          in
          Udp.listen (Udp.get n) ~port:9 (fun _ _ -> recv.(i) <- recv.(i) + 1);
          mh)
    in
    let has = Array.map (fun (_, _, ha) -> ha) home_nets in
    (net, core, has, mhs, vnets, Udp.get ch_node, host ch_lan 10)
  in
  span "setup" (fun () -> span "setup.settle" (fun () -> Net.run net));
  setup_done ();
  let eng = Net.engine net in
  let t0 = Net.now net in
  let payload = Bytes.make 64 'd' in
  for k = 0 to rounds - 1 do
    Engine.schedule eng ~at:(t0 +. (float_of_int k *. round_s)) (fun () ->
        Array.iter
          (fun mh ->
            ignore
              (Udp.send ch_udp ~src:ch_addr ~dst:(Mh.home_address mh) ~src_port:9
                 ~dst_port:9 payload))
          mhs)
  done;
  Array.iteri
    (fun i moves_i ->
      Array.iter
        (fun (at, v) ->
          Engine.schedule eng ~at:(t0 +. at) (fun () ->
              let seg, lan = vnets.(v) in
              Mh.move_to_static mhs.(i) seg ~addr:(host lan (10 + i)) ~prefix:lan
                ~gateway:(host lan 1)
                ~on_registered:(fun ok -> incr (if ok then on_reg_ok else on_reg_fail))
                ()))
        moves_i)
    plan;
  timed_run ~count net;
  let delivered = Array.fold_left ( + ) 0 recv in
  let sent = hosts * rounds in
  let handovers = hosts * moves in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let attempts = sum Mh.registration_attempts mhs in
  let accepted = sum Ha.registrations_accepted has in
  let denied = sum Ha.registrations_denied has in
  let bindings = sum (fun ha -> List.length (Ha.bindings ha)) has in
  check "delivered = expected" (delivered = sent);
  check "every registration accepted"
    (!on_reg_ok = handovers && !on_reg_fail = 0 && accepted = handovers && denied = 0);
  check "final bindings = hosts" (bindings = hosts);
  puti "hosts" hosts;
  puti "delivered" delivered;
  puti "expected" sent;
  puti "sent" sent;
  puti "regs_attempted" attempts;
  puti "regs_accepted" accepted;
  puti "regs_denied" denied;
  puti "retransmissions" (attempts - accepted - denied);
  puti "bindings_final" bindings;
  puti "handovers" handovers;
  puti "lost" (sent - delivered);
  puti "tunneled" (sum Ha.packets_tunneled has);
  puti "encapsulated" (sum Mh.packets_encapsulated mhs);
  puti "shards" (Net.shard_count net);
  puti "core_routes" (List.length (Routing.routes (Net.routing core)));
  puti "trace_records" 0;
  puti "trace_bytes" 0;
  finish
    ~digest_parts:
      (Array.to_list
         (Array.mapi
            (fun i n ->
              Printf.sprintf "%d@%s" n
                (match Mh.care_of_address mhs.(i) with
                | Some a -> Ipv4_addr.to_string a
                | None -> "home"))
            recv)
      @ [
          string_of_int accepted;
          string_of_int bindings;
          Printf.sprintf "%.9f" (Net.now net);
        ])
    ~attempted:(sent + attempts)
    ~failed:(sent - delivered + (attempts - accepted));
  let dests =
    ch_addr
    :: List.concat_map
         (fun mh -> Mh.home_address mh :: Option.to_list (Mh.care_of_address mh))
         (Array.to_list mhs)
  in
  (net, [| 64 |], dests)

(* ---------- sharded-regions ---------- *)

(* The hub-and-regions world of experiment E21: R regions (router,
   Ethernet segment, H hosts) behind a hub over 5 ms links, the
   conservative lookahead.  Per region two local ping-pong flows and one
   cross-region flow, on raw protocol handlers with per-shard payload
   pools and per-slot counters each written by one shard only. *)
let regions = 8
let hosts_per_region = 4
let proto = Ipv4_packet.P_other 253

type slot = {
  a : Net.node;
  a_addr : Ipv4_addr.t;
  b : Net.node;
  b_addr : Ipv4_addr.t;
  budget : int;
  req : int;
  rep : int;
}

(* Cross-region flows carry fixed sizes, requests smaller than replies as
   in E21; the seed sizes the region-local flows.  A frame crossing shards
   is released into the receiving shard's pool.  With one size pair on
   every cross-region flow, the flows crossing the cut each way recycle
   each other's frames.  Seeded sizes there would leave a pool holding up
   to its per-class cap of the other shard's frames, and the live and top
   heaps would depend on the seed (0.18 to 0.69 MB live). *)
let cross_req = mix.(1)
let cross_rep = mix.(2)

let sharded ~seed ~scale ~shards ~count =
  let exchanges = 200 * scale and cross_exchanges = 50 * scale in
  let r = rng seed 0x5a4d in
  let sizes = size_mix r (regions * 2 * 2) in
  let next = ref 0 in
  let size () =
    incr next;
    sizes.(!next - 1)
  in
  let prefix = Ipv4_addr.Prefix.of_string in
  let net, region_hosts =
    span "setup" @@ fun () ->
    span "setup.build" @@ fun () ->
    let net = Net.create () in
    Net.set_tracing net false;
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
      let seg = Net.add_segment net ~name:(Printf.sprintf "lan%d" k) ~latency:0.0005 () in
      let rr_lan = Ipv4_addr.Prefix.host rp 1 in
      ignore (Net.attach rr seg ~ifname:"lan" ~addr:rr_lan ~prefix:rp);
      Routing.add_default (Net.routing rr) ~gateway:hub_addr ~iface:"wan";
      Routing.add (Net.routing hub) ~gateway:rr_addr ~prefix:rp
        ~iface:(Printf.sprintf "r%d" k) ();
      Array.init hosts_per_region (fun h ->
          let n = Net.add_host net (Printf.sprintf "h%d-%d" k h) in
          let ad = Ipv4_addr.Prefix.host rp (10 + h) in
          ignore (Net.attach n seg ~ifname:"eth0" ~addr:ad ~prefix:rp);
          Routing.add_default (Net.routing n) ~gateway:rr_lan ~iface:"eth0";
          (n, ad))
    in
    (net, Array.init regions region)
  in
  let slots =
    Array.of_list
      (List.concat
         (List.init regions (fun k ->
              let h = region_hosts.(k) in
              let far = region_hosts.((k + 1) mod regions) in
              let pair budget ~req ~rep (a, a_addr) (b, b_addr) =
                { a; a_addr; b; b_addr; budget; req; rep }
              in
              let local = pair exchanges in
              let l1 = local ~req:(size ()) ~rep:(size ()) h.(0) h.(1) in
              let l2 = local ~req:(size ()) ~rep:(size ()) h.(2) h.(3) in
              [
                pair cross_exchanges ~req:cross_req ~rep:cross_rep h.(0) far.(0);
                l1;
                l2;
              ])))
  in
  let nslots = Array.length slots in
  let recv_a = Array.make nslots 0 and recv_b = Array.make nslots 0 in
  let bytes_a = Array.make nslots 0 and bytes_b = Array.make nslots 0 in
  let sent = Array.make nslots 0 in
  let send_slot i ~src ~from_node ~dst size =
    ignore
      (Net.send from_node
         (Ipv4_packet.make ~ident:i ~protocol:proto ~src ~dst
            (Ipv4_packet.Raw (Pool.alloc (Net.node_pool from_node) size))))
  in
  let handler node _ (pkt : Ipv4_packet.t) =
    let i = pkt.Ipv4_packet.ident in
    let s = slots.(i) in
    let len = Ipv4_packet.payload_byte_length pkt.Ipv4_packet.payload in
    (match pkt.Ipv4_packet.payload with
    | Ipv4_packet.Raw b -> Pool.release (Net.node_pool node) b
    | _ -> ());
    if node == s.b then begin
      recv_b.(i) <- recv_b.(i) + 1;
      bytes_b.(i) <- bytes_b.(i) + len;
      send_slot i ~src:s.b_addr ~from_node:s.b ~dst:s.a_addr s.rep
    end
    else begin
      recv_a.(i) <- recv_a.(i) + 1;
      bytes_a.(i) <- bytes_a.(i) + len;
      if sent.(i) < s.budget then begin
        sent.(i) <- sent.(i) + 1;
        send_slot i ~src:s.a_addr ~from_node:s.a ~dst:s.b_addr s.req
      end
    end
  in
  span "setup" (fun () ->
      span "setup.attach" (fun () ->
          Array.iter
            (fun (n, _) -> Net.set_protocol_handler n proto handler)
            (Array.concat (Array.to_list region_hosts)));
      (* The exact call counters are process-wide, so counting runs use
         the sequential merged executor: same partition, same simulated
         work, one domain. *)
      span "setup.partition" (fun () ->
          if shards > 1 then Net.set_shards ~parallel:(not count) ~seed net shards);
      span "setup.settle" (fun () -> Net.run net));
  setup_done ();
  Array.iteri
    (fun i s ->
      Engine.after (Net.node_engine s.a)
        (float_of_int i *. 0.0003)
        (fun () ->
          sent.(i) <- 1;
          send_slot i ~src:s.a_addr ~from_node:s.a ~dst:s.b_addr s.req))
    slots;
  timed_run ~count net;
  let delivered = Array.fold_left ( + ) 0 recv_a + Array.fold_left ( + ) 0 recv_b in
  let expected = Array.fold_left (fun acc s -> acc + (2 * s.budget)) 0 slots in
  check "delivered = expected" (delivered = expected);
  puti "delivered" delivered;
  puti "expected" expected;
  puti "sent" expected;
  List.iter
    (fun k -> puti k 0)
    [
      "regs_attempted"; "regs_accepted"; "regs_denied"; "retransmissions";
      "bindings_final"; "handovers"; "lost"; "tunneled"; "encapsulated";
      "trace_records"; "trace_bytes";
    ];
  puti "shards" (Net.shard_count net);
  putf "lookahead_s" (Net.lookahead net);
  finish
    ~digest_parts:
      (Array.to_list
         (Array.mapi
            (fun i a ->
              Printf.sprintf "%d:%d/%d:%d" a bytes_a.(i) recv_b.(i) bytes_b.(i))
            recv_a)
      @ [ Printf.sprintf "%.9f" (Net.now net) ])
    ~attempted:expected ~failed:(expected - delivered);
  let dests = Array.to_list (Array.map snd (Array.concat (Array.to_list region_hosts))) in
  (net, sizes, dests)

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and size = ref 0 and shards = ref 2 in
  let count = ref false and micro_on = ref false and spans_file = ref "" in
  let out = ref "." and repeat = ref 1 and flows = ref 0 in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--size", Arg.Set_int size, "N workload size (0: the workload's default)");
      ("--shards", Arg.Set_int shards, "N shards for sharded-regions");
      ("--count", Arg.Set count, " exact layer call counters during the run");
      ("--micro", Arg.Set micro_on, " per-call costs after the run");
      ("--spans", Arg.Set_string spans_file, "FILE append spans as JSONL");
      ("--out", Arg.Set_string out, "DIR scratch directory for capture files");
      ("--repeat", Arg.Set_int repeat, "K trials in this process");
      ("--flows", Arg.Set_int flows, "N flows for the flood workloads");
      ("--setup-only", Arg.Set setup_only, " stop once the world is set up");
    ]
    (fun w -> workload := w)
    "trial.exe WORKLOAD --seed N [options]";
  if !workload = "reference" || !workload = "reference-parallel" then begin
    put "workload" (S !workload);
    let c0 = Sys.time () in
    putf "ref_s"
      (if !workload = "reference" then Reference.run () else Reference.run_parallel ());
    putf "ref_cpu_s" (Sys.time () -. c0);
    put "ok" (B true);
    print_fields ();
    exit 0
  end;
  let default d = if !size > 0 then !size else d in
  for trial = 1 to !repeat do
    failed_checks := [];
    spans := [];
    put "workload" (S !workload);
    puti "seed" !seed;
    puti "trial" trial;
    let flows d = if !flows > 0 then !flows else d in
    (match
       match !workload with
       | "tunnel-flood" ->
           flood ~seed:!seed ~flows:(flows 128) ~exchanges:(default 150)
             ~capture:false ~count:!count ~out:!out
       | "capture-flood" ->
           flood ~seed:!seed ~flows:(flows 32) ~exchanges:(default 1)
             ~capture:true ~count:!count ~out:!out
       | "roaming-population" ->
           roaming ~seed:!seed ~hosts:(default 1024) ~count:!count
       | "sharded-regions" ->
           sharded ~seed:!seed ~scale:(default 8) ~shards:!shards ~count:!count
       | w ->
           prerr_endline ("trial.exe: unknown workload " ^ w);
           exit 2
     with
    | net, sizes, dests ->
        if !micro_on then micro ~seed:!seed ~out:!out ~sizes ~dests net
    | exception Setup_done -> ());
    List.iter
      (fun k -> putf k (span_seconds k))
      [ "setup"; "setup.build"; "setup.attach"; "setup.partition"; "setup.settle" ];
    put "checks_failed" (S (String.concat "; " (List.rev !failed_checks)));
    put "ok" (B (!failed_checks = []));
    if !spans_file <> "" then write_spans !spans_file ~trial;
    print_fields ()
  done
