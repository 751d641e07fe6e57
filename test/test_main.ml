(* Cross-check RFC 1624 incremental checksums against full recomputes on
   every forwarded packet in every suite. *)
let () = Netsim.Net.set_checksum_debug true

let () =
  Alcotest.run "mobility4x4"
    (List.concat
       [
         Suite_ipv4_addr.suites;
         Suite_engine.suites;
         Suite_fragment.suites;
         Suite_routing.suites;
         Suite_filter.suites;
         Suite_checksum.suites;
         Suite_wire.suites;
         Suite_packet.suites;
         Suite_net.suites;
         Suite_tcp.suites;
         Suite_mobileip.suites;
         Suite_grid.suites;
         Suite_registration.suites;
         Suite_selector.suites;
         Suite_policy_dns.suites;
         Suite_integration.suites;
         Suite_lsr.suites;
         Suite_arp.suites;
         Suite_agents.suites;
         Suite_trace_topo.suites;
         Suite_resilience.suites;
         Suite_fault.suites;
         Suite_chaos.suites;
         Suite_experiments.suites;
         Suite_nfs.suites;
         Suite_auto_attach.suites;
         Suite_misc.suites;
         Suite_obs.suites;
         Suite_recorder.suites;
         Suite_failover.suites;
         Suite_shard.suites;
         Suite_world.suites;
       ])
