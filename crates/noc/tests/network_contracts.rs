//! Contract tests shared by every network organisation: the `Network`
//! trait semantics, class isolation, fairness, saturation behaviour, and
//! configuration generality (radix, VC depth, hops-per-cycle).

use noc::config::{NocConfig, NocConfigBuilder, MAX_VCS_PER_PORT, MIN_VCS_PER_PORT};
use noc::flit::Packet;
use noc::ideal::IdealNetwork;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::reserve::ReservingCore;
use noc::smart::SmartNetwork;
use noc::traffic::{Pattern, TrafficGen};
use noc::types::{MessageClass, NodeId, PacketId};
use noc::zeroload::smart_latency;

/// `run_to_drain` needs `Self: Sized`; a helper for trait objects.
fn drain(net: &mut dyn Network, max_cycles: u64) -> Vec<Delivered> {
    let mut out = Vec::new();
    let deadline = net.now() + max_cycles;
    while net.in_flight() > 0 && net.now() < deadline {
        net.step();
        out.extend(net.drain_delivered());
    }
    out
}

fn orgs(cfg: &NocConfig) -> Vec<(&'static str, Box<dyn Network>)> {
    vec![
        ("mesh", Box::new(MeshNetwork::new(cfg.clone()))),
        ("reserving", Box::new(ReservingCore::new(cfg.clone()))),
        ("smart", Box::new(SmartNetwork::new(cfg.clone()))),
        ("ideal", Box::new(IdealNetwork::new(cfg.clone()))),
    ]
}

#[test]
fn loopback_delivery_works_everywhere() {
    // src == dest models a core hitting its own LLC slice.
    let cfg = NocConfig::paper();
    for (name, mut net) in orgs(&cfg) {
        net.inject(Packet::new(
            PacketId(1),
            NodeId::new(5),
            NodeId::new(5),
            MessageClass::Response,
            5,
        ));
        let d = drain(net.as_mut(), 200);
        assert_eq!(d.len(), 1, "{name} loopback");
        assert_eq!(d[0].hops, 0);
    }
}

#[test]
fn small_and_large_radix_configs_work() {
    for radix in [2u16, 3, 5, 12] {
        let cfg = NocConfigBuilder::new().radix(radix).build().expect("valid");
        let last = (cfg.nodes() - 1) as u16;
        for (name, mut net) in orgs(&cfg) {
            net.inject(Packet::new(
                PacketId(1),
                NodeId::new(0),
                NodeId::new(last),
                MessageClass::Request,
                1,
            ));
            let d = drain(net.as_mut(), 2_000);
            assert_eq!(d.len(), 1, "{name} radix {radix}");
        }
    }
}

#[test]
fn deep_vcs_and_long_packets() {
    let cfg = NocConfigBuilder::new()
        .vc_depth(9)
        .max_packet_len(9)
        .build()
        .expect("valid");
    for (name, mut net) in orgs(&cfg) {
        net.inject(Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(63),
            MessageClass::Response,
            9,
        ));
        let d = drain(net.as_mut(), 2_000);
        assert_eq!(d.len(), 1, "{name}");
    }
}

#[test]
fn every_supported_vc_count_carries_every_class() {
    // The NI has one source queue per class whatever the VC count, so
    // injection must walk classes, not VCs; extra VCs per port sit idle.
    for vcs in MIN_VCS_PER_PORT..=MAX_VCS_PER_PORT {
        let cfg = NocConfigBuilder::new()
            .vcs_per_port(vcs)
            .build()
            .expect("valid");
        for (name, mut net) in orgs(&cfg) {
            for (i, class) in MessageClass::ALL.into_iter().enumerate() {
                net.inject(Packet::new(
                    PacketId(i as u64 + 1),
                    NodeId::new(0),
                    NodeId::new(27),
                    class,
                    1,
                ));
            }
            let d = drain(net.as_mut(), 2_000);
            assert_eq!(d.len(), 3, "{name} with {vcs} VCs per port");
        }
    }
}

#[test]
fn smart_triple_hop_matches_model() {
    // The generalised SMART bypass: with hpc 3, a 6-hop straight route
    // takes two traversals instead of three.
    let cfg = NocConfigBuilder::new()
        .max_hops_per_cycle(3)
        .build()
        .expect("valid");
    let mut net = SmartNetwork::new(cfg.clone());
    net.inject(Packet::new(
        PacketId(1),
        NodeId::new(0),
        NodeId::new(6),
        MessageClass::Request,
        1,
    ));
    let d = net.run_to_drain(200);
    let model = smart_latency(&cfg, NodeId::new(0), NodeId::new(6), 1);
    assert_eq!(d[0].delivered - d[0].packet.created, model);
    // 2 traversals * 3 cycles + inject 1 + eject 2 = 9.
    assert_eq!(model, 9);
}

#[test]
fn classes_do_not_starve_each_other() {
    // Flood responses; sprinkle coherence and requests; everything lands.
    let cfg = NocConfig::paper();
    for (name, mut net) in orgs(&cfg) {
        let mut id = 0u64;
        for i in 0..30u16 {
            id += 1;
            net.inject(Packet::new(
                PacketId(id),
                NodeId::new(i % 8),
                NodeId::new(56 + (i % 8)),
                MessageClass::Response,
                5,
            ));
        }
        for i in 0..10u16 {
            id += 1;
            net.inject(Packet::new(
                PacketId(id),
                NodeId::new(i),
                NodeId::new(63 - i),
                MessageClass::Request,
                1,
            ));
            id += 1;
            net.inject(Packet::new(
                PacketId(id),
                NodeId::new(63 - i),
                NodeId::new(i),
                MessageClass::Coherence,
                1,
            ));
        }
        let d = drain(net.as_mut(), 50_000);
        assert_eq!(d.len() as u64, id, "{name}");
    }
}

#[test]
fn saturation_does_not_lose_packets() {
    // Way past saturation for 2k cycles, then drain: conservation holds.
    let cfg = NocConfig::paper();
    for (name, mut net) in orgs(&cfg) {
        let mut gen =
            TrafficGen::new(cfg.clone(), Pattern::UniformRandom, 0.5, 3).response_fraction(0.7);
        for _ in 0..2_000 {
            gen.tick(&mut *net);
            net.step();
            net.drain_delivered();
        }
        gen.stop();
        let deadline = net.now() + 400_000;
        while net.in_flight() > 0 && net.now() < deadline {
            net.step();
            net.drain_delivered();
        }
        assert_eq!(net.in_flight(), 0, "{name} lost packets past saturation");
        assert_eq!(
            net.stats().delivered(),
            gen.injected(),
            "{name} delivered != injected"
        );
    }
}

#[test]
fn hotspot_traffic_serialises_but_completes() {
    let cfg = NocConfig::paper();
    for (name, mut net) in orgs(&cfg) {
        let mut gen = TrafficGen::new(cfg.clone(), Pattern::Hotspot(NodeId::new(27)), 0.02, 9);
        for _ in 0..3_000 {
            gen.tick(&mut *net);
            net.step();
            net.drain_delivered();
        }
        gen.stop();
        let deadline = net.now() + 200_000;
        while net.in_flight() > 0 && net.now() < deadline {
            net.step();
            net.drain_delivered();
        }
        assert_eq!(net.stats().delivered(), gen.injected(), "{name}");
        // Ejection bandwidth bounds throughput at the hotspot.
        assert!(net.stats().avg_latency() > 10.0, "{name}");
    }
}

#[test]
fn stats_cycles_track_steps() {
    let cfg = NocConfig::paper();
    for (_, mut net) in orgs(&cfg) {
        for _ in 0..123 {
            net.step();
        }
        assert_eq!(net.stats().cycles, 123);
        assert_eq!(net.now(), 123);
    }
}

#[test]
fn max_latency_and_hops_accounting() {
    // The reserving core with nothing booked is the mesh, cycle for cycle.
    let cfg = NocConfig::paper();
    let nets: [(&str, Box<dyn Network>); 2] = [
        ("mesh", Box::new(MeshNetwork::new(cfg.clone()))),
        ("reserving", Box::new(ReservingCore::new(cfg))),
    ];
    for (name, mut net) in nets {
        net.inject(Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(63),
            MessageClass::Request,
            1,
        ));
        net.inject(Packet::new(
            PacketId(2),
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            1,
        ));
        let d = drain(net.as_mut(), 1_000);
        assert_eq!(d.len(), 2, "{name}");
        let s = net.stats();
        assert_eq!(s.total_hops, 14 + 1, "{name}");
        assert_eq!(s.max_latency, 31, "{name}: the 14-hop packet");
    }
}

#[test]
fn network_interface_stamps_counts_hops_and_drains_alike() {
    // The same packets on two instances of each organisation: one drained
    // with `drain_delivered`, the other with `drain_delivered_into`.
    let cfg = NocConfig::paper();
    let packets = [
        (0u16, 63u16, MessageClass::Request, 1u8),
        (9, 9, MessageClass::Response, 5),
        (7, 56, MessageClass::Response, 5),
        (36, 3, MessageClass::Coherence, 1),
        (63, 8, MessageClass::Request, 1),
    ];
    for ((name, mut by_vec), (_, mut into)) in orgs(&cfg).into_iter().zip(orgs(&cfg)) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..3 {
            by_vec.step();
            into.step();
        }
        for (id, &(src, dest, class, len)) in packets.iter().enumerate() {
            let p = Packet::new(
                PacketId(id as u64 + 1),
                NodeId::new(src),
                NodeId::new(dest),
                class,
                len,
            );
            by_vec.inject(p);
            into.inject(p);
        }
        while (by_vec.in_flight() > 0 || into.in_flight() > 0) && by_vec.now() < 2_000 {
            by_vec.step();
            into.step();
            a.extend(by_vec.drain_delivered());
            into.drain_delivered_into(&mut b);
        }
        assert_eq!(a.len(), packets.len(), "{name} delivered everything");
        assert_eq!(a, b, "{name}: both drains give the same records in order");
        for d in &a {
            assert_eq!(
                d.packet.created, 3,
                "{name}: created 0 is stamped at inject"
            );
            let (s, t) = (cfg.coord(d.packet.src), cfg.coord(d.packet.dest));
            assert_eq!(d.hops, s.manhattan(t), "{name}: hops of {}", d.packet.id);
        }
    }
}
