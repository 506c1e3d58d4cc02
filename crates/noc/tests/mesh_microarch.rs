//! Microarchitectural edge cases of the mesh router: credit
//! backpressure, port locking and link-use accounting on the plain
//! mesh; guard semantics and reservation interplay with reactive
//! traffic on the reserving core.

use noc::config::{NocConfig, NocConfigBuilder};
use noc::flit::Packet;
use noc::mesh::MeshNetwork;
use noc::network::Network;
use noc::reserve::{FlitSource, HopPlan, InstallError, Landing, ReservingCore};
use noc::types::{Direction, MessageClass, NodeId, PacketId, Port};

fn pkt(id: u64, src: u16, dest: u16, class: MessageClass, len: u8) -> Packet {
    Packet::new(
        PacketId(id),
        NodeId::new(src),
        NodeId::new(dest),
        class,
        len,
    )
}

#[test]
fn credit_backpressure_throttles_but_never_overflows() {
    // A 2-deep VC with 5-flit... not allowed (max_packet_len <= depth), so
    // use single-flit packets into a single sink to exercise credit
    // starvation on the final link.
    let cfg = NocConfigBuilder::new()
        .vc_depth(2)
        .max_packet_len(2)
        .build()
        .expect("valid");
    let mut net = MeshNetwork::new(cfg);
    for i in 0..40u64 {
        net.inject(pkt(i + 1, (i % 8) as u16, 63, MessageClass::Request, 1));
    }
    // Buffer invariants panic on overflow; surviving the run is the test.
    let d = net.run_to_drain(50_000);
    assert_eq!(d.len(), 40);
}

#[test]
fn port_lock_keeps_multiflit_packets_contiguous_on_a_link() {
    // Two responses sharing a link: their flits must not interleave on
    // the wire. Observable end-to-end: both arrive (reassembly panics on
    // interleaving), and the second's head waits for the first's tail.
    let cfg = NocConfig::paper();
    let mut net = MeshNetwork::new(cfg);
    net.inject(pkt(1, 0, 7, MessageClass::Response, 5));
    net.inject(pkt(2, 8, 15, MessageClass::Response, 5)); // different row: no sharing
    net.inject(pkt(3, 1, 7, MessageClass::Response, 5)); // shares row-0 links with 1
    let d = net.run_to_drain(10_000);
    assert_eq!(d.len(), 3);
}

#[test]
fn reservation_blocks_reactive_grants_on_that_timeslot_only() {
    let cfg = NocConfig::paper();
    let mut net = ReservingCore::new(cfg);
    // Reserve node 1's east port far in the future; a packet through that
    // port right now must be unaffected.
    net.install_hop(&HopPlan {
        node: NodeId::new(1),
        out_port: Port::Dir(Direction::East),
        start: 500,
        packet: PacketId(99),
        len: 1,
        class: MessageClass::Request,
        source: FlitSource::Vc {
            port: Port::Dir(Direction::West),
            vc: 0,
        },
        landing: Landing::Vc(0),
        reserve: 1,
    })
    .expect("install");
    net.inject(pkt(1, 0, 3, MessageClass::Request, 1));
    let d = net.run_to_drain(100);
    assert_eq!(d[0].delivered, 9, "far-future reservations add no latency");
}

#[test]
fn guard_blocks_foreign_multiflit_heads_but_not_singles() {
    let cfg = NocConfig::paper();
    let mut net = ReservingCore::new(cfg);
    // Guard node 1's east port for future response packet 99.
    net.install_hop(&HopPlan {
        node: NodeId::new(1),
        out_port: Port::Dir(Direction::East),
        start: 300,
        packet: PacketId(99),
        len: 5,
        class: MessageClass::Response,
        source: FlitSource::Vc {
            port: Port::Dir(Direction::West),
            vc: 2,
        },
        landing: Landing::Vc(2),
        // Partial buffer reservation (e.g. mid-consumption): leaves
        // credits for singles, exercising the paper's "single-flit
        // packets can still use the message class".
        reserve: 3,
    })
    .expect("install");
    // A single-flit response-class packet passes the guarded port using
    // the unreserved credits.
    net.inject(pkt(1, 0, 3, MessageClass::Response, 1));
    let d = net.run_to_drain(200);
    assert_eq!(d.len(), 1, "singles pass a guarded port");
    // A foreign multi-flit response through the same port is stalled
    // behind the guard until the reservation expires (at cycle ~305).
    net.inject(pkt(2, 0, 3, MessageClass::Response, 5));
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 1);
    assert!(
        d[0].delivered > 300,
        "foreign multi-flit head waits out the guard (delivered {})",
        d[0].delivered
    );
}

#[test]
fn check_hop_rejects_each_failure_mode() {
    let cfg = NocConfig::paper();
    let mut net = ReservingCore::new(cfg);
    let base = HopPlan {
        node: NodeId::new(1),
        out_port: Port::Dir(Direction::East),
        start: 50,
        packet: PacketId(1),
        len: 5,
        class: MessageClass::Response,
        source: FlitSource::Vc {
            port: Port::Dir(Direction::West),
            vc: 2,
        },
        landing: Landing::Vc(2),
        reserve: 5,
    };
    net.install_hop(&base).expect("first install");
    // Slot conflict.
    let mut p = base;
    p.packet = PacketId(2);
    assert_eq!(net.check_hop(&p), Err(InstallError::SlotTaken));
    // Buffer conflict on a disjoint window.
    p.start = 100;
    assert_eq!(net.check_hop(&p), Err(InstallError::NoDownstreamBuffer));
    // Off-mesh port.
    let mut edge = base;
    edge.node = NodeId::new(7); // east edge
    edge.packet = PacketId(3);
    edge.landing = Landing::Bypass;
    assert_eq!(net.check_hop(&edge), Err(InstallError::NoSuchNeighbor));
    // Latch busy: claim it first through another packet's latch landing.
    let latch_a = HopPlan {
        node: NodeId::new(9),
        out_port: Port::Dir(Direction::East),
        start: 60,
        packet: PacketId(4),
        len: 5,
        class: MessageClass::Response,
        source: FlitSource::Vc {
            port: Port::Dir(Direction::West),
            vc: 2,
        },
        landing: Landing::Latch,
        reserve: 0,
    };
    net.install_hop(&latch_a).expect("latch install");
    let mut latch_b = latch_a;
    latch_b.packet = PacketId(5);
    // Port slots 65..69 are free (A holds 60..64), but A's latch
    // occupancy extends one read-cycle past its window (through 65), so
    // the claim windows collide.
    latch_b.start = 65;
    assert_eq!(net.check_hop(&latch_b), Err(InstallError::LatchBusy));
}

#[test]
fn cancel_releases_everything_and_traffic_flows_again() {
    let cfg = NocConfig::paper();
    let mut net = ReservingCore::new(cfg);
    let plan = HopPlan {
        node: NodeId::new(1),
        out_port: Port::Dir(Direction::East),
        start: 400,
        packet: PacketId(42),
        len: 5,
        class: MessageClass::Response,
        source: FlitSource::Vc {
            port: Port::Dir(Direction::West),
            vc: 2,
        },
        landing: Landing::Vc(2),
        reserve: 5,
    };
    net.install_hop(&plan).expect("install");
    assert!(net.has_reservations(PacketId(42)));
    net.cancel_packet_from(PacketId(42), 0, 0);
    assert!(!net.has_reservations(PacketId(42)));
    assert_eq!(
        net.reserved_credits(NodeId::new(1), Port::Dir(Direction::East), 2),
        0
    );
    // A multi-flit response can immediately use the port.
    net.inject(pkt(1, 0, 3, MessageClass::Response, 5));
    let d = net.run_to_drain(200);
    assert_eq!(d[0].delivered, 13, "no residual guard or reservation");
}

#[test]
fn link_use_accounting_matches_routes() {
    let cfg = NocConfig::paper();
    let mut net = MeshNetwork::new(cfg);
    net.inject(pkt(1, 0, 3, MessageClass::Request, 1)); // 3 east hops
    net.run_to_drain(100);
    assert_eq!(net.link_use(NodeId::new(0), Direction::East), 1);
    assert_eq!(net.link_use(NodeId::new(1), Direction::East), 1);
    assert_eq!(net.link_use(NodeId::new(2), Direction::East), 1);
    assert_eq!(net.link_use(NodeId::new(3), Direction::East), 0);
    assert_eq!(net.link_use(NodeId::new(0), Direction::South), 0);
    // Multi-flit: every flit counts.
    net.inject(pkt(2, 0, 1, MessageClass::Response, 5));
    net.run_to_drain(100);
    assert_eq!(net.link_use(NodeId::new(0), Direction::East), 1 + 5);
}

#[test]
fn source_backlog_reflects_queue_and_vc() {
    let cfg = NocConfig::paper();
    let mut net = ReservingCore::new(cfg);
    // Two 5-flit responses: 10 flits, VC holds 5.
    net.inject(pkt(1, 0, 5, MessageClass::Response, 5));
    net.inject(pkt(2, 0, 9, MessageClass::Response, 5));
    assert_eq!(
        net.source_backlog(NodeId::new(0), MessageClass::Response),
        10
    );
    assert_eq!(net.source_backlog(NodeId::new(0), MessageClass::Request), 0);
    net.run_to_drain(500);
    assert_eq!(
        net.source_backlog(NodeId::new(0), MessageClass::Response),
        0
    );
}

#[test]
fn upcoming_cycle_advances_with_steps() {
    let cfg = NocConfig::paper();
    let mut net = MeshNetwork::new(cfg);
    assert_eq!(net.upcoming_cycle(), 1);
    net.step();
    net.step();
    assert_eq!(net.upcoming_cycle(), 3);
}
