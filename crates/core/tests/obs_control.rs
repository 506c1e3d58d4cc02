//! Control-plane observability: announced PRA traffic must emit
//! control-packet inject/segment events, ACK upgrades (including 2-hop
//! bypass), and show up as pre-allocated prefixes in flight records.

use noc::config::NocConfig;
use noc::flit::Packet;
use noc::network::Network;
use noc::types::{MessageClass, NodeId, PacketId};
use pra::network::PraNetwork;

/// Announce, wait out the lead, inject, drain.
fn run_announced(net: &mut PraNetwork, p: Packet, lead: u32) {
    net.announce(&p, lead);
    for _ in 0..lead {
        net.step();
    }
    let p = p.at(net.now());
    net.inject(p);
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 1, "announced packet must be delivered");
}

#[test]
fn announced_run_emits_control_events_and_prealloc_prefix() {
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let shared = niobs::Recorder::default().into_shared();
    net.install_obs(shared.clone());

    // A long straight route from a central node: segments cover two hops
    // each, so the control packet multi-drops and ACK-converts landings.
    run_announced(
        &mut net,
        Packet::new(
            PacketId(1),
            NodeId::new(27),
            NodeId::new(31),
            MessageClass::Response,
            5,
        ),
        4,
    );

    let rec = shared.borrow();
    let m = &rec.metrics;
    assert_eq!(m.counter("events.llc_window"), 0, "no system model here");
    assert_eq!(
        m.counter("events.control_injected"),
        1,
        "one announce → one control packet"
    );
    assert!(
        m.counter("events.control_segment") >= 2,
        "a 4-hop route needs at least two multi-drop segments"
    );
    assert!(
        m.counter("events.ack") >= 1,
        "later segments must ACK-upgrade the previous landing"
    );
    assert_eq!(
        m.counter("events.control_dropped"),
        1,
        "the control packet retires exactly once"
    );
    assert!(
        m.counter("events.reservation_installed") >= 4,
        "every hop of the route gets a reservation"
    );

    // The flight record sees the same run from the data side: the whole
    // path rides reserved slots.
    assert_eq!(rec.flights.completed().len(), 1);
    let flight = &rec.flights.completed()[0];
    assert_eq!(flight.packet, 1);
    assert!(
        flight.prealloc_prefix() >= 4,
        "announced straight route must ride a fully pre-allocated prefix \
         (got {} of {} hops)",
        flight.prealloc_prefix(),
        flight.hops.len()
    );

    // Control events carry the data packet's id, so the two timelines
    // correlate without a join table.
    let control_ids: Vec<u64> = rec
        .log
        .iter()
        .filter_map(|te| match te.event {
            niobs::Event::ControlInjected { packet, .. }
            | niobs::Event::ControlSegment { packet, .. }
            | niobs::Event::ControlDropped { packet, .. }
            | niobs::Event::Ack { packet, .. } => Some(packet),
            _ => None,
        })
        .collect();
    assert!(!control_ids.is_empty());
    assert!(
        control_ids.iter().all(|&id| id == 1),
        "control events must reference the announced data packet"
    );
}

#[test]
fn unannounced_pra_traffic_emits_no_control_events() {
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let shared = niobs::Recorder::default().into_shared();
    net.install_obs(shared.clone());

    net.inject(Packet::new(
        PacketId(7),
        NodeId::new(0),
        NodeId::new(9),
        MessageClass::Request,
        1,
    ));
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 1);

    let rec = shared.borrow();
    assert_eq!(rec.metrics.counter("events.control_injected"), 0);
    assert_eq!(rec.metrics.counter("events.packet_injected"), 1);
    assert_eq!(rec.metrics.counter("events.packet_ejected"), 1);
}
