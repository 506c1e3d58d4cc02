//! Protocol-level tests of the PRA control plane: turns, conflicts,
//! priorities, guard behaviour, and adversarial announce patterns.

use noc::config::{NocConfig, NocConfigBuilder};
use noc::flit::Packet;
use noc::network::Network;
use noc::types::{Cycle, MessageClass, NodeId, PacketId};
use noc::zeroload::{mesh_latency, pra_best_latency};
use pra::frfc::FrfcNetwork;
use pra::network::{ControlPlane, PraNetwork, ReservingMesh};
use pra::{ControlConfig, DropReason};

fn pkt(id: u64, src: u16, dest: u16, class: MessageClass, len: u8) -> Packet {
    Packet::new(
        PacketId(id),
        NodeId::new(src),
        NodeId::new(dest),
        class,
        len,
    )
}

/// Announce, wait, inject, drain; returns latency.
fn announced(net: &mut PraNetwork, p: Packet, lead: u32) -> Cycle {
    net.announce(&p, lead);
    for _ in 0..lead {
        net.step();
    }
    let p = p.at(net.now());
    net.inject(p);
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 1);
    d[0].delivered - d[0].packet.created
}

#[test]
fn every_destination_from_center_is_preallocatable() {
    // From a central node, every destination whose route fits the lag
    // budget rides a fully pre-allocated path at zero load. The budget is
    // four multi-drop segments; a segment covers two routers only when
    // the transmission stays straight, so an XY turn costs one segment —
    // routes of up to 5 hops are always fully covered, longer turned
    // routes may end one segment short (which is exactly the paper's
    // "part or even all of the required resources").
    let cfg = NocConfig::paper();
    for dest in 0..64u16 {
        if dest == 27 {
            continue;
        }
        let hops = cfg
            .coord(NodeId::new(27))
            .manhattan(cfg.coord(NodeId::new(dest)));
        let mut net = PraNetwork::new(cfg.clone());
        let lat = announced(&mut net, pkt(1, 27, dest, MessageClass::Response, 5), 4);
        let mesh = mesh_latency(&cfg, NodeId::new(27), NodeId::new(dest), 5);
        if hops <= 5 {
            let best = pra_best_latency(&cfg, NodeId::new(27), NodeId::new(dest), 5);
            assert!(lat <= best, "27->{dest} ({hops} hops): {lat} > {best}");
        }
        assert_eq!(
            net.mesh().stats().wasted_reservations,
            0,
            "27->{dest} wasted slots at zero load"
        );
        assert!(lat <= mesh, "27->{dest}: PRA {lat} worse than mesh {mesh}");
    }
}

#[test]
fn double_turn_routes_do_not_exist_but_single_turns_work() {
    // XY has at most one turn; verify PRA handles turn-at-first-hop and
    // turn-at-last-hop shapes.
    let cfg = NocConfig::paper();
    for (src, dest) in [(0u16, 57u16), (7, 8), (56, 15), (63, 0)] {
        let mut net = PraNetwork::new(cfg.clone());
        let lat = announced(&mut net, pkt(1, src, dest, MessageClass::Response, 5), 4);
        let mesh = mesh_latency(&cfg, NodeId::new(src), NodeId::new(dest), 5);
        assert!(lat < mesh, "{src}->{dest}: {lat} !< {mesh}");
    }
}

#[test]
fn simultaneous_announcements_from_distinct_sources_coexist() {
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let a = pkt(1, 0, 6, MessageClass::Response, 5);
    let b = pkt(2, 56, 62, MessageClass::Response, 5);
    net.announce(&a, 4);
    net.announce(&b, 4);
    for _ in 0..4 {
        net.step();
    }
    let now = net.now();
    net.inject(a.at(now));
    net.inject(b.at(now));
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 2);
    assert_eq!(net.mesh().stats().wasted_reservations, 0);
    assert_eq!(net.pra_stats().injected_llc, 2);
}

#[test]
fn crossing_paths_one_wins_one_falls_back() {
    // Two announced responses crossing the same column at the same time:
    // slot conflicts drop one control packet; both data packets arrive.
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    // Same destination row segment: 0->7 and 8->15 don't cross; use
    // 0->7 (row 0 east) and 1->57 (column 1 south) crossing at node 1.
    let a = pkt(1, 0, 7, MessageClass::Response, 5);
    let b = pkt(2, 1, 57, MessageClass::Response, 5);
    net.announce(&a, 4);
    net.announce(&b, 4);
    for _ in 0..4 {
        net.step();
    }
    let now = net.now();
    net.inject(a.at(now));
    net.inject(b.at(now));
    let d = net.run_to_drain(5_000);
    assert_eq!(d.len(), 2, "both packets must arrive regardless of drops");
}

#[test]
fn announce_for_mistimed_injection_wastes_but_delivers() {
    // The client announces lead 4 but injects 3 cycles late: reservations
    // waste, the packet still arrives via reactive routing.
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let p = pkt(1, 0, 6, MessageClass::Response, 5);
    net.announce(&p, 4);
    for _ in 0..7 {
        net.step();
    }
    let now = net.now();
    net.inject(p.at(now));
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 1);
    assert!(
        net.mesh().stats().wasted_reservations > 0,
        "late data must waste slots"
    );
}

#[test]
fn duplicate_announcements_conflict_at_the_ni_latch() {
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let a = pkt(1, 0, 6, MessageClass::Response, 5);
    let b = pkt(2, 0, 20, MessageClass::Request, 1);
    net.announce(&a, 4);
    net.announce(&b, 4); // same source, same cycle: one NI latch
    for _ in 0..4 {
        net.step();
    }
    let now = net.now();
    net.inject(a.at(now));
    net.inject(b.at(now));
    let d = net.run_to_drain(2_000);
    assert_eq!(d.len(), 2);
    let drops = net.pra_stats().drops_by_reason[DropReason::Conflict as usize];
    assert!(drops >= 1, "NI latch fits one control packet per cycle");
}

#[test]
fn zero_max_lag_is_effectively_disabled() {
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::with_control(
        cfg,
        ControlConfig {
            max_lag: 1,
            ..ControlConfig::default()
        },
    );
    let lat = announced(&mut net, pkt(1, 0, 6, MessageClass::Response, 5), 4);
    // Only the source hop can be covered; latency sits near mesh.
    let cfg = NocConfig::paper();
    let mesh = mesh_latency(&cfg, NodeId::new(0), NodeId::new(6), 5);
    assert!(lat <= mesh);
    assert!(lat + 6 >= mesh, "lag 1 cannot approach the ideal");
}

#[test]
fn wider_wire_budget_speeds_preallocated_paths() {
    // hpc 3: chunks of three hops; a 6-hop route needs 2 data cycles.
    // Faster data closes on the control packet sooner, so the comparison
    // needs a lag budget that still covers the whole route (the default
    // lag 4 at hpc 3 runs dry mid-path — a real property of the design).
    let ctrl = ControlConfig {
        max_lag: 8,
        ..ControlConfig::default()
    };
    let cfg3 = NocConfigBuilder::new()
        .max_hops_per_cycle(3)
        .build()
        .expect("valid");
    let mut net3 = PraNetwork::with_control(cfg3, ctrl.clone());
    let lat3 = announced(&mut net3, pkt(1, 0, 6, MessageClass::Request, 1), 8);
    let mut net2 = PraNetwork::with_control(NocConfig::paper(), ctrl);
    let lat2 = announced(&mut net2, pkt(1, 0, 6, MessageClass::Request, 1), 8);
    assert!(lat3 < lat2, "hpc3 {lat3} must beat hpc2 {lat2}");
}

#[test]
fn pra_stats_are_internally_consistent() {
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    for i in 0..20u64 {
        let p = pkt(
            i + 1,
            (i % 8) as u16,
            (8 + i % 48) as u16,
            MessageClass::Response,
            5,
        );
        let _ = announced(&mut net, p, 4);
    }
    let s = net.pra_stats();
    assert_eq!(s.injected(), s.dropped(), "all controls eventually drop");
    assert_eq!(
        s.drops_by_reason.iter().sum::<u64>(),
        s.dropped(),
        "reasons partition drops"
    );
    assert!(s.hops_preallocated > 0);
}

#[test]
fn exhaustive_all_pairs_zero_load_safety() {
    // Every (src, dest) pair on the mesh: an announced response rides
    // whatever pre-allocated prefix the protocol achieves, arrives intact,
    // wastes nothing at zero load, and never loses to the plain mesh.
    let cfg = NocConfig::paper();
    let mut checked = 0u32;
    for src in (0..64u16).step_by(3) {
        for dest in (1..64u16).step_by(5) {
            if src == dest {
                continue;
            }
            let mut net = PraNetwork::new(cfg.clone());
            let lat = announced(&mut net, pkt(1, src, dest, MessageClass::Response, 5), 4);
            let mesh = mesh_latency(&cfg, NodeId::new(src), NodeId::new(dest), 5);
            assert!(lat <= mesh, "{src}->{dest}: {lat} > mesh {mesh}");
            assert_eq!(
                net.mesh().stats().wasted_reservations,
                0,
                "{src}->{dest} wasted at zero load"
            );
            checked += 1;
        }
    }
    assert!(checked > 250, "coverage sanity: {checked} pairs");
}

#[test]
fn back_to_back_responses_from_one_slice() {
    // An LLC slice answering a burst: announcements are refused while the
    // NI has backlog (unpredictable injection time), never corrupting the
    // pipeline; all responses arrive.
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let mut expected = 0;
    for i in 0..6u64 {
        let p = pkt(
            i + 1,
            9,
            (20 + i * 7 % 40) as u16,
            MessageClass::Response,
            5,
        );
        net.announce(&p, 4);
        for _ in 0..4 {
            net.step();
        }
        let now = net.now();
        net.inject(p.at(now));
        expected += 1;
        // Step a couple of cycles: the next response overlaps this one's
        // drain, creating real backlog at the source NI.
        for _ in 0..2 {
            net.step();
        }
    }
    let mut d = net.drain_delivered();
    d.extend(net.run_to_drain(5_000));
    assert_eq!(d.len(), expected);
    assert!(
        net.pra_stats().refused_at_ni > 0,
        "burst must trigger backlog refusals"
    );
}

#[test]
fn lsd_and_llc_windows_compose_on_one_packet_lifetime() {
    // A response whose pre-allocation dies early can later be rescued by
    // LSD if it stalls: verify the no-double-control invariant holds (at
    // most one control in flight per packet) across a contended run.
    use nistats::rng::Rng;
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    let mut rng = Rng::new(99);
    let mut queue: Vec<(u64, Packet)> = Vec::new();
    let mut sent = 0u64;
    for cycle in 1..2_000u64 {
        if cycle < 1_200 && rng.gen_bool(0.35) {
            let src = rng.gen_range_u16(0, 64);
            let dest = (src + rng.gen_range_u16(1, 64)) % 64;
            sent += 1;
            let p = pkt(sent, src, dest, MessageClass::Response, 5);
            net.announce(&p, 4);
            queue.push((cycle + 4, p));
        }
        let mut i = 0;
        while i < queue.len() {
            if queue[i].0 == cycle {
                let (_, p) = queue.swap_remove(i);
                let now = net.now();
                net.inject(p.at(now));
            } else {
                i += 1;
            }
        }
        net.step();
    }
    let mut d = net.drain_delivered();
    d.extend(net.run_to_drain(50_000));
    assert_eq!(d.len() as u64, sent);
    let s = net.pra_stats();
    assert!(
        s.injected() >= sent / 2,
        "control plane active under contention"
    );
    assert_eq!(s.injected(), s.dropped(), "every control accounted for");
}

/// Sparse announced traffic with long and mistimed leads: the fabric
/// goes quiescent between packets while reservations come and go, and
/// skipping the quiescent cycles must not change one simulated byte.
#[test]
fn skip_ahead_is_byte_identical_with_announcements() {
    fn run(skip: bool) -> (Vec<u64>, String, Vec<(u64, Cycle)>) {
        use nistats::rng::Rng;
        let mut net = PraNetwork::new(NocConfig::paper());
        net.set_skip_ahead(skip);
        let mut rng = Rng::new(9);
        let mut queue: Vec<(Cycle, Packet)> = Vec::new();
        let mut delivered = Vec::new();
        let mut trail = Vec::new();
        for cycle in 0..6_000u64 {
            if rng.gen_bool(0.05) {
                let src = rng.gen_range_u16(0, 64);
                let dest = (src + rng.gen_range_u16(1, 64)) % 64;
                let p = pkt(cycle + 1, src, dest, MessageClass::Response, 5);
                let lead = 1 + rng.below(30);
                net.announce(&p, lead as u32);
                let late = if rng.gen_bool(0.1) { 3 } else { 0 };
                queue.push((net.now() + lead + late, p));
            }
            let now = net.now();
            let mut i = 0;
            while i < queue.len() {
                if queue[i].0 == now {
                    let (_, p) = queue.remove(i);
                    net.inject(p.at(now));
                } else {
                    i += 1;
                }
            }
            net.step();
            net.drain_delivered_into(&mut delivered);
            if cycle % 7 == 0 {
                trail.push(net.state_digest().expect("Mesh+PRA digests its state"));
            }
        }
        delivered.extend(net.run_to_drain(10_000));
        let ids = delivered
            .iter()
            .map(|d| (d.packet.id.0, d.delivered))
            .collect();
        (
            trail,
            format!("{:?} {:?}", net.stats(), net.pra_stats()),
            ids,
        )
    }
    let fast = run(true);
    assert!(!fast.2.is_empty());
    assert_eq!(fast, run(false));
}

/// Announces one packet per cycle with leads of 1..=130 cycles, so
/// launches run the 64-bucket launch wheel around more than twice and
/// share buckets with launches a lap away. `launch_at(now, lead)` is the
/// cycle the plane must launch at; the launch count is checked after
/// every step, so each announce launches exactly once and on time. No
/// data is injected, so no source backlog refuses a launch.
fn assert_each_announce_launches_once<P: ControlPlane>(
    mut net: ReservingMesh<P>,
    launch_at: impl Fn(Cycle, u32) -> Cycle,
) {
    let mut due = Vec::new();
    for lead in 1..=130u32 {
        let now = net.now();
        let src = (lead % 32) as u16;
        let dest = 32 + (lead * 5 % 32) as u16;
        let p = pkt(lead as u64, src, dest, MessageClass::Response, 5);
        net.announce(&p, lead);
        due.push(launch_at(now, lead));
        net.step();
        let launched = due.iter().filter(|&&at| at <= net.now()).count();
        assert_eq!(
            net.pra_stats().injected(),
            launched as u64,
            "cycle {}",
            net.now()
        );
    }
    while net.now() < 300 {
        net.step();
        let launched = due.iter().filter(|&&at| at <= net.now()).count();
        assert_eq!(
            net.pra_stats().injected(),
            launched as u64,
            "cycle {}",
            net.now()
        );
    }
    assert_eq!(net.pra_stats().injected(), 130);
}

#[test]
fn announces_past_the_launch_wheel_launch_once_on_both_planes() {
    // Mesh+PRA launches `min(lead, max_lag)` cycles before the data head
    // is due at the source port, and never before the next cycle.
    let max_lag = ControlConfig::default().max_lag as Cycle;
    assert_each_announce_launches_once(PraNetwork::new(NocConfig::paper()), |now, lead| {
        let due0 = now + lead as Cycle + 1;
        (due0 - (lead as Cycle).min(max_lag)).max(now + 1)
    });
    // FRFC's lag is unbounded: every wave starts on the next cycle.
    assert_each_announce_launches_once(FrfcNetwork::new(NocConfig::paper()), |now, _| now + 1);
}
