//! Driver equivalence: the one network handle ([`runner::AnyNetwork`])
//! must be a pure forwarding layer over the five concrete organisations.
//!
//! * Driving the same seeded traffic (plus PRA announcements) through
//!   `AnyNetwork::new(org)` and through the concrete type yields the
//!   identical history: deliveries, `NetStats`, state digests, audit
//!   reports and reliability counters, with skip-ahead on.
//! * The point driver's CSV row and digest trail for each organisation
//!   match constants recorded from the earlier, separately implemented
//!   (monomorphized and boxed) drivers. SMART and FRFC appear in no
//!   committed golden CSV, so these are their only row-level pins.
//! * A near-idle point produces identical statistics and digest trails
//!   with the quiescent-cycle fast path on and off.

use noc::config::{NocConfig, NocConfigBuilder};
use noc::flit::Packet;
use noc::ideal::IdealNetwork;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::reliable::{ReliabilityConfig, ReliableStats};
use noc::smart::SmartNetwork;
use noc::traffic::{Pattern, TrafficGen};
use noc::types::{MessageClass, NodeId, PacketId};
use noc::watchdog::AuditReport;
use pra::{FrfcNetwork, PraNetwork};
use runner::point::run_point_full;
use runner::report::csv_row;
use runner::{AnyNetwork, Organization, PointSpec, SweepSpec};

/// A small-but-real point: large enough that flits traverse, contend,
/// and (for PRA organisations) trigger control-plane reservations.
fn point_for(org: Organization) -> PointSpec {
    let spec = SweepSpec::new("driver-eq")
        .orgs(&[org])
        .windows(200, 600)
        .digest_every(100);
    spec.points().remove(0)
}

const ALL_ORGS: [Organization; 5] = [
    Organization::Mesh,
    Organization::Smart,
    Organization::MeshPra,
    Organization::Ideal,
    Organization::Frfc,
];

/// Everything a client can observe of a network run.
#[derive(Debug, PartialEq)]
struct History {
    deliveries: Vec<Delivered>,
    /// `NetStats` has no `PartialEq`; its `Debug` form covers every field.
    stats: String,
    digests: Vec<Option<u64>>,
    audits: Vec<Option<AuditReport>>,
    reliable: Option<ReliableStats>,
    now: u64,
    in_flight: usize,
}

fn reliable_config() -> NocConfig {
    NocConfigBuilder::new()
        .radix(4)
        .reliability(ReliabilityConfig::with_seed(0x5EED))
        .build()
        .expect("valid config")
}

/// Drives `net` with seeded uniform traffic plus an announced response
/// every 37 cycles (injected once its lead expires), resets the stats
/// at the warm-up boundary, then drains.
fn drive<N: Network>(mut net: N) -> History {
    const CYCLES: u64 = 1_500;
    const LEAD: u64 = 4;
    let cfg = net.config().clone();
    let nodes = cfg.nodes() as u16;
    net.set_skip_ahead(true);
    let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.03, 17).response_fraction(0.5);
    let mut pending: Vec<(u64, Packet)> = Vec::new();
    let mut h = History {
        deliveries: Vec::new(),
        stats: String::new(),
        digests: Vec::new(),
        audits: Vec::new(),
        reliable: None,
        now: 0,
        in_flight: 0,
    };
    for cycle in 0..CYCLES {
        if cycle == 300 {
            net.reset_stats();
        }
        gen.tick(&mut net);
        if cycle % 37 == 0 {
            let k = cycle / 37;
            let src = NodeId::new((k * 7 % u64::from(nodes)) as u16);
            let dest = NodeId::new(((k * 13 + 5) % u64::from(nodes)) as u16);
            let p = Packet::new(
                PacketId((1 << 40) + k),
                src,
                dest,
                MessageClass::Response,
                5,
            );
            net.announce(&p, LEAD as u32);
            pending.push((cycle + LEAD, p));
        }
        pending.retain(|&(due, p)| {
            if due == cycle {
                net.inject(p.at(net.now()));
            }
            due != cycle
        });
        net.step();
        net.drain_delivered_into(&mut h.deliveries);
        if cycle % 50 == 0 {
            h.digests.push(net.state_digest());
            h.audits.push(net.audit());
        }
    }
    gen.stop();
    h.deliveries.extend(net.run_to_drain(20_000));
    h.stats = format!("{:?}", net.stats());
    h.reliable = net.reliable_stats();
    h.now = net.now();
    h.in_flight = net.in_flight();
    h
}

#[test]
fn any_network_matches_the_concrete_type_for_every_organization() {
    for org in ALL_ORGS {
        let cfg = reliable_config();
        let concrete = match org {
            Organization::Mesh => drive(MeshNetwork::new(cfg.clone())),
            Organization::Smart => drive(SmartNetwork::new(cfg.clone())),
            Organization::MeshPra => drive(PraNetwork::new(cfg.clone())),
            Organization::Ideal => drive(IdealNetwork::new(cfg.clone())),
            Organization::Frfc => drive(FrfcNetwork::new(cfg.clone())),
        };
        let any = drive(AnyNetwork::new(org, cfg));
        assert_eq!(any, concrete, "AnyNetwork diverged from {org:?}");
        assert!(
            any.deliveries.len() > 100,
            "{org:?} must deliver real traffic, or the comparison proves nothing"
        );
        assert_eq!(any.in_flight, 0, "{org:?} must drain");
        // Where the organisation implements digests, audits or the
        // reliability layer, the comparison must have had real samples.
        if matches!(org, Organization::Mesh | Organization::MeshPra) {
            assert!(any.digests.iter().all(Option::is_some), "{org:?} digests");
            assert!(any.audits.iter().all(Option::is_some), "{org:?} audits");
            assert!(any.reliable.is_some(), "{org:?} reliability stats");
        }
    }
}

/// `(organisation, CSV row, Debug-formatted digest trail)` of one pinned
/// point.
type Pin = (Organization, &'static str, &'static str);

/// The pins of each `point_for(org)`, recorded from the earlier point
/// drivers.
const PINNED: [Pin; 5] = [
    (Organization::Mesh, "0,mesh,uniform,bernoulli,0.020000,8,5,2,none,0,6728581669027343264,ok,1,734,746,0,16.277480,16,27,31,38,5.298928,0.019427,13,23,27,29,0,0,0,0,18,28,32,38,off,0,0,0,832919da954fe84a", "[(100, 8261587493153127089), (200, 228797726964691928), (300, 16895800461671637513), (400, 17601059916776044557), (500, 9519954029893712601), (600, 10275285819526216558), (700, 1784478943997450345), (800, 14185323971186000509)]"),
    (Organization::Smart, "0,smart,uniform,bernoulli,0.020000,8,5,2,none,0,6728581669027343264,ok,1,734,746,0,15.494638,15,25,30,35,5.300268,0.019427,12,21,26,28,0,0,0,0,16,26,31,35,off,0,0,0,-", "[]"),
    (Organization::MeshPra, "0,mesh_pra,uniform,bernoulli,0.020000,8,5,2,none,0,6728581669027343264,ok,1,734,746,0,16.057641,15,27,31,39,5.298928,0.019427,13,23,27,27,0,0,0,0,18,28,32,39,off,0,0,0,70e564727226483b", "[(100, 7443892965462194223), (200, 17771165714705193523), (300, 17400754717611124284), (400, 18232562945995535715), (500, 16704212454162852731), (600, 16425812779900679105), (700, 15326318385259711250), (800, 15608751145046428412)]"),
    (Organization::Ideal, "0,ideal,uniform,bernoulli,0.020000,8,5,2,none,0,6728581669027343264,ok,1,734,737,0,6.560380,6,12,14,19,5.278155,0.019193,4,9,11,13,0,0,0,0,8,13,15,19,off,0,0,0,cc7be418faa3f6d1", "[(100, 16366196975700793569), (200, 14254004041850956993), (300, 3194087436391299151), (400, 111976678687227600), (500, 11703768845241413267), (600, 8781258974330265281), (700, 2203598607561371945), (800, 234033408839662929)]"),
    (Organization::Frfc, "0,frfc,uniform,bernoulli,0.020000,8,5,2,none,0,6728581669027343264,ok,1,734,746,0,16.277480,16,27,31,38,5.298928,0.019427,13,23,27,29,0,0,0,0,18,28,32,38,off,0,0,0,-", "[]"),
];

#[test]
fn point_rows_and_digest_trails_match_the_pinned_reference() {
    for (org, row, trail) in PINNED {
        let p = point_for(org);
        let out = run_point_full(&p);
        assert_eq!(csv_row(&out.record), row, "CSV row diverged for {org:?}");
        let got = format!("{:?}", out.trail);
        assert_eq!(got, trail, "digest trail diverged for {org:?}");
    }
}

#[test]
fn skip_ahead_is_byte_identical_to_exhaustive_stepping() {
    // Rate low enough that the fabric goes quiescent between packets:
    // the fast path actually triggers, and must not change one byte.
    for org in ALL_ORGS {
        let spec = SweepSpec::new("skip-eq")
            .orgs(&[org])
            .rates(&[0.001])
            .windows(300, 2_000)
            .digest_every(250);
        let mut p = spec.points().remove(0);

        p.skip_ahead = true;
        let fast = run_point_full(&p);
        p.skip_ahead = false;
        let slow = run_point_full(&p);

        assert_eq!(
            csv_row(&fast.record),
            csv_row(&slow.record),
            "skip-ahead changed the CSV row for {org:?}"
        );
        assert_eq!(fast.record, slow.record, "record diverged for {org:?}");
        assert_eq!(
            fast.trail, slow.trail,
            "skip-ahead changed the digest trail for {org:?}"
        );
        assert_eq!(fast.record.status, "ok");
        assert!(
            fast.record.delivered > 0,
            "near-idle point must still deliver for {org:?}"
        );
    }
}
