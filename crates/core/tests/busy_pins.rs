//! Byte-identity pins for the busy paths of Mesh+PRA and FRFC that the
//! benchmark's known answers do not reach.
//!
//! Each case drives a mix of announced and unannounced traffic through a
//! small mesh: announced responses (some injected late or early, so
//! forced moves find their flit missing and `waste_and_cancel` runs),
//! unannounced multi-flit responses that block ports (so LSD launches),
//! and, in the faulted cases, a plan with transient link faults, control
//! corruption and a permanent link failure (so control packets drop on
//! `segment_faulted` and purges cancel reservations). The radix and the
//! hops-per-cycle budget vary so that latch landings (1 hop/cycle) and
//! long bypass chains (3 hops/cycle) both execute.
//!
//! A case folds the state digest every 50 cycles, every observability
//! event, the final `NetStats` and `PraStats`, and every delivery record
//! into one hash. The pins were recorded before the reservation
//! schedule, its due index and the control-plane scratch buffers were
//! rewritten; any change to a simulated byte changes a pin.

use std::cell::RefCell;
use std::rc::Rc;

use nistats::rng::Rng;
use noc::config::NocConfigBuilder;
use noc::digest::{StateDigest, StateHasher};
use noc::faults::{FaultEvent, FaultPlan};
use noc::flit::Packet;
use noc::network::{Delivered, Network};
use noc::types::{Cycle, MessageClass, NodeId, PacketId};
use pra::{DropReason, FrfcNetwork, PraNetwork, PraStats};

/// Folds every event, in emission order, into a hash.
struct HashSink(StateHasher);

impl niobs::EventSink for HashSink {
    fn record(&mut self, cycle: Cycle, event: niobs::Event) {
        self.0.write_u64(cycle);
        self.0.write_bytes(format!("{event:?}").as_bytes());
    }
}

/// One pinned scenario.
struct Case {
    radix: u16,
    hops: u8,
    rate: f64,
    faults: bool,
}

const CASES: [Case; 5] = [
    Case {
        radix: 4,
        hops: 1,
        rate: 0.05,
        faults: false,
    },
    Case {
        radix: 4,
        hops: 3,
        rate: 0.06,
        faults: false,
    },
    Case {
        radix: 6,
        hops: 1,
        rate: 0.04,
        faults: false,
    },
    Case {
        radix: 6,
        hops: 3,
        rate: 0.05,
        faults: false,
    },
    Case {
        radix: 6,
        hops: 3,
        rate: 0.04,
        faults: true,
    },
];

fn fault_plan(radix: u16) -> FaultPlan {
    let mut plan = FaultPlan::new(11).transient_rate_ppb(100_000);
    let n = radix * radix;
    for (i, at) in (300..2_400).step_by(150).enumerate() {
        plan = plan.with_event(FaultEvent::ControlDrop {
            at,
            node: NodeId::new((i as u16 * 7 + 3) % n),
        });
    }
    plan
}

/// What a case leaves behind for the pin and the coverage checks.
struct Outcome {
    delivered: usize,
    hash: u64,
    wasted: u64,
    pra: PraStats,
}

/// Runs one case on `net`; `digest` reads the network's state digest.
fn run_case<N: Network>(
    mut net: N,
    rate: f64,
    seed: u64,
    digest: impl Fn(&N) -> u64,
    pra_stats: impl Fn(&N) -> PraStats,
) -> Outcome {
    let sink = Rc::new(RefCell::new(HashSink(StateHasher::new())));
    net.install_obs(sink.clone());
    let nodes = net.config().nodes() as u16;
    let mut rng = Rng::new(seed);
    let mut later: Vec<(Cycle, Packet)> = Vec::new();
    let mut delivered: Vec<Delivered> = Vec::new();
    let mut trail = StateHasher::new();
    let mut next_id = 0u64;
    for cycle in 0..3_000u64 {
        if cycle < 2_500 {
            for src in 0..nodes {
                if !rng.gen_bool(rate) {
                    continue;
                }
                let dest = (src + rng.gen_range_u16(1, nodes)) % nodes;
                next_id += 1;
                let id = PacketId(next_id);
                let (s, d) = (NodeId::new(src), NodeId::new(dest));
                match rng.below(4) {
                    0 => net.inject(Packet::new(id, s, d, MessageClass::Request, 1).at(net.now())),
                    1 => net.inject(Packet::new(id, s, d, MessageClass::Response, 5).at(net.now())),
                    kind => {
                        // Announced requests occupy a port for a single
                        // slot, so an FRFC wave behind one shifts.
                        let p = if kind == 2 {
                            Packet::new(id, s, d, MessageClass::Request, 1)
                        } else {
                            Packet::new(id, s, d, MessageClass::Response, 5)
                        };
                        let lead = 1 + rng.below(6);
                        net.announce(&p, lead as u32);
                        // Mostly on time; sometimes late or early, so a
                        // forced move finds its flit missing.
                        let at = match rng.below(8) {
                            0 => net.now() + lead + 2,
                            1 if lead > 1 => net.now() + lead - 1,
                            _ => net.now() + lead,
                        };
                        later.push((at, p));
                    }
                }
            }
        }
        let now = net.now();
        let mut i = 0;
        while i < later.len() {
            if later[i].0 == now {
                let (_, p) = later.remove(i);
                net.inject(p.at(now));
            } else {
                i += 1;
            }
        }
        net.step();
        net.drain_delivered_into(&mut delivered);
        if cycle % 50 == 0 {
            trail.write_u64(digest(&net));
        }
    }
    for (_, p) in later.drain(..) {
        let now = net.now();
        net.inject(p.at(now));
    }
    delivered.extend(net.run_to_drain(50_000));
    assert_eq!(net.in_flight(), 0, "every case drains");
    let pra = pra_stats(&net);
    let mut h = StateHasher::new();
    h.write_u64(trail.finish());
    h.write_u64(sink.borrow().0.finish());
    h.write_u64(digest(&net));
    h.write_bytes(format!("{:?}", net.stats()).as_bytes());
    h.write_bytes(format!("{pra:?}").as_bytes());
    for d in &delivered {
        d.packet.digest_state(&mut h);
        h.write_u64(d.delivered);
        h.write_u32(d.hops);
    }
    Outcome {
        delivered: delivered.len(),
        hash: h.finish(),
        wasted: net.stats().wasted_reservations,
        pra,
    }
}

fn config(case: &Case) -> noc::config::NocConfig {
    let mut b = NocConfigBuilder::new()
        .radix(case.radix)
        .max_hops_per_cycle(case.hops);
    if case.faults {
        b = b.faults(fault_plan(case.radix));
    }
    b.build().expect("valid config")
}

#[test]
fn pra_busy_paths_match_pins() {
    let got: Vec<(usize, u64)> = CASES
        .iter()
        .zip(1u64..)
        .map(|(case, seed)| {
            let o = run_case(
                PraNetwork::new(config(case)),
                case.rate,
                seed,
                |n| n.state_digest().expect("Mesh+PRA digests its state"),
                |n| n.pra_stats().clone(),
            );
            assert!(o.pra.injected_llc > 0, "radix {}: LLC launches", case.radix);
            assert!(o.pra.injected_lsd > 0, "radix {}: LSD launches", case.radix);
            assert!(o.wasted > 0, "radix {}: wasted reservations", case.radix);
            if case.faults {
                assert!(
                    o.pra.drops_by_reason[DropReason::Fault as usize] > 0,
                    "the fault plan drops control packets on faulted segments"
                );
            }
            (o.delivered, o.hash)
        })
        .collect();
    assert_eq!(got, PRA_PINS);
}

#[test]
fn frfc_busy_paths_match_pins() {
    let got: Vec<(usize, u64)> = CASES
        .iter()
        .zip(1u64..)
        .map(|(case, seed)| {
            let o = run_case(
                FrfcNetwork::new(config(case)),
                case.rate,
                seed,
                |n| n.mesh().state_digest().expect("the mesh digests its state"),
                |n| n.pra_stats().clone(),
            );
            assert!(
                o.pra.hops_preallocated > 0,
                "radix {}: waves reserve",
                case.radix
            );
            assert!(o.wasted > 0, "radix {}: wasted reservations", case.radix);
            (o.delivered, o.hash)
        })
        .collect();
    assert_eq!(got, FRFC_PINS);
}

const PRA_PINS: [(usize, u64); 5] = [
    (1989, 11080271797621491070),
    (2429, 15202935875155298619),
    (3537, 8151148264317582615),
    (4500, 12343794485253152474),
    (3645, 696151246211569508),
];

const FRFC_PINS: [(usize, u64); 5] = [
    (1989, 6585851440454376880),
    (2429, 6323674395557914083),
    (3537, 4861742903248585697),
    (4500, 17476414622448600635),
    (3645, 9741795761993279551),
];
