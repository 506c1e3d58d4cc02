//! Event-stream conservation: every `PacketInjected` must terminate in
//! exactly one `PacketEjected` or fault-drop `PacketDropped`, even under
//! random fault plans — cross-checked against the invariant watchdog's
//! flit-conservation audit counters.

use noc::config::NocConfigBuilder;
use noc::faults::{FaultEvent, FaultPlan};
use noc::mesh::MeshNetwork;
use noc::network::Network;
use noc::traffic::{Pattern, TrafficGen};
use noc::types::{Direction, NodeId};

#[test]
fn every_injection_terminates_in_ejection_or_drop() {
    for seed in 0..3u64 {
        let victim = NodeId::new(((11 + seed * 17) % 64) as u16);
        let plan = FaultPlan::new(seed)
            .transient_rate_ppb(1_000_000)
            .with_event(FaultEvent::PermanentLink {
                at: 250 + seed * 31,
                node: victim,
                dir: Direction::South,
            })
            .with_event(FaultEvent::RouterDown {
                at: 800 + seed * 41,
                node: NodeId::new(((33 + seed * 5) % 64) as u16),
            });
        let cfg = NocConfigBuilder::new()
            .faults(plan)
            .build()
            .expect("valid config");
        let mut net = MeshNetwork::new(cfg.clone());
        let shared = niobs::Recorder::default().into_shared();
        net.install_obs(shared.clone());
        let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.05, 42 + seed);

        for _ in 0..2_000 {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered();
        }
        gen.stop();
        let deadline = net.now() + 100_000;
        while net.in_flight() > 0 && net.now() < deadline {
            net.step();
            net.drain_delivered();
        }
        assert_eq!(net.in_flight(), 0, "network must drain (seed {seed})");

        let report = net.audit().expect("mesh always audits");
        let rec = shared.borrow();
        let injected = rec.metrics.counter("events.packet_injected");
        let ejected = rec.metrics.counter("events.packet_ejected");
        let dropped = rec.metrics.counter("events.packet_dropped");
        assert!(injected > 1_000, "enough traffic to be meaningful");
        assert_eq!(
            injected,
            ejected + dropped,
            "every PacketInjected must pair with PacketEjected or \
             PacketDropped (seed {seed})"
        );
        // Cross-check event counts against the watchdog's independent
        // conservation accounting.
        assert_eq!(ejected, report.delivered_packets, "seed {seed}");
        assert_eq!(dropped, report.lost_packets, "seed {seed}");
        let refused = net.fault_stats().map_or(0, |fs| fs.injections_refused);
        assert_eq!(
            rec.metrics.counter("events.injection_refused"),
            refused,
            "refusal events mirror the fault counter (seed {seed})"
        );
        assert_eq!(
            injected + refused,
            gen.injected(),
            "accepted + refused covers every generated packet (seed {seed})"
        );
        // A terminal flight record exists for every terminal event pair.
        assert_eq!(
            rec.flights.completed().len() as u64 + rec.flights.discarded(),
            ejected + dropped,
            "flight records cover every terminated packet (seed {seed})"
        );
    }
}

#[test]
fn no_sink_run_is_behaviorally_identical() {
    // The hooks must be pure observers: the same seed with and without a
    // recorder attached must produce bit-identical statistics.
    let run = |attach: bool| {
        let cfg = NocConfigBuilder::new().build().expect("valid config");
        let mut net = MeshNetwork::new(cfg.clone());
        if attach {
            net.install_obs(niobs::Recorder::default().into_shared());
        }
        let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.05, 9);
        for _ in 0..3_000 {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered();
        }
        let s = net.stats();
        (
            s.delivered(),
            s.total_latency,
            s.total_hops,
            s.link_traversals,
            net.now(),
        )
    };
    assert_eq!(run(false), run(true), "observation must not perturb");
}
