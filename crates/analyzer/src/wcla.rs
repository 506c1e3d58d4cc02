//! Worst-case latency analysis property suite (compiled for tests only).
//!
//! The bound arithmetic lives in [`noc::wcla`] (so the sweep runner can
//! gate points without a dependency cycle); this module is the
//! *verification* layer:
//!
//! * `analyze_scenario` derives the flow set of a synthetic workload
//!   (pattern × bounded injection process × rate × response mix),
//!   re-proves the routing deadlock-free via the channel-dependency
//!   graph before trusting its contention sets, and returns per-class
//!   worst-case bounds.
//! * The test suite is the conservativeness proof-by-fuzzing: seeded
//!   MMPP/on-off scenarios across radices 4–8, every message class,
//!   mesh and PRA organisations — asserting the *simulated* worst
//!   latency never exceeds the analytical bound, and that the
//!   deliberately-unsound [`noc::wcla::naive_bound`] bug double *is*
//!   exceeded (so the suite can tell a sound bound from a
//!   plausible-but-tight one).

use noc::config::NocConfig;
use noc::traffic::{InjectionProcess, Pattern};
use noc::types::MessageClass;
use noc::wcla::{analyze_flows, flows_for_pattern, WclaError};

use crate::routing::XyRouting;
use crate::verify_routing;

/// Derives the flow set of `(pattern, process, rate,
/// response_fraction)` on `cfg`, verifies the XY routing the contention
/// sets are built over is deadlock-free, and returns the worst-case
/// latency bound per message class (indexed by VC; `None` when the
/// scenario carries no traffic of the class).
///
/// # Errors
///
/// Propagates [`WclaError`] from the flow derivation and analysis;
/// routing-verification failures surface as [`WclaError::BadFlow`]
/// (the contention sets would be meaningless over broken routing).
fn analyze_scenario(
    cfg: &NocConfig,
    pattern: Pattern,
    process: InjectionProcess,
    rate: f64,
    response_fraction: f64,
) -> Result<[Option<u64>; 3], WclaError> {
    verify_routing(cfg, &XyRouting).map_err(|e| WclaError::BadFlow {
        index: 0,
        message: format!("routing verification failed: {e}"),
    })?;
    let flows = flows_for_pattern(cfg, pattern, process, rate, response_fraction)?;
    let report = analyze_flows(cfg, &flows)?;
    Ok([
        report.class_bound(&flows, MessageClass::Request),
        report.class_bound(&flows, MessageClass::Coherence),
        report.class_bound(&flows, MessageClass::Response),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::config::NocConfigBuilder;
    use noc::network::Network;
    use noc::traffic::TrafficGen;
    use noc::types::NodeId;
    use noc::wcla::naive_bound;
    use runner::org::Organization;

    /// One fuzz scenario: a bounded-burst workload on one mesh radix.
    struct Scenario {
        name: &'static str,
        radix: u16,
        pattern: Pattern,
        process: InjectionProcess,
        rate: f64,
        response_fraction: f64,
        class_priority: Option<[u8; 3]>,
    }

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "radix4-hotspot-onoff",
                radix: 4,
                pattern: Pattern::Hotspot(NodeId::new(5)),
                process: InjectionProcess::OnOff {
                    on_len: 8,
                    off_len: 56,
                },
                rate: 0.01,
                response_fraction: 0.5,
                class_priority: None,
            },
            Scenario {
                name: "radix4-transpose-mmpp",
                radix: 4,
                pattern: Pattern::Transpose,
                process: InjectionProcess::Mmpp {
                    boost: 8.0,
                    mean_dwell_lo: 80,
                    mean_dwell_hi: 10,
                    max_dwell_hi: 16,
                },
                rate: 0.02,
                response_fraction: 0.5,
                class_priority: None,
            },
            Scenario {
                name: "radix5-complement-onoff",
                radix: 5,
                pattern: Pattern::Complement,
                process: InjectionProcess::OnOff {
                    on_len: 4,
                    off_len: 28,
                },
                rate: 0.03,
                response_fraction: 0.5,
                class_priority: None,
            },
            Scenario {
                name: "radix6-hotspot-mmpp-priority",
                radix: 6,
                pattern: Pattern::Hotspot(NodeId::new(14)),
                process: InjectionProcess::Mmpp {
                    boost: 6.0,
                    mean_dwell_lo: 100,
                    mean_dwell_hi: 8,
                    max_dwell_hi: 12,
                },
                rate: 0.005,
                response_fraction: 0.5,
                class_priority: Some([2, 1, 0]),
            },
            Scenario {
                name: "radix8-uniform-onoff",
                radix: 8,
                pattern: Pattern::UniformRandom,
                process: InjectionProcess::OnOff {
                    on_len: 4,
                    off_len: 60,
                },
                rate: 0.02,
                response_fraction: 0.5,
                class_priority: None,
            },
        ]
    }

    fn config_for(s: &Scenario) -> NocConfig {
        let mut builder = NocConfigBuilder::new().radix(s.radix);
        if let Some(p) = s.class_priority {
            builder = builder.class_priority(p);
        }
        builder.build().expect("scenario config is valid")
    }

    /// Simulates the scenario on `org` for `cycles` injection cycles
    /// plus a full drain, and returns the per-class worst observed
    /// end-to-end latency.
    fn simulate_max_by_class(
        cfg: &NocConfig,
        org: Organization,
        s: &Scenario,
        cycles: u64,
        seed: u64,
    ) -> [u64; 3] {
        let mut net = runner::AnyNetwork::new(org, cfg.clone());
        let mut gen = TrafficGen::new(cfg.clone(), s.pattern, s.rate, seed)
            .response_fraction(s.response_fraction)
            .injection(s.process);
        for _ in 0..cycles {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered();
        }
        gen.stop();
        let deadline = net.now() + 200_000;
        while net.in_flight() > 0 && net.now() < deadline {
            net.step();
            net.drain_delivered();
        }
        assert_eq!(net.in_flight(), 0, "scenario must drain");
        net.stats().max_latency_by_class
    }

    #[test]
    fn simulated_worst_latency_never_exceeds_the_bound() {
        // The conservativeness fuzz: every seeded scenario, on both the
        // baseline mesh and the PRA organisation, must keep every
        // class's simulated max at or below the analytical bound.
        for s in scenarios() {
            let cfg = config_for(&s);
            let bounds = analyze_scenario(&cfg, s.pattern, s.process, s.rate, s.response_fraction)
                .unwrap_or_else(|e| panic!("{}: analysis refused: {e}", s.name));
            for org in [Organization::Mesh, Organization::MeshPra] {
                for seed in [11u64, 29, 47] {
                    let sim = simulate_max_by_class(&cfg, org, &s, 4_000, seed);
                    for (vc, &observed) in sim.iter().enumerate() {
                        if observed == 0 {
                            continue;
                        }
                        let bound = bounds[vc].unwrap_or_else(|| {
                            panic!("{}: class vc{vc} delivered but has no bound", s.name)
                        });
                        assert!(
                            observed <= bound,
                            "{}/{org:?}/seed{seed}: class vc{vc} observed {observed} > bound {bound}",
                            s.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bug_double_naive_bound_is_refuted_by_simulation() {
        // The deliberately-unsound bound (σ=1, no backpressure, no
        // busy-period) must be *beaten* by real bursty traffic — twice,
        // with independent seeds — while the sound bound still holds.
        // This is what gives the conservativeness fuzz its teeth: a
        // bound can only pass if it models burstiness, not because the
        // scenarios are too gentle to expose tight bounds.
        // Transpose at a burst-heavy load: every node's 8-packet burst
        // serialises behind itself (σ·L ≈ 40 flits), which the
        // burst-oblivious naive bound cannot see, while link sharing
        // stays light enough that the sound analysis does not refuse.
        let s = Scenario {
            name: "bug-double",
            radix: 4,
            pattern: Pattern::Transpose,
            process: InjectionProcess::OnOff {
                on_len: 8,
                off_len: 56,
            },
            rate: 0.08,
            response_fraction: 0.5,
            class_priority: None,
        };
        let cfg = config_for(&s);
        let flows = flows_for_pattern(&cfg, s.pattern, s.process, s.rate, s.response_fraction)
            .expect("bounded process");
        let naive = naive_bound(&cfg, &flows).expect("naive bound computes");
        let naive_rsp = flows
            .iter()
            .zip(&naive)
            .filter(|(f, _)| f.class == MessageClass::Response)
            .map(|(_, b)| b.bound)
            .max()
            .expect("response flows exist");
        let sound = analyze_scenario(&cfg, s.pattern, s.process, s.rate, s.response_fraction)
            .expect("sound analysis");
        let sound_rsp = sound[MessageClass::Response.vc()].expect("response bound");

        let mut refutations = 0;
        for seed in [101u64, 211] {
            let sim = simulate_max_by_class(&cfg, Organization::Mesh, &s, 8_000, seed);
            let observed = sim[MessageClass::Response.vc()];
            assert!(
                observed <= sound_rsp,
                "seed {seed}: sound bound {sound_rsp} violated by {observed}"
            );
            if observed > naive_rsp {
                refutations += 1;
            }
        }
        assert_eq!(
            refutations, 2,
            "bursty traffic must exceed the naive bound ({naive_rsp}) on both seeds"
        );
    }

    #[test]
    fn saturated_scenarios_are_refused_not_bounded() {
        // A hotspot at radix 8 saturates its ejection link; the
        // analysis must refuse rather than print a bound the simulator
        // would demolish.
        let cfg = NocConfigBuilder::new().radix(8).build().expect("config");
        let result = analyze_scenario(
            &cfg,
            Pattern::Hotspot(NodeId::new(27)),
            InjectionProcess::OnOff {
                on_len: 8,
                off_len: 56,
            },
            0.03,
            0.5,
        );
        assert!(
            matches!(result, Err(WclaError::Overloaded { .. })),
            "saturated hotspot must be refused, got {result:?}"
        );
    }

    #[test]
    fn bernoulli_scenarios_are_refused_as_unbounded() {
        let cfg = NocConfigBuilder::new().radix(4).build().expect("config");
        let result = analyze_scenario(
            &cfg,
            Pattern::UniformRandom,
            InjectionProcess::Bernoulli,
            0.01,
            0.5,
        );
        assert!(matches!(result, Err(WclaError::UnboundedProcess)));
    }
}
