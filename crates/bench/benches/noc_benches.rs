//! Micro-benchmarks: simulator throughput per organisation and zero-load
//! packet latency (simulation speed, not modelled latency).
//!
//! A plain `std::time::Instant` harness (`harness = false`) so the
//! workspace needs no external benchmark framework. Run with
//! `cargo bench`; each case reports mean wall time per iteration.

use bench::{AnyNetwork, Organization};
use noc::config::NocConfig;
use noc::network::Network;
use noc::traffic::{Pattern, TrafficGen};
use std::time::Instant;

/// Times `f` over enough iterations to fill ~0.5 s and reports the mean.
fn bench_case(group: &str, name: &str, mut f: impl FnMut() -> u64) {
    // Warm up and estimate cost.
    let t0 = Instant::now();
    let mut sink = f();
    let est = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.5 / est) as u64).clamp(3, 1_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    let per_iter = t1.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{group}/{name:<10} {:>12.3} ms/iter  ({iters} iters, checksum {sink})",
        per_iter * 1e3
    );
}

fn simulator_throughput() {
    for org in Organization::ALL {
        bench_case("simulate_1k_cycles_uniform_0.05", org.name(), || {
            let cfg = NocConfig::paper();
            let mut net = AnyNetwork::new(org, cfg.clone());
            let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.05, 7);
            for _ in 0..1_000 {
                gen.tick(&mut net);
                net.step();
                net.drain_delivered();
            }
            net.stats().delivered()
        });
    }
}

fn zero_load_delivery() {
    use noc::flit::Packet;
    use noc::types::{MessageClass, NodeId, PacketId};
    for org in Organization::ALL {
        bench_case("zero_load_corner_to_corner", org.name(), || {
            let mut net = AnyNetwork::new(org, NocConfig::paper());
            net.inject(Packet::new(
                PacketId(1),
                NodeId::new(0),
                NodeId::new(63),
                MessageClass::Request,
                1,
            ));
            let mut out = Vec::new();
            let deadline = 1_000;
            while net.in_flight() > 0 && net.now() < deadline {
                net.step();
                out.extend(net.drain_delivered());
            }
            out.len() as u64
        });
    }
}

fn full_system_cycle() {
    use sysmodel::{System, SystemParams};
    use workloads::WorkloadKind;
    for org in Organization::ALL {
        bench_case("system_500_cycles", org.name(), || {
            let params = SystemParams::paper();
            let net = AnyNetwork::new(org, params.noc.clone());
            let mut sys = System::new(params, net, WorkloadKind::WebSearch, 1);
            sys.run(500);
            sys.committed_instructions()
        });
    }
}

/// Observability overhead: identical mesh runs with hooks compiled in but
/// no sink attached (one `Option` branch per hook) versus a full
/// `Recorder` attached. The hook-free build is a separate compile
/// (`--no-default-features`); CI smoke-runs it to guard the disabled
/// path's throughput.
#[cfg(feature = "obs")]
fn obs_overhead() {
    let run = |attach: bool| {
        let cfg = NocConfig::paper();
        let mut net = AnyNetwork::new(Organization::Mesh, cfg.clone());
        if attach {
            net.install_obs(niobs::Recorder::default().into_shared());
        }
        let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.05, 7);
        for _ in 0..1_000 {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered();
        }
        net.stats().delivered()
    };
    bench_case("obs_overhead_1k_cycles", "no-sink", || run(false));
    bench_case("obs_overhead_1k_cycles", "recorder", || run(true));
}

/// Driver-loop observation overhead: the point driver batches digest
/// sampling, cycle budgets and cancellation polling behind a single
/// precomputed next-event cycle (`CycleGate` in `runner::point`), so a
/// run with everything disabled pays one branch per cycle. The three
/// cases pin that design: fully disabled, digests every 64 cycles, and
/// a (generous) wall budget that arms coarse cancel polling. The
/// disabled case regressing toward the enabled ones means per-cycle
/// work leaked out from behind the gate.
fn driver_poll_overhead() {
    use runner::{run_point_full, Organization as Org, SweepSpec};
    let base = || {
        SweepSpec::new("bench-driver")
            .orgs(&[Org::Mesh])
            .windows(100, 900)
            .points()
            .remove(0)
    };
    bench_case("driver_poll_1k_cycles", "disabled", || {
        let p = base();
        run_point_full(&p).record.delivered
    });
    bench_case("driver_poll_1k_cycles", "digest-64", || {
        let mut p = base();
        p.digest_interval = 64;
        let out = run_point_full(&p);
        out.record.delivered + out.trail.len() as u64
    });
    bench_case("driver_poll_1k_cycles", "wall-poll", || {
        let mut p = base();
        p.wall_budget_ms = 3_600_000; // arms cancel polling, never trips
        run_point_full(&p).record.delivered
    });
}

fn main() {
    simulator_throughput();
    zero_load_delivery();
    full_system_cycle();
    driver_poll_overhead();
    #[cfg(feature = "obs")]
    obs_overhead();
}
