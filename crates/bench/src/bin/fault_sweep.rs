//! Experiment: fault-rate × load degradation sweep (robustness study, not
//! a paper figure).
//!
//! For each transient link-fault rate and offered load, runs Mesh and
//! Mesh+PRA under uniform-random traffic with the invariant watchdog
//! observing every audit interval, then reports throughput, mean latency
//! and the watchdog verdict. The contract under test: faults degrade
//! latency, never correctness — any invariant violation or delivered-flit
//! conservation mismatch makes the binary exit non-zero.

use noc::config::{NocConfig, NocConfigBuilder};
use noc::faults::FaultPlan;
use noc::network::Network;
use noc::traffic::{Pattern, TrafficGen};
use noc::watchdog::Watchdog;

use bench::{run_grid, AnyNetwork, Organization};

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 5_000;
const DRAIN_BUDGET: u64 = 100_000;

/// One sweep point's results.
struct Point {
    delivered: u64,
    injected: u64,
    lost: u64,
    mean_latency: f64,
    violations: usize,
    conserved: bool,
    drained: bool,
}

fn config_with(ppb: u32) -> NocConfig {
    let mut b = NocConfigBuilder::new();
    if ppb > 0 {
        b = b.faults(FaultPlan::new(0xFA17).transient_rate_ppb(ppb));
    }
    b.build().expect("paper config with faults is valid")
}

fn run_point(org: Organization, ppb: u32, load: f64, token: noc::cancel::CancelToken) -> Point {
    let cfg = config_with(ppb);
    let mut net = AnyNetwork::new(org, cfg.clone());
    net.install_cancel(token);
    let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, load, 42);
    let mut wd = Watchdog::default();

    let observe = |net: &dyn Network, wd: &mut Watchdog| {
        if wd.due(net.now()) {
            if let Some(report) = net.audit() {
                wd.observe(&report);
            }
        }
    };

    let mut total_latency = 0u64;
    let mut measured = 0u64;
    for cycle in 0..WARMUP + MEASURE {
        gen.tick(&mut net);
        net.step();
        observe(&net, &mut wd);
        for d in net.drain_delivered() {
            if cycle >= WARMUP {
                total_latency += d.delivered - d.packet.created;
                measured += 1;
            }
        }
    }
    gen.stop();
    let deadline = net.now() + DRAIN_BUDGET;
    while net.in_flight() > 0 && net.now() < deadline {
        net.step();
        observe(&net, &mut wd);
        net.drain_delivered();
    }

    let lost = net.audit().map_or(0, |r| r.lost_packets);
    let injected = net.stats().injected();
    let delivered = net.stats().delivered();
    Point {
        delivered,
        injected,
        lost,
        mean_latency: if measured == 0 {
            0.0
        } else {
            total_latency as f64 / measured as f64
        },
        violations: wd.violations().len(),
        conserved: delivered + lost == injected,
        drained: net.in_flight() == 0,
    }
}

fn main() {
    // ppb = parts-per-billion per link per cycle: 100_000 ≈ 1e-4/cycle.
    let rates: [(u32, &str); 4] = [
        (0, "0"),
        (10_000, "1e-5"),
        (100_000, "1e-4"),
        (1_000_000, "1e-3"),
    ];
    let loads = [0.02, 0.05, 0.10];
    let orgs = [Organization::Mesh, Organization::MeshPra];

    // Expand the grid in print order, run every point on the pool, then
    // report the reassembled rows — identical to the old serial loop.
    let mut grid: Vec<(Organization, u32, &str, f64)> = Vec::new();
    for &org in &orgs {
        for &(ppb, rate) in &rates {
            for &load in &loads {
                grid.push((org, ppb, rate, load));
            }
        }
    }
    let points = run_grid(grid.len(), |i, token| {
        let (org, ppb, _, load) = grid[i];
        run_point(org, ppb, load, token)
    });

    println!("## Latency/throughput degradation under transient link faults\n");
    println!(
        "{:<10}{:>8}{:>7}{:>10}{:>10}{:>8}{:>10}{:>6}{:>10}",
        "Org", "Rate", "Load", "Injected", "Delivered", "Lost", "Latency", "Viol", "Conserved"
    );
    let mut failures = 0u32;
    for ((org, _, rate, load), p) in grid.iter().zip(&points) {
        let ok = p.violations == 0 && p.conserved && p.drained;
        println!(
            "{:<10}{:>8}{:>7.2}{:>10}{:>10}{:>8}{:>10.2}{:>6}{:>10}",
            org.name(),
            rate,
            load,
            p.injected,
            p.delivered,
            p.lost,
            p.mean_latency,
            p.violations,
            if ok { "yes" } else { "NO" }
        );
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} sweep point(s) violated invariants");
        std::process::exit(1);
    }
    println!("\nAll sweep points conserved flits with zero invariant violations.");
}
