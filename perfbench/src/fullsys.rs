//! `fullsys_media`: the full-system model (cores, LLC, memory) running
//! Media Streaming over every organisation — the work Figures 2, 6 and 9
//! pay for, and the only workload that drives `Network::announce`.

use std::hint::black_box;
use std::time::Instant;

use noc::network::Network;
use sysmodel::{System, SystemParams};
use workloads::WorkloadKind;

use crate::report::{fastest, Report};
use crate::rounds::{self, conserved, Outputs, Sample};
use crate::timed::{with_org, Clock, NoClock, Sim, Stopwatch, Timed, Visit, ORGS};
use crate::Opts;

/// Name of the workload.
pub const NAME: &str = "fullsys_media";
/// Warm-up cycles before the IPC window.
const WARMUP: u64 = 2_000;
/// Cycles of the IPC window.
const MEASURE: u64 = 6_000;

fn build<N: Network>(net: N, seed: u64) -> System<N> {
    System::new(
        SystemParams::paper(),
        net,
        WorkloadKind::MediaStreaming,
        seed,
    )
}

/// One sample: warm-up, then the IPC window. Network statistics cover
/// both, as in the repository's figure drivers.
fn sample<N: Sim, C: Stopwatch>(
    sys: &mut System<N>,
    windows: (u64, u64),
    step: &mut C,
) -> (Outputs, f64) {
    let (warmup, measure) = windows;
    let start = Instant::now();
    for _ in 0..warmup {
        step.time(|| sys.step());
    }
    let before = sys.committed_instructions();
    for _ in 0..measure {
        step.time(|| sys.step());
    }
    let secs = start.elapsed().as_secs_f64();

    let instructions = sys.committed_instructions();
    let window = instructions - before;
    let net = sys.network();
    let head = format!(
        "instructions={instructions} window_instructions={window} outstanding={}",
        sys.outstanding_transactions()
    );
    let mut out = Outputs::read(net, head);
    out.figure = window as f64 / measure as f64;
    out.work = instructions;
    out.problems
        .extend(conserved(out.injected, out.delivered, net));
    if window == 0 {
        out.problems
            .push("no instruction committed in the window".to_string());
    }
    (out, secs)
}

/// One sample of one organisation, traced or not.
struct Run {
    seed: u64,
    traced: bool,
    /// Warm-up and IPC-window cycles.
    windows: (u64, u64),
}

impl Visit for Run {
    type Out = Sample;
    fn visit<N: Sim>(self, net: N) -> Sample {
        if !self.traced {
            let (out, secs) = sample(&mut build(net, self.seed), self.windows, &mut NoClock);
            return (out, secs, None);
        }
        let mut sys = build(Timed::new(net), self.seed);
        let mut system_step = Clock::default();
        let (out, secs) = sample(&mut sys, self.windows, &mut system_step);
        let layers = rounds::Layers {
            driver: system_step,
            net: sys.into_network().clocks,
            loop_ns: (secs * 1e9) as u64,
        };
        (out, secs, Some(layers))
    }
}

/// Builds one organisation's system and drops it; returns the host
/// seconds of `System::new` alone.
struct Build {
    seed: u64,
}

impl Visit for Build {
    type Out = f64;
    fn visit<N: Sim>(self, net: N) -> f64 {
        let t = Instant::now();
        let sys = build(net, self.seed);
        let secs = t.elapsed().as_secs_f64();
        black_box(sys);
        secs
    }
}

/// Runs the workload for `opts.seconds` and fills `rep`.
pub fn run(opts: &Opts, rep: &mut Report) {
    let cfg = SystemParams::paper().noc;
    let now = Instant::now();
    let root = rep.span(NAME.to_string(), None, now, now);
    let mut system_new = Vec::new();
    let setup = || {
        for (org, _) in ORGS {
            system_new.push(with_org(org, cfg.clone(), Build { seed: opts.seed }));
        }
    };
    let sample = |org, seed, traced| {
        let windows = (WARMUP, MEASURE);
        with_org(
            org,
            cfg.clone(),
            Run {
                seed,
                traced,
                windows,
            },
        )
    };
    let (runs, setups) = rounds::rounds(NAME, opts, rep, root, setup, sample);
    rep.close(root, Instant::now());

    let (mesh, pra) = (runs[0].outputs(), runs[2].outputs());
    let cycles = WARMUP + MEASURE;
    rounds::report_speed(rep, cycles, &runs, &setups);
    rep.set("sim.pra_speedup", pra.figure / mesh.figure);
    rep.set("sim.pra_p99_latency_cycles", pra.p99 as f64);

    if !opts.trace {
        return;
    }
    let all = rounds::report_layers(rep, cycles, &runs, "System::step");
    let traced_cycles =
        (cycles * runs.iter().map(|r| r.traced_secs.len() as u64).sum::<u64>()) as f64;
    let net_ns = all.net.total_ns() as f64;
    rep.set(
        "sysmodel.self_ns_per_cycle",
        (all.driver.ns as f64 - net_ns) / traced_cycles,
    );
    rep.set("sysmodel.net_call_ns_per_cycle", net_ns / traced_cycles);
    rep.set(
        "sysmodel.instructions",
        runs.iter().map(|r| r.outputs().work).sum::<u64>() as f64,
    );
    rep.set("sysmodel.system_new_s", fastest(&system_new));
    let announce = runs[2].layers.net.announce;
    rep.set(
        "pra.announce_calls",
        announce.calls as f64 / runs[2].traced_secs.len() as f64,
    );
    rep.set(
        "pra.announce_ns_per_call",
        announce.ns as f64 / announce.calls.max(1) as f64,
    );
    // `System::step` encloses the network calls, so it alone closes.
    rep.set(
        "trace.residual_frac",
        (all.loop_ns as f64 - all.driver.ns as f64) / all.loop_ns as f64,
    );
    rep.set("trace.spans", rep.span_count() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_samples_equal_untraced_byte_for_byte() {
        for (org, key) in ORGS {
            let run = |traced| {
                let windows = (300, 700);
                let cfg = SystemParams::paper().noc;
                with_org(
                    org,
                    cfg,
                    Run {
                        seed: 7,
                        traced,
                        windows,
                    },
                )
                .0
            };
            let (plain, traced) = (run(false), run(true));
            assert!(plain.problems.is_empty(), "{key}: {:?}", plain.problems);
            assert_eq!(plain.canon, traced.canon, "{key}");
        }
    }
}
