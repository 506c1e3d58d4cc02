//! `synth_idle` and `synth_saturation`: every organisation under the
//! same uniform-random synthetic traffic, one after another.

use std::hint::black_box;
use std::time::Instant;

use noc::config::NocConfig;
use noc::network::{Delivered, Network};
use noc::traffic::{Pattern, TrafficGen};

use crate::report::Report;
use crate::rounds::{self, conserved, Outputs, Sample};
use crate::timed::{with_org, Clock, NoClock, Sim, Stopwatch, Timed, Visit, ORGS};
use crate::Opts;

/// One synthetic-traffic workload.
#[derive(Debug, Clone, Copy)]
pub struct Synth {
    /// Workload name.
    pub name: &'static str,
    /// Injection rate, packets/node/cycle.
    pub rate: f64,
    /// Warm-up cycles (simulated, not in the statistics).
    pub warmup: u64,
    /// Measured-window cycles.
    pub measure: u64,
    /// Whether the mesh must deliver ≥ 99% of what was injected in the
    /// window, i.e. the load is still below saturation.
    pub below_saturation_guard: bool,
}

/// The paper's low-load server regime: router work is rare, so
/// quiescent skip-ahead and traffic generation dominate host time.
pub const IDLE: Synth = Synth {
    name: "synth_idle",
    rate: 0.002,
    warmup: 2_000,
    measure: 20_000,
    below_saturation_guard: false,
};

/// Just below mesh saturation: allocation and credit work every cycle.
/// The window is long enough that Mesh+PRA's p99 latency, which is
/// sensitive to the seed this close to saturation, varies little.
pub const SATURATION: Synth = Synth {
    name: "synth_saturation",
    rate: 0.08,
    warmup: 1_000,
    measure: 9_000,
    below_saturation_guard: true,
};

/// Runs `cycles` cycles of the driver loop: generate, step, drain.
/// Returns the packets delivered.
#[inline]
fn drive<N: Network, C: Stopwatch>(
    net: &mut N,
    gen: &mut TrafficGen,
    tick: &mut C,
    buf: &mut Vec<Delivered>,
    cycles: u64,
) -> u64 {
    let mut drained = 0;
    for _ in 0..cycles {
        tick.time(|| gen.tick(net));
        net.step();
        net.drain_delivered_into(buf);
        drained += buf.len() as u64;
        buf.clear();
    }
    drained
}

fn generator(w: &Synth, cfg: NocConfig, seed: u64) -> TrafficGen {
    TrafficGen::new(cfg, Pattern::UniformRandom, w.rate, seed).response_fraction(0.5)
}

/// One sample: warm-up, statistics reset, measured window. Returns the
/// outputs and the host seconds of the timed loop.
fn sample<N: Sim, C: Stopwatch>(w: &Synth, net: &mut N, seed: u64, tick: &mut C) -> (Outputs, f64) {
    let mut gen = generator(w, net.config().clone(), seed);
    net.set_skip_ahead(true);
    let mut buf = Vec::with_capacity(64);
    let start = Instant::now();
    let mut drained = drive(net, &mut gen, tick, &mut buf, w.warmup);
    let warm_traversals = net.stats().link_traversals;
    net.reset_stats();
    drained += drive(net, &mut gen, tick, &mut buf, w.measure);
    let secs = start.elapsed().as_secs_f64();

    let mut out = Outputs::read(net, format!("generated={}", gen.injected()));
    out.figure = net.stats().avg_latency();
    out.traversals += warm_traversals;
    out.work = gen.injected();
    out.problems.extend(conserved(gen.injected(), drained, net));
    (out, secs)
}

/// One sample of one organisation, traced or not.
struct Run<'a> {
    w: &'a Synth,
    seed: u64,
    traced: bool,
}

impl Visit for Run<'_> {
    type Out = Sample;
    fn visit<N: Sim>(self, mut net: N) -> Sample {
        if !self.traced {
            let (out, secs) = sample(self.w, &mut net, self.seed, &mut NoClock);
            return (out, secs, None);
        }
        let mut timed = Timed::new(net);
        let mut tick = Clock::default();
        let (out, secs) = sample(self.w, &mut timed, self.seed, &mut tick);
        let layers = rounds::Layers {
            driver: tick,
            net: timed.clocks,
            loop_ns: (secs * 1e9) as u64,
        };
        (out, secs, Some(layers))
    }
}

/// Builds what one sample needs before its first cycle, and drops it.
struct Build<'a> {
    w: &'a Synth,
    seed: u64,
}

impl Visit for Build<'_> {
    type Out = ();
    fn visit<N: Sim>(self, net: N) {
        let gen = generator(self.w, net.config().clone(), self.seed);
        black_box((net, gen));
    }
}

/// Runs the workload for `opts.seconds` and fills `rep`.
pub fn run(w: &Synth, opts: &Opts, rep: &mut Report) {
    let cfg = NocConfig::paper();
    let now = Instant::now();
    let root = rep.span(w.name.to_string(), None, now, now);
    let setup = || {
        for (org, _) in ORGS {
            with_org(org, cfg.clone(), Build { w, seed: opts.seed });
        }
    };
    let sample = |org, seed, traced| with_org(org, cfg.clone(), Run { w, seed, traced });
    let (runs, setups) = rounds::rounds(w.name, opts, rep, root, setup, sample);
    rep.close(root, Instant::now());

    let (mesh, pra, ideal) = (runs[0].outputs(), runs[2].outputs(), runs[3].outputs());
    let mut problems = Vec::new();
    for (r, (_, key)) in runs.iter().zip(ORGS) {
        if r.outputs().figure < ideal.figure {
            problems.push(format!(
                "{key} mean latency {:.3} is below the ideal network's {:.3}",
                r.outputs().figure,
                ideal.figure
            ));
        }
    }
    if w.below_saturation_guard && (mesh.delivered as f64) < 0.99 * mesh.injected as f64 {
        problems.push(format!(
            "mesh saturated: delivered {} of {} injected in the window",
            mesh.delivered, mesh.injected
        ));
    }
    rep.attempt("cross-organisation", &problems);

    let cycles = w.warmup + w.measure;
    rounds::report_speed(rep, cycles, &runs, &setups);
    rep.set("sim.pra_speedup", mesh.figure / pra.figure);
    rep.set("sim.pra_p99_latency_cycles", pra.p99 as f64);

    if opts.trace {
        let all = rounds::report_layers(rep, cycles, &runs, "TrafficGen::tick");
        let traced_cycles = cycles * runs.iter().map(|r| r.traced_secs.len() as u64).sum::<u64>();
        rep.set(
            "traffic.tick_ns_per_cycle",
            all.driver.ns as f64 / traced_cycles as f64,
        );
        rep.set("traffic.packets", mesh.work as f64);
        // `tick` calls `inject`, so the closed sum is tick + step + drain.
        let accounted = all.driver.ns + all.net.step.ns + all.net.drain.ns;
        rep.set(
            "trace.residual_frac",
            (all.loop_ns as f64 - accounted as f64) / all.loop_ns as f64,
        );
        rep.set("trace.spans", rep.span_count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_samples_equal_untraced_byte_for_byte() {
        for w in [IDLE, SATURATION] {
            let w = Synth {
                warmup: 200,
                measure: 800,
                ..w
            };
            for (org, key) in ORGS {
                let run = |traced| {
                    let run = Run {
                        w: &w,
                        seed: 7,
                        traced,
                    };
                    with_org(org, NocConfig::paper(), run).0
                };
                let (plain, traced) = (run(false), run(true));
                assert!(
                    plain.problems.is_empty(),
                    "{} {key}: {:?}",
                    w.name,
                    plain.problems
                );
                assert_eq!(plain.canon, traced.canon, "{} {key}", w.name);
            }
        }
    }
}
