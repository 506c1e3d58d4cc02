//! The measurement loop the simulation workloads share: every
//! organisation runs one sample per round, round-robin, until the time
//! is up; each sample's simulated outputs are checked against the first
//! one of its organisation, and the speed metrics come from the median
//! repetition in reference seconds (see [`crate::calib`]).

use std::time::Instant;

use noc::network::Network;
use runner::Organization;

use crate::calib::{normalise, Calibration};
use crate::golden::{self, CHECK_SEED};
use crate::report::{median, peak_rss_mib, Report};
use crate::timed::{Clock, NetClocks, Sim, ORGS};
use crate::Opts;

/// The simulated outputs of one sample. Identical for every repetition
/// of the same seed, traced or not.
#[derive(Debug, Clone)]
pub struct Outputs {
    /// Every simulated statistic, as one comparable line.
    pub canon: String,
    /// The workload's figure of merit (mean packet latency in cycles
    /// for synthetic traffic, IPC for the full system).
    pub figure: f64,
    /// 99th-percentile packet latency, simulated cycles.
    pub p99: u64,
    /// Packets injected and delivered in the statistics window.
    pub injected: u64,
    /// See `injected`.
    pub delivered: u64,
    /// Link traversals over the whole sample, warm-up included.
    pub traversals: u64,
    /// Deterministic work count of the driving layer (packets
    /// generated, or instructions committed).
    pub work: u64,
    /// Traversals executed from reserved timeslots.
    pub reserved_moves: u64,
    /// Reserved timeslots that expired unused.
    pub wasted_reservations: u64,
    /// Cycles a flit was blocked by another packet's reservation.
    pub blocked_by_reservation_cycles: u64,
    /// Mesh+PRA's control-plane counters.
    pub pra: Option<pra::PraStats>,
    /// Failed checks.
    pub problems: Vec<String>,
}

impl Outputs {
    /// Reads the network's statistics after a sample; `head` leads the
    /// canonical line with the driving layer's own outputs.
    pub fn read<N: Sim>(net: &N, head: String) -> Outputs {
        let s = net.stats();
        let pct = |q: f64| s.latency_percentile(q).unwrap_or(0);
        let mut canon = format!(
            "{head} injected={} delivered={} latency_sum={} p50={} p95={} p99={} max={} hops={} \
             traversals={} reserved_moves={} wasted={} blocked={} in_flight={} digest={}",
            s.injected(),
            s.delivered(),
            s.total_latency,
            pct(0.5),
            pct(0.95),
            pct(0.99),
            s.max_latency,
            s.total_hops,
            s.link_traversals,
            s.reserved_moves,
            s.wasted_reservations,
            s.blocked_by_reservation_cycles,
            net.in_flight(),
            net.state_digest()
                .map_or("-".to_string(), |d| format!("{d:016x}")),
        );
        let pra = net.pra_stats().cloned();
        if let Some(p) = &pra {
            canon.push_str(&format!(
                " segments={} preallocated={} llc={} lsd={} refused={} drops={}",
                p.segments_processed,
                p.hops_preallocated,
                p.injected_llc,
                p.injected_lsd,
                p.refused_at_ni,
                p.dropped()
            ));
        }
        let mut problems = Vec::new();
        if let Some(a) = net.audit() {
            if a.present_flits != a.expected_flits || a.credit_violations != 0 {
                problems.push(format!(
                    "audit: {} flits present of {} expected, {} credit violations",
                    a.present_flits, a.expected_flits, a.credit_violations
                ));
            }
        }
        Outputs {
            canon,
            figure: 0.0,
            p99: pct(0.99),
            injected: s.injected(),
            delivered: s.delivered(),
            traversals: s.link_traversals,
            work: 0,
            reserved_moves: s.reserved_moves,
            wasted_reservations: s.wasted_reservations,
            blocked_by_reservation_cycles: s.blocked_by_reservation_cycles,
            pra,
            problems,
        }
    }
}

/// Host time of traced samples, per boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// The driving layer's call: `TrafficGen::tick` (beside the network
    /// calls) or `System::step` (around them).
    pub driver: Clock,
    /// The `Network` calls.
    pub net: NetClocks,
    /// The whole timed loop.
    pub loop_ns: u64,
}

impl Layers {
    fn add(&mut self, other: &Layers) {
        self.driver.add(other.driver);
        self.net.add(&other.net);
        self.loop_ns += other.loop_ns;
    }
}

/// What one sample returns: outputs, host seconds of the timed loop,
/// and the per-boundary times of a traced sample.
pub type Sample = (Outputs, f64, Option<Layers>);

/// One organisation's samples.
#[derive(Debug, Default)]
pub struct OrgRuns {
    /// Reference seconds of each untraced sample.
    pub secs: Vec<f64>,
    /// Reference seconds of each traced sample.
    pub traced_secs: Vec<f64>,
    /// Outputs of the first sample.
    pub first: Option<Outputs>,
    /// Summed layer times of the traced samples.
    pub layers: Layers,
}

impl OrgRuns {
    /// Outputs of the first sample.
    pub fn outputs(&self) -> &Outputs {
        self.first
            .as_ref()
            .expect("every organisation ran at least once")
    }
}

/// Rounds run even when the time is up.
const MIN_ROUNDS: usize = 3;

/// Runs `sample(org, seed, traced)` round-robin over every organisation
/// until `opts.seconds` have passed (untraced, and with `--trace 1` also
/// traced), timing `setup()` once per round. A calibration pass runs
/// between every two timed intervals, and each interval is converted to
/// reference seconds with the passes on either side of it. Then replays
/// each organisation once at the check seed against the committed
/// answers. Returns the per-organisation runs (in [`ORGS`] order) and
/// the set-up times, both in reference seconds.
pub fn rounds(
    workload: &str,
    opts: &Opts,
    rep: &mut Report,
    root: usize,
    mut setup: impl FnMut(),
    mut sample: impl FnMut(Organization, u64, bool) -> Sample,
) -> (Vec<OrgRuns>, Vec<f64>) {
    let mut runs: Vec<OrgRuns> = ORGS.iter().map(|_| OrgRuns::default()).collect();
    let mut setups = Vec::new();
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let deadline = Instant::now() + opts.duration();
    let mut rotation = crate::pin::Rotation::new();
    let calib = Calibration::new();
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        if let Some(r) = rotation.as_mut() {
            r.advance();
        }
        let first = calib.pass();
        let t = Instant::now();
        setup();
        let setup_s = t.elapsed().as_secs_f64();
        let mut before = calib.pass();
        setups.push(normalise(setup_s, first, before));
        for ((org, key), r) in ORGS.iter().zip(&mut runs) {
            for &traced in modes {
                let t0 = Instant::now();
                let (out, secs, layers) = sample(*org, opts.seed, traced);
                let end = Instant::now();
                let after = calib.pass();
                let secs = normalise(secs, before, after);
                before = after;
                let mut problems = out.problems.clone();
                match &r.first {
                    None => r.first = Some(out),
                    Some(first) if first.canon != out.canon => problems.push(format!(
                        "{} sample of {key} diverged from the first: `{}` vs `{}`",
                        if traced { "traced" } else { "repeated" },
                        out.canon,
                        first.canon
                    )),
                    Some(_) => {}
                }
                rep.attempt(key, &problems);
                match layers {
                    Some(l) => {
                        r.traced_secs.push(secs);
                        r.layers.add(&l);
                        rep.span(format!("sample {key}"), Some(root), t0, end);
                    }
                    None => r.secs.push(secs),
                }
            }
        }
        round += 1;
    }

    let checked: Vec<(String, String)> = ORGS
        .iter()
        .map(|(org, key)| {
            let (out, _, _) = sample(*org, CHECK_SEED, false);
            rep.attempt(key, &out.problems);
            (key.to_string(), out.canon)
        })
        .collect();
    let problems = golden::check_outputs(workload, &checked, opts.bless);
    rep.attempt("known answers", &problems);
    (runs, setups)
}

/// Reports the end-to-end speed metrics of `cycles`-cycle samples.
pub fn report_speed(rep: &mut Report, cycles: u64, runs: &[OrgRuns], setups: &[f64]) {
    let cycles = cycles as f64;
    let typical: Vec<f64> = runs.iter().map(|r| median(&r.secs)).collect();
    for ((_, key), t) in ORGS.iter().zip(&typical) {
        rep.set(org_metric(key, "cycles_per_s"), cycles / t);
    }
    let total: f64 = typical.iter().sum();
    rep.set("sim_cycles_per_s", cycles * ORGS.len() as f64 / total);
    rep.set("points_per_s", ORGS.len() as f64 / total);
    rep.set("setup_s", median(setups));
    rep.set("peak_rss_mib", peak_rss_mib());
}

/// Reports the per-organisation and network-boundary layer metrics of
/// the traced samples, names the driving layer's boundary `driver` in
/// the trace, and returns the layer times summed over organisations.
pub fn report_layers(rep: &mut Report, cycles: u64, runs: &[OrgRuns], driver: &str) -> Layers {
    let cycles = cycles as f64;
    let mut all = Layers::default();
    for ((_, key), r) in ORGS.iter().zip(runs) {
        let samples = r.traced_secs.len() as f64;
        let out = r.outputs();
        let step = r.layers.net.step;
        rep.set(
            org_metric(key, "step_ns_per_cycle"),
            step.ns as f64 / (samples * cycles),
        );
        rep.set(
            org_metric(key, "step_ns_per_link_traversal"),
            step.ns as f64 / (samples * out.traversals.max(1) as f64),
        );
        rep.set(org_metric(key, "link_traversals"), out.traversals as f64);
        rep.set(org_metric(key, "delivered"), out.delivered as f64);
        rep.boundary(format!("{key}/{driver}"), r.layers.driver);
        rep.boundary(format!("{key}/Network::inject"), r.layers.net.inject);
        rep.boundary(format!("{key}/Network::step"), step);
        rep.boundary(
            format!("{key}/Network::drain_delivered"),
            r.layers.net.drain,
        );
        rep.boundary(format!("{key}/Network::announce"), r.layers.net.announce);
        all.add(&r.layers);
    }
    let traced_cycles = cycles * runs.iter().map(|r| r.traced_secs.len()).sum::<usize>() as f64;
    rep.set(
        "noc.drain_ns_per_cycle",
        all.net.drain.ns as f64 / traced_cycles,
    );
    rep.set(
        "noc.inject_ns_per_call",
        all.net.inject.ns as f64 / all.net.inject.calls.max(1) as f64,
    );
    let traced: f64 = runs.iter().map(|r| median(&r.traced_secs)).sum();
    let untraced: f64 = runs.iter().map(|r| median(&r.secs)).sum();
    rep.set("trace.overhead_frac", traced / untraced - 1.0);

    let pra = runs[2].outputs();
    if let Some(p) = &pra.pra {
        rep.set("pra.segments_processed", p.segments_processed as f64);
        rep.set("pra.hops_preallocated", p.hops_preallocated as f64);
        rep.set("pra.injected_llc", p.injected_llc as f64);
        rep.set("pra.injected_lsd", p.injected_lsd as f64);
        rep.set("pra.refused_at_ni", p.refused_at_ni as f64);
        rep.set("pra.drops", p.dropped() as f64);
        rep.set(
            "pra.reservation_use_ratio",
            pra.reserved_moves as f64 / p.hops_preallocated.max(1) as f64,
        );
    }
    rep.set("pra.wasted_reservations", pra.wasted_reservations as f64);
    rep.set(
        "pra.blocked_by_reservation_cycles",
        pra.blocked_by_reservation_cycles as f64,
    );
    rep.set("pra.reserved_moves", pra.reserved_moves as f64);
    all
}

/// The declared metric named `<org>.<what>`.
///
/// # Panics
///
/// Panics when no such metric is declared.
pub fn org_metric(key: &str, what: &str) -> &'static str {
    crate::report::END_TO_END
        .iter()
        .chain(&crate::report::PER_LAYER)
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix(key).and_then(|r| r.strip_prefix('.')) == Some(what))
        .unwrap_or_else(|| panic!("no metric {key}.{what}"))
}

/// Checks that a network handed back every packet it accepted.
pub fn conserved(injected: u64, delivered: u64, net: &impl Network) -> Option<String> {
    let in_flight = net.in_flight() as u64;
    (injected != delivered + in_flight).then(|| {
        format!("packets not conserved: injected {injected} != delivered {delivered} + in flight {in_flight}")
    })
}
