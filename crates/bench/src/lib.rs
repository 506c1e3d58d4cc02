//! # bench — the figure/table regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index), plus shared plumbing: building each network
//! organisation, running the sampled system simulation, and formatting
//! result rows.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use nistats::{geometric_mean, Json, SampleSpec, Summary};
use noc::config::NocConfig;
use noc::network::Network;
use pra::network::PraNetwork;
use pra::{ControlConfig, PraStats};
use sysmodel::{System, SystemParams};
use workloads::WorkloadKind;

pub use runner::{AnyNetwork, Organization};

pub mod gate;

/// Runs `count` independent measurement closures across the runner's
/// work-stealing pool (`NOC_THREADS`, default: all cores) and returns
/// the results in index order — so a sweep binary prints exactly what
/// its serial loop printed, just faster. Each closure must be a pure
/// function of its index (build the network inside it, derive nothing
/// from shared mutable state). A panicking point aborts the binary with
/// the panic message; sweeps that tolerate per-point failure should go
/// through [`runner::run_points`] instead.
pub fn run_grid<T: Send>(count: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    runner::run_tasks(count, runner::threads_from_env(), task, |_, _| {})
        .into_iter()
        .map(|outcome| match outcome {
            runner::Outcome::Done(v) => v,
            runner::Outcome::Panicked { task, message } => {
                eprintln!("bench: sweep point {task} panicked: {message}");
                std::process::exit(1);
            }
        })
        .collect()
}

/// Runs `task` with a [`noc::cancel::CancelToken`] armed with the
/// wall-clock budget in `NOC_POINT_WALL_MS` (unset, unparsable, or 0 =
/// unlimited), which lets CI put a ceiling under every figure binary
/// without touching their flags. The task installs the token into its
/// network (`Network::install_cancel`); a run that overruns stops
/// simulating — its remaining cycles free-run to the end of the loop —
/// instead of wedging the whole binary. Overruns are reported on stderr
/// under the name `what`; the budget never appears in artifacts.
fn with_wall_budget<T>(what: &str, task: impl FnOnce(noc::cancel::CancelToken) -> T) -> T {
    let budget_ms = std::env::var("NOC_POINT_WALL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let token = noc::cancel::CancelToken::new();
    let _wall = runner::WallGuard::arm(budget_ms, token.clone());
    let out = task(token.clone());
    if token.is_cancelled() {
        eprintln!(
            "bench: {what} exceeded the {budget_ms}ms wall budget \
             (NOC_POINT_WALL_MS); its result is truncated"
        );
    }
    out
}

/// [`run_grid`], but each closure runs under the `NOC_POINT_WALL_MS`
/// budget and receives its armed token (see `with_wall_budget`).
pub fn run_grid_budgeted<T: Send>(
    count: usize,
    task: impl Fn(usize, noc::cancel::CancelToken) -> T + Sync,
) -> Vec<T> {
    run_grid(count, |i| {
        with_wall_budget(&format!("point {i}"), |token| task(i, token))
    })
}

/// The one sampled full-system measurement loop: per sample, builds the
/// network with `build`, runs `System::measure` over the spec's windows
/// under the `NOC_POINT_WALL_MS` budget, then lets `inspect` read the
/// network's end state. Returns the performance summary over samples.
fn measure_system<N: Network>(
    what: &str,
    params: &SystemParams,
    workload: WorkloadKind,
    spec: &SampleSpec,
    build: impl Fn(NocConfig) -> N,
    mut inspect: impl FnMut(&N),
) -> Summary {
    spec.run(|seed| {
        let mut net = build(params.noc.clone());
        with_wall_budget(what, |token| {
            net.install_cancel(token);
            let mut sys = System::new(params.clone(), net, workload, seed);
            let perf = sys.measure(spec.warmup_cycles, spec.measure_cycles);
            inspect(sys.network());
            perf
        })
    })
}

/// Measures one `(workload, organisation)` point with the given sampling
/// spec; returns the performance summary over samples. Each sample runs
/// under the `NOC_POINT_WALL_MS` wall budget when one is set.
pub fn measure_performance(
    org: Organization,
    workload: WorkloadKind,
    spec: &SampleSpec,
) -> Summary {
    measure_system(
        org.name(),
        &SystemParams::paper(),
        workload,
        spec,
        |cfg| AnyNetwork::new(org, cfg),
        |_| {},
    )
}

/// Measures Mesh+PRA with explicit control configuration and system
/// parameters (ablations).
pub fn measure_pra_with(
    ctrl: ControlConfig,
    params: &SystemParams,
    workload: WorkloadKind,
    spec: &SampleSpec,
) -> Summary {
    let build = |cfg| PraNetwork::with_control(cfg, ctrl.clone());
    measure_system("mesh_pra", params, workload, spec, build, |_| {})
}

/// Measures Mesh+PRA and returns `(performance summary, control stats,
/// data network stats)` for the Figure 7 / Section V.B analyses.
pub fn measure_pra_detail(
    workload: WorkloadKind,
    spec: &SampleSpec,
) -> (Summary, PraStats, noc::stats::NetStats) {
    let mut agg_pra = PraStats::new();
    let mut agg_net = noc::stats::NetStats::new();
    let perf = measure_system(
        "mesh_pra detail",
        &SystemParams::paper(),
        workload,
        spec,
        |cfg| PraNetwork::with_control(cfg, ControlConfig::default()),
        |net| {
            merge_pra(&mut agg_pra, net.pra_stats());
            merge_net(&mut agg_net, net.stats());
        },
    );
    (perf, agg_pra, agg_net)
}

fn merge_pra(acc: &mut PraStats, s: &PraStats) {
    acc.injected_llc += s.injected_llc;
    acc.injected_lsd += s.injected_lsd;
    acc.refused_at_ni += s.refused_at_ni;
    for i in 0..acc.lag_at_drop.len() {
        acc.lag_at_drop[i] += s.lag_at_drop[i];
    }
    for i in 0..acc.drops_by_reason.len() {
        acc.drops_by_reason[i] += s.drops_by_reason[i];
    }
    acc.hops_preallocated += s.hops_preallocated;
    acc.segments_processed += s.segments_processed;
    for i in 0..acc.alloc_fail_kinds.len() {
        acc.alloc_fail_kinds[i] += s.alloc_fail_kinds[i];
    }
}

fn merge_net(acc: &mut noc::stats::NetStats, s: &noc::stats::NetStats) {
    acc.total_latency += s.total_latency;
    acc.total_queue_latency += s.total_queue_latency;
    acc.total_hops += s.total_hops;
    acc.blocked_by_reservation_cycles += s.blocked_by_reservation_cycles;
    acc.reserved_moves += s.reserved_moves;
    acc.wasted_reservations += s.wasted_reservations;
    acc.link_traversals += s.link_traversals;
    acc.local_grants += s.local_grants;
    for i in 0..3 {
        acc.packets_delivered[i] += s.packets_delivered[i];
        acc.packets_injected[i] += s.packets_injected[i];
        acc.flits_delivered[i] += s.flits_delivered[i];
    }
    acc.cycles += s.cycles;
}

/// Writes a Chrome/Perfetto `trace_event` JSON file assembled from a
/// recorder's completed flights plus the control-plane instants still in
/// its ring log.
pub fn write_chrome_trace(rec: &niobs::Recorder, path: &str) -> std::io::Result<()> {
    let instants: Vec<niobs::TimedEvent> = rec.log.iter().cloned().collect();
    let doc = niobs::chrome_trace(rec.flights.completed(), &instants);
    std::fs::write(path, doc.to_string())
}

/// Formats a normalized-performance table (rows = workloads + GMean,
/// columns normalized to the first organisation).
pub fn format_normalized_table(
    title: &str,
    workloads: &[WorkloadKind],
    orgs: &[Organization],
    raw: &[Vec<f64>],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!("{:<16}", "Workload"));
    for org in orgs {
        out.push_str(&format!("{:>10}", org.name()));
    }
    out.push('\n');
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
    for (w, workload) in workloads.iter().enumerate() {
        out.push_str(&format!("{:<16}", workload.name()));
        for o in 0..orgs.len() {
            let r = raw[w][o] / raw[w][0];
            ratios[o].push(r);
            out.push_str(&format!("{:>10.3}", r));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<16}", "GMean"));
    for r in &ratios {
        out.push_str(&format!("{:>10.3}", geometric_mean(r)));
    }
    out.push('\n');
    out
}

/// A machine-readable record of one figure's results, written next to the
/// human-readable table when `NOC_RESULTS_JSON` names a file.
#[derive(Debug, Clone)]
pub struct FigureResults {
    /// Figure identifier (e.g. "fig6").
    pub figure: String,
    /// Row labels (workloads).
    pub rows: Vec<String>,
    /// Column labels (organisations).
    pub columns: Vec<String>,
    /// Raw values, `values[row][column]`.
    pub values: Vec<Vec<f64>>,
}

impl FigureResults {
    /// Writes the record as JSON to the path in `NOC_RESULTS_JSON`
    /// (appending a `.{figure}.json` suffix); does nothing when the
    /// variable is unset. IO errors are reported to stderr, not fatal —
    /// the human-readable output already went to stdout.
    pub fn write_if_requested(&self) {
        let Ok(base) = std::env::var("NOC_RESULTS_JSON") else {
            return;
        };
        let path = format!("{base}.{}.json", self.figure);
        let json = self.to_json().to_string_pretty(2);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: cannot write {path}: {e}");
        } else {
            eprintln!("results written to {path}");
        }
    }

    /// The record as a JSON tree.
    pub fn to_json(&self) -> Json {
        let strings =
            |xs: &[String]| Json::Array(xs.iter().map(|s| Json::from(s.as_str())).collect());
        Json::object(vec![
            ("figure".into(), Json::from(self.figure.as_str())),
            ("rows".into(), strings(&self.rows)),
            ("columns".into(), strings(&self.columns)),
            (
                "values".into(),
                Json::Array(
                    self.values
                        .iter()
                        .map(|row| Json::Array(row.iter().map(|&v| Json::Float(v)).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The sampling spec selected by the `NOC_SAMPLES` environment variable:
/// `full` (paper windows), `mid`, or anything else/unset (quick windows).
pub fn spec_from_env() -> SampleSpec {
    match std::env::var("NOC_SAMPLES").as_deref() {
        Ok("full") => SampleSpec::paper(),
        Ok("mid") => SampleSpec {
            warmup_cycles: 20_000,
            measure_cycles: 30_000,
            samples: 3,
        },
        _ => SampleSpec {
            warmup_cycles: 5_000,
            measure_cycles: 15_000,
            samples: 2,
        },
    }
}
