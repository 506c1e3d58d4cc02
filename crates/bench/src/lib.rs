//! # bench — the figure/table regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index), plus shared plumbing: building each network
//! organisation, running the sampled system simulation, and formatting
//! result rows.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::env::VarError;

use nistats::{geometric_mean, SampleSpec, Summary};
use noc::cancel::CancelToken;
use noc::network::Network;
use noc::stats::NetStats;
use pra::network::PraNetwork;
use pra::{ControlConfig, PraStats};
use sysmodel::{System, SystemParams};
use workloads::{WorkloadKind, WorkloadProfile};

pub use runner::{AnyNetwork, Organization};

/// Runs `count` independent points across the runner's work-stealing
/// pool (`NOC_THREADS`, default: all cores) and returns the results in
/// index order — so a binary prints exactly what its serial loop
/// printed, just faster. Each task must be a pure function of its index
/// (build the network inside it, derive nothing from shared mutable
/// state).
///
/// Each task receives a [`CancelToken`] armed with the wall-clock
/// budget in `NOC_POINT_WALL_MS` (unset or 0 = unlimited), which lets CI
/// put a ceiling under every binary without touching their flags. The
/// task installs the token into the networks it builds
/// (`Network::install_cancel`); a point that overruns stops simulating —
/// its remaining cycles free-run to the end of the loop — instead of
/// wedging the whole binary. Overruns are reported on stderr; the budget
/// never appears in stdout. A panicking point aborts the binary with the
/// panic message; sweeps that tolerate per-point failure should go
/// through [`runner::run_points_full_with`] instead.
pub fn run_grid<T: Send>(count: usize, task: impl Fn(usize, CancelToken) -> T + Sync) -> Vec<T> {
    let budget_ms = wall_budget_from_env();
    let budgeted = |i| {
        let token = CancelToken::new();
        let _wall = runner::WallGuard::arm(budget_ms, token.clone());
        let out = task(i, token.clone());
        if token.is_cancelled() {
            eprintln!(
                "bench: point {i} exceeded the {budget_ms}ms wall budget \
                 (NOC_POINT_WALL_MS); its result is truncated"
            );
        }
        out
    };
    runner::run_tasks(count, runner::threads_from_env(), budgeted, |_, _, _, _| {})
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

/// One full-system measurement point: organisation `org` running
/// `profile` on the system `params`. `ctrl` only affects Mesh+PRA.
/// Build one with [`Cell::paper`] plus struct-update syntax.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The network organisation.
    pub org: Organization,
    /// The workload the cores run.
    pub profile: WorkloadProfile,
    /// System parameters (NoC configuration, announce switches, …).
    pub params: SystemParams,
    /// PRA control-plane configuration (Mesh+PRA only).
    pub ctrl: ControlConfig,
}

impl Cell {
    /// `org` running `workload` on the paper's system with the default
    /// control plane.
    pub fn paper(org: Organization, workload: WorkloadKind) -> Cell {
        Cell {
            org,
            profile: workload.profile(),
            params: SystemParams::paper(),
            ctrl: ControlConfig::default(),
        }
    }

    /// [`Cell::paper`] for every `(workload, org)` pair, workload-major:
    /// cell `w * orgs.len() + o` is `orgs[o]` running `workloads[w]`.
    pub fn grid(workloads: &[WorkloadKind], orgs: &[Organization]) -> Vec<Cell> {
        workloads
            .iter()
            .flat_map(|&wl| orgs.iter().map(move |&org| Cell::paper(org, wl)))
            .collect()
    }
}

/// What [`measure`] reports for one [`Cell`].
#[derive(Debug, Clone)]
pub struct Measured {
    /// System performance (committed instructions per cycle) over samples.
    pub perf: Summary,
    /// Data-network statistics, summed over samples.
    pub net: NetStats,
    /// Control-plane statistics, summed over samples: the PRA control
    /// network's for Mesh+PRA, FRFC's for FRFC, zero otherwise.
    pub pra: PraStats,
}

/// The one full-system measurement path. Runs every cell on the
/// [`run_grid`] pool; per cell, each of the spec's samples (seeds
/// `1..=samples`) builds a fresh network under the cell's
/// `NOC_POINT_WALL_MS` token, runs `System::measure` over the spec's
/// windows, and folds the network's end state into the cell's
/// [`Measured`]. Results come back in cell order.
pub fn measure(cells: &[Cell], spec: &SampleSpec) -> Vec<Measured> {
    run_grid(cells.len(), |i, token| {
        let cell = &cells[i];
        let mut net_stats = NetStats::new();
        let mut pra_stats = PraStats::new();
        let perf = spec.run(|seed| {
            let cfg = cell.params.noc.clone();
            let mut net = match cell.org {
                Organization::MeshPra => {
                    AnyNetwork::MeshPra(PraNetwork::with_control(cfg, cell.ctrl.clone()))
                }
                org => AnyNetwork::new(org, cfg),
            };
            net.install_cancel(token.clone());
            let mut sys = System::with_profile(cell.params.clone(), net, cell.profile, seed);
            let perf = sys.measure(spec.warmup_cycles, spec.measure_cycles);
            let net = sys.into_network();
            net_stats.merge(net.stats());
            match &net {
                AnyNetwork::MeshPra(n) => pra_stats.merge(n.pra_stats()),
                AnyNetwork::Frfc(n) => pra_stats.merge(n.pra_stats()),
                _ => {}
            }
            perf
        });
        Measured {
            perf,
            net: net_stats,
            pra: pra_stats,
        }
    })
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

/// The quick windows: the figures' default, and (with one sample) the
/// fixed windows of the diagnostics and `load_sweep`.
pub const QUICK: SampleSpec = SampleSpec {
    warmup_cycles: 5_000,
    measure_cycles: 15_000,
    samples: 2,
};

/// The sampling spec selected by the `NOC_SAMPLES` environment variable:
/// `full` (paper windows), `mid`, or `quick` (the default when unset).
/// Any other value exits with status 2 rather than silently running the
/// wrong windows.
pub fn spec_from_env() -> SampleSpec {
    match std::env::var("NOC_SAMPLES").as_deref() {
        Err(VarError::NotPresent) | Ok("quick") => QUICK,
        Ok("mid") => SampleSpec {
            warmup_cycles: 20_000,
            measure_cycles: 30_000,
            samples: 3,
        },
        Ok("full") => SampleSpec::paper(),
        _ => usage_exit("NOC_SAMPLES", "quick, mid or full (unset = quick)"),
    }
}

/// The per-point wall budget in `NOC_POINT_WALL_MS` (unset = 0 = no
/// budget); anything but a whole number of milliseconds exits with
/// status 2.
fn wall_budget_from_env() -> u64 {
    match std::env::var("NOC_POINT_WALL_MS")
        .as_deref()
        .map(str::parse)
    {
        Err(VarError::NotPresent) => 0,
        Ok(Ok(ms)) => ms,
        _ => usage_exit(
            "NOC_POINT_WALL_MS",
            "a whole number of milliseconds (0 or unset = no budget)",
        ),
    }
}

/// Rejects the value of environment variable `var`: names the `valid`
/// values on stderr and exits with status 2.
fn usage_exit(var: &str, valid: &str) -> ! {
    let got = std::env::var_os(var).unwrap_or_default();
    eprintln!("bench: {var} must be {valid}, got {got:?}");
    std::process::exit(2)
}
