//! # bench — the figure/table regeneration harness
//!
//! The `figures` binary prints the paper's tables (see DESIGN.md's
//! experiment index). Each table is a [`figures::Table`]: a [`Plan`] of
//! the cells it needs and a formatter over their [`Measured`] rows.
//! [`measure`] is the one full-system measurement path behind them: it
//! runs each distinct simulation once, however many tables ask for it.
//! The remaining binaries are synthetic-traffic sweeps over the
//! [`run_grid`] pool.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::env::VarError;

use nistats::{SampleSpec, Summary};
use noc::network::Network;
use noc::stats::NetStats;
use pra::network::PraNetwork;
use pra::{ControlConfig, PraStats};
use sysmodel::{System, SystemParams};
use workloads::{WorkloadKind, WorkloadProfile};

pub use runner::{AnyNetwork, Organization};

pub mod figures;

/// Runs `count` independent points across the runner's work-stealing
/// pool (`NOC_THREADS`, default: all cores) and returns the results in
/// index order — so a binary prints exactly what its serial loop
/// printed, just faster. Each task must be a pure function of its index
/// (build the network inside it, derive nothing from shared mutable
/// state). A panicking point aborts the binary with the panic message;
/// sweeps that tolerate per-point failure should go through
/// [`runner::run_points_full_with`] instead.
pub fn run_grid<T: Send>(count: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    runner::run_tasks(count, runner::threads_from_env(), task, |_, _, _, _| {})
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
#[derive(Debug, Clone, PartialEq)]
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

/// What one table asks [`measure`] for: its cells, all sampled under
/// one spec (seeds `1..=spec.samples` over the spec's windows).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The cells, in the order the table reads their rows.
    pub cells: Vec<Cell>,
    /// Windows and sample count.
    pub spec: SampleSpec,
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

/// One simulation: `cell` under one seed and one pair of windows. Two
/// plans that ask for equal runs share the one result.
#[derive(Debug, PartialEq)]
struct Run<'a> {
    cell: &'a Cell,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
}

impl Run<'_> {
    /// Builds a fresh network and system, runs `System::measure` over the
    /// windows, and returns the one-sample [`Measured`] of the network's
    /// end state.
    fn simulate(&self) -> Measured {
        let cell = self.cell;
        let cfg = cell.params.noc.clone();
        let net = match cell.org {
            Organization::MeshPra => {
                AnyNetwork::MeshPra(PraNetwork::with_control(cfg, cell.ctrl.clone()))
            }
            org => AnyNetwork::new(org, cfg),
        };
        let mut sys = System::with_profile(cell.params.clone(), net, cell.profile, self.seed);
        let perf = sys.measure(self.warmup_cycles, self.measure_cycles);
        let net = sys.into_network();
        let pra = match &net {
            AnyNetwork::MeshPra(n) => n.pra_stats().clone(),
            AnyNetwork::Frfc(n) => n.pra_stats().clone(),
            _ => PraStats::new(),
        };
        let perf = Summary::of(&[perf]);
        let net = net.stats().clone();
        Measured { perf, net, pra }
    }
}

/// The distinct runs `plans` ask for, in first-request order, and per
/// plan, per cell, the indices of its seeds' runs in seed order.
fn schedule<'a>(plans: &'a [Plan]) -> (Vec<Run<'a>>, Vec<Vec<Vec<usize>>>) {
    let mut runs: Vec<Run<'a>> = Vec::new();
    let mut index = |run: Run<'a>| {
        runs.iter().position(|r| *r == run).unwrap_or_else(|| {
            runs.push(run);
            runs.len() - 1
        })
    };
    let mut seeds_of = |cell: &'a Cell, spec: &SampleSpec| -> Vec<usize> {
        let (warmup_cycles, measure_cycles) = (spec.warmup_cycles, spec.measure_cycles);
        let run = |seed| Run {
            cell,
            warmup_cycles,
            measure_cycles,
            seed,
        };
        spec.seeds().map(|seed| index(run(seed))).collect()
    };
    let plan_seeds = plans
        .iter()
        .map(|p| p.cells.iter().map(|c| seeds_of(c, &p.spec)).collect())
        .collect();
    (runs, plan_seeds)
}

/// How many runs `plans` ask for, repeats included, and how many of
/// them are distinct — what [`measure`] would simulate — without
/// simulating anything.
pub fn run_counts(plans: &[Plan]) -> (usize, usize) {
    let (runs, seeds) = schedule(plans);
    (seeds.iter().flatten().map(Vec::len).sum(), runs.len())
}

/// The one full-system measurement path. Collects the runs every plan
/// needs and simulates each distinct one once, all on one [`run_grid`]
/// pool. Each cell's [`Measured`] is then folded from its own seeds in
/// seed order (the perf [`Summary`] and the summed statistics), so a
/// cell reads the same whatever else is measured beside it. Results
/// come back per plan, in cell order.
///
/// # Panics
///
/// Panics if a plan with cells asks for zero samples.
pub fn measure(plans: &[Plan]) -> Vec<Vec<Measured>> {
    let (runs, seeds) = schedule(plans);
    let done = run_grid(runs.len(), |i| runs[i].simulate());
    let fold = |seeds: &Vec<usize>| {
        let perfs: Vec<f64> = seeds.iter().map(|&r| done[r].perf.mean).collect();
        let (mut net, mut pra) = (NetStats::new(), PraStats::new());
        for &r in seeds {
            net.merge(&done[r].net);
            pra.merge(&done[r].pra);
        }
        let perf = Summary::of(&perfs);
        Measured { perf, net, pra }
    };
    seeds
        .iter()
        .map(|cells| cells.iter().map(fold).collect())
        .collect()
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
        _ => {
            let got = std::env::var_os("NOC_SAMPLES").unwrap_or_default();
            eprintln!("bench: NOC_SAMPLES must be quick, mid or full (unset = quick), got {got:?}");
            std::process::exit(2)
        }
    }
}
