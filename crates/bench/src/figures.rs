//! The paper's tables, each a [`Table`]: a plan of the cells it
//! measures and a pure formatter from their [`Measured`] rows (in plan
//! order) to the table's text. The `figures` binary measures every
//! requested table's plan in one [`measure`](crate::measure) call, so a
//! cell that several tables read runs once.

use std::fmt::{self, Write};

use nistats::{geometric_mean, SampleSpec};
use noc::config::NocConfig;
use noc::flit::Packet;
use noc::network::Network;
use noc::stats::NetStats;
use noc::types::{MessageClass, NodeId, PacketId};
use pra::ControlConfig;
use sysmodel::SystemParams;
use techmodel::{performance_density, ChipModel, NocAreaBreakdown, NocOrganization, NocPower};
use workloads::WorkloadKind;

use crate::{AnyNetwork, Cell, Measured, Organization, Plan, QUICK};

/// One table of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// The name `figures` selects the table by.
    pub name: &'static str,
    /// The cells the table reads and their sampling, given the
    /// `NOC_SAMPLES` spec (tables with fixed windows ignore it).
    pub plan: fn(&SampleSpec) -> Plan,
    /// Appends the table's text, from the [`Measured`] rows of its
    /// plan's cells.
    pub format: fn(&[Measured], &mut String) -> fmt::Result,
}

const fn table(
    name: &'static str,
    plan: fn(&SampleSpec) -> Plan,
    format: fn(&[Measured], &mut String) -> fmt::Result,
) -> Table {
    Table { name, plan, format }
}

/// Every table, in the order `figures` prints them all.
pub const TABLES: [Table; 15] = [
    table("table1", no_cells, table1),
    table("fig2", fig2_plan, fig2),
    table("fig6", every_org_and_workload, fig6),
    table("fig7", pra_on_every_workload, fig7),
    table("sec5b", pra_on_every_workload, sec5b),
    table("fig8", no_cells, fig8),
    table("fig9", every_org_and_workload, fig9),
    table("sec5e", sec5e_plan, sec5e),
    table("ablation", ablation_plan, ablation),
    table("lag_sweep", lag_sweep_plan, lag_sweep),
    table("frfc_compare", frfc_compare_plan, frfc_compare),
    table("tail_latency", tail_latency_plan, tail_latency),
    table("load_sweep", load_sweep_plan, load_sweep),
    table("pra_diag", pra_diag_plan, pra_diag),
    table("frfc_diag", frfc_diag_plan, frfc_diag),
];

/// The table called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.name == name)
}

/// The quick windows with one sample: the fixed spec of the diagnostics
/// and `load_sweep`.
const QUICK_ONE: SampleSpec = SampleSpec {
    samples: 1,
    ..QUICK
};

fn plan(cells: Vec<Cell>, spec: SampleSpec) -> Plan {
    Plan { cells, spec }
}

fn no_cells(spec: &SampleSpec) -> Plan {
    plan(Vec::new(), *spec)
}

/// Table I: evaluation parameters of the reproduction.
fn table1(_: &[Measured], out: &mut String) -> fmt::Result {
    let cfg = NocConfig::paper();
    let sys = SystemParams::paper();
    let chip = ChipModel::paper();
    writeln!(out, "## Table I — evaluation parameters\n")?;
    writeln!(out, "Technology            32 nm, 0.9 V, 2 GHz")?;
    writeln!(
        out,
        "Processor             {} cores, {} MB NUCA LLC, {} DDR3-1600 channels",
        chip.cores,
        chip.llc_mb,
        sys.memory_controllers.len()
    )?;
    writeln!(
        out,
        "Core                  ARM Cortex-A15-like, {} mm², {} W",
        chip.core_area_mm2, chip.core_power_w
    )?;
    writeln!(
        out,
        "LLC slice             {} mm²/MB, {} mW/MB, {}-cycle tag / {}-cycle data",
        chip.sram.area_mm2_per_mb,
        chip.sram.power_w_per_mb * 1000.0,
        sys.llc_tag_cycles,
        sys.llc_data_cycles
    )?;
    writeln!(
        out,
        "Mesh                  {}x{} mesh, {} VCs/port, {} flits/VC, {}-bit links",
        cfg.radix, cfg.radix, cfg.vcs_per_port, cfg.vc_depth, cfg.link_width_bits
    )?;
    writeln!(
        out,
        "Multi-hop ceiling     {} tiles/cycle (85 ps/mm wires, ~1.8 mm tiles)",
        cfg.max_hops_per_cycle
    )?;
    writeln!(
        out,
        "Memory                {} cycles DRAM latency, {} cycles/line occupancy",
        sys.dram_latency, sys.dram_line_cycles
    )?;
    writeln!(out, "\nWorkloads (ILP / MLP / I-MPKI / D-MPKI / LLC hit):")?;
    for wl in WorkloadKind::ALL {
        let p = wl.profile();
        writeln!(
            out,
            "  {:<16} {:.1} / {} / {:>4.1} / {:>4.1} / {:.2}{}",
            wl.name(),
            p.ilp,
            p.mlp,
            p.i_mpki,
            p.d_mpki,
            p.llc_hit_ratio,
            if wl.is_batch() { "  (batch)" } else { "" }
        )?;
    }
    Ok(())
}

const FIG2_WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::MediaStreaming, WorkloadKind::WebSearch];
const FIG2_ORGS: [Organization; 3] = [Organization::Mesh, Organization::Smart, Organization::Ideal];

fn fig2_plan(spec: &SampleSpec) -> Plan {
    plan(Cell::grid(&FIG2_WORKLOADS, &FIG2_ORGS), *spec)
}

/// Figure 2: SMART and Ideal performance normalized to the mesh on the
/// two representative workloads (Media Streaming, Web Search).
fn fig2(results: &[Measured], out: &mut String) -> fmt::Result {
    writeln!(out, "## Figure 2 — SMART and Ideal vs Mesh\n")?;
    writeln!(out, "{:<16}{:>10}{:>10}", "Workload", "SMART", "Ideal")?;
    let mut smart = Vec::new();
    let mut ideal = Vec::new();
    for (wl, row) in FIG2_WORKLOADS.iter().zip(results.chunks(FIG2_ORGS.len())) {
        let perfs: Vec<f64> = row.iter().map(|m| m.perf.mean).collect();
        let (s, i) = (perfs[1] / perfs[0], perfs[2] / perfs[0]);
        smart.push(s);
        ideal.push(i);
        writeln!(out, "{:<16}{:>10.3}{:>10.3}", wl.name(), s, i)?;
    }
    writeln!(
        out,
        "{:<16}{:>10.3}{:>10.3}",
        "GMean",
        geometric_mean(&smart),
        geometric_mean(&ideal)
    )?;
    writeln!(
        out,
        "\npaper: SMART ≈ mesh; ideal ≈ +28% average on these workloads"
    )
}

/// Figures 6 and 9: every organisation on every workload.
fn every_org_and_workload(spec: &SampleSpec) -> Plan {
    plan(Cell::grid(&WorkloadKind::ALL, &Organization::ALL), *spec)
}

/// The table of Figures 6 and 9 over every organisation on every
/// workload: `value(o, m)` of each cell normalized to the mesh's, one row
/// per workload plus GMean.
fn normalized_table(
    out: &mut String,
    title: &str,
    results: &[Measured],
    value: impl Fn(usize, &Measured) -> f64,
) -> fmt::Result {
    writeln!(out, "## {title}\n")?;
    write!(out, "{:<16}", "Workload")?;
    for org in Organization::ALL {
        write!(out, "{:>10}", org.name())?;
    }
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); Organization::ALL.len()];
    let rows = results.chunks(Organization::ALL.len());
    for (workload, row) in WorkloadKind::ALL.iter().zip(rows) {
        write!(out, "\n{:<16}", workload.name())?;
        for (o, m) in row.iter().enumerate() {
            let r = value(o, m) / value(0, &row[0]);
            ratios[o].push(r);
            write!(out, "{:>10.3}", r)?;
        }
    }
    write!(out, "\n{:<16}", "GMean")?;
    for r in &ratios {
        write!(out, "{:>10.3}", geometric_mean(r))?;
    }
    writeln!(out)
}

/// Figure 6: system performance of Mesh, SMART, Mesh+PRA and Ideal over
/// the six CloudSuite workloads, normalized to the mesh.
fn fig6(results: &[Measured], out: &mut String) -> fmt::Result {
    let title = "Figure 6 — system performance (normalized to Mesh)";
    normalized_table(out, title, results, |_, m| m.perf.mean)?;
    writeln!(out)
}

/// Figure 9: performance density (performance per mm²), normalized to
/// the mesh. The ideal network is idealistically booked at mesh area.
fn fig9(results: &[Measured], out: &mut String) -> fmt::Result {
    let cfg = NocConfig::paper();
    let areas = [
        NocOrganization::Mesh,
        NocOrganization::Smart,
        NocOrganization::MeshPra,
        NocOrganization::Mesh, // ideal at mesh area
    ]
    .map(|org| NocAreaBreakdown::compute(org, &cfg).total_mm2());
    let title = "Figure 9 — performance density (normalized to Mesh)";
    let density = |o, m: &Measured| performance_density(m.perf.mean, areas[o]);
    normalized_table(out, title, results, density)?;
    writeln!(
        out,
        "\npaper: Mesh+PRA +14% vs Mesh, +12% vs SMART, −5% vs Ideal"
    )
}

/// Figure 7 and Section V.B: Mesh+PRA on every workload.
fn pra_on_every_workload(spec: &SampleSpec) -> Plan {
    plan(
        Cell::grid(&WorkloadKind::ALL, &[Organization::MeshPra]),
        *spec,
    )
}

/// Figure 7: distribution of control packets' lag when dropped
/// (Mesh+PRA, all six workloads).
fn fig7(results: &[Measured], out: &mut String) -> fmt::Result {
    writeln!(out, "## Figure 7 — control-packet lag at drop time\n")?;
    writeln!(
        out,
        "{:<16}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "Workload", "Lag0", "Lag1", "Lag2", "Lag3", "Lag4+"
    )?;
    for (wl, Measured { pra, .. }) in WorkloadKind::ALL.iter().zip(results) {
        let d = pra.lag_distribution(4);
        let lag4plus: f64 =
            d[4] + pra.lag_at_drop[5..].iter().sum::<u64>() as f64 / pra.dropped().max(1) as f64;
        writeln!(
            out,
            "{:<16}{:>7.1}%{:>7.1}%{:>7.1}%{:>7.1}%{:>7.1}%",
            wl.name(),
            d[0] * 100.0,
            d[1] * 100.0,
            d[2] * 100.0,
            d[3] * 100.0,
            lag4plus * 100.0
        )?;
    }
    writeln!(
        out,
        "\npaper: Lag0 53–67% (avg 61%), Lag1 15–20%, Lag2 17–27%, >2 below 2%"
    )
}

/// Section V.B: control packets per data packet and the
/// reservation-blocking (resource underutilisation) fraction.
fn sec5b(results: &[Measured], out: &mut String) -> fmt::Result {
    writeln!(out, "## Section V.B — why is PRA effective?\n")?;
    writeln!(
        out,
        "{:<16}{:>12}{:>14}{:>16}{:>14}",
        "Workload", "ctrl/data", "prealloc-hops", "blocked-frac", "wasted-frac"
    )?;
    for (wl, Measured { pra, net, .. }) in WorkloadKind::ALL.iter().zip(results) {
        let data = net.delivered();
        writeln!(
            out,
            "{:<16}{:>12.2}{:>14.2}{:>15.4}%{:>13.2}%",
            wl.name(),
            pra.controls_per_data_packet(data),
            pra.hops_preallocated as f64 / data.max(1) as f64,
            net.reservation_blocking_fraction() * 100.0,
            net.wasted_reservations as f64 / net.reserved_moves.max(1) as f64 * 100.0
        )?;
    }
    writeln!(
        out,
        "\npaper: 1.60–1.89 control packets per data packet;\n       \
         ≈0.01% of end-to-end latency blocked by reservations"
    )
}

/// Figure 8: NOC area breakdown (links / buffers / crossbars).
fn fig8(_: &[Measured], out: &mut String) -> fmt::Result {
    let cfg = NocConfig::paper();
    writeln!(out, "## Figure 8 — NOC area breakdown (mm²)\n")?;
    writeln!(
        out,
        "{:<10}{:>8}{:>9}{:>10}{:>8}",
        "Org", "Links", "Buffers", "Crossbar", "Total"
    )?;
    for org in NocOrganization::ALL {
        let b = NocAreaBreakdown::compute(org, &cfg);
        writeln!(
            out,
            "{:<10}{:>8.2}{:>9.2}{:>10.2}{:>8.2}",
            org.name(),
            b.links_mm2,
            b.buffers_mm2,
            b.crossbar_mm2,
            b.total_mm2()
        )?;
    }
    writeln!(
        out,
        "\npaper: Mesh 3.5 mm², SMART 4.5 mm² (+31%), Mesh+PRA 4.9 mm² (+40%)"
    )
}

const SEC5E_ORGS: [Organization; 3] = [
    Organization::Mesh,
    Organization::Smart,
    Organization::MeshPra,
];

fn sec5e_plan(spec: &SampleSpec) -> Plan {
    let spec = SampleSpec {
        samples: 1,
        ..*spec
    };
    plan(Cell::grid(&[WorkloadKind::WebSearch], &SEC5E_ORGS), spec)
}

/// Section V.E: power analysis — NOC power vs core power.
fn sec5e(results: &[Measured], out: &mut String) -> fmt::Result {
    let params = SystemParams::paper();
    let chip = ChipModel::paper();
    writeln!(out, "## Section V.E — power analysis (Web Search)\n")?;
    writeln!(
        out,
        "{:<10}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "Org", "links W", "buffers W", "xbar W", "leakage W", "total W"
    )?;
    for (org, m) in SEC5E_ORGS.iter().zip(results) {
        let p = NocPower::from_activity(&params.noc, &m.net, 2.0);
        writeln!(
            out,
            "{:<10}{:>10.3}{:>12.3}{:>12.3}{:>12.3}{:>10.3}",
            org.name(),
            p.links_w,
            p.buffers_w,
            p.crossbar_w,
            p.leakage_w,
            p.total_w()
        )?;
    }
    writeln!(
        out,
        "\ncores: {:.1} W, LLC: {:.1} W — paper: NOC below 2 W, cores above 60 W",
        chip.cores_power_w(),
        chip.llc_power_w()
    )
}

/// The ablation's PRA cases.
const ABLATION_LABELS: [&str; 5] = [
    "PRA: LLC window only (paper text, no LSD)",
    "PRA: LSD only",
    "PRA: LLC window + LSD (paper text)",
    "PRA: + L1-miss window (requests)",
    "PRA: + MC fill window (full reproduction)",
];

/// Per ablation case: the LLC window, LSD, request-announce and
/// fill-announce switches.
const ABLATION_SWITCHES: [[bool; 4]; 5] = [
    [true, false, false, false],
    [false, true, false, false],
    [true, true, false, false],
    [true, true, true, false],
    [true, true, true, true],
];

/// The mesh and ideal anchors on Media Streaming, then Mesh+PRA under
/// each of `ctrls` (control plane, request and fill announce switches):
/// the cells of the ablation and the lag sweep.
fn media_pra_cells(ctrls: impl IntoIterator<Item = (ControlConfig, bool, bool)>) -> Vec<Cell> {
    let wl = WorkloadKind::MediaStreaming;
    let mut cells = Cell::grid(&[wl], &[Organization::Mesh, Organization::Ideal]);
    cells.extend(ctrls.into_iter().map(|(ctrl, reqs, fills)| Cell {
        params: SystemParams {
            announce_requests: reqs,
            announce_fills: fills,
            ..SystemParams::paper()
        },
        ctrl,
        ..Cell::paper(Organization::MeshPra, wl)
    }));
    cells
}

fn ablation_plan(spec: &SampleSpec) -> Plan {
    let cases = ABLATION_SWITCHES.map(|[llc_window, lsd, reqs, fills]| {
        let ctrl = ControlConfig {
            llc_window,
            lsd,
            ..ControlConfig::default()
        };
        (ctrl, reqs, fills)
    });
    plan(media_pra_cells(cases), *spec)
}

/// Ablation: the contribution of each PRA opportunity window.
///
/// The paper's two windows are the LLC serial-lookup interval and
/// in-network blocking (LSD). This reproduction adds the symmetric
/// L1-miss window for requests (see DESIGN.md §5); the ablation
/// quantifies each source on Media Streaming.
fn ablation(results: &[Measured], out: &mut String) -> fmt::Result {
    let perfs: Vec<f64> = results.iter().map(|m| m.perf.mean).collect();
    let (mesh, ideal) = (perfs[0], perfs[1]);
    writeln!(
        out,
        "## Ablation — PRA opportunity windows (Media Streaming)\n"
    )?;
    writeln!(
        out,
        "{:<44}{:>10}{:>12}",
        "Configuration", "perf", "vs mesh"
    )?;
    writeln!(out, "{:<44}{:>10.2}{:>11.1}%", "Mesh baseline", mesh, 0.0)?;
    for (name, p) in ABLATION_LABELS.iter().zip(&perfs[2..]) {
        writeln!(
            out,
            "{:<44}{:>10.2}{:>11.1}%",
            name,
            p,
            (p / mesh - 1.0) * 100.0
        )?;
    }
    writeln!(
        out,
        "{:<44}{:>10.2}{:>11.1}%",
        "Ideal (zero router delay)",
        ideal,
        (ideal / mesh - 1.0) * 100.0
    )
}

const LAGS: [u8; 6] = [1, 2, 3, 4, 6, 8];

fn lag_sweep_plan(spec: &SampleSpec) -> Plan {
    let ctrls = LAGS.map(|max_lag| {
        let ctrl = ControlConfig {
            max_lag,
            ..ControlConfig::default()
        };
        (ctrl, true, true)
    });
    plan(media_pra_cells(ctrls), *spec)
}

/// Ablation: the maximum control-packet lag.
///
/// The paper fixes the maximum lag at 4 (the LLC data-lookup window).
/// A lag budget of L covers 1 + 2(L-1) route hops; this sweep shows the
/// diminishing returns past the mesh's average hop count and the cost of
/// shrinking the window.
fn lag_sweep(results: &[Measured], out: &mut String) -> fmt::Result {
    let perfs: Vec<f64> = results.iter().map(|m| m.perf.mean).collect();
    let (mesh, ideal) = (perfs[0], perfs[1]);
    writeln!(out, "## Max-lag sweep (Media Streaming)\n")?;
    writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>14}",
        "max_lag", "perf", "vs mesh", "hops covered"
    )?;
    for (max_lag, p) in LAGS.iter().zip(&perfs[2..]) {
        writeln!(
            out,
            "{:>8} {:>10.2} {:>9.1}% {:>14}",
            max_lag,
            p,
            (p / mesh - 1.0) * 100.0,
            1 + 2 * u32::from(*max_lag).saturating_sub(1)
        )?;
    }
    writeln!(
        out,
        "\nmesh {:.2}, ideal {:.2} ({:+.1}%); the paper's lag 4 covers 7 hops —\n\
         beyond the 8x8 mesh's 5.3-hop average, returns flatten.",
        mesh,
        ideal,
        (ideal / mesh - 1.0) * 100.0
    )
}

const FRFC_WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::MediaStreaming,
    WorkloadKind::WebSearch,
    WorkloadKind::DataServing,
];
const FRFC_ORGS: [Organization; 3] = [
    Organization::Mesh,
    Organization::MeshPra,
    Organization::Frfc,
];

fn frfc_compare_plan(spec: &SampleSpec) -> Plan {
    plan(Cell::grid(&FRFC_WORKLOADS, &FRFC_ORGS), *spec)
}

/// Zero-load latency of one announced single-flit request from node 0
/// to `dest` on `org`.
fn zero_load(org: Organization, dest: u16) -> u64 {
    let mut net = AnyNetwork::new(org, NocConfig::paper());
    let (src, dest) = (NodeId::new(0), NodeId::new(dest));
    let p = Packet::new(PacketId(1), src, dest, MessageClass::Request, 1);
    net.announce(&p, 4);
    for _ in 0..4 {
        net.step();
    }
    let now = net.now();
    net.inject(p.at(now));
    let d = net.run_to_drain(2_000 - now);
    d[0].delivered - d[0].packet.created
}

/// Related-work comparison: PRA vs flit-reservation flow control.
///
/// Section VI of the paper argues FRFC "does not support single-cycle
/// multi-hop traversal"; this table makes the comparison quantitative,
/// at the system level and at zero load (where the crossover with route
/// length is visible: FRFC's constant-lead wave covers arbitrarily long
/// paths at 1 cycle/hop, PRA covers up to its lag budget at 0.5).
fn frfc_compare(results: &[Measured], out: &mut String) -> fmt::Result {
    writeln!(out, "## PRA vs flit-reservation flow control\n")?;
    writeln!(out, "zero-load announced latency (single flit):")?;
    writeln!(out, "{:>6} {:>10} {:>10}", "hops", "Mesh+PRA", "Mesh+FRFC")?;
    for (dest, hops) in [(2u16, 2), (4, 4), (7, 7), (27, 6), (63, 14)] {
        writeln!(
            out,
            "{:>6} {:>10} {:>10}",
            hops,
            zero_load(Organization::MeshPra, dest),
            zero_load(Organization::Frfc, dest)
        )?;
    }
    writeln!(out, "\nsystem performance (normalized to mesh):")?;
    writeln!(
        out,
        "{:<16}{:>10}{:>12}",
        "Workload", "Mesh+PRA", "Mesh+FRFC"
    )?;
    for (wl, row) in FRFC_WORKLOADS.iter().zip(results.chunks(FRFC_ORGS.len())) {
        let [mesh, pra, frfc] = [0, 1, 2].map(|o| row[o].perf.mean);
        writeln!(
            out,
            "{:<16}{:>9.3} {:>11.3}",
            wl.name(),
            pra / mesh,
            frfc / mesh
        )?;
    }
    writeln!(
        out,
        "\nFRFC's constant-lead wave wins on long zero-load paths, and cuts\n\
         request latency sharply — but its whole-route, per-packet slot\n\
         windows serialize competing multi-flit responses, so the system-\n\
         level gain nets out near zero. PRA's bounded multi-hop windows\n\
         deliver instead: the quantitative form of the paper's Section VI\n\
         argument for not building on flit-reservation flow control."
    )
}

const TAIL_ORGS: [Organization; 5] = [
    Organization::Mesh,
    Organization::Smart,
    Organization::MeshPra,
    Organization::Frfc,
    Organization::Ideal,
];

fn tail_latency_plan(_: &SampleSpec) -> Plan {
    let spec = SampleSpec {
        warmup_cycles: 0,
        measure_cycles: 20_000,
        samples: 1,
    };
    plan(Cell::grid(&[WorkloadKind::WebSearch], &TAIL_ORGS), spec)
}

/// Tail latency of NoC packets per organisation — the QoS lens.
///
/// The paper's whole motivation is QoS-constrained server workloads
/// ("latency requirements as part of their service-level agreement").
/// Mean speedups understate what PRA does for the tail: a reactive mesh's
/// p99 packet latency includes every unlucky arbitration loss, while
/// pre-allocated paths are contention-immune by construction.
fn tail_latency(results: &[Measured], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "## NoC packet latency distribution (Web Search, 20k cycles)\n"
    )?;
    writeln!(
        out,
        "{:<12}{:>8}{:>8}{:>8}{:>8}{:>10}{:>10}",
        "Org", "mean", "p50", "p95", "p99", "resp-mean", "max"
    )?;
    for (org, m) in TAIL_ORGS.iter().zip(results) {
        let s = &m.net;
        writeln!(
            out,
            "{:<12}{:>8.1}{:>8}{:>8}{:>8}{:>10.1}{:>10}",
            org.name(),
            s.avg_latency(),
            s.latency_percentile(0.50).unwrap_or(0),
            s.latency_percentile(0.95).unwrap_or(0),
            s.latency_percentile(0.99).unwrap_or(0),
            s.avg_latency_of(MessageClass::Response),
            s.max_latency,
        )?;
    }
    writeln!(
        out,
        "\nPRA halves the median (a reserved path cannot lose an arbitration\n\
         it never enters) while its p99 stays mesh-like — the tail is the\n\
         packets whose control packets were dropped. FRFC's whole-route\n\
         slot windows actively lengthen the response tail."
    )
}

const SCALES: [f64; 5] = [0.4, 0.6, 0.8, 1.0, 1.5];
const LOAD_ORGS: [Organization; 3] = [
    Organization::Mesh,
    Organization::MeshPra,
    Organization::Ideal,
];

fn load_sweep_plan(_: &SampleSpec) -> Plan {
    let wl = WorkloadKind::MediaStreaming;
    let cells = SCALES
        .iter()
        .flat_map(|&scale| {
            let mut profile = wl.profile();
            profile.i_mpki *= scale;
            profile.d_mpki *= scale;
            profile.assert_valid();
            LOAD_ORGS.map(|org| Cell {
                profile,
                ..Cell::paper(org, wl)
            })
        })
        .collect();
    plan(cells, QUICK_ONE)
}

/// Experiment: how the Mesh / Mesh+PRA / Ideal performance gaps react to
/// traffic intensity (miss-rate scaling) — a calibration aid, not a paper
/// figure.
fn load_sweep(results: &[Measured], out: &mut String) -> fmt::Result {
    let perfs: Vec<f64> = results.iter().map(|m| m.perf.mean).collect();
    for (scale, row) in SCALES.iter().zip(perfs.chunks(LOAD_ORGS.len())) {
        writeln!(
            out,
            "scale {:.1}: mesh {:.2} pra {:.2} ({:+.1}%) ideal {:.2} ({:+.1}%)  pra captures {:.0}% of ideal gain",
            scale,
            row[0],
            row[1],
            (row[1] / row[0] - 1.0) * 100.0,
            row[2],
            (row[2] / row[0] - 1.0) * 100.0,
            (row[1] - row[0]) / (row[2] - row[0]) * 100.0
        )?;
    }
    Ok(())
}

fn pra_diag_plan(_: &SampleSpec) -> Plan {
    let orgs = [
        Organization::MeshPra,
        Organization::Mesh,
        Organization::Ideal,
    ];
    plan(
        Cell::grid(&[WorkloadKind::MediaStreaming], &orgs),
        QUICK_ONE,
    )
}

/// Diagnostic: PRA control-plane effectiveness in the full system.
fn pra_diag(results: &[Measured], out: &mut String) -> fmt::Result {
    let (ps, ns) = (&results[0].pra, &results[0].net);
    let delivered = ns.delivered();
    let responses = ns.packets_delivered[MessageClass::Response.vc()];
    let wl = WorkloadKind::MediaStreaming;
    writeln!(out, "== {} perf {:.2}", wl.name(), results[0].perf.mean)?;
    writeln!(
        out,
        "  packets delivered {} (responses {})",
        delivered, responses
    )?;
    writeln!(
        out,
        "  avg latency {:.1} (queue {:.1}) hops {:.1} | req {:.1} resp {:.1}",
        ns.avg_latency(),
        ns.avg_queue_latency(),
        ns.avg_hops(),
        ns.avg_latency_of(MessageClass::Request),
        ns.avg_latency_of(MessageClass::Response)
    )?;
    writeln!(
        out,
        "  ctrl injected: llc {} lsd {} refused_ni {}",
        ps.injected_llc, ps.injected_lsd, ps.refused_at_ni
    )?;
    writeln!(
        out,
        "  ctrl/data = {:.2}",
        ps.controls_per_data_packet(delivered)
    )?;
    writeln!(
        out,
        "  drops by reason [compl, lag, alloc, conflict, ni]: {:?}",
        ps.drops_by_reason
    )?;
    writeln!(out, "  lag at drop: {:?}", &ps.lag_at_drop[..5])?;
    writeln!(
        out,
        "  hops preallocated {} segments {}",
        ps.hops_preallocated, ps.segments_processed
    )?;
    writeln!(
        out,
        "  alloc fail kinds [slot, committed, nobuf, latch, conv, caughtup]: {:?}",
        ps.alloc_fail_kinds
    )?;
    writeln!(
        out,
        "  reserved moves {} wasted {} blockedcycles {}",
        ns.reserved_moves, ns.wasted_reservations, ns.blocked_by_reservation_cycles
    )?;
    // Compare against the mesh and ideal latencies.
    for (name, m) in ["mesh", "ideal"].iter().zip(&results[1..]) {
        let (perf, latency) = (m.perf.mean, latencies(&m.net));
        writeln!(out, "{name}: perf {perf:.2} avg latency {latency}")?;
    }
    Ok(())
}

/// Mean packet latency, then that of requests and of responses.
fn latencies(ns: &NetStats) -> String {
    let class = |c| ns.avg_latency_of(c);
    let (req, resp) = (class(MessageClass::Request), class(MessageClass::Response));
    format!("{:.1} | req {req:.1} resp {resp:.1}", ns.avg_latency())
}

fn frfc_diag_plan(_: &SampleSpec) -> Plan {
    let wl = WorkloadKind::MediaStreaming;
    plan(Cell::grid(&[wl], &[Organization::Frfc]), QUICK_ONE)
}

/// Diagnostic: FRFC control-plane effectiveness in the full system
/// (companion to `pra_diag`).
fn frfc_diag(results: &[Measured], out: &mut String) -> fmt::Result {
    let m = &results[0];
    let (fs, ns) = (&m.pra, &m.net);
    writeln!(out, "perf {:.2}", m.perf.mean)?;
    writeln!(out, "latency {}", latencies(ns))?;
    writeln!(
        out,
        "waves injected {} refused {} hops preallocated {}",
        fs.injected(),
        fs.refused_at_ni,
        fs.hops_preallocated
    )?;
    writeln!(
        out,
        "drops [compl, lag, alloc, conflict, ni]: {:?}",
        fs.drops_by_reason
    )?;
    writeln!(
        out,
        "reserved moves {} wasted {} blocked {}",
        ns.reserved_moves, ns.wasted_reservations, ns.blocked_by_reservation_cycles
    )?;
    writeln!(out, "delivered {}", ns.delivered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_counts;

    #[test]
    fn table_names_are_unique() {
        for (i, t) in TABLES.iter().enumerate() {
            assert_eq!(find(t.name).map(|f| f.name), Some(t.name));
            assert!(TABLES[..i].iter().all(|u| u.name != t.name), "{}", t.name);
        }
        assert!(find("bogus").is_none());
    }

    #[test]
    fn quick_windows_request_207_runs_of_which_89_are_distinct() {
        let plans = TABLES.map(|t| (t.plan)(&QUICK));
        assert_eq!(run_counts(&plans), (207, 89));
        // fig9 reads exactly fig6's runs, and pra_diag's one-sample
        // cells are seed 1 of three of them.
        let plan = |name| find(name).map(|t| (t.plan)(&QUICK)).expect("a table");
        assert_eq!(plan("fig6"), plan("fig9"));
        assert_eq!(run_counts(&[plan("fig6"), plan("pra_diag")]), (48 + 3, 48));
    }
}
