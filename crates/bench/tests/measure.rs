//! `bench::measure` is the one full-system sampling path behind every
//! paper figure. It must reproduce, seed for seed, what a hand-built
//! `System::new` over the concrete network type measures, and a plan
//! must read the same whatever other plans it is measured beside.

use bench::{measure, run_counts, Cell, Measured, Organization, Plan};
use nistats::{SampleSpec, Summary};
use noc::ideal::IdealNetwork;
use noc::mesh::MeshNetwork;
use noc::network::Network;
use noc::smart::SmartNetwork;
use noc::stats::NetStats;
use pra::frfc::FrfcNetwork;
use pra::network::PraNetwork;
use pra::{ControlConfig, PraStats};
use sysmodel::System;
use workloads::WorkloadKind;

const SPEC: SampleSpec = SampleSpec {
    warmup_cycles: 200,
    measure_cycles: 800,
    samples: 2,
};

/// Runs `cell` by hand for seeds `1..=SPEC.samples` on the network that
/// `build` makes (`ctrl_stats` reads its control-plane stats) and sums
/// the samples the way `measure` documents.
fn by_hand<N: Network>(
    cell: &Cell,
    build: impl Fn() -> N,
    ctrl_stats: impl Fn(&N) -> PraStats,
) -> Measured {
    let (mut net, mut pra) = (NetStats::new(), PraStats::new());
    let perfs: Vec<f64> = (1..=u64::from(SPEC.samples))
        .map(|seed| {
            let mut sys = System::new(cell.params.clone(), build(), cell.profile.kind, seed);
            let perf = sys.measure(SPEC.warmup_cycles, SPEC.measure_cycles);
            net.merge(sys.network().stats());
            pra.merge(&ctrl_stats(sys.network()));
            perf
        })
        .collect();
    Measured {
        perf: Summary::of(&perfs),
        net,
        pra,
    }
}

fn no_ctrl<N>(_: &N) -> PraStats {
    PraStats::new()
}

fn reference(cell: &Cell) -> Measured {
    let cfg = || cell.params.noc.clone();
    match cell.org {
        Organization::Mesh => by_hand(cell, || MeshNetwork::new(cfg()), no_ctrl),
        Organization::Smart => by_hand(cell, || SmartNetwork::new(cfg()), no_ctrl),
        Organization::Ideal => by_hand(cell, || IdealNetwork::new(cfg()), no_ctrl),
        Organization::MeshPra => by_hand(
            cell,
            || PraNetwork::with_control(cfg(), cell.ctrl.clone()),
            |n| n.pra_stats().clone(),
        ),
        Organization::Frfc => by_hand(cell, || FrfcNetwork::new(cfg()), |n| n.pra_stats().clone()),
    }
}

#[test]
fn measure_matches_hand_built_systems_seed_for_seed() {
    let wl = WorkloadKind::MediaStreaming;
    let mut cells = Cell::grid(
        &[wl],
        &[
            Organization::Mesh,
            Organization::Smart,
            Organization::MeshPra,
            Organization::Ideal,
            Organization::Frfc,
        ],
    );
    cells.push(Cell {
        ctrl: ControlConfig {
            max_lag: 2,
            ..ControlConfig::default()
        },
        ..Cell::paper(Organization::MeshPra, wl)
    });
    let plan = Plan {
        cells: cells.clone(),
        spec: SPEC,
    };
    let measured = measure(&[plan]).remove(0);
    assert_eq!(measured.len(), cells.len());
    for (cell, got) in cells.iter().zip(&measured) {
        let what = format!("{:?} {:?}", cell.org, cell.ctrl);
        // Debug covers every field: per-seed perf through the summary's
        // mean and stddev, and the summed NetStats and PraStats.
        let want = reference(cell);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert!(got.net.delivered() > 0, "{what}: nothing delivered");
        let announces = matches!(cell.org, Organization::MeshPra | Organization::Frfc);
        assert_eq!(got.pra.injected() > 0, announces, "{what}: control packets");
    }
    // The lag budget is a real axis: max_lag 2 changes the control plane.
    assert_ne!(
        format!("{:?}", measured[2].pra),
        format!("{:?}", measured[5].pra)
    );
}

fn debug_of(rows: &[Measured]) -> Vec<String> {
    rows.iter().map(|m| format!("{m:?}")).collect()
}

#[test]
fn overlapping_plans_read_what_each_reads_alone() {
    let wl = WorkloadKind::WebSearch;
    let mesh = Cell::paper(Organization::Mesh, wl);
    let pra = Cell::paper(Organization::MeshPra, wl);
    let one = SampleSpec { samples: 1, ..SPEC };
    let plans = [
        // A repeated cell inside one plan.
        Plan {
            cells: vec![mesh.clone(), pra.clone(), mesh.clone()],
            spec: SPEC,
        },
        // Seed 1 of the two-sample cells above.
        Plan {
            cells: vec![pra.clone(), mesh.clone()],
            spec: one,
        },
        // The same cell under other windows is another run.
        Plan {
            cells: vec![mesh.clone()],
            spec: SampleSpec {
                measure_cycles: SPEC.measure_cycles / 2,
                ..one
            },
        },
        Plan {
            cells: vec![mesh.clone()],
            spec: SampleSpec {
                warmup_cycles: SPEC.warmup_cycles / 2,
                ..one
            },
        },
        // A plan with nothing to simulate.
        Plan {
            cells: Vec::new(),
            spec: SPEC,
        },
    ];
    assert_eq!(run_counts(&plans), (6 + 2 + 1 + 1, 6));
    let together = measure(&plans);
    assert_eq!(together.len(), plans.len());
    for (plan, got) in plans.iter().zip(&together) {
        let alone = measure(std::slice::from_ref(plan)).remove(0);
        assert_eq!(debug_of(got), debug_of(&alone), "{:?}", plan.spec);
    }
    assert_eq!(debug_of(&together[0][..1]), debug_of(&together[0][2..]));
    // A one-sample plan is not a two-sample one: its summary has one
    // sample and its statistics cover one run.
    assert_eq!(together[1][1].perf.n, 1);
    assert_ne!(debug_of(&together[1][1..]), debug_of(&together[0][..1]));
    for other in &together[2..4] {
        assert_ne!(debug_of(other), debug_of(&together[1][1..]));
    }
    // The hand-built oracle agrees with the shared runs.
    assert_eq!(debug_of(&together[0][1..2]), debug_of(&[reference(&pra)]));
}
