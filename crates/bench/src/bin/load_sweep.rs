//! Experiment: how the Mesh / Mesh+PRA / Ideal performance gaps react to
//! traffic intensity (miss-rate scaling) — a calibration aid, not a paper
//! figure. Points run in parallel on the runner pool (`NOC_THREADS`);
//! the rows are byte-identical to the old serial loop.

use bench::{measure, Cell, Organization, QUICK};
use nistats::SampleSpec;
use workloads::{WorkloadKind, WorkloadProfileBuilder};

const SCALES: [f64; 5] = [0.4, 0.6, 0.8, 1.0, 1.5];
const ORGS: [Organization; 3] = [
    Organization::Mesh,
    Organization::MeshPra,
    Organization::Ideal,
];

fn main() {
    let wl = WorkloadKind::MediaStreaming;
    let cells: Vec<Cell> = SCALES
        .iter()
        .flat_map(|&scale| {
            let profile = WorkloadProfileBuilder::from(wl).scale_misses(scale).build();
            ORGS.map(|org| Cell {
                profile,
                ..Cell::paper(org, wl)
            })
        })
        .collect();
    let spec = SampleSpec {
        samples: 1,
        ..QUICK
    };
    let perfs: Vec<f64> = measure(&cells, &spec).iter().map(|m| m.perf.mean).collect();
    for (s, scale) in SCALES.iter().enumerate() {
        let row = &perfs[s * ORGS.len()..(s + 1) * ORGS.len()];
        println!(
            "scale {:.1}: mesh {:.2} pra {:.2} ({:+.1}%) ideal {:.2} ({:+.1}%)  pra captures {:.0}% of ideal gain",
            scale,
            row[0],
            row[1],
            (row[1] / row[0] - 1.0) * 100.0,
            row[2],
            (row[2] / row[0] - 1.0) * 100.0,
            (row[1] - row[0]) / (row[2] - row[0]) * 100.0
        );
    }
}
