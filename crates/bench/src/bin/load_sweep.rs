//! Experiment: how the Mesh / Mesh+PRA / Ideal performance gaps react to
//! traffic intensity (miss-rate scaling) — a calibration aid, not a paper
//! figure. Points run in parallel on the runner pool (`NOC_THREADS`);
//! the rows are byte-identical to the old serial loop.

use bench::{run_grid_budgeted, AnyNetwork, Organization};
use noc::network::Network as _;
use sysmodel::{System, SystemParams};
use workloads::{WorkloadKind, WorkloadProfileBuilder};

const SCALES: [f64; 5] = [0.4, 0.6, 0.8, 1.0, 1.5];
const ORGS: [Organization; 3] = [
    Organization::Mesh,
    Organization::MeshPra,
    Organization::Ideal,
];

fn main() {
    let params = SystemParams::paper();
    let perfs = run_grid_budgeted(SCALES.len() * ORGS.len(), |i, token| {
        let (scale, org) = (SCALES[i / ORGS.len()], ORGS[i % ORGS.len()]);
        let profile = WorkloadProfileBuilder::from(WorkloadKind::MediaStreaming)
            .scale_misses(scale)
            .build();
        let mut net = AnyNetwork::new(org, params.noc.clone());
        net.install_cancel(token);
        let mut sys = System::with_profile(params.clone(), net, profile, 1);
        sys.measure(5_000, 15_000)
    });
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
