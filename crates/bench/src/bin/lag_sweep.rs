//! Ablation: the maximum control-packet lag.
//!
//! The paper fixes the maximum lag at 4 (the LLC data-lookup window).
//! A lag budget of L covers 1 + 2(L-1) route hops; this sweep shows the
//! diminishing returns past the mesh's average hop count and the cost of
//! shrinking the window. Points run in parallel on the runner pool.

use bench::{measure, spec_from_env, Cell, Organization};
use pra::ControlConfig;
use workloads::WorkloadKind;

const LAGS: [u8; 6] = [1, 2, 3, 4, 6, 8];

fn main() {
    let spec = spec_from_env();
    let wl = WorkloadKind::MediaStreaming;
    // Cells 0/1 are the mesh and ideal anchors; 2.. are the lag grid.
    let mut cells = vec![
        Cell::paper(Organization::Mesh, wl),
        Cell::paper(Organization::Ideal, wl),
    ];
    cells.extend(LAGS.map(|max_lag| Cell {
        ctrl: ControlConfig {
            max_lag,
            ..ControlConfig::default()
        },
        ..Cell::paper(Organization::MeshPra, wl)
    }));
    let perfs: Vec<f64> = measure(&cells, &spec).iter().map(|m| m.perf.mean).collect();
    let (mesh, ideal) = (perfs[0], perfs[1]);
    println!("## Max-lag sweep (Media Streaming)\n");
    println!(
        "{:>8} {:>10} {:>10} {:>14}",
        "max_lag", "perf", "vs mesh", "hops covered"
    );
    for (max_lag, p) in LAGS.iter().zip(&perfs[2..]) {
        println!(
            "{:>8} {:>10.2} {:>9.1}% {:>14}",
            max_lag,
            p,
            (p / mesh - 1.0) * 100.0,
            1 + 2 * u32::from(*max_lag).saturating_sub(1)
        );
    }
    println!(
        "\nmesh {:.2}, ideal {:.2} ({:+.1}%); the paper's lag 4 covers 7 hops —",
        mesh,
        ideal,
        (ideal / mesh - 1.0) * 100.0
    );
    println!("beyond the 8x8 mesh's 5.3-hop average, returns flatten.");
}
