//! Ablation: the maximum control-packet lag.
//!
//! The paper fixes the maximum lag at 4 (the LLC data-lookup window).
//! A lag budget of L covers 1 + 2(L-1) route hops; this sweep shows the
//! diminishing returns past the mesh's average hop count and the cost of
//! shrinking the window. Points run in parallel on the runner pool.

use bench::{measure_performance, measure_pra_with, run_grid, spec_from_env, Organization};
use pra::ControlConfig;
use sysmodel::SystemParams;
use workloads::WorkloadKind;

const LAGS: [u8; 6] = [1, 2, 3, 4, 6, 8];

fn main() {
    let spec = spec_from_env();
    let wl = WorkloadKind::MediaStreaming;
    // Points 0/1 are the mesh and ideal anchors; 2.. are the lag grid.
    let perfs = run_grid(2 + LAGS.len(), |i| match i {
        0 => measure_performance(Organization::Mesh, wl, &spec).mean,
        1 => measure_performance(Organization::Ideal, wl, &spec).mean,
        _ => {
            measure_pra_with(
                ControlConfig {
                    max_lag: LAGS[i - 2],
                    ..ControlConfig::default()
                },
                &SystemParams::paper(),
                wl,
                &spec,
            )
            .mean
        }
    });
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
