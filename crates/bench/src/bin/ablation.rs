//! Ablation: the contribution of each PRA opportunity window.
//!
//! The paper's two windows are the LLC serial-lookup interval and
//! in-network blocking (LSD). This reproduction adds the symmetric
//! L1-miss window for requests (see DESIGN.md §5); the ablation
//! quantifies each source on Media Streaming.

use bench::{measure, spec_from_env, Cell, Organization};
use pra::ControlConfig;
use sysmodel::SystemParams;
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    let wl = WorkloadKind::MediaStreaming;
    let cases: [(&str, ControlConfig, bool, bool); 5] = [
        (
            "PRA: LLC window only (paper text, no LSD)",
            ControlConfig {
                llc_window: true,
                lsd: false,
                max_lag: 4,
            },
            false,
            false,
        ),
        (
            "PRA: LSD only",
            ControlConfig {
                llc_window: false,
                lsd: true,
                max_lag: 4,
            },
            false,
            false,
        ),
        (
            "PRA: LLC window + LSD (paper text)",
            ControlConfig::default(),
            false,
            false,
        ),
        (
            "PRA: + L1-miss window (requests)",
            ControlConfig::default(),
            true,
            false,
        ),
        (
            "PRA: + MC fill window (full reproduction)",
            ControlConfig::default(),
            true,
            true,
        ),
    ];
    // Cells 0/1 are the mesh and ideal anchors; 2.. are the PRA cases.
    let mut cells = vec![
        Cell::paper(Organization::Mesh, wl),
        Cell::paper(Organization::Ideal, wl),
    ];
    cells.extend(cases.iter().map(|(_, ctrl, reqs, fills)| Cell {
        params: SystemParams {
            announce_requests: *reqs,
            announce_fills: *fills,
            ..SystemParams::paper()
        },
        ctrl: ctrl.clone(),
        ..Cell::paper(Organization::MeshPra, wl)
    }));
    let perfs: Vec<f64> = measure(&cells, &spec).iter().map(|m| m.perf.mean).collect();
    let (mesh, ideal) = (perfs[0], perfs[1]);
    println!("## Ablation — PRA opportunity windows (Media Streaming)\n");
    println!("{:<44}{:>10}{:>12}", "Configuration", "perf", "vs mesh");
    println!("{:<44}{:>10.2}{:>11.1}%", "Mesh baseline", mesh, 0.0);
    for ((name, ..), p) in cases.iter().zip(&perfs[2..]) {
        println!("{:<44}{:>10.2}{:>11.1}%", name, p, (p / mesh - 1.0) * 100.0);
    }
    println!(
        "{:<44}{:>10.2}{:>11.1}%",
        "Ideal (zero router delay)",
        ideal,
        (ideal / mesh - 1.0) * 100.0
    );
}
