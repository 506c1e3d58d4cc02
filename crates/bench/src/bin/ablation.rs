//! Ablation: the contribution of each PRA opportunity window.
//!
//! The paper's two windows are the LLC serial-lookup interval and
//! in-network blocking (LSD). This reproduction adds the symmetric
//! L1-miss window for requests (see DESIGN.md §5); the ablation
//! quantifies each source on Media Streaming.

use bench::{measure_performance, measure_pra_with, spec_from_env, Organization};
use pra::ControlConfig;
use sysmodel::SystemParams;
use workloads::WorkloadKind;

fn run(
    ctrl: ControlConfig,
    announce_requests: bool,
    announce_fills: bool,
    spec: &nistats::SampleSpec,
) -> f64 {
    let params = SystemParams {
        announce_requests,
        announce_fills,
        ..SystemParams::paper()
    };
    measure_pra_with(ctrl, &params, WorkloadKind::MediaStreaming, spec).mean
}

fn main() {
    let spec = spec_from_env();
    let mesh = measure_performance(Organization::Mesh, WorkloadKind::MediaStreaming, &spec).mean;
    let ideal = measure_performance(Organization::Ideal, WorkloadKind::MediaStreaming, &spec).mean;
    println!("## Ablation — PRA opportunity windows (Media Streaming)\n");
    println!("{:<44}{:>10}{:>12}", "Configuration", "perf", "vs mesh");
    println!("{:<44}{:>10.2}{:>11.1}%", "Mesh baseline", mesh, 0.0);
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
    for (name, ctrl, reqs, fills) in cases {
        let p = run(ctrl, reqs, fills, &spec);
        println!("{:<44}{:>10.2}{:>11.1}%", name, p, (p / mesh - 1.0) * 100.0);
    }
    println!(
        "{:<44}{:>10.2}{:>11.1}%",
        "Ideal (zero router delay)",
        ideal,
        (ideal / mesh - 1.0) * 100.0
    );
}
