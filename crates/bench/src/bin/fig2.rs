//! Figure 2: SMART and Ideal performance normalized to the mesh on the
//! two representative workloads (Media Streaming, Web Search).

use bench::{measure, spec_from_env, Cell, Organization};
use nistats::geometric_mean;
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    let workloads = [WorkloadKind::MediaStreaming, WorkloadKind::WebSearch];
    let orgs = [Organization::Mesh, Organization::Smart, Organization::Ideal];
    let results = measure(&Cell::grid(&workloads, &orgs), &spec);
    println!("## Figure 2 — SMART and Ideal vs Mesh\n");
    println!("{:<16}{:>10}{:>10}", "Workload", "SMART", "Ideal");
    let mut smart = Vec::new();
    let mut ideal = Vec::new();
    for (wl, row) in workloads.iter().zip(results.chunks(orgs.len())) {
        let perfs: Vec<f64> = row.iter().map(|m| m.perf.mean).collect();
        let (s, i) = (perfs[1] / perfs[0], perfs[2] / perfs[0]);
        smart.push(s);
        ideal.push(i);
        println!("{:<16}{:>10.3}{:>10.3}", wl.name(), s, i);
    }
    println!(
        "{:<16}{:>10.3}{:>10.3}",
        "GMean",
        geometric_mean(&smart),
        geometric_mean(&ideal)
    );
    println!("\npaper: SMART ≈ mesh; ideal ≈ +28% average on these workloads");
}
