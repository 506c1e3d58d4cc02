//! Figure 6: system performance of Mesh, SMART, Mesh+PRA and Ideal over
//! the six CloudSuite workloads, normalized to the mesh. The 24
//! (workload, organisation) points run in parallel on the runner pool.

use bench::{format_normalized_table, measure, spec_from_env, Cell, Organization};
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    eprintln!(
        "fig6: warmup {} / measure {} / {} samples",
        spec.warmup_cycles, spec.measure_cycles, spec.samples
    );
    let orgs = Organization::ALL;
    let results = measure(&Cell::grid(&WorkloadKind::ALL, &orgs), &spec);
    let mut raw = Vec::new();
    for (w, workload) in WorkloadKind::ALL.iter().enumerate() {
        let mut row = Vec::new();
        for (o, org) in orgs.iter().enumerate() {
            let s = &results[w * orgs.len() + o].perf;
            eprintln!(
                "  {:<16} {:<9} perf {:>7.2} ± {:.2}",
                workload.name(),
                org.name(),
                s.mean,
                s.ci95
            );
            row.push(s.mean);
        }
        raw.push(row);
    }
    println!(
        "{}",
        format_normalized_table(
            "Figure 6 — system performance (normalized to Mesh)",
            &WorkloadKind::ALL,
            &orgs,
            &raw
        )
    );
}
