//! Figure 9: performance density (performance per mm²), normalized to
//! the mesh. The ideal network is idealistically booked at mesh area.
//! The (workload, organisation) points run in parallel on the runner
//! pool.

use bench::{format_normalized_table, measure, spec_from_env, Cell, Organization};
use noc::config::NocConfig;
use techmodel::{performance_density, NocAreaBreakdown, NocOrganization};
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    let cfg = NocConfig::paper();
    let areas = [
        NocAreaBreakdown::compute(NocOrganization::Mesh, &cfg).total_mm2(),
        NocAreaBreakdown::compute(NocOrganization::Smart, &cfg).total_mm2(),
        NocAreaBreakdown::compute(NocOrganization::MeshPra, &cfg).total_mm2(),
        NocAreaBreakdown::compute(NocOrganization::Mesh, &cfg).total_mm2(), // ideal at mesh area
    ];
    let orgs = Organization::ALL;
    let results = measure(&Cell::grid(&WorkloadKind::ALL, &orgs), &spec);
    let densities: Vec<Vec<f64>> = results
        .chunks(orgs.len())
        .map(|row| {
            let perfs = row.iter().map(|m| m.perf.mean);
            perfs
                .zip(areas)
                .map(|(p, a)| performance_density(p, a))
                .collect()
        })
        .collect();
    print!(
        "{}",
        format_normalized_table(
            "Figure 9 — performance density (normalized to Mesh)",
            &WorkloadKind::ALL,
            &orgs,
            &densities
        )
    );
    println!("\npaper: Mesh+PRA +14% vs Mesh, +12% vs SMART, −5% vs Ideal");
}
