//! Figure 7: distribution of control packets' lag when dropped
//! (Mesh+PRA, all six workloads). Workloads run in parallel on the
//! runner pool.

use bench::{measure, spec_from_env, Cell, Measured, Organization};
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    let cells = WorkloadKind::ALL.map(|wl| Cell::paper(Organization::MeshPra, wl));
    let results = measure(&cells, &spec);
    println!("## Figure 7 — control-packet lag at drop time\n");
    println!(
        "{:<16}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "Workload", "Lag0", "Lag1", "Lag2", "Lag3", "Lag4+"
    );
    for (wl, Measured { pra, .. }) in WorkloadKind::ALL.iter().zip(&results) {
        let d = pra.lag_distribution(4);
        let lag4plus: f64 =
            d[4] + pra.lag_at_drop[5..].iter().sum::<u64>() as f64 / pra.dropped().max(1) as f64;
        println!(
            "{:<16}{:>7.1}%{:>7.1}%{:>7.1}%{:>7.1}%{:>7.1}%",
            wl.name(),
            d[0] * 100.0,
            d[1] * 100.0,
            d[2] * 100.0,
            d[3] * 100.0,
            lag4plus * 100.0
        );
    }
    println!("\npaper: Lag0 53–67% (avg 61%), Lag1 15–20%, Lag2 17–27%, >2 below 2%");
}
