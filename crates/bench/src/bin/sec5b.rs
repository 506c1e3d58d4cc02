//! Section V.B: control packets per data packet and the
//! reservation-blocking (resource underutilisation) fraction.

use bench::{measure, spec_from_env, Cell, Measured, Organization};
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    let cells = WorkloadKind::ALL.map(|wl| Cell::paper(Organization::MeshPra, wl));
    let results = measure(&cells, &spec);
    println!("## Section V.B — why is PRA effective?\n");
    println!(
        "{:<16}{:>12}{:>14}{:>16}{:>14}",
        "Workload", "ctrl/data", "prealloc-hops", "blocked-frac", "wasted-frac"
    );
    for (wl, Measured { pra, net, .. }) in WorkloadKind::ALL.iter().zip(&results) {
        let data = net.delivered();
        println!(
            "{:<16}{:>12.2}{:>14.2}{:>15.4}%{:>13.2}%",
            wl.name(),
            pra.controls_per_data_packet(data),
            pra.hops_preallocated as f64 / data.max(1) as f64,
            net.reservation_blocking_fraction() * 100.0,
            net.wasted_reservations as f64 / net.reserved_moves.max(1) as f64 * 100.0
        );
    }
    println!("\npaper: 1.60–1.89 control packets per data packet;");
    println!("       ≈0.01% of end-to-end latency blocked by reservations");
}
