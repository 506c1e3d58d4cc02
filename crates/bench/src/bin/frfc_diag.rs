//! Diagnostic: FRFC control-plane effectiveness in the full system
//! (companion to `pra_diag`).

use bench::{measure, Cell, Organization, QUICK};
use nistats::SampleSpec;
use noc::types::MessageClass;
use workloads::WorkloadKind;

fn main() {
    let spec = SampleSpec {
        samples: 1,
        ..QUICK
    };
    let cell = Cell::paper(Organization::Frfc, WorkloadKind::MediaStreaming);
    let m = &measure(&[cell], &spec)[0];
    let (fs, ns) = (&m.pra, &m.net);
    println!("perf {:.2}", m.perf.mean);
    println!(
        "latency {:.1} | req {:.1} resp {:.1}",
        ns.avg_latency(),
        ns.avg_latency_of(MessageClass::Request),
        ns.avg_latency_of(MessageClass::Response)
    );
    println!(
        "waves injected {} refused {} hops preallocated {}",
        fs.injected(),
        fs.refused_at_ni,
        fs.hops_preallocated
    );
    println!(
        "drops [compl, lag, alloc, conflict, ni]: {:?}",
        fs.drops_by_reason
    );
    println!(
        "reserved moves {} wasted {} blocked {}",
        ns.reserved_moves, ns.wasted_reservations, ns.blocked_by_reservation_cycles
    );
    println!("delivered {}", ns.delivered());
}
