//! Diagnostic: PRA control-plane effectiveness in the full system.

use bench::{measure, Cell, Organization, QUICK};
use nistats::SampleSpec;
use noc::types::MessageClass;
use workloads::WorkloadKind;

fn main() {
    let wl = WorkloadKind::MediaStreaming;
    let spec = SampleSpec {
        samples: 1,
        ..QUICK
    };
    let orgs = [
        Organization::MeshPra,
        Organization::Mesh,
        Organization::Ideal,
    ];
    let results = measure(&Cell::grid(&[wl], &orgs), &spec);
    let (ps, ns) = (&results[0].pra, &results[0].net);
    let delivered = ns.delivered();
    let responses = ns.packets_delivered[MessageClass::Response.vc()];
    println!("== {} perf {:.2}", wl.name(), results[0].perf.mean);
    println!(
        "  packets delivered {} (responses {})",
        delivered, responses
    );
    println!(
        "  avg latency {:.1} (queue {:.1}) hops {:.1} | req {:.1} resp {:.1}",
        ns.avg_latency(),
        ns.avg_queue_latency(),
        ns.avg_hops(),
        ns.avg_latency_of(MessageClass::Request),
        ns.avg_latency_of(MessageClass::Response)
    );
    println!(
        "  ctrl injected: llc {} lsd {} refused_ni {}",
        ps.injected_llc, ps.injected_lsd, ps.refused_at_ni
    );
    println!(
        "  ctrl/data = {:.2}",
        ps.controls_per_data_packet(delivered)
    );
    println!(
        "  drops by reason [compl, lag, alloc, conflict, ni]: {:?}",
        ps.drops_by_reason
    );
    println!("  lag at drop: {:?}", &ps.lag_at_drop[..5]);
    println!(
        "  hops preallocated {} segments {}",
        ps.hops_preallocated, ps.segments_processed
    );
    println!(
        "  alloc fail kinds [slot, committed, nobuf, latch, conv, caughtup]: {:?}",
        ps.alloc_fail_kinds
    );
    println!(
        "  reserved moves {} wasted {} blockedcycles {}",
        ns.reserved_moves, ns.wasted_reservations, ns.blocked_by_reservation_cycles
    );
    // Compare against the mesh and ideal latencies.
    for (name, m) in ["mesh", "ideal"].iter().zip(&results[1..]) {
        let ns = &m.net;
        println!(
            "{}: perf {:.2} avg latency {:.1} | req {:.1} resp {:.1}",
            name,
            m.perf.mean,
            ns.avg_latency(),
            ns.avg_latency_of(MessageClass::Request),
            ns.avg_latency_of(MessageClass::Response)
        );
    }
}
