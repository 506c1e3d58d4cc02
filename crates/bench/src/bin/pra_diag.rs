//! Diagnostic: PRA control-plane effectiveness in the full system.

use noc::network::Network;
use pra::network::PraNetwork;
use sysmodel::{System, SystemParams};
use workloads::WorkloadKind;

fn main() {
    let params = SystemParams::paper();
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    {
        let wl = WorkloadKind::MediaStreaming;
        let mut profile = wl.profile();
        profile.i_mpki *= scale;
        profile.d_mpki *= scale;
        let net = PraNetwork::new(params.noc.clone());
        let mut sys = System::with_profile(params.clone(), net, profile, 1);
        let perf = sys.measure(5_000, 15_000);
        let net = sys.into_network();
        let ps = net.pra_stats();
        let ns = net.stats();
        let delivered = ns.delivered();
        let responses = ns.packets_delivered[2];
        println!("== {} perf {:.2}", wl.name(), perf);
        println!(
            "  packets delivered {} (responses {})",
            delivered, responses
        );
        println!(
            "  avg latency {:.1} (queue {:.1}) hops {:.1} | req {:.1} resp {:.1}",
            ns.avg_latency(),
            ns.avg_queue_latency(),
            ns.avg_hops(),
            ns.avg_latency_of(noc::types::MessageClass::Request),
            ns.avg_latency_of(noc::types::MessageClass::Response)
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
    }
    // Compare against mesh and ideal latencies for scale
    for wl in [WorkloadKind::MediaStreaming] {
        let mut profile = wl.profile();
        profile.i_mpki *= scale;
        profile.d_mpki *= scale;
        for (name, mut sys) in [
            (
                "mesh",
                System::with_profile(
                    params.clone(),
                    bench::AnyNetwork::new(bench::Organization::Mesh, params.noc.clone()),
                    profile,
                    1,
                ),
            ),
            (
                "ideal",
                System::with_profile(
                    params.clone(),
                    bench::AnyNetwork::new(bench::Organization::Ideal, params.noc.clone()),
                    profile,
                    1,
                ),
            ),
        ] {
            let perf = sys.measure(5_000, 15_000);
            let ns = sys.network().stats();
            println!(
                "{}: perf {:.2} avg latency {:.1} | req {:.1} resp {:.1}",
                name,
                perf,
                ns.avg_latency(),
                ns.avg_latency_of(noc::types::MessageClass::Request),
                ns.avg_latency_of(noc::types::MessageClass::Response)
            );
        }
    }
}
