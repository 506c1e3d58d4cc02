//! Related-work comparison: PRA vs flit-reservation flow control.
//!
//! Section VI of the paper argues FRFC "does not support single-cycle
//! multi-hop traversal"; this harness makes the comparison quantitative,
//! at the system level and at zero load (where the crossover with route
//! length is visible: FRFC's constant-lead wave covers arbitrarily long
//! paths at 1 cycle/hop, PRA covers up to its lag budget at 0.5).

use bench::{measure_performance, spec_from_env, Organization};
use noc::config::NocConfig;
use noc::flit::Packet;
use noc::network::Network;
use noc::types::{MessageClass, NodeId, PacketId};
use workloads::WorkloadKind;

fn zero_load(org: Organization, dest: u16, len: u8) -> u64 {
    let cfg = NocConfig::paper();
    let mut net = bench::AnyNetwork::new(org, cfg);
    let class = if len > 1 {
        MessageClass::Response
    } else {
        MessageClass::Request
    };
    let p = Packet::new(PacketId(1), NodeId::new(0), NodeId::new(dest), class, len);
    net.announce(&p, 4);
    for _ in 0..4 {
        net.step();
    }
    let now = net.now();
    net.inject(p.at(now));
    let mut d = Vec::new();
    while net.in_flight() > 0 && net.now() < 2_000 {
        net.step();
        d.extend(net.drain_delivered());
    }
    d[0].delivered - d[0].packet.created
}

fn main() {
    let spec = spec_from_env();
    println!("## PRA vs flit-reservation flow control\n");
    println!("zero-load announced latency (single flit):");
    println!("{:>6} {:>10} {:>10}", "hops", "Mesh+PRA", "Mesh+FRFC");
    for (dest, hops) in [(2u16, 2), (4, 4), (7, 7), (27, 6), (63, 14)] {
        println!(
            "{:>6} {:>10} {:>10}",
            hops,
            zero_load(Organization::MeshPra, dest, 1),
            zero_load(Organization::Frfc, dest, 1)
        );
    }
    println!("\nsystem performance (normalized to mesh):");
    println!("{:<16}{:>10}{:>12}", "Workload", "Mesh+PRA", "Mesh+FRFC");
    for wl in [
        WorkloadKind::MediaStreaming,
        WorkloadKind::WebSearch,
        WorkloadKind::DataServing,
    ] {
        let mesh = measure_performance(Organization::Mesh, wl, &spec).mean;
        let pra = measure_performance(Organization::MeshPra, wl, &spec).mean;
        let frfc = measure_performance(Organization::Frfc, wl, &spec).mean;
        println!("{:<16}{:>9.3} {:>11.3}", wl.name(), pra / mesh, frfc / mesh);
    }
    println!("\nFRFC's constant-lead wave wins on long zero-load paths, and cuts");
    println!("request latency sharply — but its whole-route, per-packet slot");
    println!("windows serialize competing multi-flit responses, so the system-");
    println!("level gain nets out near zero. PRA's bounded multi-hop windows");
    println!("deliver instead: the quantitative form of the paper's Section VI");
    println!("argument for not building on flit-reservation flow control.");
}
