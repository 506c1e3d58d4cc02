//! Ablation: hops-per-cycle (the paper's wire-budget argument).
//!
//! Section II-C argues SMART shines in SoCs (lean tiles, modest clocks →
//! ~8 tiles/cycle) but not in servers (fat tiles, 2 GHz → 2 tiles/cycle).
//! This sweep varies the single-cycle multi-hop ceiling and reports the
//! average packet latency of every organisation under LLC-like traffic,
//! plus the zero-load crossover the argument rests on. Points run in
//! parallel on the runner pool.

use bench::{run_grid, AnyNetwork, Organization};
use noc::config::NocConfigBuilder;
use noc::network::Network as _;
use noc::traffic::{measure_latency, Pattern, TrafficGen};
use noc::types::NodeId;
use noc::zeroload::{ideal_latency, mesh_latency, smart_latency};
use techmodel::wire::WireModel;

const HPCS: [u8; 4] = [1, 2, 3, 4];

fn main() {
    let wire = WireModel::paper();
    let orgs = Organization::ALL;
    let lat = run_grid(HPCS.len() * orgs.len(), |i, token| {
        let (hpc, org) = (HPCS[i / orgs.len()], orgs[i % orgs.len()]);
        let cfg = NocConfigBuilder::new()
            .max_hops_per_cycle(hpc)
            .build()
            .expect("valid config");
        let mut net = AnyNetwork::new(org, cfg.clone());
        net.install_cancel(token);
        let mut gen = TrafficGen::new(cfg, Pattern::CoreToLlc, 0.02, 5).response_fraction(0.5);
        measure_latency(&mut net, &mut gen, 1_000, 4_000)
    });
    println!("## Hops-per-cycle sweep (uniform LLC-like traffic @0.02)\n");
    println!(
        "wire reach at 2 GHz: {:.1} mm  (server tile ≈ 1.8 mm → hpc 2)",
        wire.reach_mm_per_cycle(2.0)
    );
    println!(
        "wire reach at 1 GHz: {:.1} mm  (SoC tile ≈ 1.0 mm → hpc 8+)\n",
        wire.reach_mm_per_cycle(1.0)
    );
    println!(
        "{:>4} {:>8} {:>8} {:>9} {:>8}   zero-load corner-to-corner (mesh/smart/ideal)",
        "hpc", "Mesh", "SMART", "Mesh+PRA", "Ideal"
    );
    for (h, hpc) in HPCS.iter().enumerate() {
        let cfg = NocConfigBuilder::new()
            .max_hops_per_cycle(*hpc)
            .build()
            .expect("valid config");
        let row = &lat[h * orgs.len()..(h + 1) * orgs.len()];
        let (s, d) = (NodeId::new(0), NodeId::new(63));
        println!(
            "{:>4} {:>8.1} {:>8.1} {:>9.1} {:>8.1}   {}/{}/{}",
            hpc,
            row[0],
            row[1],
            row[2],
            row[3],
            mesh_latency(&cfg, s, d, 1),
            smart_latency(&cfg, s, d, 1),
            ideal_latency(&cfg, s, d, 1),
        );
    }
    println!("\nAt hpc 1 SMART degenerates to a slower mesh (setup stage, no");
    println!("bypass); the gap SMART closes grows with the wire budget, which");
    println!("is exactly why the paper needs PRA at server-class hpc 2.");
}
