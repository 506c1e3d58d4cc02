//! Buffer-depth sweep: how VC depth interacts with PRA's whole-packet
//! buffer reservation rule.
//!
//! The paper fixes 5 flits/VC ("the minimum needed to cover the
//! round-trip credit time"); since PRA reserves a full packet at each
//! provisional landing, VC depth == packet length makes the reservation
//! demand an *empty* buffer. Deeper VCs relax that, shallower ones break
//! it (the builder rejects depth < packet length). Points run in
//! parallel on the runner pool.

use bench::{run_grid, AnyNetwork, Organization};
use noc::config::NocConfigBuilder;
use noc::network::Network as _;
use noc::traffic::{measure_latency, Pattern, TrafficGen};

const DEPTHS: [u8; 4] = [5, 6, 8, 10];
const ORGS: [Organization; 3] = [
    Organization::Mesh,
    Organization::MeshPra,
    Organization::Ideal,
];

fn main() {
    let lat = run_grid(DEPTHS.len() * ORGS.len(), |i, token| {
        let (depth, org) = (DEPTHS[i / ORGS.len()], ORGS[i % ORGS.len()]);
        let cfg = NocConfigBuilder::new()
            .vc_depth(depth)
            .build()
            .expect("valid config");
        let mut net = AnyNetwork::new(org, cfg.clone());
        net.install_cancel(token);
        let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.03, 11).response_fraction(0.5);
        measure_latency(&mut net, &mut gen, 1_000, 4_000)
    });
    println!("## VC-depth sweep (uniform @0.03, 50% responses)\n");
    println!(
        "{:>6} {:>8} {:>9} {:>9}",
        "depth", "Mesh", "Mesh+PRA", "Ideal"
    );
    for (d, depth) in DEPTHS.iter().enumerate() {
        let row = &lat[d * ORGS.len()..(d + 1) * ORGS.len()];
        println!(
            "{:>6} {:>8.1} {:>9.1} {:>9.1}",
            depth, row[0], row[1], row[2]
        );
    }
    println!("\n(PRA here runs without announcements — LSD only — so the gap");
    println!("to the mesh shows pure in-network-blocking recovery.)");
}
