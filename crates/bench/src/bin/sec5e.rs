//! Section V.E: power analysis — NOC power vs core power.

use bench::{spec_from_env, AnyNetwork, Organization};
use noc::network::Network;
use sysmodel::{System, SystemParams};
use techmodel::{ChipModel, NocPower};
use workloads::WorkloadKind;

fn main() {
    let spec = spec_from_env();
    let params = SystemParams::paper();
    let chip = ChipModel::paper();
    println!("## Section V.E — power analysis (Web Search)\n");
    println!(
        "{:<10}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "Org", "links W", "buffers W", "xbar W", "leakage W", "total W"
    );
    for org in [
        Organization::Mesh,
        Organization::Smart,
        Organization::MeshPra,
    ] {
        let net = AnyNetwork::new(org, params.noc.clone());
        let mut sys = System::new(params.clone(), net, WorkloadKind::WebSearch, 1);
        sys.measure(spec.warmup_cycles, spec.measure_cycles);
        let p = NocPower::from_activity(&params.noc, sys.network().stats(), 2.0);
        println!(
            "{:<10}{:>10.3}{:>12.3}{:>12.3}{:>12.3}{:>10.3}",
            org.name(),
            p.links_w,
            p.buffers_w,
            p.crossbar_w,
            p.leakage_w,
            p.total_w()
        );
    }
    println!(
        "\ncores: {:.1} W, LLC: {:.1} W — paper: NOC below 2 W, cores above 60 W",
        chip.cores_power_w(),
        chip.llc_power_w()
    );
}
