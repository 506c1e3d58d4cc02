//! Section V.E: power analysis — NOC power vs core power.

use bench::{measure, spec_from_env, Cell, Organization};
use nistats::SampleSpec;
use sysmodel::SystemParams;
use techmodel::{ChipModel, NocPower};
use workloads::WorkloadKind;

fn main() {
    let spec = SampleSpec {
        samples: 1,
        ..spec_from_env()
    };
    let params = SystemParams::paper();
    let chip = ChipModel::paper();
    let orgs = [
        Organization::Mesh,
        Organization::Smart,
        Organization::MeshPra,
    ];
    let results = measure(&Cell::grid(&[WorkloadKind::WebSearch], &orgs), &spec);
    println!("## Section V.E — power analysis (Web Search)\n");
    println!(
        "{:<10}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "Org", "links W", "buffers W", "xbar W", "leakage W", "total W"
    );
    for (org, m) in orgs.iter().zip(&results) {
        let p = NocPower::from_activity(&params.noc, &m.net, 2.0);
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
