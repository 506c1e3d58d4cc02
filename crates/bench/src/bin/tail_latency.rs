//! Tail latency of NoC packets per organisation — the QoS lens.
//!
//! The paper's whole motivation is QoS-constrained server workloads
//! ("latency requirements as part of their service-level agreement").
//! Mean speedups understate what PRA does for the tail: a reactive mesh's
//! p99 packet latency includes every unlucky arbitration loss, while
//! pre-allocated paths are contention-immune by construction.

use bench::{measure, Cell, Organization};
use nistats::SampleSpec;
use noc::types::MessageClass;
use workloads::WorkloadKind;

fn main() {
    let orgs = [
        Organization::Mesh,
        Organization::Smart,
        Organization::MeshPra,
        Organization::Frfc,
        Organization::Ideal,
    ];
    let spec = SampleSpec {
        warmup_cycles: 0,
        measure_cycles: 20_000,
        samples: 1,
    };
    let results = measure(&Cell::grid(&[WorkloadKind::WebSearch], &orgs), &spec);
    println!("## NoC packet latency distribution (Web Search, 20k cycles)\n");
    println!(
        "{:<12}{:>8}{:>8}{:>8}{:>8}{:>10}{:>10}",
        "Org", "mean", "p50", "p95", "p99", "resp-mean", "max"
    );
    for (org, m) in orgs.iter().zip(&results) {
        let s = &m.net;
        println!(
            "{:<12}{:>8.1}{:>8}{:>8}{:>8}{:>10.1}{:>10}",
            org.name(),
            s.avg_latency(),
            s.latency_percentile(0.50).unwrap_or(0),
            s.latency_percentile(0.95).unwrap_or(0),
            s.latency_percentile(0.99).unwrap_or(0),
            s.avg_latency_of(MessageClass::Response),
            s.max_latency,
        );
    }
    println!("\nPRA halves the median (a reserved path cannot lose an arbitration");
    println!("it never enters) while its p99 stays mesh-like — the tail is the");
    println!("packets whose control packets were dropped. FRFC's whole-route");
    println!("slot windows actively lengthen the response tail.");
}
