//! End-to-end no-loss property of the reliability overlay, at the
//! sweep-runner level: under random transient storms (and a permanent
//! link cut for the mesh family), every organisation either delivers a
//! packet it accepted or records an escalation for it — never silent
//! loss — and reliable runs stay byte-identical at any thread count.

use runner::{
    run_point_full, run_points_full_with, to_csv, FaultEventSpec, FaultSpec, Organization,
    PointRecord, PointSpec, SweepSpec,
};

/// Runs `points` on a pool of `threads` workers and returns their rows.
fn rows(points: &[PointSpec], threads: usize) -> Vec<PointRecord> {
    run_points_full_with(
        points,
        threads,
        |i| run_point_full(&points[i]),
        |_, _, _, _| {},
    )
    .into_iter()
    .map(|o| o.record)
    .collect()
}

/// A reliability axis tightened for short test runs: the production
/// ack timeout (256 cycles) would leave most retransmissions pending
/// at the end of a 1500-cycle window.
fn tight_rel() -> runner::ReliabilitySpec {
    let mut rel = runner::ReliabilitySpec::on("rel", 11);
    rel.retry_budget = 3;
    rel.ack_timeout = 48;
    rel.backoff_base = 8;
    rel
}

fn storm(ppb: u32) -> FaultSpec {
    FaultSpec {
        label: format!("storm{ppb}"),
        transient_ppb: ppb,
        seed: 7,
        events: vec![FaultEventSpec::PermanentLink {
            at: 500,
            node: 27,
            dir: noc::types::Direction::East,
        }],
    }
}

/// The no-loss partition, per organisation and storm rate: with the
/// overlay on and no warm-up window, lifetime reliability counters
/// close exactly against the windowed injection count. `injected`
/// counts only ACCEPTED packets (refusals never increment it), so
/// any packet the network took in must end up delivered or escalated.
#[test]
fn every_org_delivers_or_escalates_under_transient_storms() {
    let orgs = [
        Organization::Mesh,
        Organization::Smart,
        Organization::MeshPra,
        Organization::Ideal,
        Organization::Frfc,
    ];
    for ppb in [0u32, 2_000_000, 20_000_000] {
        let spec = SweepSpec::new("no-loss")
            .orgs(&orgs)
            .rates(&[0.02, 0.05])
            .faults(&[storm(ppb)])
            .reliability(&[tight_rel()])
            .windows(0, 1500);
        let records = rows(&spec.points(), 2);
        assert_eq!(records.len(), orgs.len() * 2);
        for r in &records {
            let ctx = format!("org={} rate-index={} ppb={ppb}", r.org, r.index);
            assert_eq!(r.status, "ok", "{ctx}");
            assert_eq!(r.undrained, 0, "{ctx}: packets left in flight");
            assert_eq!(
                r.injected,
                r.delivered + r.escalations,
                "{ctx}: accepted packets lost without escalation \
                 (retransmits={} dups={})",
                r.retransmits,
                r.duplicates_suppressed
            );
        }
        // The storm must actually exercise the retransmission path on
        // the fault-aware organisations, or the assertions above prove
        // nothing about recovery.
        if ppb >= 20_000_000 {
            let mesh_family: u64 = records
                .iter()
                .filter(|r| r.org != "smart" && r.org != "ideal")
                .map(|r| r.retransmits)
                .sum();
            assert!(mesh_family > 0, "storm produced no retransmissions");
        }
    }
}

/// Reliable, faulted runs are replayable: the whole artifact (including
/// the new reliability columns and the state digests) is byte-identical
/// whether the grid runs serially or across four workers.
#[test]
fn reliable_runs_are_byte_identical_across_thread_counts() {
    let spec = SweepSpec::new("rel-replay")
        .orgs(&[Organization::Mesh, Organization::MeshPra])
        .rates(&[0.05])
        .faults(&[storm(20_000_000)])
        .reliability(&[runner::ReliabilitySpec::off(), tight_rel()])
        .windows(0, 1500)
        .digest_every(300);
    let points = spec.points();
    let serial = to_csv(&rows(&points, 1));
    for threads in [2, 4] {
        let parallel = to_csv(&rows(&points, threads));
        assert_eq!(serial, parallel, "divergence at {threads} threads");
    }
    // Sanity: the reliable rows really carried overlay counters.
    assert!(serial.lines().any(|l| l.contains(",rel,")));
}
