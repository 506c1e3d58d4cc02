//! The cancellation boundary must be deterministic: a wall guard that
//! expires mid-point lands at a nondeterministic cycle, yet it must
//! produce the *same bytes* on every run. These rows end up in merged
//! artifacts, so any run-dependence here breaks the byte-identity
//! contract.

use runner::{csv_row, run_point_full, Organization, PointSpec, SweepSpec};

fn one_point(spec: SweepSpec) -> PointSpec {
    spec.points().remove(0)
}

fn base_spec(name: &str) -> SweepSpec {
    SweepSpec::new(name)
        .orgs(&[Organization::Mesh])
        .rates(&[0.02])
        .windows(200, 800)
}

/// A wall guard expiring during the point trips at a nondeterministic
/// cycle — so the row must carry only deterministic bytes. Two runs of
/// the same doomed point must be byte-identical.
#[test]
fn wall_guard_expiry_rows_are_byte_identical_across_runs() {
    // A measure window far too long for a 1 ms wall budget.
    let p = one_point(base_spec("wall").windows(200, 5_000_000).budgets(0, 1));

    let first = run_point_full(&p);
    assert_eq!(first.record.status, "timeout(wall>1ms)");
    assert_eq!(first.record.injected, 0);
    assert!(first.trail.is_empty());

    let second = run_point_full(&p);
    assert_eq!(
        csv_row(&first.record),
        csv_row(&second.record),
        "wall-timeout rows must not embed where the clock happened to land"
    );
}
