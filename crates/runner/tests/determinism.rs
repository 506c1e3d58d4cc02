//! The runner's load-bearing invariant: a sweep's result rows are
//! byte-identical at any thread count, panics are isolated per point,
//! and seeds depend only on grid position.

use runner::{
    derive_seed, run_point_full, run_points_full_with, run_tasks, to_csv, Organization, Outcome,
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

fn small_spec() -> SweepSpec {
    SweepSpec::new("determinism")
        .orgs(&[Organization::Mesh, Organization::MeshPra])
        .rates(&[0.01, 0.03])
        .windows(200, 800)
}

fn run_at(threads: usize) -> Vec<PointRecord> {
    let points = small_spec().points();
    rows(&points, threads)
}

#[test]
fn parallel_rows_are_byte_identical_to_serial() {
    let serial = run_at(1);
    assert_eq!(serial.len(), 4);
    assert!(serial.iter().all(|r| r.status == "ok"));
    assert!(serial.iter().all(|r| r.delivered > 0));
    let serial_csv = to_csv(&serial);
    for threads in [2, 4] {
        let parallel_csv = to_csv(&run_at(threads));
        assert_eq!(
            serial_csv, parallel_csv,
            "rows differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn seeds_depend_only_on_grid_position() {
    let spec = small_spec();
    // Expansion is pure: two expansions agree, and each seed is the
    // documented function of (base_seed, index, attempt 0) — nothing
    // about threads or scheduling enters the derivation.
    let a = spec.points();
    let b = spec.points();
    assert_eq!(a, b);
    for (i, p) in a.iter().enumerate() {
        assert_eq!(p.seed, derive_seed(spec.base_seed, i as u64, 0));
    }
    // And the records carry exactly those seeds at any thread count.
    for threads in [1, 3] {
        let recs = rows(&a, threads);
        for (p, r) in a.iter().zip(&recs) {
            assert_eq!(p.seed, r.seed, "threads={threads}");
        }
    }
}

#[test]
fn no_seed_collisions_across_a_4096_point_grid() {
    // A colliding pair of points would run correlated traffic and bias
    // any statistic aggregated across the grid. Check first attempts
    // and first retries, across each other too: a retry must never
    // replay some *other* point's stream.
    let base = 0x5EED_CAFE_u64;
    let mut seen = std::collections::BTreeSet::new();
    for index in 0..4096u64 {
        for attempt in [0u32, 1] {
            assert!(
                seen.insert(derive_seed(base, index, attempt)),
                "seed collision at index {index} attempt {attempt}"
            );
        }
    }
}

#[test]
fn seed_streams_ignore_thread_count_env() {
    // `NOC_THREADS` picks the worker count; it must never leak into
    // seeds or rows. Run the same grid at several explicit thread
    // counts (the exact values `threads_from_env` would produce for
    // NOC_THREADS=1..4) and demand identical bytes.
    let points = small_spec().points();
    let baseline = to_csv(&rows(&points, 1));
    for threads in [2, 3, 4] {
        let csv = to_csv(&rows(&points, threads));
        assert_eq!(csv, baseline, "NOC_THREADS={threads} changed the rows");
    }
    // The seeds themselves are a pure function of grid position — the
    // env var is not even an input to the derivation.
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.seed, derive_seed(small_spec().base_seed, i as u64, 0));
    }
}

#[test]
fn a_panicking_point_fails_alone() {
    let points = small_spec().points();
    let n = points.len();
    // Run the real points through the pool, but make one of them panic.
    let outcomes = run_tasks(
        n,
        2,
        |i| {
            assert!(i != 1, "injected crash at point 1");
            run_point_full(&points[i]).record
        },
        |_, _, _, _| {},
    );
    assert_eq!(outcomes.len(), n);
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            Outcome::Done(rec) => {
                assert_ne!(i, 1);
                assert_eq!(rec.status, "ok");
            }
            Outcome::Panicked { task, message } => {
                assert_eq!(i, 1, "only the injected crash may fail");
                assert_eq!(*task, 1, "the outcome names the crashed point");
                assert!(message.contains("injected crash"));
            }
        }
    }
    // And through the point pool, a crash becomes a failed row, not a
    // missing one: force a panic via an out-of-bounds hotspot pattern.
    let mut bad = small_spec();
    bad.patterns = vec![noc::traffic::Pattern::Hotspot(noc::types::NodeId::new(999))];
    let recs = rows(&bad.points(), 2);
    assert_eq!(recs.len(), 4);
    assert!(
        recs.iter().all(|r| r.status.starts_with("failed(")),
        "out-of-mesh hotspot must fail every row"
    );
}

#[test]
fn progress_callback_sees_every_completion() {
    let points = small_spec().points();
    let mut calls = Vec::new();
    let _ = run_points_full_with(
        &points,
        2,
        |i| run_point_full(&points[i]),
        |_, _, done, total| calls.push((done, total)),
    );
    assert_eq!(calls.len(), points.len());
    assert_eq!(calls.last(), Some(&(points.len(), points.len())));
}

#[test]
fn digest_trails_are_thread_count_independent() {
    // The state digest is sampled *inside* a point's own simulation, so
    // the trail must match between a serial and a parallel sweep — this
    // is what lets a resumed run be checked cycle-by-cycle against the
    // original.
    let spec = small_spec().digest_every(250);
    let points = spec.points();
    let mut serial = Vec::new();
    let run = |i: usize| run_point_full(&points[i]);
    let _ = run_points_full_with(&points, 1, run, |_, o, _, _| serial.push(o.clone()));
    serial.sort_by_key(|o| o.record.index);
    let mut parallel = Vec::new();
    let _ = run_points_full_with(&points, 4, run, |_, o, _, _| parallel.push(o.clone()));
    parallel.sort_by_key(|o| o.record.index);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(!s.trail.is_empty(), "mesh/PRA points must digest");
        assert_eq!(s.trail, p.trail, "point {} diverged", s.record.index);
        assert_eq!(runner::first_divergence(&s.trail, &p.trail), None);
    }
}
