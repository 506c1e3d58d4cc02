//! # runner — parallel, deterministic experiment orchestration
//!
//! The sweep harness behind every figure and calibration binary:
//!
//! * [`spec::SweepSpec`] — a declarative experiment grid (organisation ×
//!   pattern × rate × radix × VC depth × hops-per-cycle × fault plan ×
//!   sample), built programmatically or loaded from a small JSON file.
//! * [`pool::run_tasks`] — a work pool over plain `std` threads and
//!   channels (no external dependencies): workers claim task indices
//!   from an atomic counter, panics are isolated per task, and results
//!   reassemble in index order.
//! * [`point::run_point_full`] — one simulation point with the
//!   measured-window methodology: warm-up,
//!   [`noc::network::Network::reset_stats`] at the boundary, a measured
//!   interval, then a bounded drain.
//! * [`report`] — byte-stable CSV/JSON artifacts.
//! * [`journal`] — an append-only, fsync'd checkpoint journal written as
//!   points complete, so an interrupted sweep resumes (`sweep --resume`)
//!   and still emits byte-identical artifacts.
//! * [`supervisor`] — the one sweep executor: [`supervisor::prepare`]
//!   consolidates the journal, then [`supervisor::run_supervised`] runs
//!   the missing points through the result cache ([`cache`]) on a thread
//!   pool or across crash-tolerant worker processes.
//!
//! The load-bearing invariant, enforced by `tests/determinism.rs` and
//! `tests/resume.rs`: a sweep's result rows are **byte-identical at any
//! thread count, and across kill/resume**. Seeds derive from grid
//! position and retry attempt ([`seed::derive_seed`]), simulations never
//! share state, and artifacts contain no wall-clock values. Per-point
//! cycle/wall budgets ([`point::WallGuard`]) turn wedged points into
//! `timeout(...)` rows instead of hung sweeps, and sampled state digests
//! ([`point::verify_digest_trail`]) catch divergent re-runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod journal;
pub mod lease;
pub mod org;
pub mod point;
pub mod pool;
pub mod protocol;
pub mod report;
pub mod seed;
pub mod spec;
pub mod supervisor;

pub use cache::{run_point_cached, CacheCounts, CacheLookup, ResultCache};
pub use journal::{
    load_journal, load_worker_journal, JournalError, JournalHeader, JournalWriter, LoadedJournal,
    WorkerJournal,
};
pub use lease::{
    lease_path, read_lease, worker_journal_path, Beat, Claim, Lease, LeaseError, LeaseHolder,
    LeaseMonitor,
};
pub use org::{AnyNetwork, Organization};
pub use point::{
    first_divergence, run_point_full, run_points_full_with, verify_digest_trail, ClassLatency,
    PointOutcome, PointRecord, PointSpec,
};
pub use pool::{run_tasks, Outcome};
pub use protocol::{
    check_claim, check_fence, parse_point_line, point_line, replay_journal_bytes,
    resume_spawn_generation, CrashLedger, FenceError, JournalDialect, JournalReplay, ProtocolError,
    Quarantine, StalenessCore, SupervisorStep, WorkerExit,
};
pub use report::{
    csv_row, diff_csv, status_counts, to_csv, to_json, CsvDivergence, StatusCounts, CSV_HEADER,
};
pub use seed::derive_seed;
pub use spec::{
    injection_from_key, injection_key, pattern_from_key, pattern_key, FaultEventSpec, FaultSpec,
    ReliabilitySpec, SpecError, SweepSpec, INJECTION_KEYS, ORG_KEYS, PATTERN_KEYS,
};
pub use supervisor::{
    prepare, run_supervised, run_worker, Prepared, SupervisorConfig, SupervisorError,
    SupervisorReport, WorkerConfig, WorkerOutcome,
};

/// The worker count to use when the caller does not specify one: the
/// `NOC_THREADS` environment variable if set and positive, else the
/// machine's available parallelism, else 1.
pub fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var("NOC_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
