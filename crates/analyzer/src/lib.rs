//! Static protocol verifier for the PRA NoC.
//!
//! The simulator in `crates/noc` and `crates/pra` *executes* the
//! paper's protocols; this crate *proves* the properties those
//! protocols rely on, without running a single simulated cycle:
//!
//! * **Deadlock freedom** ([`cdg`]) — the Dally/Seitz argument: build
//!   the channel-dependency graph of a routing function over every
//!   (src, dst) pair and prove it acyclic, or print the offending cycle.
//!   Covers the production XY routing and the west-first detour tables.
//! * **Segment-schedule sanity** ([`segments`]) — the control network's
//!   2-hop multi-drop walk claims distinct latches, advances
//!   contiguously, never revisits a latch, and arbitrates under a
//!   strict total priority order.
//! * **Lag safety** ([`lag`]) — interval analysis over the control
//!   packet's lag arithmetic proving it never underflows its `u8` for
//!   any mesh radix up to 16 (and rejecting the unguarded variant with
//!   a counterexample).
//! * **Fault tolerance** ([`faultplans`]) — re-verification of the
//!   detour routing against every single-link-cut and single-router
//!   permanent-fault plan, using the exact tables the runtime builds.
//! * **Crash-recovery safety** ([`protocol`], [`modelcheck`]) — an
//!   explicit-state model checker over the sweep harness's
//!   journal/lease/supervisor stack: every interleaving of torn
//!   writes, SIGKILLs, stale-lease takeovers and resumes within
//!   bounds, proving trusted-prefix monotonicity, single-writer
//!   fencing, zombie-write exclusion, resume equivalence and
//!   termination — with shortest counterexample traces when a seeded
//!   bug double breaks one.
//! * **Reliable delivery** ([`reliable`]) — an explicit-state checker
//!   over the end-to-end retransmission protocol's pure rules
//!   (`noc::reliable`): every interleaving of arrivals, fault purges,
//!   duplicate stragglers and ack timeouts within bounds, proving
//!   eventual delivery-or-escalation, no duplicate ejection, no
//!   sequence-number wraparound hazard and a bounded retransmission
//!   storm — refuting the `ack_before_commit` and `unbounded_retry`
//!   bug doubles with shortest counterexamples.
//!
//! [`analyze`] runs the whole battery for one configuration and returns
//! a combined report; the CI `static-analysis` job runs it via
//! `cargo test -p analyzer` and `cargo xtask verify-protocol`.
//!
//! The crate deliberately consumes the *same* pure artifacts the
//! runtime executes — [`noc::faults::DetourTables`], [`pra::schedule`],
//! [`runner::protocol`] — so the verified model cannot drift from the
//! implementation.

pub mod cdg;
mod explore;
pub mod faultplans;
pub mod lag;
pub mod modelcheck;
pub mod protocol;
pub mod reliable;
pub mod routing;
pub mod segments;
#[cfg(test)]
mod wcla;

pub use cdg::{Cdg, Channel, DependencyCycle};
pub use faultplans::{
    single_fault_plans, verify_single_fault_plans, FaultCase, FaultSweepError, FaultSweepSummary,
};
pub use lag::{verify_lag, LagArith, LagInterval, LagReport, LagViolation};
pub use modelcheck::{check_protocol, InvariantKind, ModelReport, ProtocolViolation};
pub use protocol::{Model, ModelBounds, Semantics};
pub use reliable::{check_reliable_protocol, RelBounds, RelInvariant, RelReport, RelViolation};
pub use routing::{CheckerboardAdaptive, RouteError, RoutingSpec, WestFirstDetour, XyRouting};
pub use segments::{verify_segment_schedule, SegmentSummary, SegmentViolation};

use noc::config::NocConfig;

/// Radix bound for the lag interval analysis (ISSUE contract: prove up
/// to 16×16 meshes).
pub const LAG_RADIX_BOUND: u16 = 16;

/// One verification failed; the variants carry printable
/// counterexamples.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A fault-free routing function admits a dependency cycle.
    Deadlock {
        /// Name of the routing function ([`RoutingSpec::name`]).
        routing: &'static str,
        /// The offending cycle.
        cycle: DependencyCycle,
    },
    /// A routing function produced malformed routes.
    Routes {
        /// Name of the routing function.
        routing: &'static str,
        /// The underlying route error.
        error: RouteError,
    },
    /// The control segment schedule violated an invariant.
    Segments(SegmentViolation),
    /// The lag arithmetic can escape `0 ..= max_lag`.
    Lag(LagViolation),
    /// A single-fault plan broke the detour routing.
    FaultSweep(FaultSweepError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Deadlock { routing, cycle } => {
                write!(f, "routing '{routing}' is not deadlock-free: {cycle}")
            }
            AnalysisError::Routes { routing, error } => {
                write!(f, "routing '{routing}' is malformed: {error}")
            }
            AnalysisError::Segments(v) => write!(f, "segment schedule: {v}"),
            AnalysisError::Lag(v) => write!(f, "lag analysis: {v}"),
            AnalysisError::FaultSweep(e) => write!(f, "fault sweep: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Combined report of a clean full analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Dependency-edge counts per verified fault-free routing, by name.
    pub routings: Vec<(&'static str, usize)>,
    /// Segment-schedule sweep summary.
    pub segments: SegmentSummary,
    /// Lag proof (guarded semantics, radices up to
    /// [`LAG_RADIX_BOUND`]).
    pub lag: LagReport,
    /// Single-fault sweep summary.
    pub faults: FaultSweepSummary,
}

/// Proves one routing deadlock-free, returning its dependency count.
///
/// # Errors
///
/// Returns [`AnalysisError::Routes`] for malformed routes and
/// [`AnalysisError::Deadlock`] with the printable cycle otherwise.
pub fn verify_routing(cfg: &NocConfig, spec: &dyn RoutingSpec) -> Result<usize, AnalysisError> {
    let cdg = Cdg::build(cfg, spec).map_err(|error| AnalysisError::Routes {
        routing: spec.name(),
        error,
    })?;
    cdg.verify_acyclic()
        .map_err(|cycle| AnalysisError::Deadlock {
            routing: spec.name(),
            cycle,
        })?;
    Ok(cdg.dependencies())
}

/// Runs the full verification battery for `cfg`: deadlock freedom of
/// XY and fault-free west-first detours, the segment-schedule sweep,
/// the lag interval proof (guarded semantics, radices up to
/// [`LAG_RADIX_BOUND`]), and the exhaustive single-fault sweep.
///
/// # Errors
///
/// Returns the first failed check with its counterexample.
pub fn analyze(cfg: &NocConfig, max_lag: u8) -> Result<AnalysisReport, AnalysisError> {
    let mut routings = Vec::new();
    let xy_deps = verify_routing(cfg, &XyRouting)?;
    routings.push((XyRouting.name(), xy_deps));
    let wf = WestFirstDetour::fault_free(cfg);
    let wf_deps = verify_routing(cfg, &wf)?;
    routings.push((wf.name(), wf_deps));

    let segments = verify_segment_schedule(cfg).map_err(AnalysisError::Segments)?;
    let lag =
        verify_lag(max_lag, LAG_RADIX_BOUND, LagArith::Guarded).map_err(AnalysisError::Lag)?;
    let faults = verify_single_fault_plans(cfg).map_err(AnalysisError::FaultSweep)?;

    Ok(AnalysisReport {
        routings,
        segments,
        lag,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_analysis_passes_on_the_paper_mesh() {
        let cfg = NocConfig::paper();
        let report = analyze(&cfg, 4).expect("paper configuration verifies");
        assert_eq!(report.routings.len(), 2);
        assert!(report.routings.iter().all(|&(_, deps)| deps > 0));
    }

    #[test]
    fn seeded_cyclic_routing_is_reported_as_deadlock() {
        let cfg = NocConfig::paper();
        let err =
            verify_routing(&cfg, &CheckerboardAdaptive).expect_err("checkerboard must be rejected");
        match err {
            AnalysisError::Deadlock { routing, cycle } => {
                assert_eq!(routing, "checkerboard-xy-yx");
                assert!(cycle.channels.len() >= 4);
            }
            other => panic!("wrong error class: {other}"),
        }
    }
}
