//! Running one sweep point and recording its results.
//!
//! A point runs as one or more *attempts*. Each attempt gets its own
//! network, its own deterministic seed ([`crate::seed::derive_seed`]
//! with the attempt number folded in), and its own budgets: a
//! simulated-cycle ceiling and a wall-clock ceiling, both enforced
//! through a cooperative [`noc::cancel::CancelToken`]. An attempt that
//! exceeds a budget is recorded as `timeout(...)` and retried with
//! exponential backoff up to the spec's retry limit; a panicking
//! attempt flows through the same retry policy. While an attempt runs,
//! the architectural state digest is sampled every `digest_interval`
//! cycles into a trail, so a resumed or re-run point can be checked for
//! divergence cycle-by-cycle.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use niobs::SparseHistogram;
use noc::cancel::CancelToken;
use noc::config::{NocConfig, NocConfigBuilder};
use noc::digest::StateHasher;
use noc::faults::FaultPlan;
use noc::network::{Delivered, Network};
use noc::traffic::{InjectionProcess, Pattern, TokenBucketCfg, TrafficGen};
use noc::types::MessageClass;

use crate::org::{AnyNetwork, Organization};
use crate::pool::{panic_message, run_tasks, run_tasks_with, Outcome};
use crate::seed::derive_seed;
use crate::spec::{injection_key, pattern_key, FaultSpec, ReliabilitySpec};

/// Cycle budget for draining in-flight packets after the measured window.
const DRAIN_BUDGET: u64 = 100_000;

/// One fully-resolved grid point: everything needed to run the
/// simulation, independent of every other point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Position in the expanded grid (defines the derived seed).
    pub index: usize,
    /// Network organisation.
    pub org: Organization,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Temporal injection process.
    pub injection: InjectionProcess,
    /// Injection rate in packets/node/cycle.
    pub rate: f64,
    /// Mesh radix.
    pub radix: u16,
    /// Per-VC buffer depth in flits.
    pub vc_depth: u8,
    /// Hops-per-cycle ceiling.
    pub hpc: u8,
    /// Fault-injection configuration.
    pub fault: FaultSpec,
    /// Reliability-overlay configuration.
    pub reliability: ReliabilitySpec,
    /// Sample number within the grid cell.
    pub sample: u32,
    /// Derived RNG seed (a pure function of grid index and base seed).
    pub seed: u64,
    /// The sweep's base seed (retries re-derive their seed from it).
    pub base_seed: u64,
    /// Warm-up cycles excluded from measured statistics.
    pub warmup: u64,
    /// Measured-window cycles.
    pub measure: u64,
    /// Fraction of injected packets that are multi-flit responses.
    pub response_fraction: f64,
    /// Simulated-cycle ceiling per attempt (0 = unlimited).
    pub cycle_budget: u64,
    /// Wall-clock ceiling per attempt in milliseconds (0 = unlimited).
    pub wall_budget_ms: u64,
    /// Retries after a failed or timed-out attempt (0 = no retries).
    pub max_retries: u32,
    /// Base backoff before retry `k`, doubled per retry (0 = no sleep).
    pub backoff_ms: u64,
    /// Cycles between state-digest samples (0 = digests off).
    pub digest_interval: u64,
    /// Per-class arbitration priority (`None` = plain round-robin).
    pub class_priority: Option<[u8; 3]>,
    /// Per-class token-bucket shapers at the injection point.
    pub token_buckets: [Option<TokenBucketCfg>; 3],
    /// Allow the network to fast-path quiescent cycles (byte-identical
    /// either way; a runtime knob, so not part of the spec hash).
    pub skip_ahead: bool,
}

impl PointSpec {
    /// The network configuration this point simulates.
    ///
    /// # Errors
    ///
    /// Returns the builder's validation error message for impossible
    /// combinations (e.g. a VC depth of zero).
    pub fn config(&self) -> Result<NocConfig, String> {
        let paper_len = NocConfig::paper().max_packet_len;
        let mut b = NocConfigBuilder::new()
            .radix(self.radix)
            .vc_depth(self.vc_depth)
            .max_hops_per_cycle(self.hpc)
            .max_packet_len(paper_len.min(self.vc_depth));
        if let Some(priority) = self.class_priority {
            b = b.class_priority(priority);
        }
        if self.fault.is_active() {
            let mut plan = FaultPlan::new(self.fault.seed);
            if self.fault.transient_ppb > 0 {
                plan = plan.transient_rate_ppb(self.fault.transient_ppb);
            }
            for ev in &self.fault.events {
                plan = plan.with_event(ev.to_event());
            }
            b = b.faults(plan);
        }
        if let Some(rel) = self.reliability.config() {
            b = b.reliability(rel);
        }
        b.build().map_err(|e| e.to_string())
    }

    /// The record for a point that could not run (bad config or panic).
    pub fn failed_record(&self, message: &str) -> PointRecord {
        PointRecord {
            status: format!("failed({})", sanitize(message)),
            ..PointRecord::zeroed(self)
        }
    }

    /// The record for a quarantined point: one that killed its worker
    /// process `crashes` times in a row. Every field except the status
    /// and attempt count is the deterministic zeroed baseline, so the
    /// row's bytes depend only on the crash limit — not on which worker
    /// died or when.
    pub fn poisoned_record(&self, crashes: u32) -> PointRecord {
        PointRecord {
            status: format!("poisoned(killed worker x{crashes})"),
            attempts: crashes,
            ..PointRecord::zeroed(self)
        }
    }
}

/// Per-class latency summary of one point (one message class's share of
/// the CSV row: `<class>_p50,<class>_p95,<class>_p99,<class>_max`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassLatency {
    /// Exact median latency of the class's measured deliveries.
    pub p50: u64,
    /// Exact 95th-percentile latency.
    pub p95: u64,
    /// Exact 99th-percentile latency.
    pub p99: u64,
    /// Worst observed latency (the number `--check-bounds` gates).
    pub max: u64,
}

/// The measured results of one point — one CSV row of the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Grid index (row order of the artifact).
    pub index: usize,
    /// Organisation key.
    pub org: String,
    /// Pattern key.
    pub pattern: String,
    /// Injection-process key.
    pub injection: String,
    /// Injection rate.
    pub rate: f64,
    /// Mesh radix.
    pub radix: u16,
    /// Per-VC buffer depth.
    pub vc_depth: u8,
    /// Hops-per-cycle ceiling.
    pub hpc: u8,
    /// Fault-plan label.
    pub fault: String,
    /// Sample number.
    pub sample: u32,
    /// Derived seed the point ran with.
    pub seed: u64,
    /// `"ok"`, `"timeout(<budget>)"`, or `"failed(<message>)"`.
    pub status: String,
    /// Attempts consumed (1 = no retries were needed).
    pub attempts: u32,
    /// Packets injected inside the measured window.
    pub injected: u64,
    /// Packets delivered inside the measured window (and its drain).
    pub delivered: u64,
    /// Packets still in flight when the drain budget expired.
    pub undrained: u64,
    /// Mean end-to-end latency over the measured deliveries.
    pub avg_latency: f64,
    /// Exact median latency.
    pub p50: u64,
    /// Exact 95th-percentile latency.
    pub p95: u64,
    /// Exact 99th-percentile latency.
    pub p99: u64,
    /// Worst observed latency.
    pub max_latency: u64,
    /// Mean hop count of measured deliveries.
    pub avg_hops: f64,
    /// Delivered packets per node per measured cycle.
    pub throughput: f64,
    /// Per-class latency summaries, indexed by VC
    /// (`[request, coherence, response]`).
    pub classes: [ClassLatency; 3],
    /// Reliability-entry label (`"off"` when the overlay is disabled).
    pub reliability: String,
    /// Retransmit copies injected by the reliability overlay over the
    /// whole run (lifetime, never reset at the warm-up boundary; 0 with
    /// the overlay off).
    pub retransmits: u64,
    /// Redundant arrivals swallowed at ejection (lifetime).
    pub duplicates_suppressed: u64,
    /// Packets given up on after the retry budget and reported as
    /// permanent-fault escalations (lifetime).
    pub escalations: u64,
    /// Chained hash of the digest trail (`"-"` when digests are off).
    pub digest: String,
}

impl PointRecord {
    fn zeroed(p: &PointSpec) -> PointRecord {
        PointRecord {
            index: p.index,
            org: p.org.key().to_string(),
            pattern: pattern_key(p.pattern),
            injection: injection_key(p.injection),
            rate: p.rate,
            radix: p.radix,
            vc_depth: p.vc_depth,
            hpc: p.hpc,
            fault: p.fault.label.clone(),
            sample: p.sample,
            seed: p.seed,
            status: "ok".to_string(),
            attempts: 1,
            injected: 0,
            delivered: 0,
            undrained: 0,
            avg_latency: 0.0,
            p50: 0,
            p95: 0,
            p99: 0,
            max_latency: 0,
            avg_hops: 0.0,
            throughput: 0.0,
            classes: [ClassLatency::default(); 3],
            reliability: p.reliability.label.clone(),
            retransmits: 0,
            duplicates_suppressed: 0,
            escalations: 0,
            digest: "-".to_string(),
        }
    }
}

fn sanitize(message: &str) -> String {
    message
        .chars()
        .map(|c| match c {
            ',' | '\n' | '\r' | '\t' => ';',
            other => other,
        })
        .collect()
}

/// One `(cycle, digest)` sample of the network's architectural state.
pub type DigestSample = (u64, u64);

/// A point's record plus the digest trail its winning attempt produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The CSV row.
    pub record: PointRecord,
    /// State-digest samples, in cycle order (empty when digests are off
    /// or the organisation does not implement digests).
    pub trail: Vec<DigestSample>,
}

/// Compares two digest trails and returns the first divergence as
/// `(cycle, expected, got)`, or `None` when the common prefix agrees.
/// Trails of different lengths diverge only if a shared cycle differs —
/// a longer run simply has more samples.
pub fn first_divergence(
    expected: &[DigestSample],
    got: &[DigestSample],
) -> Option<(u64, u64, u64)> {
    for (&(ec, ed), &(gc, gd)) in expected.iter().zip(got.iter()) {
        if ec != gc {
            // Sampling grids differ (e.g. different digest_interval);
            // the earlier cycle is where comparability ends.
            return Some((ec.min(gc), ed, gd));
        }
        if ed != gd {
            return Some((ec, ed, gd));
        }
    }
    None
}

/// Folds a digest trail into the single `digest` CSV column.
fn digest_summary(trail: &[DigestSample]) -> String {
    if trail.is_empty() {
        return "-".to_string();
    }
    let mut h = StateHasher::new();
    for &(cycle, digest) in trail {
        h.write_u64(cycle);
        h.write_u64(digest);
    }
    format!("{:016x}", h.finish())
}

/// Cancels the token when the wall-clock budget expires; disarmed (and
/// its thread joined) on drop. A zero budget arms nothing.
#[derive(Debug)]
pub struct WallGuard {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WallGuard {
    /// Arms a watchdog that cancels `token` after `budget_ms`
    /// milliseconds of wall-clock time (0 arms nothing). Drop the guard
    /// to disarm it.
    pub fn arm(budget_ms: u64, token: CancelToken) -> WallGuard {
        if budget_ms == 0 {
            return WallGuard {
                stop: None,
                handle: None,
            };
        }
        let (tx, rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            if rx.recv_timeout(Duration::from_millis(budget_ms)).is_err() {
                token.cancel();
            }
        });
        WallGuard {
            stop: Some(tx),
            handle: Some(handle),
        }
    }
}

impl Drop for WallGuard {
    fn drop(&mut self) {
        if let Some(tx) = self.stop.take() {
            let _ = tx.send(());
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// How often the driver polls the wall-clock/external cancel tokens, in
/// simulated cycles. Those trips land at a nondeterministic cycle anyway
/// (their rows are zeroed, see [`run_attempt`]), so coarse polling
/// changes no observable bytes — it only keeps two atomic loads out of
/// the per-cycle path.
const CANCEL_POLL_INTERVAL: u64 = 1024;

/// Precomputed cadence for the per-cycle observation and budget checks.
///
/// The driver loop compares `now` against one precomputed `next` cycle;
/// only when that gate is due does it take the slow path (digest
/// sampling, budget checks, cancel-token loads). With digests off and no
/// budgets armed, `next` is `u64::MAX` and the whole apparatus costs a
/// single branch per cycle.
#[derive(Debug)]
struct CycleGate {
    digest_interval: u64,
    cycle_budget: u64,
    /// `u64::MAX` when no cancel source is armed (no wall budget, no
    /// external token) — then the tokens are never loaded at all.
    poll_interval: u64,
    next: u64,
}

impl CycleGate {
    fn new(p: &PointSpec, has_external: bool) -> CycleGate {
        let poll_interval = if has_external || p.wall_budget_ms > 0 {
            CANCEL_POLL_INTERVAL
        } else {
            u64::MAX
        };
        let mut gate = CycleGate {
            digest_interval: p.digest_interval,
            cycle_budget: p.cycle_budget,
            poll_interval,
            next: 0,
        };
        gate.rearm(0);
        gate
    }

    /// True when the slow path must run at cycle `now`.
    #[inline(always)]
    fn due(&self, now: u64) -> bool {
        now >= self.next
    }

    /// Recomputes the next due cycle after a slow-path check at `now`.
    fn rearm(&mut self, now: u64) {
        let mut next = u64::MAX;
        if self.digest_interval > 0 {
            // The next multiple of the sampling interval after `now`.
            next = next.min((now + 1).next_multiple_of(self.digest_interval));
        }
        if self.cycle_budget > 0 && now < self.cycle_budget {
            next = next.min(self.cycle_budget);
        }
        if self.poll_interval != u64::MAX {
            next = next.min(now.saturating_add(self.poll_interval));
        }
        self.next = next;
    }
}

/// Runs one attempt of a point: warm-up, a measured window opened by
/// `reset_stats`, then a bounded drain, all under the cycle and
/// wall-clock budgets. Deliveries are counted from the window boundary
/// onward (including the drain, so slow packets injected inside the
/// window are not silently censored).
fn run_attempt(p: &PointSpec, seed: u64, external: Option<&CancelToken>) -> PointOutcome {
    let cfg = match p.config() {
        Ok(cfg) => cfg,
        Err(message) => {
            return PointOutcome {
                record: p.failed_record(&message),
                trail: Vec::new(),
            }
        }
    };
    let mut net = AnyNetwork::new(p.org, cfg.clone());
    let token = CancelToken::new();
    net.install_cancel(token.clone());
    net.set_skip_ahead(p.skip_ahead);
    let _wall = WallGuard::arm(p.wall_budget_ms, token.clone());
    let mut gen = TrafficGen::new(cfg, p.pattern, p.rate, seed)
        .response_fraction(p.response_fraction)
        .injection(p.injection);
    for (vc, bucket) in p.token_buckets.iter().enumerate() {
        if let Some(b) = bucket {
            let class = match vc {
                0 => MessageClass::Request,
                1 => MessageClass::Coherence,
                _ => MessageClass::Response,
            };
            gen = gen.token_bucket(class, *b);
        }
    }

    let mut trail: Vec<DigestSample> = Vec::new();
    let mut gate = CycleGate::new(p, external.is_some());
    // The slow path behind the gate: samples the digest on the sampling
    // grid, then reports the budget (if any) that expired.
    let slow_check =
        |net: &AnyNetwork, trail: &mut Vec<DigestSample>, gate: &mut CycleGate| -> Option<String> {
            let now = net.now();
            if p.digest_interval > 0 && now.is_multiple_of(p.digest_interval) {
                if let Some(d) = net.state_digest() {
                    trail.push((now, d));
                }
            }
            // Budget checks in a fixed order: the *deterministic* cycle
            // budget wins every tie, so a token that fires on exactly the
            // budget cycle still yields the same `timeout(cycles>...)` row
            // on every run — never a race between two statuses.
            if p.cycle_budget > 0 && now >= p.cycle_budget {
                return Some(format!("timeout(cycles>{})", p.cycle_budget));
            }
            if external.is_some_and(CancelToken::is_cancelled) {
                return Some("timeout(cancelled)".to_string());
            }
            if token.is_cancelled() {
                return Some(format!("timeout(wall>{}ms)", p.wall_budget_ms));
            }
            gate.rearm(now);
            None
        };

    let mut timeout: Option<String> = None;
    let mut measured = false;
    let mut latencies = SparseHistogram::new();
    let mut class_latencies: [SparseHistogram; 3] = Default::default();
    // Reused across cycles so the steady-state loop never allocates.
    let mut delivered: Vec<Delivered> = Vec::new();
    let record_batch = |hist: &mut SparseHistogram,
                        by_class: &mut [SparseHistogram; 3],
                        net: &mut AnyNetwork,
                        buf: &mut Vec<Delivered>| {
        net.drain_delivered_into(buf);
        for d in buf.drain(..) {
            let latency = d.delivered.saturating_sub(d.packet.created);
            hist.record(latency);
            by_class[d.packet.class.vc()].record(latency);
        }
    };
    'run: {
        for _ in 0..p.warmup {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered_into(&mut delivered);
            delivered.clear();
            if gate.due(net.now()) {
                if let Some(t) = slow_check(&net, &mut trail, &mut gate) {
                    timeout = Some(t);
                    break 'run;
                }
            }
        }

        // The measured window starts here: everything before is warm-up.
        net.reset_stats();
        measured = true;
        for _ in 0..p.measure {
            gen.tick(&mut net);
            net.step();
            record_batch(
                &mut latencies,
                &mut class_latencies,
                &mut net,
                &mut delivered,
            );
            if gate.due(net.now()) {
                if let Some(t) = slow_check(&net, &mut trail, &mut gate) {
                    timeout = Some(t);
                    break 'run;
                }
            }
        }
        gen.stop();
        let deadline = net.now() + DRAIN_BUDGET;
        while net.in_flight() > 0 && net.now() < deadline {
            net.step();
            record_batch(
                &mut latencies,
                &mut class_latencies,
                &mut net,
                &mut delivered,
            );
            if gate.due(net.now()) {
                if let Some(t) = slow_check(&net, &mut trail, &mut gate) {
                    timeout = Some(t);
                    break 'run;
                }
            }
        }
    }
    // A timed-out attempt must not run on: make sure any in-network
    // machinery sees the cancel even when the cycle budget (not the
    // wall guard) tripped it.
    if timeout.is_some() {
        token.cancel();
    }
    // A wall-clock or external-cancel trip lands at a nondeterministic
    // cycle, so any stats and digests gathered up to it are
    // run-dependent. Zero them: the row then carries only deterministic
    // bytes (status, seed, grid fields) and stays identical across
    // re-runs — which is also what lets a supervisor's shutdown rows
    // merge cleanly. Cycle-budget timeouts keep their stats; they trip
    // at an exact cycle.
    if timeout
        .as_deref()
        .is_some_and(|t| t == "timeout(cancelled)" || t.starts_with("timeout(wall>"))
    {
        measured = false;
        trail.clear();
    }

    let mut rec = PointRecord::zeroed(p);
    rec.seed = seed;
    if measured {
        let stats = net.stats();
        let nodes = net.config().nodes() as u64;
        rec.injected = stats.injected();
        rec.delivered = stats.delivered();
        rec.undrained = net.in_flight() as u64;
        rec.avg_latency = latencies.mean().unwrap_or(0.0);
        rec.p50 = latencies.percentile(0.50).unwrap_or(0);
        rec.p95 = latencies.percentile(0.95).unwrap_or(0);
        rec.p99 = latencies.percentile(0.99).unwrap_or(0);
        rec.max_latency = latencies.max().unwrap_or(0);
        for (vc, hist) in class_latencies.iter().enumerate() {
            rec.classes[vc] = ClassLatency {
                p50: hist.percentile(0.50).unwrap_or(0),
                p95: hist.percentile(0.95).unwrap_or(0),
                p99: hist.percentile(0.99).unwrap_or(0),
                max: hist.max().unwrap_or(0),
            };
        }
        rec.avg_hops = stats.avg_hops();
        #[allow(clippy::cast_precision_loss)]
        if p.measure > 0 && nodes > 0 {
            rec.throughput = rec.delivered as f64 / (p.measure * nodes) as f64;
        }
        // Reliability counters are lifetime totals (never reset at the
        // warm-up boundary), so with `warmup: 0` they partition exactly
        // against the windowed injection count — the `--check-delivery`
        // gate relies on that.
        if let Some(rel) = net.reliable_stats() {
            rec.retransmits = rel.retransmits;
            rec.duplicates_suppressed = rel.duplicates_suppressed;
            rec.escalations = rel.escalations;
        }
    }
    if let Some(t) = timeout {
        rec.status = t;
    }
    rec.digest = digest_summary(&trail);
    PointOutcome { record: rec, trail }
}

/// Deterministic backoff before retry `attempt` (1-based): the base
/// doubled per retry, plus seed-derived jitter so a fleet of retrying
/// workers does not thunder in lockstep.
fn backoff_delay_ms(p: &PointSpec, attempt: u32) -> u64 {
    let exp = u32::min(attempt.saturating_sub(1), 16);
    let base = p.backoff_ms.saturating_mul(1u64 << exp);
    let jitter = derive_seed(p.base_seed, p.index as u64, attempt) % (p.backoff_ms / 2 + 1);
    base.saturating_add(jitter)
}

/// Runs a point through the full retry policy and returns its record
/// plus the digest trail of the attempt that produced it.
///
/// Attempt `k` is panic-isolated and seeded with
/// `derive_seed(base_seed, index, k)`; a non-`ok` outcome (timeout,
/// panic, failure) is retried after [`backoff_delay_ms`] until the
/// retry budget is spent, and the last outcome is returned. A point
/// that leaves packets undrained gets a stderr warning — the count is
/// also in the `undrained` column, but silence here has historically
/// hidden censored tails.
pub fn run_point_full(p: &PointSpec) -> PointOutcome {
    run_point_full_inner(p, None)
}

/// Like [`run_point_full`], but the caller supplies a cancellation
/// token: when it fires, the in-flight attempt stops at its next cycle
/// boundary with a deterministic `timeout(cancelled)` row (zeroed
/// stats, no digest trail) and the retry ladder does not continue — a
/// sweep being torn down must not sleep through backoffs.
pub fn run_point_full_cancellable(p: &PointSpec, cancel: &CancelToken) -> PointOutcome {
    run_point_full_inner(p, Some(cancel))
}

fn run_point_full_inner(p: &PointSpec, cancel: Option<&CancelToken>) -> PointOutcome {
    let total_attempts = p.max_retries.saturating_add(1);
    let mut last: Option<PointOutcome> = None;
    for attempt in 0..total_attempts {
        if attempt > 0 && p.backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(backoff_delay_ms(p, attempt)));
        }
        let seed = if attempt == 0 {
            p.seed
        } else {
            derive_seed(p.base_seed, p.index as u64, attempt)
        };
        let mut outcome = match catch_unwind(AssertUnwindSafe(|| run_attempt(p, seed, cancel))) {
            Ok(outcome) => outcome,
            // Name the crash site: "which point, which seed, which
            // attempt" is the difference between a reproducible bug
            // report and a bare panic payload in a million-row sweep.
            Err(payload) => PointOutcome {
                record: p.failed_record(&format!(
                    "point {} seed {seed} attempt {attempt}: {}",
                    p.index,
                    panic_message(payload.as_ref())
                )),
                trail: Vec::new(),
            },
        };
        outcome.record.attempts = attempt + 1;
        let stop = outcome.record.status == "ok" || cancel.is_some_and(CancelToken::is_cancelled);
        last = Some(outcome);
        if stop {
            break;
        }
    }
    let outcome = last.expect("at least one attempt always runs");
    if outcome.record.undrained > 0 {
        eprintln!(
            "warning: point {} ({}) left {} packets undrained after the {}-cycle drain budget; \
             its latency tail is censored",
            p.index, outcome.record.org, outcome.record.undrained, DRAIN_BUDGET
        );
    }
    outcome
}

/// Runs one sweep point to completion and returns its CSV row. This is
/// [`run_point_full`] minus the digest trail.
pub fn run_point(p: &PointSpec) -> PointRecord {
    run_point_full(p).record
}

/// Re-runs `p` and checks the fresh digest trail against a previously
/// recorded outcome (a checkpoint journal entry, a golden run, or the
/// same point on another thread count). A diverging cycle is reported
/// as [`noc::watchdog::InvariantViolation::DigestMismatch`] naming the
/// offending cycle — the architectural state stopped matching there,
/// even if the summary statistics happen to agree.
///
/// # Errors
///
/// The first divergent sample, as a `DigestMismatch` violation.
pub fn verify_digest_trail(
    p: &PointSpec,
    expected: &PointOutcome,
) -> Result<(), noc::watchdog::InvariantViolation> {
    let fresh = run_point_full(p);
    if let Some((cycle, exp, got)) = first_divergence(&expected.trail, &fresh.trail) {
        return Err(noc::watchdog::InvariantViolation::DigestMismatch {
            cycle,
            expected: exp,
            got,
        });
    }
    Ok(())
}

/// Runs every point across `threads` workers and returns the records in
/// grid order. A panicking point is recorded as failed — the sweep
/// continues. `on_progress(done, total)` runs on the calling thread.
pub fn run_points(
    points: &[PointSpec],
    threads: usize,
    on_progress: impl FnMut(usize, usize),
) -> Vec<PointRecord> {
    let outcomes = run_tasks(
        points.len(),
        threads,
        |i| run_point(&points[i]),
        on_progress,
    );
    outcomes
        .into_iter()
        .zip(points)
        .map(|(outcome, p)| match outcome {
            Outcome::Done(rec) => rec,
            Outcome::Panicked { message, .. } => {
                p.failed_record(&format!("point {} seed {}: {message}", p.index, p.seed))
            }
        })
        .collect()
}

/// Like [`run_points`] but streams each completed [`PointOutcome`] to
/// `on_complete(index, outcome, done, total)` on the calling thread, in
/// completion order — the hook the checkpoint journal hangs off, so a
/// point is durable the moment it finishes, not when the sweep ends.
pub fn run_points_full(
    points: &[PointSpec],
    threads: usize,
    on_complete: impl FnMut(usize, &PointOutcome, usize, usize),
) -> Vec<PointOutcome> {
    run_points_full_with(points, threads, |i| run_point_full(&points[i]), on_complete)
}

/// The general form of [`run_points_full`]: the caller supplies the
/// per-point task, so a wrapper can interpose — consult a result cache,
/// thread a cancellation token, journal `start` markers — while keeping
/// the pool's panic isolation, index-ordered results, and completion
/// streaming. `task(i)` must stay a pure function of `i` for the
/// byte-identity guarantee to hold.
pub fn run_points_full_with(
    points: &[PointSpec],
    threads: usize,
    task: impl Fn(usize) -> PointOutcome + Sync,
    mut on_complete: impl FnMut(usize, &PointOutcome, usize, usize),
) -> Vec<PointOutcome> {
    let to_outcome = |i: usize, outcome: &Outcome<PointOutcome>| match outcome {
        Outcome::Done(o) => o.clone(),
        Outcome::Panicked { message, .. } => PointOutcome {
            record: points[i].failed_record(&format!(
                "point {} seed {}: {message}",
                points[i].index, points[i].seed
            )),
            trail: Vec::new(),
        },
    };
    let outcomes = run_tasks_with(points.len(), threads, task, |i, outcome, done, total| {
        let resolved = to_outcome(i, outcome);
        on_complete(i, &resolved, done, total);
    });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| to_outcome(i, &outcome))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn tiny_point(org: Organization) -> PointSpec {
        let spec = SweepSpec::new("t").orgs(&[org]).windows(200, 800);
        spec.points().remove(0)
    }

    #[test]
    fn a_point_measures_only_its_window() {
        let p = tiny_point(Organization::Mesh);
        let rec = run_point(&p);
        assert_eq!(rec.status, "ok");
        assert_eq!(rec.attempts, 1);
        assert!(rec.delivered > 0, "tiny mesh point must deliver");
        assert!(rec.avg_latency > 0.0);
        assert!(rec.p50 <= rec.p95 && rec.p95 <= rec.p99);
        assert!(rec.p99 <= rec.max_latency);
        // The measured window is 800 cycles at 0.02 pkts/node/cycle on 64
        // nodes ≈ 1024 expected injections; the cumulative run (warm-up
        // included) would report ~25% more.
        assert!(rec.injected < 1_400, "warm-up leaked in: {}", rec.injected);
    }

    #[test]
    fn per_class_columns_are_populated_and_consistent() {
        let p = tiny_point(Organization::Mesh);
        let rec = run_point(&p);
        assert_eq!(rec.status, "ok");
        // Requests and responses both flow at the default 50/50 mix;
        // the generator emits no coherence traffic.
        assert!(rec.classes[0].max > 0, "request class must deliver");
        assert!(rec.classes[2].max > 0, "response class must deliver");
        assert_eq!(rec.classes[1], ClassLatency::default());
        for c in rec.classes {
            assert!(c.p50 <= c.p95 && c.p95 <= c.p99 && c.p99 <= c.max);
        }
        let worst = rec.classes.iter().map(|c| c.max).max().unwrap_or(0);
        assert_eq!(worst, rec.max_latency, "class maxima partition the total");
    }

    #[test]
    fn bursty_shaped_points_are_deterministic() {
        let mut p = tiny_point(Organization::Mesh);
        p.injection = InjectionProcess::OnOff {
            on_len: 8,
            off_len: 56,
        };
        p.token_buckets[2] = Some(TokenBucketCfg {
            rate: 0.5,
            burst: 10,
        });
        let a = run_point(&p);
        assert_eq!(a.status, "ok");
        assert_eq!(a.injection, "onoff:8:56");
        assert!(a.delivered > 0, "bursty point must deliver");
        let b = run_point(&p);
        assert_eq!(a, b, "bursty shaped points must re-run identically");
    }

    #[test]
    fn bad_config_is_a_failed_record_not_a_crash() {
        let mut p = tiny_point(Organization::Mesh);
        p.vc_depth = 0;
        let rec = run_point(&p);
        assert!(rec.status.starts_with("failed("), "got {}", rec.status);
        assert_eq!(rec.delivered, 0);
    }

    #[test]
    fn pra_point_runs_with_faults() {
        let mut p = tiny_point(Organization::MeshPra);
        p.fault = crate::spec::FaultSpec {
            label: "t500".to_string(),
            transient_ppb: 500,
            seed: 0xFA17,
            events: Vec::new(),
        };
        let rec = run_point(&p);
        assert_eq!(rec.status, "ok");
        assert!(rec.delivered > 0);
    }

    #[test]
    fn cycle_budget_trips_a_timeout_status() {
        let mut p = tiny_point(Organization::Mesh);
        p.cycle_budget = 100; // well inside the 200-cycle warm-up
        let rec = run_point(&p);
        assert_eq!(rec.status, "timeout(cycles>100)");
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.injected, 0, "warm-up timeout must not report stats");
    }

    #[test]
    fn timeouts_consume_the_retry_budget() {
        let mut p = tiny_point(Organization::Mesh);
        p.cycle_budget = 100;
        p.max_retries = 2;
        p.backoff_ms = 0;
        let rec = run_point(&p);
        assert_eq!(rec.status, "timeout(cycles>100)");
        assert_eq!(rec.attempts, 3, "all attempts must be consumed");
    }

    #[test]
    fn digest_trail_is_sampled_and_deterministic() {
        let mut p = tiny_point(Organization::Mesh);
        p.digest_interval = 100;
        let a = run_point_full(&p);
        let b = run_point_full(&p);
        assert!(!a.trail.is_empty(), "mesh must produce digests");
        assert_eq!(a.trail, b.trail, "same point must re-digest identically");
        assert_eq!(first_divergence(&a.trail, &b.trail), None);
        assert_ne!(a.record.digest, "-");
        // Samples land on the interval grid.
        assert!(a.trail.iter().all(|&(c, _)| c % 100 == 0));
    }

    #[test]
    fn divergence_reports_the_offending_cycle() {
        let expected = vec![(100, 1), (200, 2), (300, 3)];
        let mut got = expected.clone();
        got[1].1 = 99;
        assert_eq!(first_divergence(&expected, &got), Some((200, 2, 99)));
        // Prefix agreement with extra samples is not a divergence.
        assert_eq!(first_divergence(&expected, &expected[..2]), None);
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let mut p = tiny_point(Organization::Mesh);
        p.backoff_ms = 8;
        let d1 = backoff_delay_ms(&p, 1);
        let d2 = backoff_delay_ms(&p, 2);
        assert_eq!(d1, backoff_delay_ms(&p, 1));
        assert!(d2 >= d1, "backoff must not shrink: {d1} then {d2}");
        assert!((8..8 + 5).contains(&d1), "base 8 plus jitter < 5, got {d1}");
    }
}
