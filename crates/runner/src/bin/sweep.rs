//! Generic sweep driver: expands a JSON spec into a grid, runs it on a
//! work pool, and emits byte-stable CSV (stdout or `--csv-out`) plus an
//! optional merged JSON artifact.
//!
//! Crash safety: with a checkpoint path (explicit `--ckpt`, or implied
//! by `--csv-out`), every completed point is journaled and fsync'd as
//! it lands. After a crash, `--resume` replays the journal, refuses it
//! if the spec changed underneath it, skips every completed point, and
//! produces artifacts byte-identical to an uninterrupted run.
//!
//! Multi-process mode: `--workers N` splits the grid into N shards and
//! runs each in its own worker process under a supervising parent
//! (lease-based shard claiming, crash recovery, quarantine of points
//! that repeatedly kill their worker, optional result cache) — see
//! `runner::supervisor`. Artifacts stay byte-identical to a
//! single-process run.
//!
//! QoS gate: `--check-bounds` re-derives the worst-case wormhole
//! latency bound (`noc::wcla`) for every fault-free `ok` mesh point
//! with a bounded injection process and fails (exit 5) when any class's
//! observed max latency exceeds its analytical bound — or when the
//! analysis refuses to certify a point the sweep ran.
//!
//! Delivery gate: `--check-delivery` checks every `ok` row that ran
//! with the reliability overlay on and a zero warm-up window for the
//! exact no-loss partition — fully drained, and every accepted packet
//! either delivered or escalated (`injected == delivered +
//! escalations`). Exit 6 when any row lost a packet.
//!
//! Exit codes: 0 success, 1 I/O failure, 2 usage/spec/journal-header
//! error, 3 determinism failure (`--check-golden` or `--verify-digests`
//! mismatch), 4 partial completion (one or more points quarantined as
//! `poisoned(...)`), 5 latency-bound violation (`--check-bounds`),
//! 6 delivery violation (`--check-delivery`) — so CI can tell "the disk
//! broke" from "the physics broke" from "one point is a worker-killer"
//! from "QoS deadlines are not met" from "a packet was lost".

use std::collections::BTreeMap;
use std::process::ExitCode;
// det:allow(no-wallclock) — wall time feeds only the stderr progress
// banner, never an artifact or digest.
use std::time::Instant;

use noc::types::MessageClass;
use runner::journal::{load_journal, JournalHeader, JournalWriter};
use runner::org::Organization;
use runner::protocol::FENCED_EXIT_CODE;
use runner::supervisor::{SupervisorConfig, SupervisorReport, WorkerConfig};
use runner::{
    diff_csv, run_points_full, run_supervised, run_worker, status_counts, threads_from_env, to_csv,
    to_json, verify_digest_trail, PointOutcome, PointRecord, PointSpec, SweepSpec, WorkerOutcome,
    CSV_HEADER,
};

struct Options {
    spec: String,
    threads: usize,
    csv_out: Option<String>,
    json_out: Option<String>,
    check_golden: Option<String>,
    check_bounds: bool,
    check_delivery: bool,
    ckpt: Option<String>,
    resume: bool,
    verify_digests: bool,
    quiet: bool,
    workers: usize,
    cache: Option<String>,
    crash_limit: u32,
    lease_timeout_ms: u64,
    worker_shard: Option<usize>,
    worker_gen: u64,
    skip_points: Vec<usize>,
}

const USAGE: &str = "usage: sweep --spec FILE [options]
  --spec FILE          sweep specification (JSON; see specs/smoke.json)
  --threads N          worker threads (default: NOC_THREADS or all cores)
  --csv-out FILE       write result rows to FILE instead of stdout
  --json-out FILE      also write the merged JSON artifact to FILE
  --check-golden FILE  compare the CSV against FILE; exit 3 on mismatch
  --check-bounds       gate each fault-free ok mesh point's per-class max
                       latency against the analytical worst-case bound
                       (noc::wcla); exit 5 on any violation or refusal
  --check-delivery     gate each ok reliability-enabled zero-warmup row
                       on the no-loss partition (drained, and injected ==
                       delivered + escalations); exit 6 on any lost packet
  --ckpt FILE          checkpoint journal path (default: <csv-out>.ckpt)
  --resume             skip points already in the checkpoint journal
  --verify-digests     re-run journaled points and compare digest trails
                       (requires --resume; there is nothing to verify
                       without a journal to replay)
  --workers N          run the sweep across N worker processes with
                       crash recovery (requires a journal path; each
                       worker runs its shard serially)
  --cache DIR          content-addressed result cache (entries are
                       digest-verified; corrupted ones are recomputed;
                       requires --workers N > 1)
  --crash-limit K      quarantine a point after it kills K workers in a
                       row (default 3; exit 4 marks partial completion)
  --lease-timeout-ms T declare a worker hung after T ms without a
                       heartbeat (default 2000)
  --quiet              suppress progress output
  --help               show this help";

fn parse_args() -> Result<Option<Options>, String> {
    let mut spec: Option<String> = None;
    let mut opts = Options {
        spec: String::new(),
        threads: threads_from_env(),
        csv_out: None,
        json_out: None,
        check_golden: None,
        check_bounds: false,
        check_delivery: false,
        ckpt: None,
        resume: false,
        verify_digests: false,
        quiet: false,
        workers: 1,
        cache: None,
        crash_limit: 3,
        lease_timeout_ms: 2000,
        worker_shard: None,
        worker_gen: 0,
        skip_points: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quiet" => {
                opts.quiet = true;
                continue;
            }
            "--resume" => {
                opts.resume = true;
                continue;
            }
            "--verify-digests" => {
                opts.verify_digests = true;
                continue;
            }
            "--check-bounds" => {
                opts.check_bounds = true;
                continue;
            }
            "--check-delivery" => {
                opts.check_delivery = true;
                continue;
            }
            flag @ ("--spec" | "--threads" | "--csv-out" | "--json-out" | "--check-golden"
            | "--ckpt" | "--workers" | "--cache" | "--crash-limit"
            | "--lease-timeout-ms" | "--worker-shard" | "--worker-gen"
            | "--skip-points") => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
                match flag {
                    "--spec" => spec = Some(value),
                    "--threads" => {
                        opts.threads = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid thread count '{value}'"))?;
                    }
                    "--csv-out" => opts.csv_out = Some(value),
                    "--json-out" => opts.json_out = Some(value),
                    "--check-golden" => opts.check_golden = Some(value),
                    "--workers" => {
                        opts.workers = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid worker count '{value}'"))?;
                    }
                    "--cache" => opts.cache = Some(value),
                    "--crash-limit" => {
                        opts.crash_limit = value
                            .parse::<u32>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid crash limit '{value}'"))?;
                    }
                    "--lease-timeout-ms" => {
                        opts.lease_timeout_ms = value
                            .parse::<u64>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid lease timeout '{value}'"))?;
                    }
                    // Internal worker-mode flags, set only by the
                    // supervisor when it re-execs this binary.
                    "--worker-shard" => {
                        opts.worker_shard = Some(
                            value
                                .parse::<usize>()
                                .map_err(|_| format!("invalid worker shard '{value}'"))?,
                        );
                    }
                    "--worker-gen" => {
                        opts.worker_gen = value
                            .parse::<u64>()
                            .map_err(|_| format!("invalid worker generation '{value}'"))?;
                    }
                    "--skip-points" => {
                        for part in value.split(',').filter(|s| !s.is_empty()) {
                            opts.skip_points.push(
                                part.parse::<usize>()
                                    .map_err(|_| format!("invalid skip list '{value}'"))?,
                            );
                        }
                    }
                    _ => opts.ckpt = Some(value),
                }
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    opts.spec = spec.ok_or("missing required flag '--spec' (try --help)")?;
    Ok(Some(opts))
}

/// The journal path: explicit flag, else derived from the CSV artifact.
fn ckpt_path(opts: &Options) -> Option<String> {
    opts.ckpt
        .clone()
        .or_else(|| opts.csv_out.as_ref().map(|p| format!("{p}.ckpt")))
}

/// Loads the journal and validates its header against the current spec;
/// a mismatch means the journal describes a *different* experiment and
/// resuming would silently mix grids. Returns the completed points and
/// the trusted-prefix length for reopening the journal in append mode.
fn load_resume_state(
    path: &str,
    spec: &SweepSpec,
    count: usize,
) -> Result<(BTreeMap<usize, PointOutcome>, u64), String> {
    let loaded = load_journal(path).map_err(|e| e.to_string())?;
    let header = loaded.header;
    let expect = JournalHeader {
        spec_hash: spec.spec_hash(),
        base_seed: spec.base_seed,
        count,
        name: spec.name.clone(),
    };
    if header != expect {
        return Err(format!(
            "checkpoint {path} was written by a different sweep \
             (journal: name={:?} spec_hash={:016x} base_seed={} count={}; \
             current: name={:?} spec_hash={:016x} base_seed={} count={})",
            header.name,
            header.spec_hash,
            header.base_seed,
            header.count,
            expect.name,
            expect.spec_hash,
            expect.base_seed,
            expect.count,
        ));
    }
    Ok((loaded.done, loaded.valid_len))
}

/// Re-runs every journaled point with a digest trail and reports the
/// first architectural-state divergence. Returns the number of
/// mismatching points.
fn verify_digests(
    points: &[PointSpec],
    done: &BTreeMap<usize, PointOutcome>,
    quiet: bool,
) -> usize {
    let mut mismatches = 0usize;
    let mut checked = 0usize;
    for (index, outcome) in done {
        if outcome.trail.is_empty() {
            continue;
        }
        let Some(p) = points.get(*index) else {
            continue;
        };
        checked += 1;
        if let Err(violation) = verify_digest_trail(p, outcome) {
            mismatches += 1;
            eprintln!("digest verification FAILED at point {index}: {violation}");
        }
    }
    if !quiet {
        eprintln!("digest verification: {checked} point(s) checked, {mismatches} mismatch(es)");
    }
    mismatches
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match SweepSpec::load(&opts.spec) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let points = spec.points();
    let ckpt = ckpt_path(&opts);

    // Hidden worker mode: this process is one shard of a supervised
    // sweep, re-exec'd by the parent. Exit 0 = shard done, 2 = fatal
    // configuration error (deterministic; respawning cannot help); any
    // other exit is, by definition, a crash for the supervisor to reap.
    if let Some(shard) = opts.worker_shard {
        let Some(journal) = ckpt else {
            eprintln!("error: --worker-shard needs a journal path");
            return ExitCode::from(2);
        };
        let wcfg = WorkerConfig {
            spec_path: opts.spec.clone(),
            journal_path: journal,
            shard,
            workers: opts.workers,
            generation: opts.worker_gen,
            skip: opts.skip_points.clone(),
            cache_dir: opts.cache.clone(),
            lease_timeout_ms: opts.lease_timeout_ms,
        };
        return match run_worker(&wcfg) {
            Ok(WorkerOutcome::Completed) => ExitCode::SUCCESS,
            Ok(WorkerOutcome::Fenced) => ExitCode::from(FENCED_EXIT_CODE as u8),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    if opts.workers > 1 {
        return run_multiprocess(&opts, &spec, &points, ckpt.as_deref());
    }

    // Only worker processes consult the cache; a single-process run
    // would silently recompute every point.
    if opts.cache.is_some() {
        eprintln!("error: --cache requires --workers N > 1 (the in-process path has no result cache)\n{USAGE}");
        return ExitCode::from(2);
    }

    if opts.resume && ckpt.is_none() {
        eprintln!("error: --resume needs a journal; pass --ckpt or --csv-out\n{USAGE}");
        return ExitCode::from(2);
    }
    // Without a journal to replay, 'completed' is empty and the check
    // would vacuously pass — refuse instead of minting a fake green.
    if opts.verify_digests && !opts.resume {
        eprintln!(
            "error: --verify-digests requires --resume (no journal, nothing to verify)\n{USAGE}"
        );
        return ExitCode::from(2);
    }

    // Resume: replay the journal (validating it against this spec) and
    // keep only points that still need to run.
    let mut completed: BTreeMap<usize, PointOutcome> = BTreeMap::new();
    let mut journal_valid_len: u64 = 0;
    if opts.resume {
        let path = ckpt.as_deref().unwrap_or_default();
        match load_resume_state(path, &spec, points.len()) {
            Ok((done, valid_len)) => {
                completed = done;
                journal_valid_len = valid_len;
            }
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        }
        if !opts.quiet {
            eprintln!(
                "resume: {} of {} point(s) already journaled in {path}",
                completed.len(),
                points.len()
            );
        }
    }

    if opts.verify_digests {
        let mismatches = verify_digests(&points, &completed, opts.quiet);
        if mismatches > 0 {
            return ExitCode::from(3);
        }
    }

    let remaining: Vec<PointSpec> = points
        .iter()
        .filter(|p| !completed.contains_key(&p.index))
        .cloned()
        .collect();
    if !opts.quiet {
        eprintln!(
            "sweep '{}': {} points on {} thread(s)",
            spec.name,
            remaining.len(),
            opts.threads
        );
    }

    // Open the journal: fresh header on a new run, append on resume.
    let mut writer: Option<JournalWriter> = match &ckpt {
        Some(path) if opts.resume => match JournalWriter::append_to(path, journal_valid_len) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some(path) => {
            let header = JournalHeader {
                spec_hash: spec.spec_hash(),
                base_seed: spec.base_seed,
                count: points.len(),
                name: spec.name.clone(),
            };
            match JournalWriter::create(path, &header) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    // det:allow(no-wallclock) — stderr elapsed-time report only.
    let started = Instant::now();
    let quiet = opts.quiet;
    let mut journal_err: Option<String> = None;
    let fresh = run_points_full(&remaining, opts.threads, |_, outcome, done, total| {
        if let Some(w) = writer.as_mut() {
            if journal_err.is_none() {
                if let Err(e) = w.append(outcome) {
                    journal_err = Some(e.to_string());
                }
            }
        }
        if !quiet {
            eprint!("\r[{done}/{total}]");
        }
    });
    let elapsed = started.elapsed();
    if let Some(message) = journal_err {
        // The sweep itself finished; a dead journal only threatens a
        // *future* resume, so warn loudly but still emit artifacts.
        eprintln!("warning: checkpoint journal failed mid-run: {message}");
    }
    if !opts.quiet {
        eprintln!("\rdone: {} points in {:.2?}", fresh.len(), elapsed);
    }

    // Merge journaled and fresh outcomes back into grid order.
    for outcome in fresh {
        completed.insert(outcome.record.index, outcome);
    }
    let records: Vec<PointRecord> = points
        .iter()
        .filter_map(|p| completed.get(&p.index).map(|o| o.record.clone()))
        .collect();
    if records.len() != points.len() {
        eprintln!(
            "error: {} of {} points have no outcome (journal from a partial grid?)",
            points.len() - records.len(),
            points.len()
        );
        return ExitCode::FAILURE;
    }
    let failed = records.iter().filter(|r| r.status != "ok").count();
    if failed > 0 {
        eprintln!("warning: {failed} point(s) failed or timed out (see status column)");
    }
    finish(&opts, &spec, &points, &records, None)
}

/// Gates the sweep against the worst-case latency analysis: every
/// fault-free `ok` mesh/mesh_pra row with a bounded injection process
/// must keep each class's observed max latency at or below the
/// analytical per-class bound from [`noc::wcla`]. Returns the number of
/// violations; an analysis refusal (overload, malformed flows) counts
/// as one, because a point the analysis cannot certify must not pass a
/// bound gate. Points the analysis does not model — non-`ok` rows,
/// fault plans, non-mesh organisations, the unbounded Bernoulli
/// process — are skipped and tallied on stderr.
fn check_bounds(points: &[runner::PointSpec], records: &[PointRecord], quiet: bool) -> usize {
    use noc::wcla::{analyze_flows, flows_for_pattern};
    let classes = [
        MessageClass::Request,
        MessageClass::Coherence,
        MessageClass::Response,
    ];
    let mut violations = 0usize;
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for (p, r) in points.iter().zip(records) {
        let eligible = r.status == "ok"
            && !p.fault.is_active()
            && matches!(p.org, Organization::Mesh | Organization::MeshPra)
            && p.injection.burst_bound().is_some();
        if !eligible {
            skipped += 1;
            continue;
        }
        let analysis = p
            .config()
            .map_err(|message| noc::wcla::WclaError::BadFlow { index: 0, message })
            .and_then(|cfg| {
                let flows =
                    flows_for_pattern(&cfg, p.pattern, p.injection, p.rate, p.response_fraction)?;
                let report = analyze_flows(&cfg, &flows)?;
                Ok((flows, report))
            });
        let (flows, report) = match analysis {
            Ok(x) => x,
            Err(e) => {
                violations += 1;
                eprintln!(
                    "bound check FAILED: point {} cannot be certified: {e}",
                    p.index
                );
                continue;
            }
        };
        checked += 1;
        for (vc, &class) in classes.iter().enumerate() {
            let observed = r.classes[vc].max;
            if observed == 0 {
                continue;
            }
            match report.class_bound(&flows, class) {
                Some(bound) if observed <= bound => {}
                Some(bound) => {
                    violations += 1;
                    eprintln!(
                        "bound check FAILED: point {} class {class:?}: \
                         observed max {observed} > analytical bound {bound}",
                        p.index
                    );
                }
                None => {
                    violations += 1;
                    eprintln!(
                        "bound check FAILED: point {} class {class:?} delivered \
                         packets but the analysis derived no flow for it",
                        p.index
                    );
                }
            }
        }
    }
    if !quiet {
        eprintln!(
            "bound check: {checked} point(s) gated, {skipped} skipped (non-ok, faulted, \
             non-mesh, or unbounded injection), {violations} violation(s)"
        );
    }
    violations
}

/// Gates the sweep on end-to-end reliable delivery: every `ok` row that
/// ran with the reliability overlay enabled and a zero warm-up window
/// must be fully drained with `injected == delivered + escalations` —
/// the exact partition the overlay guarantees (NI-refused injections
/// are never counted as injected, and every accepted packet must end
/// delivered or escalated; nothing may be lost silently). Returns the
/// number of violations. Rows the equation cannot close over — non-`ok`
/// statuses, overlay off, or a non-zero warm-up (the stats window resets
/// mid-run while the overlay's counters are lifetime totals) — are
/// skipped and tallied on stderr so a vacuously green gate is visible.
fn check_delivery(points: &[runner::PointSpec], records: &[PointRecord], quiet: bool) -> usize {
    let mut violations = 0usize;
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for (p, r) in points.iter().zip(records) {
        let eligible = r.status == "ok" && p.reliability.enabled && p.warmup == 0;
        if !eligible {
            skipped += 1;
            continue;
        }
        checked += 1;
        if r.undrained > 0 {
            violations += 1;
            eprintln!(
                "delivery check FAILED: point {} left {} packet(s) undrained \
                 under the reliability overlay",
                p.index, r.undrained
            );
            continue;
        }
        let accounted = r.delivered + r.escalations;
        if r.injected != accounted {
            violations += 1;
            eprintln!(
                "delivery check FAILED: point {}: injected {} != delivered {} + \
                 escalations {} — {} packet(s) lost",
                p.index,
                r.injected,
                r.delivered,
                r.escalations,
                r.injected.abs_diff(accounted)
            );
        }
    }
    if !quiet {
        eprintln!(
            "delivery check: {checked} point(s) gated, {skipped} skipped (non-ok, \
             overlay off, or non-zero warmup), {violations} violation(s)"
        );
    }
    violations
}

/// Runs the sweep across worker processes (the `--workers N` path) and
/// emits the same artifacts as the in-process path. Exit 4 flags
/// partial completion (quarantined points) — unless the golden check
/// failed, in which case the determinism exit 3 wins: wrong bytes are
/// worse news than missing points.
fn run_multiprocess(
    opts: &Options,
    spec: &SweepSpec,
    points: &[PointSpec],
    ckpt: Option<&str>,
) -> ExitCode {
    let Some(journal) = ckpt else {
        eprintln!("error: --workers needs a journal; pass --ckpt or --csv-out\n{USAGE}");
        return ExitCode::from(2);
    };
    if opts.verify_digests {
        eprintln!("error: --verify-digests is not supported with --workers (run it single-process)\n{USAGE}");
        return ExitCode::from(2);
    }
    let cfg = SupervisorConfig {
        spec_path: opts.spec.clone(),
        journal_path: journal.to_string(),
        workers: opts.workers,
        cache_dir: opts.cache.clone(),
        crash_limit: opts.crash_limit,
        lease_timeout_ms: opts.lease_timeout_ms,
        resume: opts.resume,
        quiet: opts.quiet,
    };
    if !opts.quiet {
        eprintln!(
            "sweep '{}': {} points across {} worker process(es)",
            spec.name,
            points.len(),
            opts.workers
        );
    }
    // det:allow(no-wallclock) — stderr elapsed-time report only.
    let started = Instant::now();
    let report = match run_supervised(spec, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            // A mismatched/unreadable resume journal is a usage error,
            // same as in the single-process path; everything else is
            // operational.
            if e.message.starts_with("--resume:") {
                return ExitCode::from(2);
            }
            return ExitCode::FAILURE;
        }
    };
    let records: Vec<PointRecord> = points
        .iter()
        .filter_map(|p| report.outcomes.get(&p.index).map(|o| o.record.clone()))
        .collect();
    if records.len() != points.len() {
        eprintln!(
            "error: {} of {} points have no outcome",
            points.len() - records.len(),
            points.len()
        );
        return ExitCode::FAILURE;
    }
    if !opts.quiet {
        eprintln!(
            "\rdone: {} points in {:.2?}",
            records.len(),
            started.elapsed()
        );
    }
    finish(opts, spec, points, &records, Some(&report))
}

/// The tail shared by the in-process and multi-process paths: the
/// `metrics:`/`status:` stderr lines, the artifacts and golden check,
/// then the bound (exit 5) and delivery (exit 6) gates. A supervised run
/// passes its report, which adds the worker counters to the `metrics:`
/// line and turns quarantined points into exit 4 — unless an earlier
/// gate failed: wrong bytes are worse news than missing points.
fn finish(
    opts: &Options,
    spec: &SweepSpec,
    points: &[PointSpec],
    records: &[PointRecord],
    report: Option<&SupervisorReport>,
) -> ExitCode {
    if !opts.quiet {
        let metrics = sweep_metrics(records);
        let counts = status_counts(records);
        let supervised = report.map_or_else(String::new, |r| {
            format!(
                " worker_crashes={} lease_takeovers={} cache_hits={} cache_corrupt={} quarantined={}",
                r.crashes,
                r.takeovers,
                r.cache_hits,
                r.cache_corrupt,
                r.quarantined.len(),
            )
        });
        eprintln!(
            "metrics: retries={} timeouts={} failures={} undrained_points={} digest_points={}{supervised}",
            metrics.counter("sweep.retries"),
            metrics.counter("sweep.timeouts"),
            metrics.counter("sweep.failures"),
            metrics.counter("sweep.undrained_points"),
            metrics.counter("sweep.digest_points"),
        );
        eprintln!(
            "status: ok={} failed={} timeout={} poisoned={} retransmits={} \
             duplicates_suppressed={} escalations={}",
            counts.ok,
            counts.failed,
            counts.timeout,
            counts.poisoned,
            metrics.counter("sweep.retransmits"),
            metrics.counter("sweep.duplicates_suppressed"),
            metrics.counter("sweep.escalations"),
        );
    }
    let code = emit_artifacts(opts, spec, records);
    if code != ExitCode::SUCCESS {
        return code;
    }
    if opts.check_bounds && check_bounds(points, records, opts.quiet) > 0 {
        return ExitCode::from(5);
    }
    if opts.check_delivery && check_delivery(points, records, opts.quiet) > 0 {
        return ExitCode::from(6);
    }
    if let Some(quarantined) = report.map(|r| &r.quarantined).filter(|q| !q.is_empty()) {
        eprintln!(
            "warning: sweep partially complete — {} point(s) quarantined: {:?}",
            quarantined.len(),
            quarantined
        );
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}

/// Writes the CSV/JSON artifacts and runs the golden check. Shared by
/// the in-process and multi-process paths so the bytes cannot drift
/// between them.
fn emit_artifacts(opts: &Options, spec: &SweepSpec, records: &[PointRecord]) -> ExitCode {
    let csv = to_csv(records);
    if let Some(path) = &opts.csv_out {
        if let Err(e) = std::fs::write(path, &csv) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            eprintln!("rows written to {path}");
        }
    } else {
        print!("{csv}");
    }
    if let Some(path) = &opts.json_out {
        let doc = to_json(&spec.name, records).to_string_pretty(2);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            eprintln!("merged artifact written to {path}");
        }
    }
    if let Some(path) = &opts.check_golden {
        let golden = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read golden {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(divergence) = diff_csv(&golden, &csv) {
            eprintln!("determinism check FAILED: rows differ from {path}");
            eprintln!("{divergence}");
            surface_undrained(&csv, divergence.line);
            let (got_n, want_n) = (csv.lines().count(), golden.lines().count());
            if got_n != want_n {
                eprintln!("  line counts differ: got {got_n}, want {want_n}");
            }
            return ExitCode::from(3);
        }
        if !opts.quiet {
            eprintln!("determinism check passed against {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Aggregates the sweep's robustness counters into a metrics registry
/// (stderr-only — wall-clock-adjacent operational numbers never belong
/// in the byte-stable artifacts).
fn sweep_metrics(records: &[PointRecord]) -> niobs::MetricsRegistry {
    let mut m = niobs::MetricsRegistry::new();
    for r in records {
        m.inc("sweep.retries", u64::from(r.attempts.saturating_sub(1)));
        if r.status.starts_with("timeout(") {
            m.inc("sweep.timeouts", 1);
        }
        if r.status.starts_with("failed(") {
            m.inc("sweep.failures", 1);
        }
        if r.undrained > 0 {
            m.inc("sweep.undrained_points", 1);
        }
        if r.digest != "-" {
            m.inc("sweep.digest_points", 1);
        }
        m.inc("sweep.retransmits", r.retransmits);
        m.inc("sweep.duplicates_suppressed", r.duplicates_suppressed);
        m.inc("sweep.escalations", r.escalations);
    }
    m
}

/// If the diverging row reports undrained packets, say so: a censored
/// latency tail is the classic cause of "same sweep, different numbers"
/// and used to be invisible in golden diffs.
fn surface_undrained(csv: &str, line: usize) {
    let undrained_col = CSV_HEADER
        .split(',')
        .position(|name| name.trim() == "undrained");
    let Some(col) = undrained_col else { return };
    let Some(row) = csv.lines().nth(line.saturating_sub(1)) else {
        return;
    };
    let Some(cell) = row.split(',').nth(col) else {
        return;
    };
    if cell.parse::<u64>().map(|n| n > 0).unwrap_or(false) {
        eprintln!(
            "  note: this row reports {cell} undrained packet(s) — its latency tail is \
             censored, which can itself explain the divergence"
        );
    }
}
