//! Sweep execution: one journal preparation, one cached point task, and
//! two placements of points — a thread pool in this process, or a
//! supervised fleet of worker processes.
//!
//! Every sweep with a journal starts with [`prepare`]. A fresh run
//! writes the header and clears stale coordination files; `--resume`
//! loads the main journal, checks its header, harvests the shard
//! journals a killed predecessor left behind, rewrites the main journal
//! atomically and removes the harvested files. [`run_supervised`] then
//! runs only the points still missing, each through
//! [`run_point_cached`], in whichever placement the configuration asks
//! for. The two placements therefore share resume, cache and digest
//! verification: a sweep killed under `--workers` resumes in-process
//! and vice versa, and a cache warmed by one serves the other.
//!
//! `sweep --workers N` turns the sweep into a small fault-tolerant
//! fleet. The parent becomes a **supervisor**: it spawns one **worker**
//! process per shard (point `index % N`). Each worker claims its shard
//! with a heartbeat lease ([`crate::lease`]), journals a fsync'd
//! `start` marker before every point, runs the point (consulting the
//! result cache when one is configured), and journals the completed
//! row — all into a *generation-scoped* shard journal that a deposed
//! predecessor can never touch.
//!
//! When a worker dies — SIGKILL, OOM kill, `abort()` — the supervisor
//! reaps it (or SIGKILLs it first if only its lease went stale, i.e. a
//! hang), harvests every completed point from the dead worker's shard
//! journal (each was fsync'd before the worker moved on, so nothing
//! finished is ever lost), attributes the death to the point named by
//! the dangling `start` marker, and respawns the shard at the next
//! lease generation. A point that kills `crash_limit` workers in a row
//! is **quarantined**: it becomes a deterministic `poisoned(...)` row
//! and the sweep carries on — one pathological point cannot wedge a
//! million-point grid.
//!
//! Because workers re-run crashed points from attempt 0 with the same
//! derived seeds, and all coordination state lives outside the
//! artifact rows, the merged CSV/JSON are **byte-identical** to a
//! single-process run no matter how many workers were killed along the
//! way.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use crate::cache::{run_point_cached, CacheCounts, ResultCache};
use crate::journal::{fsync_parent_dir, load_journal, load_worker_journal, JournalWriter};
use crate::lease::{
    lease_path, read_lease, worker_journal_path, Beat, Claim, LeaseHolder, LeaseMonitor,
};
use crate::point::{run_points_full_with, PointOutcome, PointSpec};
use crate::protocol::{
    self, check_fence, resume_spawn_generation, CrashLedger, JournalHeader, SupervisorStep,
    WorkerExit,
};
use crate::spec::SweepSpec;

/// How often the supervisor polls worker exits and lease freshness.
const POLL_MS: u64 = 10;

/// Environment variable for the chaos test harness: a comma-separated
/// list of point indices at which a worker calls `process::abort()`
/// *after* journaling the `start` marker and *before* running the
/// point. Unset (the normal case) it is completely inert.
pub(crate) const TEST_ABORT_ENV: &str = "NOC_SWEEP_TEST_ABORT_POINT";

/// A sweep that cannot make progress.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorError {
    /// Human-readable description of the problem. A journal that
    /// `--resume` cannot use is reported with a `--resume:` prefix.
    pub message: String,
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SupervisorError {}

fn err<T>(message: impl Into<String>) -> Result<T, SupervisorError> {
    Err(SupervisorError {
        message: message.into(),
    })
}

fn expected_header(spec: &SweepSpec, count: usize) -> JournalHeader {
    JournalHeader {
        spec_hash: spec.spec_hash(),
        base_seed: spec.base_seed,
        count,
        name: spec.name.clone(),
    }
}

fn open_cache(dir: Option<&str>) -> Result<Option<ResultCache>, SupervisorError> {
    dir.map(ResultCache::open)
        .transpose()
        .map_err(|e| SupervisorError {
            message: e.to_string(),
        })
}

// ---------------------------------------------------------------------
// Preparation, shared by both placements
// ---------------------------------------------------------------------

/// The main journal after [`prepare`]: consolidated and open for
/// appending.
#[derive(Debug)]
struct PreparedJournal {
    path: String,
    writer: JournalWriter,
    /// The lease generation workers spawn at: one past every generation
    /// a killed predecessor left evidence of, so its orphans are fenced
    /// off.
    spawn_generation: u64,
}

/// Where a sweep starts from, whichever way its points are placed.
#[derive(Debug)]
pub struct Prepared {
    /// Points already complete — the resumed main journal plus every
    /// row harvested from leftover shard journals — keyed by grid index.
    pub done: BTreeMap<usize, PointOutcome>,
    journal: Option<PreparedJournal>,
}

/// Scans the journal's directory for shard files (`<journal>.s*`) left
/// by this or a previous run and returns their paths.
fn shard_files(journal_path: &str) -> Vec<String> {
    let path = std::path::Path::new(journal_path);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let Some(base) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let prefix = format!("{base}.s");
    let Ok(entries) = std::fs::read_dir(&parent) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) {
            out.push(parent.join(&name).to_string_lossy().into_owned());
        }
    }
    out.sort();
    out
}

/// Deletes every shard coordination file of `journal_path`.
fn remove_shard_files(journal_path: &str) {
    for file in shard_files(journal_path) {
        let _ = std::fs::remove_file(&file);
    }
}

/// What a resume found lying around from the killed predecessor run.
#[derive(Debug, Default)]
struct Leftovers {
    /// Leftover shard-journal files. Deleted only *after* the harvested
    /// rows are durably consolidated into the main journal — deleting
    /// them first would open a window where a second crash loses
    /// fsync'd points.
    journals: Vec<String>,
    /// Every lease generation observed in file names and lease
    /// contents; the resume spawns workers one generation past the
    /// maximum so any still-running orphan worker is fenced off.
    observed_generations: Vec<u64>,
}

/// Harvests completed points from leftover shard journals (a previous
/// supervisor that was itself killed leaves them behind). Only journals
/// whose header matches this sweep contribute. Shard journals and
/// leases are left on disk — leases carry the fencing evidence, and the
/// journals are the rows' only durable home until consolidation lands.
fn harvest_leftovers(
    journal_path: &str,
    header: &JournalHeader,
    outcomes: &mut BTreeMap<usize, PointOutcome>,
) -> Leftovers {
    let mut leftovers = Leftovers::default();
    for file in shard_files(journal_path) {
        if file.ends_with(".tmp") {
            let _ = std::fs::remove_file(&file);
            continue;
        }
        if file.ends_with(".lease") {
            if let Ok(Some(lease)) = read_lease(&file) {
                leftovers.observed_generations.push(lease.generation);
            }
            continue;
        }
        if let Some((_, g)) = file.rsplit_once(".g") {
            if let Ok(generation) = g.parse::<u64>() {
                leftovers.observed_generations.push(generation);
            }
        }
        if let Ok(shard) = load_worker_journal(&file) {
            if shard.header == *header {
                for (index, outcome) in shard.done {
                    outcomes.entry(index).or_insert(outcome);
                }
            }
        }
        leftovers.journals.push(file);
    }
    leftovers
}

/// Loads the main journal for `--resume` and checks that its header
/// describes this very sweep: a mismatch means the journal belongs to a
/// *different* experiment, and resuming would silently mix grids.
fn load_resumable(
    path: &str,
    expect: &JournalHeader,
) -> Result<BTreeMap<usize, PointOutcome>, SupervisorError> {
    let loaded = match load_journal(path) {
        Ok(loaded) => loaded,
        Err(e) => return err(format!("--resume: {e}")),
    };
    let found = loaded.header;
    if found != *expect {
        return err(format!(
            "--resume: checkpoint {path} was written by a different sweep \
             (journal: name={:?} spec_hash={:016x} base_seed={} count={}; \
             current: name={:?} spec_hash={:016x} base_seed={} count={})",
            found.name,
            found.spec_hash,
            found.base_seed,
            found.count,
            expect.name,
            expect.spec_hash,
            expect.base_seed,
            expect.count,
        ));
    }
    Ok(loaded.done)
}

/// Prepares a sweep's main journal at `journal_path` and returns the
/// points it already holds. Both placements call it before running a
/// single point.
///
/// A fresh run writes the header and clears stale coordination files
/// from an unrelated earlier run in the same directory. `resume` loads
/// the main journal, checks its header, harvests the shard journals a
/// killed supervisor left behind, rewrites the main journal with every
/// completed row and removes the harvested files. Either way the
/// journal is rebuilt next to the main one and renamed over it, so a
/// crash mid-preparation leaves the old journal or the new one — never
/// a half-rewritten file whose fsync'd rows exist nowhere else — and a
/// torn tail is never carried over. Without a journal path nothing
/// touches the disk and nothing is done.
///
/// # Errors
///
/// On `resume`, an unreadable main journal or one written by a
/// different sweep (message prefixed `--resume:`); otherwise any I/O
/// failure writing the consolidated journal.
pub fn prepare(
    spec: &SweepSpec,
    journal_path: Option<&str>,
    resume: bool,
) -> Result<Prepared, SupervisorError> {
    let Some(path) = journal_path else {
        return Ok(Prepared {
            done: BTreeMap::new(),
            journal: None,
        });
    };
    let count = spec.points().len();
    let header = expected_header(spec, count);
    let mut done = BTreeMap::new();
    let mut leftovers = Leftovers::default();
    if resume {
        done = load_resumable(path, &header)?;
        leftovers = harvest_leftovers(path, &header, &mut done);
        done.retain(|&index, _| index < count);
    } else {
        remove_shard_files(path);
    }

    // The temp name matches the `<journal>.s*` coordination prefix (and
    // `.tmp` suffix) so a leftover one is swept up by the next run like
    // any other scrap. The writer stays open across the rename: later
    // appends land in the renamed main journal.
    let consolidate_tmp = format!("{path}.s.consolidate.tmp");
    let mut writer = match JournalWriter::create(&consolidate_tmp, &header) {
        Ok(w) => w,
        Err(e) => return err(e.to_string()),
    };
    for outcome in done.values() {
        if let Err(e) = writer.append(outcome) {
            return err(e.to_string());
        }
    }
    if let Err(e) = std::fs::rename(&consolidate_tmp, path) {
        return err(format!("cannot rename {consolidate_tmp} over {path}: {e}"));
    }
    if let Err(e) = fsync_parent_dir(path) {
        return err(e.to_string());
    }
    // Only now that every harvested row is durable in the main journal
    // may the leftover shard journals go.
    for file in &leftovers.journals {
        let _ = std::fs::remove_file(file);
    }
    Ok(Prepared {
        done,
        journal: Some(PreparedJournal {
            path: path.to_string(),
            writer,
            spawn_generation: resume_spawn_generation(leftovers.observed_generations),
        }),
    })
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Everything a worker process needs, decoded from the hidden
/// `--worker-shard`/`--worker-gen` CLI surface by `sweep`.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Path of the sweep spec JSON (workers re-load it themselves).
    pub spec_path: String,
    /// Path of the main checkpoint journal (also the naming root for
    /// leases and shard journals).
    pub journal_path: String,
    /// This worker's shard: it runs points with `index % workers == shard`.
    pub shard: usize,
    /// Total shard count (the supervisor's `--workers N`).
    pub workers: usize,
    /// Lease generation (fencing token) this worker runs at.
    pub generation: u64,
    /// Quarantined point indices to skip entirely.
    pub skip: Vec<usize>,
    /// Result-cache directory, when caching is enabled.
    pub cache_dir: Option<String>,
    /// Lease staleness timeout in milliseconds; the worker heartbeats
    /// at a fifth of this.
    pub lease_timeout_ms: u64,
}

/// A worker's cache counters, printed as a single machine-readable
/// stdout line (`worker-summary\t...`) for the supervisor to collect.
fn summary_line(shard: usize, s: &CacheCounts) -> String {
    format!(
        "worker-summary\tshard={shard}\tcache_hits={}\tcache_corrupt={}",
        s.hits, s.corrupt
    )
}

fn parse_summary(stdout: &str) -> Option<CacheCounts> {
    let line = stdout.lines().find(|l| l.starts_with("worker-summary\t"))?;
    let mut s = CacheCounts::default();
    for field in line.split('\t').skip(1) {
        let Some((key, value)) = field.split_once('=') else {
            continue;
        };
        let Ok(n) = value.parse::<u64>() else {
            continue;
        };
        match key {
            "cache_hits" => s.hits = n,
            "cache_corrupt" => s.corrupt = n,
            _ => {}
        }
    }
    Some(s)
}

fn test_abort_points() -> Vec<usize> {
    std::env::var(TEST_ABORT_ENV).map_or_else(
        |_| Vec::new(),
        |v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
    )
}

/// How a worker run ended, when it ended by protocol rather than by
/// error: either it finished its shard's pending points, or it was
/// fenced off by a lease at its generation or later and backed away.
/// The worker process reports the distinction through its exit status
/// (0 vs [`protocol::FENCED_EXIT_CODE`]) so the supervisor's crash
/// ledger can tell a working fence from a worker that wrongly quit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Ran (or skipped as already-done) every pending point it owns.
    Completed,
    /// Refused at claim time or stopped at a point boundary because a
    /// successor generation (or surviving orphan) holds the lease.
    Fenced,
}

/// Runs one worker process to completion: claim the shard lease, replay
/// the main journal for prior progress, then run this shard's remaining
/// points serially — `start` marker, (cache probe,) simulate, journal —
/// each fsync'd before the next begins. Points run serially *within* a
/// worker by design: process-level parallelism replaces thread-level,
/// and a serial worker makes crash attribution exact (at most one point
/// is ever in flight).
///
/// Prints the `worker-summary` line on success; the caller (the hidden
/// worker mode of `sweep`) exits 0 after [`WorkerOutcome::Completed`],
/// [`protocol::FENCED_EXIT_CODE`] after [`WorkerOutcome::Fenced`], or
/// 2 on any returned error — any *other* exit status is, by
/// definition, a crash.
///
/// # Errors
///
/// Unloadable spec, mismatched or unreadable main journal, or any I/O
/// failure on the lease or shard journal.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerOutcome, SupervisorError> {
    let spec = match SweepSpec::load(&cfg.spec_path) {
        Ok(spec) => spec,
        Err(e) => return err(format!("worker shard {}: {e}", cfg.shard)),
    };
    let points = spec.points();

    // Prior progress lives in the main journal, which the supervisor
    // consolidates before every (re)spawn. Its header must describe
    // this very sweep, or the shard split would silently mix grids.
    let main = match load_journal(&cfg.journal_path) {
        Ok(loaded) => loaded,
        Err(e) => return err(format!("worker shard {}: {e}", cfg.shard)),
    };
    if main.header != expected_header(&spec, points.len()) {
        return err(format!(
            "worker shard {}: journal {} was written by a different sweep",
            cfg.shard, cfg.journal_path
        ));
    }

    // Claim the shard and start heartbeating at a fifth of the
    // staleness timeout, so a healthy worker can miss several beats to
    // scheduler jitter without being declared dead. The claim is
    // guarded: if a lease at our generation or later is already on
    // disk (an orphan of a killed supervisor, or a successor), this
    // worker exits cleanly without ever touching the shard.
    let holder = match LeaseHolder::claim(&cfg.journal_path, cfg.shard, cfg.generation) {
        Ok(Claim::Held(h)) => h,
        Ok(Claim::Fenced(fence)) => {
            eprintln!("worker: {fence}; exiting without running");
            println!("{}", summary_line(cfg.shard, &CacheCounts::default()));
            return Ok(WorkerOutcome::Fenced);
        }
        Err(e) => return err(format!("worker shard {}: {e}", cfg.shard)),
    };
    let beat_every = Duration::from_millis((cfg.lease_timeout_ms / 5).max(1));
    let (stop_beats, beats) = mpsc::channel::<()>();
    let heartbeat = std::thread::spawn(move || {
        let mut holder = holder;
        // Stop on Ok (explicit) *and* on Disconnected (the main thread
        // dropped the sender, e.g. while unwinding) — only a Timeout
        // means "keep beating".
        while beats.recv_timeout(beat_every) == Err(mpsc::RecvTimeoutError::Timeout) {
            // An I/O-failed beat is not fatal to the simulation: worst
            // case the supervisor declares us stale and re-runs the
            // shard. A *fenced* beat means a successor owns the shard
            // now — stop beating so we never overwrite its lease.
            if matches!(holder.beat(), Ok(Beat::Fenced(_))) {
                break;
            }
        }
    });

    let result = run_worker_points(cfg, &spec, &points, &main.done);

    drop(stop_beats);
    let _ = heartbeat.join();

    let (summary, outcome) = result?;
    println!("{}", summary_line(cfg.shard, &summary));
    Ok(outcome)
}

fn run_worker_points(
    cfg: &WorkerConfig,
    spec: &SweepSpec,
    points: &[PointSpec],
    done: &BTreeMap<usize, PointOutcome>,
) -> Result<(CacheCounts, WorkerOutcome), SupervisorError> {
    let shard_journal = worker_journal_path(&cfg.journal_path, cfg.shard, cfg.generation);
    let mut writer =
        match JournalWriter::create(&shard_journal, &expected_header(spec, points.len())) {
            Ok(w) => w,
            Err(e) => return err(format!("worker shard {}: {e}", cfg.shard)),
        };
    let cache = match open_cache(cfg.cache_dir.as_deref()) {
        Ok(cache) => cache,
        Err(e) => return err(format!("worker shard {}: {e}", cfg.shard)),
    };
    let spec_hash = spec.spec_hash();
    let abort_at = test_abort_points();
    let lease_file = lease_path(&cfg.journal_path, cfg.shard);

    let mut summary = CacheCounts::default();
    for p in points {
        if p.index % cfg.workers != cfg.shard
            || done.contains_key(&p.index)
            || cfg.skip.contains(&p.index)
        {
            continue;
        }
        // Point boundaries are fence checks: a worker the supervisor
        // has already replaced (stale lease, takeover at gen+1) stops
        // here instead of racing its successor point by point. The
        // heartbeat thread notices too, but it cannot interrupt a
        // simulation already in flight — this check can, one point
        // later at the worst.
        let observed = read_lease(&lease_file).ok().flatten();
        if let Err(fence) = check_fence(cfg.shard, cfg.generation, observed.as_ref()) {
            eprintln!("worker: {fence}; stopping at the point boundary");
            return Ok((summary, WorkerOutcome::Fenced));
        }
        // The marker hits the disk before the point runs: if this
        // process dies mid-point, the dangling marker names the culprit.
        if let Err(e) = writer.append_start(p.index) {
            return err(format!("worker shard {}: {e}", cfg.shard));
        }
        if abort_at.contains(&p.index) {
            std::process::abort();
        }
        let (outcome, counts) = run_point_cached(cache.as_ref(), spec_hash, p);
        summary += counts;
        if let Err(e) = writer.append(&outcome) {
            return err(format!("worker shard {}: {e}", cfg.shard));
        }
    }
    Ok((summary, WorkerOutcome::Completed))
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// How the supervising process runs a prepared sweep.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Path of the sweep spec JSON (forwarded to workers verbatim).
    pub spec_path: String,
    /// Worker threads of the in-process placement (`workers <= 1`).
    pub threads: usize,
    /// Worker process count (shards); above 1 the points run in worker
    /// processes, which needs a journal.
    pub workers: usize,
    /// Result-cache directory, when caching is enabled.
    pub cache_dir: Option<String>,
    /// Consecutive worker deaths attributed to one point before it is
    /// quarantined as `poisoned(...)`.
    pub crash_limit: u32,
    /// Lease staleness timeout in milliseconds (hang detection).
    pub lease_timeout_ms: u64,
    /// Suppress progress chatter on stderr.
    pub quiet: bool,
}

/// What a sweep produced, plus its operational counters.
#[derive(Debug)]
pub struct SupervisorReport {
    /// Every point's outcome, keyed by grid index (complete: resumed,
    /// fresh, cached, and quarantined points all present).
    pub outcomes: BTreeMap<usize, PointOutcome>,
    /// Worker processes that died and were reaped.
    pub crashes: u64,
    /// Shard re-claims (a successor spawned at a bumped generation).
    pub takeovers: u64,
    /// What the result cache served and what it failed to verify.
    pub cache: CacheCounts,
    /// Quarantined point indices, ascending.
    pub quarantined: Vec<usize>,
}

/// One live worker process being tracked by the supervisor.
#[derive(Debug)]
struct WorkerSlot {
    child: Child,
    generation: u64,
    monitor: LeaseMonitor,
}

impl SupervisorConfig {
    fn spawn_worker(
        &self,
        journal_path: &str,
        shard: usize,
        generation: u64,
        skip: &[usize],
    ) -> Result<Child, SupervisorError> {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return err(format!("cannot find own executable: {e}")),
        };
        let mut cmd = Command::new(exe);
        cmd.arg("--spec")
            .arg(&self.spec_path)
            .arg("--ckpt")
            .arg(journal_path)
            .arg("--worker-shard")
            .arg(shard.to_string())
            .arg("--worker-gen")
            .arg(generation.to_string())
            .arg("--workers")
            .arg(self.workers.to_string())
            .arg("--lease-timeout-ms")
            .arg(self.lease_timeout_ms.to_string())
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &self.cache_dir {
            cmd.arg("--cache").arg(dir);
        }
        if !skip.is_empty() {
            let list: Vec<String> = skip.iter().map(ToString::to_string).collect();
            cmd.arg("--skip-points").arg(list.join(","));
        }
        match cmd.spawn() {
            Ok(child) => Ok(child),
            Err(e) => err(format!("cannot spawn worker for shard {shard}: {e}")),
        }
    }
}

/// Runs every point [`prepare`] left undone and returns the complete
/// outcome map plus operational counters. With `cfg.workers > 1` the
/// points run in worker processes (see the module docs for the
/// protocol); otherwise on a pool of `cfg.threads` threads in this
/// process. Either way each point runs through [`run_point_cached`] and
/// is journaled the moment it lands.
///
/// On success the main journal, if any, contains every point (so a
/// later `--resume` is a no-op) and all shard-coordination files have
/// been cleaned up.
///
/// # Errors
///
/// An unopenable cache directory, worker processes without a journal, a
/// worker exiting with a fatal configuration error, a shard dying
/// repeatedly before starting any point, or any I/O failure on the main
/// journal under worker processes.
pub fn run_supervised(
    spec: &SweepSpec,
    cfg: &SupervisorConfig,
    prepared: Prepared,
) -> Result<SupervisorReport, SupervisorError> {
    let points = spec.points();
    let mut report = SupervisorReport {
        outcomes: prepared.done,
        crashes: 0,
        takeovers: 0,
        cache: CacheCounts::default(),
        quarantined: Vec::new(),
    };
    let journal_path = prepared.journal.as_ref().map(|j| j.path.clone());
    match prepared.journal {
        Some(journal) if cfg.workers > 1 => run_fleet(spec, cfg, &points, journal, &mut report)?,
        None if cfg.workers > 1 => {
            return err("--workers needs a journal; pass --ckpt or --csv-out");
        }
        journal => run_in_process(spec, cfg, &points, journal.map(|j| j.writer), &mut report)?,
    }

    if report.outcomes.len() != points.len() {
        return err(format!(
            "{} of {} points have no outcome after the sweep finished",
            points.len() - report.outcomes.len(),
            points.len()
        ));
    }
    // All points done: clear the coordination files (leases, and any
    // shard journal a deposed worker wrote after being fenced off).
    if let Some(path) = &journal_path {
        remove_shard_files(path);
    }
    report.quarantined.sort_unstable();
    Ok(report)
}

/// The in-process placement: the points still missing run on a thread
/// pool, and each is journaled the moment it lands. A failed append only
/// threatens a *future* resume, so it is a warning, and the sweep still
/// emits its artifacts.
fn run_in_process(
    spec: &SweepSpec,
    cfg: &SupervisorConfig,
    points: &[PointSpec],
    mut writer: Option<JournalWriter>,
    report: &mut SupervisorReport,
) -> Result<(), SupervisorError> {
    let cache = open_cache(cfg.cache_dir.as_deref())?;
    let spec_hash = spec.spec_hash();
    let remaining: Vec<PointSpec> = points
        .iter()
        .filter(|p| !report.outcomes.contains_key(&p.index))
        .cloned()
        .collect();
    let hits = AtomicU64::new(0);
    let corrupt = AtomicU64::new(0);
    let mut journal_err: Option<String> = None;
    let fresh = run_points_full_with(
        &remaining,
        cfg.threads,
        |i| {
            let (outcome, counts) = run_point_cached(cache.as_ref(), spec_hash, &remaining[i]);
            hits.fetch_add(counts.hits, Ordering::Relaxed);
            corrupt.fetch_add(counts.corrupt, Ordering::Relaxed);
            outcome
        },
        |_, outcome, done, total| {
            if let Some(w) = writer.as_mut() {
                if journal_err.is_none() {
                    if let Err(e) = w.append(outcome) {
                        journal_err = Some(e.to_string());
                    }
                }
            }
            if !cfg.quiet {
                eprint!("\r[{done}/{total}]");
            }
        },
    );
    if let Some(message) = journal_err {
        eprintln!("warning: checkpoint journal failed mid-run: {message}");
    }
    report.cache += CacheCounts {
        hits: hits.into_inner(),
        corrupt: corrupt.into_inner(),
    };
    for outcome in fresh {
        report.outcomes.insert(outcome.record.index, outcome);
    }
    Ok(())
}

/// The multi-process placement: spawn one worker per shard with points
/// pending, then reap/harvest/attribute/respawn on death and quarantine
/// repeat offenders until every shard is done.
fn run_fleet(
    spec: &SweepSpec,
    cfg: &SupervisorConfig,
    points: &[PointSpec],
    journal: PreparedJournal,
    report: &mut SupervisorReport,
) -> Result<(), SupervisorError> {
    let header = expected_header(spec, points.len());
    let PreparedJournal {
        path: journal_path,
        mut writer,
        spawn_generation,
    } = journal;
    let mut skip: Vec<usize> = Vec::new();
    // Crash attribution and the quarantine/give-up policy live in the
    // pure CrashLedger, which the protocol model checker replays over
    // every reachable crash interleaving.
    let mut ledger = CrashLedger::new(cfg.workers);

    let pending = |outcomes: &BTreeMap<usize, PointOutcome>, shard: usize| {
        points
            .iter()
            .any(|p| p.index % cfg.workers == shard && !outcomes.contains_key(&p.index))
    };

    let mut slots: Vec<Option<WorkerSlot>> = Vec::with_capacity(cfg.workers);
    for shard in 0..cfg.workers {
        if pending(&report.outcomes, shard) {
            let child = cfg.spawn_worker(&journal_path, shard, spawn_generation, &skip)?;
            slots.push(Some(WorkerSlot {
                child,
                generation: spawn_generation,
                monitor: LeaseMonitor::new(Duration::from_millis(cfg.lease_timeout_ms)),
            }));
        } else {
            slots.push(None);
        }
    }

    while slots.iter().any(Option::is_some) {
        std::thread::sleep(Duration::from_millis(POLL_MS));
        for shard in 0..cfg.workers {
            let Some(slot) = slots[shard].as_mut() else {
                continue;
            };
            match slot.child.try_wait() {
                Err(e) => {
                    kill_all(&mut slots);
                    return err(format!("cannot poll worker for shard {shard}: {e}"));
                }
                Ok(None) => {
                    // Alive as a process — but is it making heartbeats?
                    // A wedged worker holds no budget the supervisor
                    // respects other than its lease.
                    let lease = read_lease(&lease_path(&journal_path, shard)).ok().flatten();
                    let stale = match lease {
                        Some(l) if l.generation == slot.generation => {
                            slot.monitor.observe(l.generation, l.beat)
                        }
                        // No lease (or a predecessor's): observed as a
                        // distinct "not claimed yet" state that goes
                        // stale like any other if it persists.
                        _ => slot.monitor.observe(u64::MAX, u64::MAX),
                    };
                    if stale {
                        // Fence the hung worker off with SIGKILL; the
                        // next poll reaps it through the crash path.
                        let _ = slot.child.kill();
                    }
                }
                Ok(Some(status)) => {
                    let mut stdout = String::new();
                    if let Some(mut pipe) = slot.child.stdout.take() {
                        let _ = pipe.read_to_string(&mut stdout);
                    }
                    let generation = slot.generation;
                    // Harvest everything durably finished on this
                    // shard — not just the reaped worker's own journal
                    // but every generation's file still on disk. An
                    // orphan of a killed supervisor may have completed
                    // points under an older generation; reading only
                    // the reaped generation would let a crash storm
                    // quarantine a point whose real row already exists.
                    // (Found by the model checker.) The dangling start
                    // marker that attributes the death still comes from
                    // the reaped worker's own file alone.
                    let mut progressed = 0usize;
                    let mut dangling: Option<usize> = None;
                    for gen in 0..=generation {
                        let shard_journal = worker_journal_path(&journal_path, shard, gen);
                        if let Ok(sj) = load_worker_journal(&shard_journal) {
                            if sj.header == header {
                                if gen == generation {
                                    dangling = sj.dangling_start;
                                }
                                for (index, outcome) in sj.done {
                                    if index >= points.len() || report.outcomes.contains_key(&index)
                                    {
                                        continue;
                                    }
                                    if let Err(e) = writer.append(&outcome) {
                                        kill_all(&mut slots);
                                        return err(e.to_string());
                                    }
                                    report.outcomes.insert(index, outcome);
                                    progressed += 1;
                                }
                            }
                        }
                        let _ = std::fs::remove_file(&shard_journal);
                    }

                    let clean = status.success();
                    let fenced = status.code() == Some(protocol::FENCED_EXIT_CODE);
                    let fatal_config = !clean && !fenced && status.code() == Some(2);
                    if clean || fenced {
                        if let Some(s) = parse_summary(&stdout) {
                            report.cache += s;
                        }
                    } else if !fatal_config {
                        report.crashes += 1;
                        // (fenced exits took the branch above: they are
                        // the protocol working, not crashes.)
                        if !cfg.quiet {
                            eprintln!(
                                "supervisor: worker for shard {shard} (gen {generation}) \
                                 died ({status}); {progressed} point(s) salvaged"
                            );
                        }
                    }

                    // The decision itself — done/fatal/give-up/respawn,
                    // plus quarantine bookkeeping — is the pure ledger's.
                    let exit = WorkerExit {
                        clean,
                        fenced,
                        fatal_config,
                        dangling_start: dangling,
                        progressed: progressed > 0,
                        shard_pending: pending(&report.outcomes, shard),
                    };
                    match ledger.on_worker_exit(shard, &exit, cfg.crash_limit) {
                        SupervisorStep::ShardDone => {
                            slots[shard] = None;
                            continue;
                        }
                        SupervisorStep::FatalWorkerConfig => {
                            // The worker refused to run at all (bad
                            // spec, unreadable journal): deterministic,
                            // so every respawn would refuse too. Fatal.
                            kill_all(&mut slots);
                            return err(format!(
                                "worker for shard {shard} failed fatally (see stderr above)"
                            ));
                        }
                        SupervisorStep::GiveUp { deaths } => {
                            kill_all(&mut slots);
                            return err(format!(
                                "shard {shard}'s worker died {deaths} times without starting a \
                                 point — giving up rather than respawning forever"
                            ));
                        }
                        SupervisorStep::Continue { quarantine } => {
                            // A point with a harvested outcome needs no
                            // poisoned row: the crashes were attributed
                            // to it, but some generation already proved
                            // it completes.
                            let quarantine =
                                quarantine.filter(|q| !report.outcomes.contains_key(&q.point));
                            if let Some(q) = quarantine {
                                let outcome = PointOutcome {
                                    record: points[q.point].poisoned_record(q.crashes),
                                    trail: Vec::new(),
                                };
                                if let Err(e) = writer.append(&outcome) {
                                    kill_all(&mut slots);
                                    return err(e.to_string());
                                }
                                report.outcomes.insert(q.point, outcome);
                                report.quarantined.push(q.point);
                                skip.push(q.point);
                                if !cfg.quiet {
                                    eprintln!(
                                        "supervisor: point {} quarantined after \
                                         killing {} worker(s)",
                                        q.point, q.crashes
                                    );
                                }
                            }
                        }
                    }
                    if pending(&report.outcomes, shard) {
                        let next_generation = generation + 1;
                        report.takeovers += 1;
                        let child =
                            match cfg.spawn_worker(&journal_path, shard, next_generation, &skip) {
                                Ok(child) => child,
                                Err(e) => {
                                    kill_all(&mut slots);
                                    return Err(e);
                                }
                            };
                        let slot = slots[shard].as_mut().expect("slot is live in this branch");
                        slot.child = child;
                        slot.generation = next_generation;
                        slot.monitor.reset();
                    } else {
                        slots[shard] = None;
                    }
                }
            }
        }
    }
    Ok(())
}

/// SIGKILLs and reaps every live worker (the supervisor is bailing out;
/// orphaned simulations must not outlive it).
fn kill_all(slots: &mut [Option<WorkerSlot>]) {
    for slot in slots.iter_mut().flatten() {
        let _ = slot.child.kill();
        let _ = slot.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::Organization;

    #[test]
    fn worker_summary_line_round_trips() {
        let s = CacheCounts {
            hits: 3,
            corrupt: 1,
        };
        let line = summary_line(2, &s);
        let noise = format!("some banner\n{line}\ntrailing junk\n");
        assert_eq!(parse_summary(&noise), Some(s));
        assert_eq!(parse_summary("no summary here\n"), None);
    }

    fn tmp_journal(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("noc-sup-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("sweep.ckpt").to_string_lossy().into_owned()
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new("prepare")
            .orgs(&[Organization::Mesh])
            .rates(&[0.01, 0.02, 0.03])
    }

    fn sample(p: &PointSpec) -> PointOutcome {
        PointOutcome {
            record: p.failed_record("sample row"),
            trail: vec![(100, 0xdead_beef)],
        }
    }

    #[test]
    fn shard_file_scan_matches_only_this_journal() {
        let journal = tmp_journal("scan");
        let mine = [
            format!("{journal}.s0.g0"),
            format!("{journal}.s1.g2"),
            format!("{journal}.s1.lease"),
        ];
        let other = format!("{journal}x.s0.g0");
        for f in mine.iter().chain(std::iter::once(&other)) {
            std::fs::write(f, "x").expect("touch");
        }
        let found = shard_files(&journal);
        assert_eq!(found.len(), mine.len(), "{found:?}");
        assert!(mine.iter().all(|f| found.contains(f)));
        assert!(
            !found.contains(&other),
            "neighbour journal must be left alone"
        );
    }

    #[test]
    fn resume_drops_the_torn_tail_arbitrarily_often() {
        let journal = tmp_journal("torn");
        let spec = tiny_spec();
        let points = spec.points();
        let mut prepared = prepare(&spec, Some(&journal), false).expect("fresh run");
        let writer = &mut prepared.journal.as_mut().expect("journaled").writer;
        writer.append(&sample(&points[0])).expect("append");
        drop(prepared);
        // Crash, resume, crash, resume: each cycle tears the tail,
        // prepares again, and re-journals the lost point plus one more.
        for round in 1..points.len() {
            let bytes = std::fs::read(&journal).expect("read");
            std::fs::write(&journal, &bytes[..bytes.len() - 9]).expect("tear");
            let mut prepared = prepare(&spec, Some(&journal), true).expect("resume");
            assert_eq!(prepared.done.len(), round - 1, "the tear drops one point");
            let rewritten = std::fs::read(&journal).expect("read");
            assert_eq!(rewritten.last(), Some(&b'\n'), "no torn bytes survive");
            let writer = &mut prepared.journal.as_mut().expect("journaled").writer;
            writer
                .append(&sample(&points[round - 1]))
                .expect("re-journal");
            writer
                .append(&sample(&points[round]))
                .expect("journal more");
            drop(prepared);
            let loaded = load_journal(&journal).expect("clean after resume");
            assert_eq!(loaded.done.len(), round + 1, "round {round}");
        }
    }

    #[test]
    fn resume_harvests_shard_journals_and_fences_past_them() {
        let journal = tmp_journal("harvest");
        let spec = tiny_spec();
        let points = spec.points();
        drop(prepare(&spec, Some(&journal), false).expect("fresh run"));
        // A killed supervisor's gen-2 worker finished point 1 and died
        // in point 2.
        let shard = worker_journal_path(&journal, 1, 2);
        let header = expected_header(&spec, points.len());
        let mut w = JournalWriter::create(&shard, &header).expect("shard journal");
        w.append_start(1).expect("start");
        w.append(&sample(&points[1])).expect("finish");
        w.append_start(2).expect("start");
        drop(w);

        let prepared = prepare(&spec, Some(&journal), true).expect("resume");
        assert_eq!(prepared.done.keys().copied().collect::<Vec<_>>(), [1]);
        let generation = prepared.journal.as_ref().map(|j| j.spawn_generation);
        assert_eq!(generation, Some(3), "orphans of gen 2 must be fenced");
        assert!(
            !std::path::Path::new(&shard).exists(),
            "harvested file kept"
        );
        let loaded = load_journal(&journal).expect("load");
        assert_eq!(
            loaded.done.len(),
            1,
            "harvest consolidated into the main journal"
        );
    }

    #[test]
    fn resume_refuses_a_journal_from_another_sweep() {
        let journal = tmp_journal("mismatch");
        drop(prepare(&tiny_spec(), Some(&journal), false).expect("fresh run"));
        let other = tiny_spec().rates(&[0.5]);
        let e = prepare(&other, Some(&journal), true).expect_err("another sweep");
        assert!(e.message.starts_with("--resume:"), "{e}");
        assert!(e.message.contains("different sweep"), "{e}");
    }

    #[test]
    fn abort_env_parsing_is_permissive() {
        // Not set in tests: must be inert.
        assert!(test_abort_points().is_empty());
    }
}
