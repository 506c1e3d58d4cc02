//! `sweep_grid`: a uniform-load grid of every organisation, run
//! in-process through `runner::run_point_full` and then by the `sweep`
//! binary across two worker processes, cold cache then warm.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use runner::{
    diff_csv, run_point_full, to_csv, CacheLookup, JournalHeader, JournalWriter, PointOutcome,
    ResultCache, SweepSpec,
};

use crate::calib::{normalise, Calibration};
use crate::golden::{self, CHECK_SEED};
use crate::report::{fastest, median, peak_rss_mib, Report};
use crate::rounds::org_metric;
use crate::timed::{Clock, ORGS};
use crate::Opts;

/// Name of the workload.
pub const NAME: &str = "sweep_grid";
/// Warm-up and measured cycles of every grid point.
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 8_000;
/// Worker processes of the supervised sweep.
const WORKERS: &str = "2";
/// Repetitions run even when the time is up.
const MIN_REPS: usize = 3;

/// The grid around the paper's load, as a sweep spec.
fn spec_json(seed: u64) -> String {
    format!(
        r#"{{
  "name": "perfbench_grid",
  "base_seed": {seed},
  "warmup": {WARMUP},
  "measure": {MEASURE},
  "response_fraction": 0.5,
  "orgs": ["mesh", "smart", "mesh_pra", "ideal", "frfc"],
  "patterns": ["uniform"],
  "rates": [0.005, 0.01, 0.02, 0.04],
  "radices": [8],
  "vc_depths": [5],
  "hpcs": [2],
  "samples": 1,
  "faults": [{{"label": "none"}}]
}}
"#
    )
}

/// A fresh sweep directory holding the spec, plus the expanded grid.
struct Prepared {
    dir: PathBuf,
    spec_path: PathBuf,
    spec: SweepSpec,
}

fn prepare(root: &Path, rep: usize, seed: u64) -> Result<Prepared, String> {
    let dir = root.join(format!("rep{rep}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let text = spec_json(seed);
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, &text).map_err(|e| format!("cannot write spec: {e}"))?;
    let spec = SweepSpec::from_json_str(&text).map_err(|e| format!("bad spec: {e}"))?;
    Ok(Prepared {
        dir,
        spec_path,
        spec,
    })
}

/// One `sweep` process run: its CSV, wall seconds and reported counters.
struct SweepRun {
    csv: String,
    secs: f64,
    cache_hits: u64,
    worker_crashes: u64,
}

fn sweep(opts: &Opts, p: &Prepared, label: &str) -> Result<SweepRun, String> {
    let csv_path = p.dir.join(format!("{label}.csv"));
    let start = Instant::now();
    let out = Command::new(&opts.sweep_bin)
        .arg("--spec")
        .arg(&p.spec_path)
        .args(["--workers", WORKERS, "--csv-out"])
        .arg(&csv_path)
        .arg("--cache")
        .arg(p.dir.join("cache"))
        .output()
        .map_err(|e| format!("cannot run {}: {e}", opts.sweep_bin.display()))?;
    let secs = start.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "{label} sweep exited with {}: {stderr}",
            out.status
        ));
    }
    let counter = |name: &str| -> Result<u64, String> {
        stderr
            .split(['\n', '\r'])
            .filter_map(|l| l.strip_prefix("metrics: "))
            .flat_map(str::split_whitespace)
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .ok_or_else(|| format!("{label} sweep reported no {name}"))
    };
    let csv =
        std::fs::read_to_string(&csv_path).map_err(|e| format!("cannot read {label} CSV: {e}"))?;
    Ok(SweepRun {
        csv,
        secs,
        cache_hits: counter("cache_hits")?,
        worker_crashes: counter("worker_crashes")?,
    })
}

/// Microseconds of each timed runner I/O call (traced runs).
#[derive(Default)]
struct RunnerIo {
    append_us: Vec<f64>,
    store_us: Vec<f64>,
    lookup_us: Vec<f64>,
}

/// Runs `f`, appending its host microseconds to `us`.
fn time_us<R>(us: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    us.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

/// Per-call microseconds as a per-boundary total.
fn total(us: &[f64]) -> Clock {
    Clock {
        calls: us.len() as u64,
        ns: (us.iter().sum::<f64>() * 1e3) as u64,
    }
}

/// Runs every point in-process; returns the outcomes and the seconds
/// of each `run_point_full` call. With `calib`, a calibration pass runs
/// between every two points and the seconds are reference seconds;
/// without, they are host seconds. With `spans`, records one span per
/// point under the given parent.
fn in_process(
    p: &Prepared,
    calib: Option<&Calibration>,
    mut spans: Option<(&mut Report, usize)>,
) -> (Vec<PointOutcome>, Vec<f64>) {
    let points = p.spec.points();
    let mut outcomes = Vec::with_capacity(points.len());
    let mut secs = Vec::with_capacity(points.len());
    let mut before = calib.map(Calibration::pass);
    for point in &points {
        let t = Instant::now();
        outcomes.push(run_point_full(point));
        let end = Instant::now();
        let host = end.duration_since(t).as_secs_f64();
        secs.push(match (calib, before) {
            (Some(c), Some(b)) => {
                let after = c.pass();
                before = Some(after);
                normalise(host, b, after)
            }
            _ => host,
        });
        if let Some((rep, parent)) = spans.as_mut() {
            let name = format!("run_point_full {} {}", point.index, point.org.key());
            rep.span(name, Some(*parent), t, end);
        }
    }
    (outcomes, secs)
}

/// Journals and caches `outcomes` the way a sweep worker does, timing
/// each `JournalWriter::append`, `ResultCache::store` and
/// `ResultCache::lookup`, and checks that the cache returns each
/// outcome unchanged.
fn runner_io(p: &Prepared, outcomes: &[PointOutcome], io: &mut RunnerIo) -> Result<(), String> {
    let header = JournalHeader {
        spec_hash: p.spec.spec_hash(),
        base_seed: p.spec.base_seed,
        count: outcomes.len(),
        name: p.spec.name.clone(),
    };
    let journal_path = p.dir.join("io.ckpt");
    let mut journal = JournalWriter::create(&journal_path.to_string_lossy(), &header)
        .map_err(|e| e.to_string())?;
    let cache =
        ResultCache::open(&p.dir.join("io-cache").to_string_lossy()).map_err(|e| e.to_string())?;
    for o in outcomes {
        let key = ResultCache::key(p.spec.spec_hash(), o.record.index, o.record.seed, 0);
        time_us(&mut io.append_us, || journal.append(o)).map_err(|e| e.to_string())?;
        time_us(&mut io.store_us, || cache.store(&key, o)).map_err(|e| e.to_string())?;
        let hit = time_us(&mut io.lookup_us, || cache.lookup(&key));
        if !matches!(hit, CacheLookup::Hit(ref h) if **h == *o) {
            return Err(format!(
                "the cache did not return point {} unchanged",
                o.record.index
            ));
        }
    }
    Ok(())
}

/// Checks one rep's artifacts against each other.
fn cross_check(inproc: &str, cold: &SweepRun, warm: &SweepRun, points: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(d) = diff_csv(inproc, &cold.csv) {
        problems.push(format!(
            "supervised sweep differs from in-process run_point_full: {d}"
        ));
    }
    if let Some(d) = diff_csv(&cold.csv, &warm.csv) {
        problems.push(format!("warm-cache sweep differs from cold: {d}"));
    }
    if warm.cache_hits != points as u64 {
        problems.push(format!(
            "warm sweep served {} of {points} points from the cache",
            warm.cache_hits
        ));
    }
    if cold.cache_hits != 0 {
        problems.push(format!(
            "cold sweep hit the cache {} times",
            cold.cache_hits
        ));
    }
    problems
}

/// Per-repetition measurements.
#[derive(Default)]
struct Reps {
    /// The loop every timed interval is converted to reference
    /// seconds with.
    calib: Calibration,
    /// Reference seconds of each sweep-directory set-up.
    setup: Vec<f64>,
    /// Reference seconds of each point's `run_point_full`, one row per
    /// untraced pass.
    point_secs: Vec<Vec<f64>>,
    /// Host seconds of each point's `run_point_full`, one row per
    /// traced pass.
    traced_point_secs: Vec<Vec<f64>>,
    /// Reference seconds per host second of each traced pass, from the
    /// calibration passes on either side of it.
    traced_scale: Vec<f64>,
    residual: Vec<f64>,
    /// Reference seconds of each cold-cache sweep.
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    cache_hits: u64,
    crashes: u64,
    io: RunnerIo,
}

/// Simulated cycles per second over the points `keep` selects, from
/// each point's median time across passes.
fn cycles_per_s(
    outcomes: &[PointOutcome],
    rows: &[Vec<f64>],
    keep: impl Fn(&PointOutcome) -> bool,
) -> f64 {
    let mut cycles = 0.0;
    let mut secs = 0.0;
    for (i, o) in outcomes.iter().enumerate() {
        if keep(o) {
            cycles += (WARMUP + MEASURE) as f64;
            secs += median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        }
    }
    cycles / secs
}

/// A fresh sweep directory, timed as set-up.
fn timed_prepare(
    root_dir: &Path,
    n: usize,
    seed: u64,
    reps: &mut Reps,
) -> Result<Prepared, String> {
    let before = reps.calib.pass();
    let t = Instant::now();
    let p = prepare(root_dir, n, seed)?;
    let secs = t.elapsed().as_secs_f64();
    let after = reps.calib.pass();
    reps.setup.push(normalise(secs, before, after));
    Ok(p)
}

/// One in-process pass over the grid, plus a traced one with
/// `--trace 1`. Returns the outcomes and the problems found.
fn in_process_pass(
    opts: &Opts,
    root_dir: &Path,
    n: usize,
    reps: &mut Reps,
    rep: &mut Report,
    span: usize,
) -> Result<(Vec<PointOutcome>, Vec<String>), String> {
    let p = timed_prepare(root_dir, n, opts.seed, reps)?;
    let (outcomes, secs) = in_process(&p, Some(&reps.calib), None);
    let mut problems: Vec<String> = outcomes
        .iter()
        .filter(|o| o.record.status != "ok")
        .map(|o| format!("point {} finished {}", o.record.index, o.record.status))
        .collect();
    reps.point_secs.push(secs);
    if opts.trace {
        let before = reps.calib.pass();
        let t = Instant::now();
        let (traced, traced_secs) = in_process(&p, None, Some((&mut *rep, span)));
        let pass_s = t.elapsed().as_secs_f64();
        let after = reps.calib.pass();
        reps.traced_scale.push(normalise(1.0, before, after));
        if traced != outcomes {
            problems.push("traced in-process pass produced different outcomes".to_string());
        }
        reps.residual
            .push((pass_s - traced_secs.iter().sum::<f64>()) / pass_s);
        reps.traced_point_secs.push(traced_secs);
    }
    let _ = std::fs::remove_dir_all(&p.dir);
    Ok((outcomes, problems))
}

/// One cold-cache then warm-cache supervised sweep in a fresh
/// directory, checked against the in-process CSV.
fn sweep_pass(
    opts: &Opts,
    root_dir: &Path,
    n: usize,
    reps: &mut Reps,
    rep: &mut Report,
    span: usize,
    inproc: &[PointOutcome],
) -> Result<Vec<String>, String> {
    let p = timed_prepare(root_dir, n, opts.seed, reps)?;
    let points = p.spec.len();
    let before = reps.calib.pass();
    let t = Instant::now();
    let cold = sweep(opts, &p, "cold")?;
    rep.span("sweep cold".to_string(), Some(span), t, Instant::now());
    let after = reps.calib.pass();
    let t = Instant::now();
    let warm = sweep(opts, &p, "warm")?;
    rep.span("sweep warm".to_string(), Some(span), t, Instant::now());
    reps.cold_s.push(normalise(cold.secs, before, after));
    reps.warm_s.push(warm.secs);
    reps.cache_hits = warm.cache_hits;
    reps.crashes += cold.worker_crashes + warm.worker_crashes;
    if opts.trace {
        runner_io(&p, inproc, &mut reps.io)?;
    }
    let _ = std::fs::remove_dir_all(&p.dir);
    let inproc_csv = to_csv(&inproc.iter().map(|o| o.record.clone()).collect::<Vec<_>>());
    Ok(cross_check(&inproc_csv, &cold, &warm, points))
}

/// Runs the workload for `opts.seconds` and fills `rep`.
///
/// The first half of the time runs in-process passes, the second half
/// supervised sweeps: the sweeps' fsync traffic slows whatever runs
/// right after it, so interleaving the two would charge the simulator
/// for the journal's disk flushes.
pub fn run(opts: &Opts, rep: &mut Report) {
    let root_dir = opts.work_dir.join(NAME);
    let now = Instant::now();
    let root = rep.span(NAME.to_string(), None, now, now);
    let mut reps = Reps::default();

    let half = opts.duration() / 2;
    let deadline = Instant::now() + half;
    let mut outcomes = Vec::new();
    let mut n = 0;
    let mut rotation = crate::pin::Rotation::new();
    while n < MIN_REPS || Instant::now() < deadline {
        if let Some(r) = rotation.as_mut() {
            r.advance();
        }
        let start = Instant::now();
        let span = rep.span(format!("in-process pass {n}"), Some(root), start, start);
        let result = in_process_pass(opts, &root_dir, n, &mut reps, rep, span);
        rep.close(span, Instant::now());
        let problems = match result {
            Ok((o, mut problems)) => {
                if outcomes.is_empty() {
                    outcomes = o;
                } else if o != outcomes {
                    problems.push("outcomes differ from the first pass".to_string());
                }
                problems
            }
            Err(e) => vec![e],
        };
        rep.attempt(&format!("in-process pass {n}"), &problems);
        if outcomes.is_empty() {
            return;
        }
        n += 1;
    }
    // The sweep's worker processes inherit the affinity: give them
    // every CPU back.
    drop(rotation);

    // Known answer: the supervised sweep at the check seed. It also
    // loads the binaries and warms the page cache for the timed sweeps.
    let problems = match prepare(&root_dir, n, CHECK_SEED).and_then(|p| {
        let run = sweep(opts, &p, "cold")?;
        let _ = std::fs::remove_dir_all(&p.dir);
        Ok(run)
    }) {
        Ok(run) => golden::check_csv(&run.csv, opts.bless),
        Err(e) => vec![e],
    };
    rep.attempt("known answers", &problems);

    let deadline = Instant::now() + half;
    let mut m = 0;
    while m < MIN_REPS || Instant::now() < deadline {
        let start = Instant::now();
        let span = rep.span(format!("sweep pass {m}"), Some(root), start, start);
        let result = sweep_pass(opts, &root_dir, n + m, &mut reps, rep, span, &outcomes);
        rep.close(span, Instant::now());
        let problems = result.unwrap_or_else(|e| vec![e]);
        rep.attempt(&format!("sweep pass {m}"), &problems);
        if reps.cold_s.is_empty() {
            return;
        }
        m += 1;
    }

    for (org, key) in ORGS {
        let cps = cycles_per_s(&outcomes, &reps.point_secs, |o| o.record.org == org.key());
        rep.set(org_metric(key, "cycles_per_s"), cps);
    }
    let all_cps = cycles_per_s(&outcomes, &reps.point_secs, |_| true);
    rep.set("sim_cycles_per_s", all_cps);
    let cold_s = median(&reps.cold_s);
    rep.set("points_per_s", outcomes.len() as f64 / cold_s);
    rep.set("setup_s", median(&reps.setup));
    rep.set("peak_rss_mib", peak_rss_mib());
    let latency_sum = |org: &str| -> f64 {
        outcomes
            .iter()
            .filter(|o| o.record.org == org)
            .map(|o| o.record.avg_latency)
            .sum()
    };
    rep.set(
        "sim.pra_speedup",
        latency_sum("mesh") / latency_sum("mesh_pra"),
    );
    let paper_load = outcomes
        .iter()
        .find(|o| o.record.org == "mesh_pra" && (o.record.rate - 0.02).abs() < 1e-9)
        .map_or(0, |o| o.record.p99);
    rep.set("sim.pra_p99_latency_cycles", paper_load as f64);

    if !opts.trace {
        return;
    }
    rep.close(root, Instant::now());
    let all_point_secs: Vec<f64> = reps.traced_point_secs.concat();
    rep.set("runner.point_s.p50", median(&all_point_secs));
    rep.set(
        "runner.point_s.max",
        all_point_secs.iter().copied().fold(0.0, f64::max),
    );
    // The summed fastest point time, split ideally over two workers.
    let point_s = outcomes.len() as f64 * (WARMUP + MEASURE) as f64 / all_cps;
    rep.set("runner.supervised_overhead", cold_s / (point_s / 2.0));
    rep.set("runner.journal_append_us", median(&reps.io.append_us));
    rep.set("runner.cache_store_us", median(&reps.io.store_us));
    rep.set("runner.cache_lookup_us", median(&reps.io.lookup_us));
    rep.set("runner.cache_warm_s", fastest(&reps.warm_s));
    rep.set("runner.cache_hits", reps.cache_hits as f64);
    rep.set("runner.worker_crashes", reps.crashes as f64);
    rep.set("trace.residual_frac", median(&reps.residual));
    let traced_rows: Vec<Vec<f64>> = reps
        .traced_point_secs
        .iter()
        .zip(&reps.traced_scale)
        .map(|(row, scale)| row.iter().map(|s| s * scale).collect())
        .collect();
    let traced_cps = cycles_per_s(&outcomes, &traced_rows, |_| true);
    rep.set("trace.overhead_frac", all_cps / traced_cps - 1.0);
    let point_us: Vec<f64> = all_point_secs.iter().map(|s| s * 1e6).collect();
    rep.boundary("runner::run_point_full".to_string(), total(&point_us));
    rep.boundary(
        "JournalWriter::append".to_string(),
        total(&reps.io.append_us),
    );
    rep.boundary("ResultCache::store".to_string(), total(&reps.io.store_us));
    rep.boundary("ResultCache::lookup".to_string(), total(&reps.io.lookup_us));
    rep.set("trace.spans", rep.span_count() as f64);
}
