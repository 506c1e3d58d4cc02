//! `perf_baseline` — the performance-baseline pipeline.
//!
//! Runs the standard baseline-mesh and Mesh+PRA configurations under
//! uniform-random synthetic traffic, derives exact p50/p95/p99 packet
//! latency (from the `niobs` metrics registry) and simulator throughput
//! (simulated cycles per wall-clock second), and emits a machine-readable
//! `BENCH_pra.json`. Built with the `obs` feature (the default) it also
//! exports a Chrome/Perfetto `trace_event` JSON of the PRA run.
//!
//! ```sh
//! perf_baseline                         # paper-size run, BENCH_pra.json
//! perf_baseline --cycles 3000 --out /tmp/b.json --trace-out /tmp/t.json
//! perf_baseline --no-trace              # skip the trace export
//! ```

use std::time::Instant;

use bench::gate::Throughputs;
use bench::{AnyNetwork, Organization};
use niobs::MetricsRegistry;
use nistats::Json;
use noc::config::{NocConfig, NocConfigBuilder};
use noc::network::Network;
use noc::traffic::{Pattern, TrafficGen};

#[derive(Debug)]
struct Options {
    warmup: u64,
    cycles: u64,
    rate: f64,
    radix: u16,
    seed: u64,
    include_warmup: bool,
    out: String,
    trace_out: Option<String>,
    gate: Option<String>,
    gate_tolerance: f64,
    gate_floor: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            warmup: 2_000,
            cycles: 20_000,
            rate: 0.02,
            radix: 8,
            seed: 1,
            include_warmup: false,
            out: "BENCH_pra.json".to_string(),
            trace_out: Some("pra.trace.json".to_string()),
            gate: None,
            gate_tolerance: 0.25,
            gate_floor: 0.6,
        }
    }
}

const HELP: &str = "\
perf_baseline — packet-latency percentiles + simulator throughput

USAGE: perf_baseline [OPTIONS]

  --warmup N         warm-up cycles                     [2000]
  --cycles N         measured cycles                    [20000]
  --rate F           injection rate, packets/node/cycle [0.02]
  --radix N          mesh radix (NxN)                   [8]
  --seed N           RNG seed                           [1]
  --include-warmup   report cumulative statistics (warm-up
                     included) instead of the default
                     measured window
  --out FILE         result JSON path                   [BENCH_pra.json]
  --trace-out FILE   Chrome trace of the PRA run        [pra.trace.json]
  --no-trace         skip the Chrome-trace export
  --gate FILE        regression gate: compare this run's
                     relative simulator throughput (PRA
                     cycles/sec ÷ mesh cycles/sec) AND each
                     org's absolute cycles/sec against a
                     committed result file; exit 5 when
                     either regresses beyond its tolerance
  --gate-tolerance F allowed relative-throughput regression
                     before --gate fails                [0.25]
  --gate-floor F     absolute floor as a fraction of the
                     committed cycles/sec (0 disables the
                     absolute check)                    [0.6]
  --help             this text
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{HELP}");
            std::process::exit(0);
        }
        if flag == "--no-trace" {
            opts.trace_out = None;
            continue;
        }
        if flag == "--include-warmup" {
            opts.include_warmup = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--warmup" => opts.warmup = value.parse().map_err(|_| "bad --warmup".to_string())?,
            "--cycles" => opts.cycles = value.parse().map_err(|_| "bad --cycles".to_string())?,
            "--rate" => opts.rate = value.parse().map_err(|_| "bad --rate".to_string())?,
            "--radix" => opts.radix = value.parse().map_err(|_| "bad --radix".to_string())?,
            "--seed" => opts.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--out" => opts.out = value,
            "--trace-out" => opts.trace_out = Some(value),
            "--gate" => opts.gate = Some(value),
            "--gate-tolerance" => {
                opts.gate_tolerance = value
                    .parse()
                    .map_err(|_| "bad --gate-tolerance".to_string())?;
                if !(0.0..1.0).contains(&opts.gate_tolerance) {
                    return Err("--gate-tolerance must be in [0, 1)".to_string());
                }
            }
            "--gate-floor" => {
                opts.gate_floor = value.parse().map_err(|_| "bad --gate-floor".to_string())?;
                if !(0.0..1.0).contains(&opts.gate_floor) {
                    return Err("--gate-floor must be in [0, 1)".to_string());
                }
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if opts.gate.as_deref() == Some(opts.out.as_str()) {
        return Err(
            "--gate and --out name the same file; the result would overwrite the \
             baseline before the comparison (pick a different --out)"
                .to_string(),
        );
    }
    Ok(opts)
}

/// Extracts `cycles_per_sec` for the named organisation from a
/// `BENCH_pra.json`-shaped document.
fn cycles_per_sec_of(doc: &Json, org: &str) -> Option<f64> {
    doc.get("runs")?
        .as_array()?
        .iter()
        .find(|run| run.get("org").and_then(Json::as_str) == Some(org))?
        .get("cycles_per_sec")?
        .as_f64()
}

/// The cycles/sec regression gate: the relative PRA/mesh ratio plus the
/// absolute per-organisation floor (see [`bench::gate`] for why both
/// checks exist). Returns an error message when the gate cannot be
/// evaluated or either check regressed beyond its tolerance.
fn check_gate(
    runs: &[RunResult],
    baseline_path: &str,
    tolerance: f64,
    floor_fraction: f64,
) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("bad JSON in {baseline_path}: {e}"))?;
    let committed = match (
        cycles_per_sec_of(&doc, "baseline-mesh"),
        cycles_per_sec_of(&doc, "pra"),
    ) {
        (Some(mesh), Some(pra)) => Throughputs { mesh, pra },
        _ => {
            return Err(format!(
                "{baseline_path} has no baseline-mesh/pra cycles_per_sec runs"
            ))
        }
    };
    let mesh = runs.iter().find(|r| r.name == "baseline-mesh");
    let pra = runs.iter().find(|r| r.name == "pra");
    let fresh = match (mesh, pra) {
        (Some(m), Some(p)) => Throughputs {
            mesh: m.cycles_per_sec(),
            pra: p.cycles_per_sec(),
        },
        _ => return Err("this run is missing a baseline-mesh or pra result".to_string()),
    };
    let report = bench::gate::check(committed, fresh, tolerance, floor_fraction)?;
    for line in &report.lines {
        println!("{line}");
    }
    Ok(())
}

/// One measured configuration: the run's latency registry plus wall-clock
/// timing. `window_cycles` is the interval the statistics cover (the
/// measured window by default); `sim_cycles` is everything simulated
/// including warm-up, which is what the wall clock paid for.
struct RunResult {
    name: &'static str,
    metrics: MetricsRegistry,
    delivered: u64,
    window_cycles: u64,
    sim_cycles: u64,
    wall_seconds: f64,
}

impl RunResult {
    fn cycles_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.sim_cycles as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        let latency = self
            .metrics
            .histogram("packet.latency_cycles")
            .map(niobs::SparseHistogram::to_json)
            .unwrap_or(Json::Null);
        Json::object(vec![
            ("org".to_string(), Json::from(self.name)),
            ("delivered".to_string(), Json::UInt(self.delivered)),
            ("cycles".to_string(), Json::UInt(self.window_cycles)),
            ("sim_cycles".to_string(), Json::UInt(self.sim_cycles)),
            ("latency_cycles".to_string(), latency),
            ("wall_seconds".to_string(), Json::Float(self.wall_seconds)),
            (
                "cycles_per_sec".to_string(),
                Json::Float(self.cycles_per_sec()),
            ),
            (
                "packets_per_cycle".to_string(),
                Json::Float(self.delivered as f64 / self.window_cycles.max(1) as f64),
            ),
        ])
    }
}

/// Runs one organisation start-to-finish; `trace_out` (PRA only, `obs`
/// builds only) additionally captures and writes a Chrome trace.
fn run_one(
    name: &'static str,
    org: Organization,
    cfg: &NocConfig,
    opts: &Options,
    trace_out: Option<&str>,
) -> RunResult {
    let mut net = AnyNetwork::new(org, cfg.clone());
    #[cfg(feature = "obs")]
    let recorder = trace_out.map(|_| {
        let rec = niobs::Recorder::default().into_shared();
        net.install_obs(rec.clone());
        rec
    });
    #[cfg(not(feature = "obs"))]
    let _ = trace_out;

    let mut metrics = MetricsRegistry::new();
    let mut delivered = 0u64;
    let mut buf: Vec<noc::network::Delivered> = Vec::new();
    let mut gen = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, opts.rate, opts.seed);
    let sim_cycles = opts.warmup + opts.cycles;
    let wall = Instant::now();
    for _ in 0..opts.warmup {
        gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut buf);
        for d in buf.drain(..) {
            delivered += 1;
            metrics.observe(
                "packet.latency_cycles",
                d.delivered.saturating_sub(d.packet.created),
            );
        }
    }
    if !opts.include_warmup {
        // The measured window opens here; warm-up deliveries are dropped.
        net.reset_stats();
        metrics.begin_epoch();
        delivered = 0;
    }
    for _ in 0..opts.cycles {
        gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut buf);
        for d in buf.drain(..) {
            delivered += 1;
            metrics.observe(
                "packet.latency_cycles",
                d.delivered.saturating_sub(d.packet.created),
            );
        }
    }
    let wall_seconds = wall.elapsed().as_secs_f64();
    let window_cycles = if opts.include_warmup {
        sim_cycles
    } else {
        opts.cycles
    };

    #[cfg(feature = "obs")]
    if let (Some(path), Some(rec)) = (trace_out, &recorder) {
        match bench::write_chrome_trace(&rec.borrow(), path) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("perf_baseline: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    RunResult {
        name,
        metrics,
        delivered,
        window_cycles,
        sim_cycles,
        wall_seconds,
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            std::process::exit(2);
        }
    };
    let cfg = match NocConfigBuilder::new().radix(opts.radix).build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf_baseline: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    if cfg!(not(feature = "obs")) && opts.trace_out.is_some() {
        eprintln!("note: built without the `obs` feature; skipping trace export");
    }

    // Both configurations go through the runner pool for uniformity, but
    // pinned to a single worker: cycles/sec against the wall clock IS the
    // measurement here, and concurrent runs sharing cores would corrupt it.
    let grid: [(&str, Organization, Option<&str>); 2] = [
        ("baseline-mesh", Organization::Mesh, None),
        ("pra", Organization::MeshPra, opts.trace_out.as_deref()),
    ];
    let runs: Vec<RunResult> = runner::run_tasks(
        grid.len(),
        1,
        |i| {
            let (name, org, trace) = grid[i];
            run_one(name, org, &cfg, &opts, trace)
        },
        |_, _| {},
    )
    .into_iter()
    .map(|outcome| match outcome {
        runner::Outcome::Done(r) => r,
        runner::Outcome::Panicked { task, message } => {
            eprintln!("perf_baseline: run {task} panicked: {message}");
            std::process::exit(1);
        }
    })
    .collect();

    println!("== perf_baseline ==");
    for r in &runs {
        let h = r.metrics.histogram("packet.latency_cycles");
        let fmt = |q: f64| {
            h.and_then(|h| h.percentile(q))
                .map_or("-".to_string(), |v| v.to_string())
        };
        println!(
            "{:<14} delivered {:>8}  p50/p95/p99 {:>4}/{:>4}/{:>4} cycles  {:>10.0} cycles/sec",
            r.name,
            r.delivered,
            fmt(0.50),
            fmt(0.95),
            fmt(0.99),
            r.cycles_per_sec(),
        );
    }

    let doc = Json::object(vec![
        ("bench".to_string(), Json::from("perf_baseline")),
        (
            "config".to_string(),
            Json::object(vec![
                ("radix".to_string(), Json::UInt(u64::from(opts.radix))),
                ("rate".to_string(), Json::Float(opts.rate)),
                ("warmup".to_string(), Json::UInt(opts.warmup)),
                ("cycles".to_string(), Json::UInt(opts.cycles)),
                ("seed".to_string(), Json::UInt(opts.seed)),
                (
                    "include_warmup".to_string(),
                    Json::Bool(opts.include_warmup),
                ),
            ]),
        ),
        (
            "runs".to_string(),
            Json::Array(runs.iter().map(RunResult::to_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&opts.out, doc.to_string_pretty(2)) {
        eprintln!("perf_baseline: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("results written to {}", opts.out);
    if let Some(baseline) = &opts.gate {
        if let Err(e) = check_gate(&runs, baseline, opts.gate_tolerance, opts.gate_floor) {
            eprintln!("perf_baseline: gate FAILED: {e}");
            std::process::exit(5);
        }
        println!("gate passed");
    }
}
