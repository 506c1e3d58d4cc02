//! `perfbench` — host-speed benchmark of the simulator, end to end and
//! per layer.
//!
//! ```sh
//! perfbench --workload synth_idle --seed 3 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload for `--seconds` of measurement, checks every
//! simulated output, and prints a metric table followed by a one-line
//! JSON result (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end ones; `--trace 1` adds a
//! timed pass whose layer metrics replace them and writes the spans to
//! `<work-dir>/<workload>.trace.json`. Exit 0 when every check passed,
//! 1 when one failed, 2 on a usage error. `perfbench/run.sh` builds
//! the benchmark and the `sweep` binary and then runs this program.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod calib;
mod fullsys;
mod golden;
mod grid;
mod pin;
mod report;
mod rounds;
mod synth;
mod timed;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    synth::IDLE.name,
    synth::SATURATION.name,
    fullsys::NAME,
    grid::NAME,
];

/// Command-line options shared by every workload.
#[derive(Debug)]
pub struct Opts {
    workload: String,
    /// Seed of every simulation the workload runs.
    pub seed: u64,
    seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
    /// Rewrite the known answers instead of checking them.
    pub bless: bool,
    /// Scratch directory for sweep artifacts and trace files.
    pub work_dir: PathBuf,
    /// The `sweep` binary the grid workload drives.
    pub sweep_bin: PathBuf,
}

impl Opts {
    /// The measurement duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
[--work-dir DIR] [--sweep-bin FILE] [--bless]";

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bless: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        sweep_bin: PathBuf::from(".bench_build/release/sweep"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            opts.bless = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--work-dir" => opts.work_dir = PathBuf::from(&value),
            "--sweep-bin" => opts.sweep_bin = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }
    let mut rep = report::Report::new(epoch);
    match opts.workload.as_str() {
        "synth_idle" => synth::run(&synth::IDLE, &opts, &mut rep),
        "synth_saturation" => synth::run(&synth::SATURATION, &opts, &mut rep),
        "fullsys_media" => fullsys::run(&opts, &mut rep),
        _ => grid::run(&opts, &mut rep),
    }
    if opts.trace {
        let path = opts.work_dir.join(format!("{}.trace.json", opts.workload));
        match rep.write_trace(&opts.workload, &path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => rep.attempt("trace", &[format!("cannot write {}: {e}", path.display())]),
        }
    }
    rep.print(opts.trace);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
