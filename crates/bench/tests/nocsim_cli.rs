//! Command-line contract of the `nocsim` binary: unknown flags are
//! rejected with a nonzero exit, the default report covers the
//! measured window (warm-up excluded) unless `--include-warmup` asks
//! for the old cumulative behaviour, the default run's Mesh and
//! Mesh+PRA results are pinned, rates and response fractions outside
//! `0..=1` exit 2, and `--trace-out` writes a valid Chrome trace.

use std::process::Command;

fn nocsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nocsim"))
        .args(args)
        .output()
        .expect("nocsim must spawn")
}

#[test]
fn unknown_flag_is_rejected_with_nonzero_exit() {
    let out = nocsim(&["--no-such-flag", "1"]);
    assert_eq!(out.status.code(), Some(2), "unknown flags must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag '--no-such-flag'"),
        "stderr must name the bad flag: {stderr}"
    );
}

#[test]
fn flag_missing_its_value_is_rejected() {
    let out = nocsim(&["--rate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value for --rate"), "{stderr}");
}

#[test]
fn probabilities_outside_the_unit_interval_are_rejected() {
    for (flag, value) in [
        ("--rate", "1.5"),
        ("--rate", "-0.1"),
        ("--rate", "NaN"),
        ("--response-frac", "2"),
    ] {
        let out = nocsim(&[flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad {flag} '{value}' (valid values: 0..=1)")),
            "stderr must name the flag and the valid range: {stderr}"
        );
    }
}

#[test]
fn default_report_is_the_measured_window() {
    let out = nocsim(&["--warmup", "500", "--cycles", "2000", "--seed", "7"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("== results (measured window, warm-up excluded) =="),
        "default must report the measured window: {stdout}"
    );
    assert!(
        stdout.contains("cycles simulated       2000"),
        "reported interval must be the measured cycles only: {stdout}"
    );
}

#[test]
fn include_warmup_restores_cumulative_stats() {
    let args = ["--warmup", "500", "--cycles", "2000", "--seed", "7"];
    let windowed = nocsim(&args);
    let cumulative = nocsim(
        &args
            .iter()
            .copied()
            .chain(["--include-warmup"])
            .collect::<Vec<_>>(),
    );
    assert!(windowed.status.success() && cumulative.status.success());
    let cum_out = String::from_utf8_lossy(&cumulative.stdout);
    assert!(
        cum_out.contains("== results (cumulative, warm-up included) =="),
        "{cum_out}"
    );
    assert!(cum_out.contains("cycles simulated       2500"), "{cum_out}");

    // The cumulative run counts strictly more deliveries than the
    // measured window — the warm-up traffic is the difference.
    let delivered = |s: &str| {
        s.lines()
            .find_map(|l| l.strip_prefix("packets delivered      "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("report must include a delivered count")
    };
    let win = delivered(&String::from_utf8_lossy(&windowed.stdout));
    let cum = delivered(&cum_out);
    assert!(
        cum > win,
        "cumulative ({cum}) must exceed the measured window ({win})"
    );
}

/// The default run (8x8, uniform 0.02, 50% responses, 2k warm-up plus
/// 20k measured cycles, seed 1) is the paper's server-load comparison of
/// Mesh+PRA against the baseline mesh. Its deterministic results are
/// pinned line by line.
#[test]
fn default_run_known_answers_for_mesh_and_pra() {
    let cases = [
        (
            "mesh",
            [
                "packets delivered      25509",
                "avg packet latency     16.34 cycles",
                "latency p50/p95/p99    16 / 27 / 32 cycles",
                "max latency            53 cycles",
            ],
        ),
        (
            "pra",
            [
                "packets delivered      25508",
                "avg packet latency     16.12 cycles",
                "latency p50/p95/p99    15 / 27 / 31 cycles",
                "max latency            53 cycles",
            ],
        ),
    ];
    for (org, expected) in cases {
        let out = nocsim(&["--org", org]);
        assert!(out.status.success(), "nocsim --org {org} must succeed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in expected {
            assert!(
                stdout.lines().any(|l| l == line),
                "--org {org}: missing '{line}' in:\n{stdout}"
            );
        }
    }
}

#[test]
fn trace_out_writes_a_valid_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("nocsim_trace_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("pra.trace.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = nocsim(&["--org", "pra", "--cycles", "2000", "--trace-out", path_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("--trace-out must write the file");
    std::fs::remove_dir_all(&dir).ok();
    let doc = nistats::Json::parse(&text).expect("trace must be well-formed JSON");
    let summary =
        niobs::validate_chrome_trace(&doc).expect("trace must satisfy the trace_event schema");
    assert!(summary.events > 2, "more than the two metadata events");
    assert!(summary.tracks > 1, "per-packet tracks plus metadata");
}
