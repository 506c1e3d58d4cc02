//! The figure binaries refuse malformed environment variables with exit
//! status 2 and a message naming the valid values, instead of silently
//! running the wrong windows or no wall budget.

use std::process::{Command, Output};

fn fig2_with(var: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig2"))
        .env_remove("NOC_SAMPLES")
        .env_remove("NOC_POINT_WALL_MS")
        .env(var, value)
        .output()
        .expect("fig2 must spawn")
}

fn assert_usage_error(out: &Output, expected: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(expected),
        "stderr must say {expected:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no table may be printed");
}

#[test]
fn misspelt_sample_windows_are_rejected() {
    let out = fig2_with("NOC_SAMPLES", "ful");
    assert_usage_error(&out, "NOC_SAMPLES must be quick, mid or full");
}

#[test]
fn unparsable_wall_budget_is_rejected() {
    let out = fig2_with("NOC_POINT_WALL_MS", "1m");
    assert_usage_error(
        &out,
        "NOC_POINT_WALL_MS must be a whole number of milliseconds",
    );
}
