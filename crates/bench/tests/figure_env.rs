//! The `figures` binary refuses a malformed `NOC_SAMPLES` or an unknown
//! table name with exit status 2 and a message naming the valid values,
//! instead of silently running the wrong windows or tables.

use std::process::{Command, Output};

fn figures(args: &[&str], samples: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args).env_remove("NOC_SAMPLES");
    if let Some(value) = samples {
        cmd.env("NOC_SAMPLES", value);
    }
    cmd.output().expect("figures must spawn")
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
    let out = figures(&["fig2"], Some("ful"));
    assert_usage_error(&out, "NOC_SAMPLES must be quick, mid or full");
}

#[test]
fn unknown_table_is_rejected_with_the_valid_names() {
    let out = figures(&["fig8", "bogus"], None);
    assert_usage_error(&out, "unknown table \"bogus\"");
    assert_usage_error(
        &out,
        "valid tables: table1, fig2, fig6, fig7, sec5b, fig8, fig9, sec5e, ablation, \
         lag_sweep, frfc_compare, tail_latency, load_sweep, pra_diag, frfc_diag",
    );
}

#[test]
fn analytic_tables_print_without_simulating() {
    let out = figures(&["table1", "fig8"], None);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 runs requested, 0 distinct"), "{stderr}");
    let table1 = include_str!("../../../specs/table1_quick.golden.txt");
    let fig8 = include_str!("../../../specs/fig8_quick.golden.txt");
    assert_eq!(stdout, format!("{table1}\n{fig8}"));
}
