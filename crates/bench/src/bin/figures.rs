//! The paper's tables and figures — the one-shot reproduction driver.
//!
//! `figures NAME…` prints the named tables, separated by one blank line;
//! `figures` with no argument prints every table, each followed by one
//! blank line. Every requested table's cells are measured together, so
//! a (cell, seed) run that several tables read runs once. Set
//! `NOC_SAMPLES=mid` or `full` for longer windows and `NOC_THREADS` for
//! the pool size; stdout is identical at any thread count. An unknown
//! table name exits 2.

use std::process::ExitCode;

use bench::figures::{self, Table, TABLES};
use bench::{measure, run_counts, spec_from_env, Plan};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|name| figures::find(name).is_none()) {
        let valid: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
        let valid = valid.join(", ");
        eprintln!("figures: unknown table {bad:?}; valid tables: {valid}");
        return ExitCode::from(2);
    }
    let all = names.is_empty();
    let tables: Vec<&Table> = if all {
        TABLES.iter().collect()
    } else {
        names
            .iter()
            .filter_map(|name| figures::find(name))
            .collect()
    };
    let spec = spec_from_env();
    let plans: Vec<Plan> = tables.iter().map(|t| (t.plan)(&spec)).collect();
    let (requested, distinct) = run_counts(&plans);
    eprintln!("figures: {requested} runs requested, {distinct} distinct");
    let mut out = String::new();
    for (i, (table, rows)) in tables.iter().zip(measure(&plans)).enumerate() {
        if i > 0 && !all {
            out.push('\n');
        }
        (table.format)(&rows, &mut out).expect("formatting into a String cannot fail");
        if all {
            out.push('\n');
        }
    }
    print!("{out}");
    ExitCode::SUCCESS
}
