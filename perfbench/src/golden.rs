//! Known-answer checks: the simulated outputs each workload must
//! reproduce at [`CHECK_SEED`], committed next to the benchmark.
//!
//! Simulated statistics are deterministic per seed, so every run
//! replays each workload once at the check seed, untimed, and compares
//! its outputs with `expected.json` (and the sweep CSV with
//! `expected_sweep_grid.csv`, through `runner::diff_csv`). A model
//! change that moves any simulated number fails the run. `--bless`
//! rewrites the files instead of comparing.

use nistats::Json;

/// Seed of the known-answer replay.
pub const CHECK_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected.json");
const EXPECTED_CSV: &str = include_str!("../expected_sweep_grid.csv");

fn expected_path(file: &str) -> String {
    format!("{}/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `got[i] = (key, canonical output)` with the committed
/// entries of `workload`; returns one problem per mismatch. With
/// `bless`, stores `got` as the new expectation instead.
pub fn check_outputs(workload: &str, got: &[(String, String)], bless: bool) -> Vec<String> {
    if bless {
        let path = expected_path("expected.json");
        let current = std::fs::read_to_string(&path).unwrap_or_else(|_| "{}".to_string());
        let mut fields = match Json::parse(&current) {
            Ok(Json::Object(fields)) => fields,
            _ => Vec::new(),
        };
        fields.retain(|(k, _)| k != workload && k != "check_seed");
        fields.insert(0, ("check_seed".into(), Json::UInt(CHECK_SEED)));
        let entries = got
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect();
        fields.push((workload.to_string(), Json::Object(entries)));
        fields[1..].sort_by(|a, b| a.0.cmp(&b.0));
        return match std::fs::write(&path, Json::Object(fields).to_string_pretty(2)) {
            Ok(()) => Vec::new(),
            Err(e) => vec![format!("cannot bless {path}: {e}")],
        };
    }
    let doc = match Json::parse(EXPECTED) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("expected.json does not parse: {e}")],
    };
    let mut problems = Vec::new();
    for (key, value) in got {
        let want = doc
            .get(workload)
            .and_then(|w| w.get(key))
            .and_then(Json::as_str);
        match want {
            Some(want) if want == value => {}
            Some(want) => problems.push(format!(
                "{workload}/{key} at seed {CHECK_SEED}: expected `{want}`, got `{value}`"
            )),
            None => problems.push(format!("{workload}/{key}: no committed expectation")),
        }
    }
    problems
}

/// Compares the sweep CSV at the check seed with the committed one, or
/// stores it with `bless`.
pub fn check_csv(csv: &str, bless: bool) -> Vec<String> {
    if bless {
        let path = expected_path("expected_sweep_grid.csv");
        return match std::fs::write(&path, csv) {
            Ok(()) => Vec::new(),
            Err(e) => vec![format!("cannot bless {path}: {e}")],
        };
    }
    match runner::diff_csv(EXPECTED_CSV, csv) {
        None => Vec::new(),
        Some(d) => vec![format!(
            "sweep CSV at seed {CHECK_SEED} differs from expected_sweep_grid.csv: {d}"
        )],
    }
}
