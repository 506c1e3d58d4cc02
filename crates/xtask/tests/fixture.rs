//! End-to-end tests of the lint pass: the `bad_crate` fixture must trip
//! every hygiene lint, the `nondet_crate` fixture every determinism
//! lint (with the `det:allow` escape honoured), the `dead_api_crate`
//! fixture exactly its dead public items, and the real workspace must
//! be clean.

use std::path::Path;

use xtask::lints::{
    dead_api, lint_tree, workspace_api_dirs, workspace_src_dirs, Violation, DEAD_API_ALLOW,
};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// crates/xtask -> workspace root.
fn workspace_root() -> &'static Path {
    manifest_dir()
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
}

/// Runs `dead-api` over the `dead_api_crate` fixture alone with
/// `allow`.
fn dead_api_fixture(allow: &[(&str, &str, &str)]) -> Vec<Violation> {
    let src = vec![manifest_dir().join("fixtures/dead_api_crate/src")];
    dead_api(workspace_root(), &src, &src, allow).expect("fixture directory is readable")
}

/// The `(file name, item)` of each finding, in report order.
fn flagged(violations: &[Violation]) -> Vec<(String, String)> {
    violations
        .iter()
        .map(|v| {
            let file = v.file.file_name().map(|f| f.to_string_lossy().into_owned());
            let item = v.message.split('`').nth(1).unwrap_or_default().to_string();
            (file.unwrap_or_default(), item)
        })
        .collect()
}

#[test]
fn fixture_crate_trips_every_lint() {
    let fixture = manifest_dir().join("fixtures/bad_crate/src");
    let violations = lint_tree(&fixture).expect("fixture directory is readable");
    let lints: Vec<&str> = violations.iter().map(|v| v.lint).collect();
    for expected in [
        "no-unwrap",
        "no-bare-cast",
        "no-counter-poke",
        "must-use-errors",
    ] {
        assert!(
            lints.contains(&expected),
            "fixture did not trip `{expected}`; got {lints:?}"
        );
    }
    // Two no-unwrap findings (bare unwrap + non-literal expect), one of
    // each of the others; the cfg(test) unwrap must NOT be counted.
    assert_eq!(violations.len(), 5, "{violations:#?}");
}

#[test]
fn nondet_fixture_trips_every_determinism_lint() {
    let fixture = manifest_dir().join("fixtures/nondet_crate/src");
    let violations = lint_tree(&fixture).expect("fixture directory is readable");
    let lints: Vec<&str> = violations.iter().map(|v| v.lint).collect();
    for expected in [
        "no-hashmap-iteration",
        "no-wallclock",
        "no-ambient-randomness",
        "no-lossy-float-format",
    ] {
        assert!(
            lints.contains(&expected),
            "fixture did not trip `{expected}`; got {lints:?}"
        );
    }
    // One finding per determinism lint; the `det:allow(no-wallclock)`
    // escape must have silenced the audited Instant site.
    assert_eq!(violations.len(), 4, "{violations:#?}");
}

#[test]
fn dead_api_fixture_flags_exactly_its_dead_items() {
    let violations = dead_api_fixture(&DEAD_API_ALLOW);
    assert!(violations.iter().all(|v| v.lint == "dead-api"));
    let expected = [
        ("counters.rs", "only_reexported"), // used only through `pub use`
        ("lib.rs", "never_called"),
        ("lib.rs", "UNREAD_LIMIT"),
        ("lib.rs", "never_read"), // a field
        ("lib.rs", "compact"),    // a method
        ("lib.rs", "checksum"),   // used only by its own file's tests
        ("lib.rs", "doc_only"),   // used only in a doc example
    ]
    .map(|(f, n)| (f.to_string(), n.to_string()));
    // Read as a format argument, called by path, passed as a fn
    // pointer, or allow-listed: none of these is reported.
    assert_eq!(flagged(&violations), expected, "{violations:#?}");
    // No per-file finding, so `check DIR` reports exactly the dead items.
    assert!(
        lint_tree(&manifest_dir().join("fixtures/dead_api_crate/src"))
            .expect("fixture directory is readable")
            .is_empty()
    );
}

#[test]
fn stale_allow_list_entries_are_findings() {
    const LIB: &str = "crates/xtask/fixtures/dead_api_crate/src/lib.rs";
    let missing = dead_api_fixture(&[(LIB, "no_such_item", "gone")]);
    let live = dead_api_fixture(&[(LIB, "BANNER_WIDTH", "has a caller")]);
    for (violations, item, why) in [
        (missing, "no_such_item", "names no pub item"),
        (live, "BANNER_WIDTH", "names an item that has callers"),
    ] {
        let stale: Vec<_> = violations
            .iter()
            .filter(|v| v.message.starts_with("stale DEAD_API_ALLOW entry"))
            .collect();
        assert_eq!(stale.len(), 1, "{violations:#?}");
        assert!(stale[0].message.contains(item) && stale[0].message.contains(why));
        assert!(stale[0].file.ends_with(LIB));
    }
    // An entry outside the scanned trees is neither checked nor applied:
    // the seven dead items plus the unlisted `kept_for_the_allow_list`.
    let elsewhere = dead_api_fixture(&[("crates/noc/src/lib.rs", "no_such_item", "elsewhere")]);
    assert_eq!(elsewhere.len(), 8, "{elsewhere:#?}");
}

#[test]
fn workspace_sources_are_clean() {
    let root = workspace_root();
    let dirs = workspace_src_dirs(root).expect("workspace layout is readable");
    assert!(
        dirs.len() >= 13,
        "expected root src/ + tests/ + examples/ plus workspace members, got {dirs:?}"
    );
    let mut violations = Vec::new();
    for d in &dirs {
        violations.extend(lint_tree(d).expect("source tree is readable"));
    }
    let (defs, search) = workspace_api_dirs(root).expect("workspace layout is readable");
    violations.extend(dead_api(root, &defs, &search, &DEAD_API_ALLOW).expect("readable"));
    assert!(
        violations.is_empty(),
        "workspace lint violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
