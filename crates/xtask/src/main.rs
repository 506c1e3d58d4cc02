//! `cargo xtask` — workspace maintenance commands.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::lints::{
    dead_api, lint_tree, workspace_api_dirs, workspace_src_dirs, Violation, DEAD_API_ALLOW,
};

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask <command>");
    eprintln!();
    eprintln!("  check            run the repo lint pass over the workspace source trees");
    eprintln!("  check DIR        run the lint pass over one directory (used by fixtures)");
    eprintln!(
        "  verify-protocol  exhaustively model-check the sweep crash-recovery and \
         reliable-delivery protocols"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(args.get(1).map(PathBuf::from)),
        Some("verify-protocol") => verify_protocol(),
        _ => usage(),
    }
}

/// Runs the explicit-state model checkers — the journal/lease/
/// supervisor protocol and the end-to-end reliable-delivery protocol —
/// at the standard bounds, then self-tests each checker's teeth: every
/// seeded bug double must still be refuted with a counterexample.
/// Exits nonzero printing the minimal trace if a shipped protocol
/// violates an invariant — or if a double sails through, meaning a
/// checker can no longer detect the bugs it was built to catch.
fn verify_protocol() -> ExitCode {
    use analyzer::{check_protocol, check_reliable_protocol, ModelBounds, RelBounds, Semantics};
    use noc::reliable::RetrySemantics;

    match check_protocol(ModelBounds::standard(), Semantics::correct()) {
        Ok(report) => {
            println!(
                "verify-protocol: {} states / {} transitions explored; trusted-prefix, \
                 single-writer, zombie-exclusion, resume-equivalence and termination hold \
                 ({} completed + {} quarantined terminals, max generation {})",
                report.states,
                report.transitions,
                report.terminal_completed,
                report.terminal_quarantined,
                report.max_generation
            );
        }
        Err(v) => {
            eprintln!("verify-protocol: the shipped protocol violates an invariant");
            eprintln!("{v}");
            return ExitCode::FAILURE;
        }
    }

    let doubles = [
        (
            "no-torn-tail-truncation",
            Semantics::no_torn_tail_truncation(),
        ),
        ("no-generation-fencing", Semantics::no_generation_fencing()),
    ];
    for (name, semantics) in doubles {
        match check_protocol(ModelBounds::standard(), semantics) {
            Ok(_) => {
                eprintln!(
                    "verify-protocol: seeded bug double `{name}` was NOT refuted; \
                     the checker has lost the ability to catch this bug class"
                );
                return ExitCode::FAILURE;
            }
            Err(v) => {
                println!(
                    "verify-protocol: bug double `{name}` refuted: {} ({}-step counterexample)",
                    v.invariant,
                    v.trace.len()
                );
            }
        }
    }

    match check_reliable_protocol(RelBounds::standard(), RetrySemantics::correct()) {
        Ok(report) => {
            println!(
                "verify-protocol: reliable delivery: {} states / {} transitions explored; \
                 eventual delivery, no duplicate ejection, no wraparound hazard and bounded \
                 storms hold ({} delivered + {} escalated terminals, max {} live copies)",
                report.states,
                report.transitions,
                report.terminal_delivered,
                report.terminal_escalated,
                report.max_live_copies
            );
        }
        Err(v) => {
            eprintln!(
                "verify-protocol: the shipped reliable-delivery protocol violates an invariant"
            );
            eprintln!("{v}");
            return ExitCode::FAILURE;
        }
    }

    let rel_doubles = [
        ("ack-before-commit", RetrySemantics::ack_before_commit()),
        ("unbounded-retry", RetrySemantics::unbounded_retry()),
    ];
    for (name, semantics) in rel_doubles {
        match check_reliable_protocol(RelBounds::standard(), semantics) {
            Ok(_) => {
                eprintln!(
                    "verify-protocol: seeded bug double `{name}` was NOT refuted; \
                     the checker has lost the ability to catch this bug class"
                );
                return ExitCode::FAILURE;
            }
            Err(v) => {
                println!(
                    "verify-protocol: bug double `{name}` refuted: {} ({}-step counterexample)",
                    v.invariant,
                    v.trace.len()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Runs the per-file lints over each source tree, then the cross-file
/// `dead-api` rule: over the workspace, or with `DIR` as both its
/// definition and its search tree.
fn check(dir: Option<PathBuf>) -> ExitCode {
    let root = workspace_root();
    let run = || -> io::Result<(usize, Vec<Violation>)> {
        let (dirs, (defs, search)) = match &dir {
            Some(d) => {
                let d = std::env::current_dir()?.join(d);
                (vec![d.clone()], (vec![d.clone()], vec![d]))
            }
            None => (workspace_src_dirs(&root)?, workspace_api_dirs(&root)?),
        };
        let mut violations = Vec::new();
        for d in &dirs {
            violations.extend(lint_tree(d)?);
        }
        violations.extend(dead_api(&root, &defs, &search, &DEAD_API_ALLOW)?);
        Ok((dirs.len(), violations))
    };
    match run() {
        Ok((trees, violations)) if violations.is_empty() => {
            println!("xtask check: {trees} source trees clean");
            ExitCode::SUCCESS
        }
        Ok((_, violations)) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("xtask check: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask check: cannot read the source trees: {e}");
            ExitCode::from(2)
        }
    }
}
