//! Crash-safety end-to-end: kill a sweep mid-run, resume it, and demand
//! byte-identical artifacts; wedge a point with a scheduled fault and
//! demand a clean timeout row; perturb a digest trail and demand the
//! divergence is caught at the offending cycle.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use runner::{
    first_divergence, load_journal, run_point_full, verify_digest_trail, FaultEventSpec, FaultSpec,
    JournalWriter, Organization, SweepSpec,
};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-resume-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir tempdir");
    dir
}

const KILL_SPEC: &str = r#"{
  "name": "killresume",
  "base_seed": 11,
  "warmup": 500,
  "measure": 2500,
  "response_fraction": 0.5,
  "orgs": ["mesh"],
  "patterns": ["uniform"],
  "rates": [0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04],
  "radices": [8],
  "vc_depths": [5],
  "hpcs": [2],
  "samples": 1,
  "faults": [{"label": "none"}],
  "digest_interval": 500
}"#;

fn sweep_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

/// The sweep artifacts must be byte-identical whether the run completed
/// in one go or was SIGKILLed mid-flight and resumed — the tentpole
/// guarantee of the checkpoint journal.
#[test]
fn killed_and_resumed_sweep_matches_uninterrupted_run_byte_for_byte() {
    let dir = tmp_dir("kill");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, KILL_SPEC).expect("write spec");
    let a_csv = dir.join("a.csv");
    let a_json = dir.join("a.json");
    let b_csv = dir.join("b.csv");
    let b_json = dir.join("b.json");
    let ckpt = dir.join("b.csv.ckpt");

    // Reference: uninterrupted, single-threaded.
    let status = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--threads", "1"])
        .args(["--csv-out", a_csv.to_str().expect("utf8 path")])
        .args(["--json-out", a_json.to_str().expect("utf8 path")])
        .arg("--quiet")
        .status()
        .expect("run reference sweep");
    assert!(status.success(), "reference sweep failed: {status:?}");

    // Victim: same sweep, SIGKILLed once a few points are journaled.
    let mut child = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--threads", "1"])
        .args(["--csv-out", b_csv.to_str().expect("utf8 path")])
        .args(["--json-out", b_json.to_str().expect("utf8 path")])
        .arg("--quiet")
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim sweep");
    let deadline = Instant::now() + Duration::from_secs(55);
    loop {
        let journaled = std::fs::read_to_string(&ckpt)
            .map(|t| t.lines().filter(|l| l.starts_with("point\t")).count())
            .unwrap_or(0);
        if journaled >= 2 {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll victim") {
            panic!("victim finished before it could be killed: {status:?}");
        }
        assert!(Instant::now() < deadline, "victim never journaled 2 points");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL the victim");
    let status = child.wait().expect("reap the victim");
    assert!(!status.success(), "the kill must be what ended the victim");
    assert!(
        !b_csv.exists(),
        "the victim died before writing final artifacts"
    );

    // Resume on a different thread count — the journal plus the
    // remaining points must reproduce the reference bytes exactly.
    let status = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--threads", "4"])
        .args(["--csv-out", b_csv.to_str().expect("utf8 path")])
        .args(["--json-out", b_json.to_str().expect("utf8 path")])
        .args(["--resume", "--quiet"])
        .status()
        .expect("run resumed sweep");
    assert!(status.success(), "resumed sweep failed: {status:?}");

    let a = std::fs::read(&a_csv).expect("read reference csv");
    let b = std::fs::read(&b_csv).expect("read resumed csv");
    assert_eq!(a, b, "resumed CSV differs from uninterrupted CSV");
    let a = std::fs::read(&a_json).expect("read reference json");
    let b = std::fs::read(&b_json).expect("read resumed json");
    assert_eq!(a, b, "resumed JSON differs from uninterrupted JSON");

    // A resume against a *different* spec must be refused (exit 2),
    // before any simulation time is spent.
    let other_spec = dir.join("other.json");
    std::fs::write(
        &other_spec,
        KILL_SPEC.replace("\"base_seed\": 11", "\"base_seed\": 12"),
    )
    .expect("write mutated spec");
    let out = sweep_cmd()
        .args(["--spec", other_spec.to_str().expect("utf8 path")])
        .args(["--ckpt", ckpt.to_str().expect("utf8 path")])
        .args(["--csv-out", dir.join("c.csv").to_str().expect("utf8 path")])
        .args(["--resume", "--quiet"])
        .output()
        .expect("run mismatched resume");
    assert_eq!(
        out.status.code(),
        Some(2),
        "spec-mismatch resume must exit 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A scheduled credit-loss fault wedges a multi-flit wormhole forever
/// (the credit never comes back, so the lane never frees); the cycle
/// budget must convert that livelock into a clean `timeout(...)` row
/// instead of a 100k-cycle drain spin. The whole scenario runs inside
/// a 60-second outer deadline.
#[test]
fn wedged_wormhole_trips_the_cycle_budget_not_the_test_suite() {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        // Node 28 = (row 3, col 4) feeds the hotspot 36 = (4, 4) from
        // the north; under XY routing every packet from rows 0..3
        // crosses its South port. Destroy credits on all three VCs of
        // that port, repeatedly, while the lane is saturated — once a
        // VC's credits hit zero mid-wormhole, the packet can never
        // advance and the drain loop would spin to its 100k ceiling.
        let mut events = Vec::new();
        for vc in 0..3u8 {
            for i in 0..30u64 {
                events.push(FaultEventSpec::CreditLoss {
                    at: 300 + i * 25,
                    node: 28,
                    dir: noc::types::Direction::South,
                    vc,
                });
            }
        }
        let wedge = FaultSpec {
            label: "wedge".to_string(),
            transient_ppb: 0,
            seed: 0,
            events,
        };
        let spec = SweepSpec::new("livelock")
            .orgs(&[Organization::Mesh])
            .patterns(&[noc::traffic::Pattern::Hotspot(noc::types::NodeId::new(36))])
            .rates(&[0.02])
            .windows(200, 800)
            .budgets(6_000, 0);
        let mut points = spec.points();
        let mut p = points.remove(0);
        p.fault = wedge;
        let rec = run_point_full(&p).record;
        tx.send(rec).expect("report the record");
    });
    let rec = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the cycle budget must fire well inside 60s");
    worker.join().expect("worker exits cleanly");
    assert_eq!(
        rec.status, "timeout(cycles>6000)",
        "a wedged drain must surface as a cycle-budget timeout"
    );
    assert!(
        rec.undrained > 0,
        "the wedge must leave packets in flight (else nothing was stuck)"
    );
}

/// The same point with the same budget but no fault must finish "ok" —
/// the budget catches livelock, not healthy runs.
#[test]
fn healthy_point_never_trips_the_same_cycle_budget() {
    let spec = SweepSpec::new("healthy")
        .orgs(&[Organization::Mesh])
        .patterns(&[noc::traffic::Pattern::Hotspot(noc::types::NodeId::new(36))])
        .rates(&[0.02])
        .windows(200, 800)
        .budgets(6_000, 0);
    let rec = run_point_full(&spec.points().remove(0)).record;
    assert_eq!(rec.status, "ok");
}

/// An injected mid-run perturbation of the recorded digest trail is
/// caught as a `DigestMismatch` naming the offending cycle.
#[test]
fn perturbed_digest_trail_is_caught_at_the_offending_cycle() {
    let spec = SweepSpec::new("perturb")
        .orgs(&[Organization::MeshPra])
        .rates(&[0.02])
        .windows(200, 800)
        .digest_every(200);
    let p = spec.points().remove(0);
    let honest = run_point_full(&p);
    assert!(honest.trail.len() >= 3, "need a few samples to perturb");
    verify_digest_trail(&p, &honest).expect("an untouched trail verifies");

    // Flip one bit of the middle sample — the "checkpoint was tampered
    // with / the resumed run diverged" scenario.
    let mut tampered = honest.clone();
    let mid = tampered.trail.len() / 2;
    tampered.trail[mid].1 ^= 1;
    let expected_cycle = tampered.trail[mid].0;
    let violation = verify_digest_trail(&p, &tampered).expect_err("perturbation must be caught");
    match violation {
        noc::watchdog::InvariantViolation::DigestMismatch {
            cycle,
            expected,
            got,
        } => {
            assert_eq!(cycle, expected_cycle, "wrong cycle blamed");
            assert_eq!(expected ^ 1, got, "the flipped bit is the difference");
        }
        other => panic!("wrong violation kind: {other}"),
    }
    let message = violation.to_string();
    assert!(
        message.contains("state digest mismatch"),
        "human-readable report: {message}"
    );

    // first_divergence agrees on where comparability breaks.
    let d = first_divergence(&tampered.trail, &honest.trail).expect("trails differ");
    assert_eq!(d.0, expected_cycle);
}

/// Runs the sweep over the kill spec with `args` and asserts a usage
/// error: exit 2, `hint` on stderr, and no artifact written.
fn assert_usage_error(name: &str, args: &[&str], hint: &str) {
    let dir = tmp_dir(name);
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, KILL_SPEC).expect("write spec");
    let csv = dir.join("out.csv");
    let out = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--csv-out", csv.to_str().expect("utf8 path"), "--quiet"])
        .args(args)
        .output()
        .expect("run sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(
        stderr.contains(hint),
        "the error must say what to do instead"
    );
    assert!(!csv.exists(), "a rejected run must not write artifacts");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--verify-digests` without `--resume` has no journal to replay, so
/// it would vacuously pass over zero points — it must be a usage error
/// (exit 2), not a fake green determinism gate.
#[test]
fn verify_digests_without_resume_is_a_usage_error() {
    let hint = "--verify-digests requires --resume";
    assert_usage_error("verifyusage", &["--verify-digests"], hint);
}

/// `--verify-digests` works on the consolidated journal under worker
/// processes too: a completed supervised sweep re-verifies clean (exit
/// 0), and a journal whose digest trail was perturbed mid-run is caught
/// at the offending point and cycle (exit 3) before anything runs.
#[test]
fn supervised_resume_verifies_digests_and_catches_a_perturbed_trail() {
    let dir = tmp_dir("workersverify");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        r#"{
  "name": "workersverify",
  "base_seed": 5,
  "warmup": 200,
  "measure": 800,
  "response_fraction": 0.5,
  "orgs": ["mesh_pra"],
  "patterns": ["uniform"],
  "rates": [0.01, 0.02],
  "radices": [8],
  "vc_depths": [5],
  "hpcs": [2],
  "samples": 1,
  "faults": [{"label": "none"}],
  "digest_interval": 200
}"#,
    )
    .expect("write spec");
    let csv = dir.join("out.csv");
    let ckpt = dir.join("out.csv.ckpt");
    let sweep = |extra: &[&str]| {
        sweep_cmd()
            .args(["--spec", spec_path.to_str().expect("utf8 path")])
            .args(["--workers", "2"])
            .args(["--csv-out", csv.to_str().expect("utf8 path")])
            .args(extra)
            .output()
            .expect("run supervised sweep")
    };
    let out = sweep(&["--quiet"]);
    assert!(out.status.success(), "supervised sweep failed: {out:?}");
    let reference = std::fs::read(&csv).expect("read csv");

    let out = sweep(&["--resume", "--verify-digests"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "an honest journal verifies: {stderr}"
    );
    assert!(
        stderr.contains("2 point(s) checked, 0 mismatch(es)"),
        "{stderr}"
    );
    assert_eq!(reference, std::fs::read(&csv).expect("re-read csv"));

    // Flip one bit of one point's middle digest sample, then rewrite the
    // journal around it.
    let ckpt = ckpt.to_str().expect("utf8 path");
    let mut journal = load_journal(ckpt).expect("load journal");
    let tampered = journal.done.get_mut(&1).expect("point 1 journaled");
    assert!(tampered.trail.len() >= 3, "need a few samples to perturb");
    let mid = tampered.trail.len() / 2;
    tampered.trail[mid].1 ^= 1;
    let cycle = tampered.trail[mid].0;
    let mut w = JournalWriter::create(ckpt, &journal.header).expect("rewrite journal");
    for outcome in journal.done.values() {
        w.append(outcome).expect("append");
    }
    drop(w);

    let out = sweep(&["--resume", "--verify-digests"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "perturbation must exit 3: {stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "digest verification FAILED at point 1: cycle {cycle}: state digest mismatch"
        )),
        "the report names the point and the cycle: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--check-golden` exits 3 (not 1) on a mismatch and names the first
/// diverging cell, so CI separates determinism breaks from I/O breaks.
#[test]
fn check_golden_mismatch_exits_3_with_a_cell_level_diff() {
    let dir = tmp_dir("golden");
    let spec_path = dir.join("spec.json");
    let spec = r#"{
  "name": "goldensmoke",
  "base_seed": 3,
  "warmup": 100,
  "measure": 400,
  "response_fraction": 0.5,
  "orgs": ["mesh"],
  "patterns": ["uniform"],
  "rates": [0.01],
  "radices": [8],
  "vc_depths": [5],
  "hpcs": [2],
  "samples": 1,
  "faults": [{"label": "none"}]
}"#;
    std::fs::write(&spec_path, spec).expect("write spec");
    let csv = dir.join("out.csv");
    let status = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--csv-out", csv.to_str().expect("utf8 path")])
        .arg("--quiet")
        .status()
        .expect("run sweep");
    assert!(status.success());

    // Against itself: success.
    let status = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--check-golden", csv.to_str().expect("utf8 path")])
        .arg("--quiet")
        .stdout(Stdio::null())
        .status()
        .expect("run self-check");
    assert_eq!(status.code(), Some(0), "self-check must pass");

    // Against a golden with one corrupted cell: exit 3, and the diff
    // names the row, the column, and both values.
    let text = std::fs::read_to_string(&csv).expect("read csv");
    let corrupted = text.replacen(",ok,", ",not-ok,", 1);
    assert_ne!(text, corrupted, "corruption must land");
    let golden = dir.join("bad.golden.csv");
    std::fs::write(&golden, corrupted).expect("write corrupted golden");
    let mut child = sweep_cmd()
        .args(["--spec", spec_path.to_str().expect("utf8 path")])
        .args(["--check-golden", golden.to_str().expect("utf8 path")])
        .arg("--quiet")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run failing check");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("reap");
    assert_eq!(status.code(), Some(3), "golden mismatch must exit 3");
    assert!(
        stderr.contains("column status"),
        "diff names the column: {stderr}"
    );
    assert!(
        stderr.contains("not-ok"),
        "diff shows the expected cell: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
