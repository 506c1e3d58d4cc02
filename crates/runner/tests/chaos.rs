//! Multi-process chaos end-to-end: SIGKILL workers mid-sweep, kill the
//! supervisor itself (and resume with or without worker processes),
//! poison a point so it murders every worker that touches it, and
//! corrupt the result cache — in every case the merged artifacts must be
//! byte-identical to a single-process run (minus the quarantined rows,
//! which must be exactly the documented poisoned rows), and a quarantine
//! must end the sweep with exit 4, not abort it.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use runner::{lease_path, read_lease};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-chaos-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir tempdir");
    dir
}

/// Worker-kill rounds in the SIGKILL test: `NOC_CHAOS_ITERS`, default 1.
/// The default keeps the suite fast enough for the sanitizer CI job
/// (TSan runs everything several times slower); a soak run can crank it
/// up without editing the test.
fn chaos_iters() -> usize {
    std::env::var("NOC_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Base progress deadline in seconds: `NOC_CHAOS_TIMEOUT_SECS`, default
/// 60. Supervised-run reaping waits twice this.
fn chaos_timeout_secs() -> u64 {
    std::env::var("NOC_CHAOS_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(60)
}

/// 12 cheap points (6 rates × 2 samples) — enough to spread across
/// workers while keeping the reference run fast.
const FAST_SPEC: &str = r#"{
  "name": "chaosfast",
  "base_seed": 21,
  "warmup": 100,
  "measure": 400,
  "response_fraction": 0.5,
  "orgs": ["mesh"],
  "patterns": ["uniform"],
  "rates": [0.005, 0.01, 0.015, 0.02, 0.025, 0.03],
  "radices": [8],
  "vc_depths": [5],
  "hpcs": [2],
  "samples": 2,
  "faults": [{"label": "none"}]
}"#;

/// 8 slower points — each worker holds its shard long enough for the
/// test to observe a lease and land a SIGKILL mid-run.
const SLOW_SPEC: &str = r#"{
  "name": "chaosslow",
  "base_seed": 22,
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
  "faults": [{"label": "none"}]
}"#;

fn sweep_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf8 path")
}

/// Runs the single-process reference sweep and returns its CSV bytes.
fn reference_csv(spec: &Path, csv: &Path) -> Vec<u8> {
    let status = sweep_cmd()
        .args(["--spec", path_str(spec)])
        .args(["--threads", "2"])
        .args(["--csv-out", path_str(csv)])
        .arg("--quiet")
        .status()
        .expect("run reference sweep");
    assert!(status.success(), "reference sweep failed: {status:?}");
    std::fs::read(csv).expect("read reference csv")
}

/// Extracts one `key=value` counter from the sweep's stderr metrics line.
fn metric(stderr: &str, key: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("metrics:"))
        .unwrap_or_else(|| panic!("no metrics line in stderr:\n{stderr}"));
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= counter in: {line}"))
}

/// Counts completed `point\t` lines across every shard journal of
/// `ckpt` (any shard, any generation; leases and temp files excluded).
fn shard_points(ckpt: &Path) -> usize {
    let dir = ckpt.parent().expect("ckpt has a parent");
    let base = ckpt
        .file_name()
        .and_then(|n| n.to_str())
        .expect("utf8 ckpt name");
    let prefix = format!("{base}.s");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("read tempdir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let name = name.to_str().expect("utf8 file name");
        if name.starts_with(&prefix) && !name.ends_with(".lease") && !name.contains(".tmp") {
            n += std::fs::read_to_string(entry.path())
                .map(|t| t.lines().filter(|l| l.starts_with("point\t")).count())
                .unwrap_or(0);
        }
    }
    n
}

/// True when any shard coordination file (journal, lease, temp) for
/// `ckpt` is still on disk — a clean supervised run must leave none.
fn coordination_files_remain(ckpt: &Path) -> bool {
    let dir = ckpt.parent().expect("ckpt has a parent");
    let base = ckpt
        .file_name()
        .and_then(|n| n.to_str())
        .expect("utf8 ckpt name");
    let prefix = format!("{base}.s");
    std::fs::read_dir(dir)
        .expect("read tempdir")
        .filter_map(Result::ok)
        .any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix))
        })
}

fn sigkill(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

/// Reaps `child` within `secs` seconds, else kills it and panics —
/// a hung supervisor must fail the test, not the whole suite.
fn wait_within(child: &mut Child, secs: u64, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} did not finish within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_stderr(child: &mut Child) -> String {
    let mut text = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut text)
        .expect("read stderr");
    text
}

/// The baseline contract: a multi-process sweep produces the same CSV
/// and JSON bytes as a single-process one, and cleans up every shard
/// journal and lease afterwards.
#[test]
fn multiprocess_sweep_matches_single_process_byte_for_byte() {
    let dir = tmp_dir("ident");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, FAST_SPEC).expect("write spec");
    let a_csv = dir.join("a.csv");
    let a_json = dir.join("a.json");
    let status = sweep_cmd()
        .args(["--spec", path_str(&spec)])
        .args(["--threads", "2"])
        .args(["--csv-out", path_str(&a_csv)])
        .args(["--json-out", path_str(&a_json)])
        .arg("--quiet")
        .status()
        .expect("run single-process sweep");
    assert!(status.success());

    let b_csv = dir.join("b.csv");
    let b_json = dir.join("b.json");
    let status = sweep_cmd()
        .args(["--spec", path_str(&spec)])
        .args(["--workers", "3"])
        .args(["--csv-out", path_str(&b_csv)])
        .args(["--json-out", path_str(&b_json)])
        .arg("--quiet")
        .status()
        .expect("run multi-process sweep");
    assert!(status.success(), "supervised sweep failed: {status:?}");

    assert_eq!(
        std::fs::read(&a_csv).expect("read a.csv"),
        std::fs::read(&b_csv).expect("read b.csv"),
        "multi-process CSV differs from single-process"
    );
    assert_eq!(
        std::fs::read(&a_json).expect("read a.json"),
        std::fs::read(&b_json).expect("read b.json"),
        "multi-process JSON differs from single-process"
    );
    assert!(
        !coordination_files_remain(&dir.join("b.csv.ckpt")),
        "shard journals / leases must be cleaned up after success"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL a worker mid-shard: the supervisor must notice the dead
/// lease, take the shard over under a new generation, and still emit
/// byte-identical artifacts.
#[test]
fn sigkilled_worker_is_detected_and_its_shard_taken_over() {
    let dir = tmp_dir("sigkill");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, SLOW_SPEC).expect("write spec");
    let reference = reference_csv(&spec, &dir.join("ref.csv"));

    let csv = dir.join("out.csv");
    let ckpt = dir.join("out.csv.ckpt");
    let mut child = sweep_cmd()
        .args(["--spec", path_str(&spec)])
        .args(["--workers", "2"])
        .args(["--lease-timeout-ms", "400"])
        .args(["--crash-limit", "50"])
        .args(["--csv-out", path_str(&csv)])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn supervised sweep");

    // Kill-loop: each round waits for shard 0's worker to journal at
    // least one point, then SIGKILLs the (fresh) pid its lease names.
    // `NOC_CHAOS_ITERS` rounds, so a soak run can keep deposing each
    // takeover in turn; the sweep may legitimately finish early once at
    // least one kill has landed.
    let timeout = chaos_timeout_secs();
    let mut killed: Vec<u32> = Vec::new();
    'rounds: for _ in 0..chaos_iters() {
        let deadline = Instant::now() + Duration::from_secs(timeout);
        let victim = loop {
            if shard_points(&ckpt) >= 1 {
                if let Ok(Some(lease)) = read_lease(&lease_path(path_str(&ckpt), 0)) {
                    if !killed.contains(&lease.pid) {
                        break lease.pid;
                    }
                }
            }
            if let Some(status) = child.try_wait().expect("poll supervisor") {
                assert!(
                    !killed.is_empty(),
                    "sweep finished before a worker could be killed: {status:?}"
                );
                break 'rounds;
            }
            assert!(
                Instant::now() < deadline,
                "no fresh lease + journaled point in {timeout}s"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        sigkill(victim);
        killed.push(victim);
    }

    let status = wait_within(
        &mut child,
        2 * timeout,
        "supervised sweep after worker kill",
    );
    let stderr = read_stderr(&mut child);
    assert!(status.success(), "sweep must survive the kill: {stderr}");
    assert!(
        metric(&stderr, "worker_crashes") >= 1,
        "the kill must be counted: {stderr}"
    );
    assert!(
        metric(&stderr, "lease_takeovers") >= 1,
        "the shard must be re-claimed: {stderr}"
    );
    assert_eq!(metric(&stderr, "quarantined"), 0, "{stderr}");
    assert_eq!(
        reference,
        std::fs::read(&csv).expect("read out.csv"),
        "artifacts after a worker kill must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A point that SIGABRTs every worker that starts it must be
/// quarantined after `--crash-limit` kills: the sweep completes with a
/// `poisoned(...)` row for that point, every other row identical to the
/// reference, and exit code 4 (partial completion) — never an abort.
#[test]
fn a_worker_killing_point_is_quarantined_with_exit_4() {
    let dir = tmp_dir("quarantine");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, FAST_SPEC).expect("write spec");
    let reference = reference_csv(&spec, &dir.join("ref.csv"));

    let csv = dir.join("out.csv");
    let out = sweep_cmd()
        .args(["--spec", path_str(&spec)])
        .args(["--workers", "2"])
        .args(["--crash-limit", "2"])
        .args(["--lease-timeout-ms", "400"])
        .args(["--csv-out", path_str(&csv)])
        .env("NOC_SWEEP_TEST_ABORT_POINT", "5")
        .stdout(Stdio::null())
        .output()
        .expect("run poisoned sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "quarantine must exit 4 (partial completion): {stderr}"
    );
    assert_eq!(metric(&stderr, "quarantined"), 1, "{stderr}");
    assert!(metric(&stderr, "worker_crashes") >= 2, "{stderr}");

    let got = std::fs::read_to_string(&csv).expect("read out.csv");
    let reference = String::from_utf8(reference).expect("utf8 reference");
    let ref_lines: Vec<&str> = reference.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(ref_lines.len(), got_lines.len(), "row count must match");
    for (i, (r, g)) in ref_lines.iter().zip(&got_lines).enumerate() {
        if i == 6 {
            // Header + rows 0..5: line 6 is point index 5, the poisoned one.
            assert!(g.starts_with("5,"), "row order broken: {g}");
            assert!(
                g.contains(",poisoned(killed worker x2),2,"),
                "the quarantined row must say so: {g}"
            );
        } else {
            assert_eq!(r, g, "non-quarantined row {i} must be untouched");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The result cache: a second supervised run (at a different worker
/// count) serves every point from cache with identical bytes; a
/// corrupted entry is detected by its digest, recomputed, and
/// re-stored — never served.
#[test]
fn cache_reuse_and_corruption_recovery() {
    let dir = tmp_dir("cache");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, FAST_SPEC).expect("write spec");
    let cache = dir.join("cache");
    let reference = reference_csv(&spec, &dir.join("ref.csv"));

    let run = |csv: &Path, workers: &str| {
        let out = sweep_cmd()
            .args(["--spec", path_str(&spec)])
            .args(["--workers", workers])
            .args(["--cache", path_str(&cache)])
            .args(["--csv-out", path_str(csv)])
            .stdout(Stdio::null())
            .output()
            .expect("run cached sweep");
        assert!(out.status.success(), "cached sweep failed");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // Cold: every point computed and stored.
    let stderr = run(&dir.join("a.csv"), "2");
    assert_eq!(metric(&stderr, "cache_hits"), 0, "{stderr}");
    assert_eq!(metric(&stderr, "cache_corrupt"), 0, "{stderr}");

    // Warm, different worker count: all 12 points served from cache.
    let stderr = run(&dir.join("b.csv"), "3");
    assert_eq!(metric(&stderr, "cache_hits"), 12, "{stderr}");
    assert_eq!(
        reference,
        std::fs::read(dir.join("b.csv")).expect("read b.csv"),
        "cached rows must be byte-identical"
    );

    // Corrupt one entry's payload (the digest header stays intact, so
    // only verification can catch it).
    let entry = std::fs::read_dir(&cache)
        .expect("read cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .next()
        .expect("cache has entries");
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("entry has a header line");
    bytes[nl + 10] ^= 0x01;
    std::fs::write(&entry, bytes).expect("write corrupted entry");

    let stderr = run(&dir.join("c.csv"), "2");
    assert_eq!(metric(&stderr, "cache_corrupt"), 1, "{stderr}");
    assert_eq!(metric(&stderr, "cache_hits"), 11, "{stderr}");
    assert_eq!(
        reference,
        std::fs::read(dir.join("c.csv")).expect("read c.csv"),
        "a corrupted entry must be recomputed, not served"
    );

    // The recompute re-stored the entry: a fourth run hits all 12.
    let stderr = run(&dir.join("d.csv"), "2");
    assert_eq!(metric(&stderr, "cache_hits"), 12, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-process placement runs its points through the same cache: a
/// cold run of the committed smoke sweep stores all 12 points, a warm
/// run serves all 12, and both reproduce the committed golden rows.
#[test]
fn in_process_cache_serves_a_warm_rerun_byte_for_byte() {
    let dir = tmp_dir("inproc-cache");
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let golden = std::fs::read(specs.join("smoke.golden.csv")).expect("read golden");
    let cache = dir.join("cache");
    let run = |csv: &Path| {
        let out = sweep_cmd()
            .args(["--spec", path_str(&specs.join("smoke.json"))])
            .args(["--threads", "2"])
            .args(["--cache", path_str(&cache)])
            .args(["--csv-out", path_str(csv)])
            .output()
            .expect("run cached in-process sweep");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "cached sweep failed: {stderr}");
        assert_eq!(golden, std::fs::read(csv).expect("read csv"), "{stderr}");
        stderr
    };
    let stderr = run(&dir.join("cold.csv"));
    assert_eq!(metric(&stderr, "cache_hits"), 0, "{stderr}");
    let stderr = run(&dir.join("warm.csv"));
    assert_eq!(metric(&stderr, "cache_hits"), 12, "{stderr}");
    assert_eq!(metric(&stderr, "cache_corrupt"), 0, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill the *supervisor* (and its orphaned workers) mid-run, then
/// `--resume` with `resume_args`: the resume must harvest the completed
/// points from the orphaned shard journals and finish with
/// byte-identical artifacts and no leftover coordination files.
fn resume_after_killed_supervisor(name: &str, resume_args: &[&str]) {
    let dir = tmp_dir(name);
    let spec = dir.join("spec.json");
    std::fs::write(&spec, SLOW_SPEC).expect("write spec");
    let reference = reference_csv(&spec, &dir.join("ref.csv"));

    let csv = dir.join("out.csv");
    let ckpt = dir.join("out.csv.ckpt");
    let mut child = sweep_cmd()
        .args(["--spec", path_str(&spec)])
        .args(["--workers", "2"])
        .args(["--lease-timeout-ms", "600"])
        .args(["--csv-out", path_str(&csv)])
        .arg("--quiet")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervised sweep");

    let timeout = chaos_timeout_secs();
    let deadline = Instant::now() + Duration::from_secs(timeout);
    while shard_points(&ckpt) < 2 {
        if let Some(status) = child.try_wait().expect("poll supervisor") {
            panic!("sweep finished before the supervisor could be killed: {status:?}");
        }
        assert!(Instant::now() < deadline, "no shard progress in {timeout}s");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the supervisor");
    child.wait().expect("reap the supervisor");
    // The workers are orphans now; kill them too (machine-crash shape).
    for shard in 0..2 {
        if let Ok(Some(lease)) = read_lease(&lease_path(path_str(&ckpt), shard)) {
            sigkill(lease.pid);
        }
    }
    std::thread::sleep(Duration::from_millis(300));
    assert!(!csv.exists(), "the victim died before writing artifacts");

    let out = sweep_cmd()
        .args(["--spec", path_str(&spec)])
        .args(resume_args)
        .args(["--csv-out", path_str(&csv)])
        .arg("--resume")
        .output()
        .expect("run resumed sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume failed: {stderr}");
    // At least the two rows the kill waited for come from the shard
    // journals, not from a recompute.
    let harvested: usize = stderr
        .lines()
        .find_map(|l| l.strip_prefix("resume: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no resume line in stderr:\n{stderr}"));
    assert!(harvested >= 2, "shard rows were not harvested: {stderr}");
    assert_eq!(
        reference,
        std::fs::read(&csv).expect("read out.csv"),
        "resumed artifacts must be byte-identical"
    );
    assert!(
        !coordination_files_remain(&ckpt),
        "resume must clean up harvested shard files"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_supervisor_resumes_by_harvesting_shard_journals() {
    resume_after_killed_supervisor("supkill", &["--workers", "2"]);
}

/// The same crash resumed *without* worker processes: the in-process
/// placement shares the preparation step, so it harvests the shard
/// journals too instead of recomputing their rows.
#[test]
fn killed_supervisor_resumes_in_process_by_harvesting_shard_journals() {
    resume_after_killed_supervisor("supkill-inproc", &["--threads", "2"]);
}
