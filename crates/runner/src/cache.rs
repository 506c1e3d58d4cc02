//! A content-addressed, digest-verified result cache for sweep points.
//!
//! Overlapping sweeps and re-runs of the same spec keep recomputing
//! identical points. The cache stores one file per completed point,
//! named by a 128-bit key over `(spec hash, point index, seed,
//! attempt)` — everything that determines a point's bytes, and nothing
//! that does not (thread count, workers, resume history are all
//! excluded by construction). Because the payload is the journal's own
//! bit-exact record serialisation, a cache hit reproduces the row
//! **byte-identically**; the cache can never change an artifact, only
//! skip the simulation that would have produced it.
//!
//! Entries are *verified, never trusted*: each file carries an FNV
//! digest of its payload, checked on every lookup. A corrupted entry
//! (bit rot, torn write from a crashed writer, truncation) reads as
//! [`CacheLookup::Corrupt`]; the caller recomputes the point and the
//! store overwrites the bad entry. Rows whose status depends on
//! wall-clock — `timeout(wall>...)` — are never cached, because they
//! are not a pure function of the key.
//!
//! [`run_point_cached`] is the one point task of a sweep: the in-process
//! thread pool and every worker process run their points through it, so
//! a cache warmed by either placement serves the other.
//!
//! Entry format, two lines:
//!
//! ```text
//! noc-sweep-cache v2\tdigest=<16 hex>
//! point\t...record fields...\t<trail>
//! ```

use std::fs::File;
use std::io::Write as _;

use noc::digest::StateHasher;

use crate::journal::fsync_parent_dir;
use crate::point::{run_point_full, PointOutcome, PointRecord, PointSpec};
use crate::protocol::{parse_point_line, point_line};

/// A cache directory that cannot be created or written.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "result cache: {}", self.message)
    }
}

impl std::error::Error for CacheError {}

fn err<T>(message: impl Into<String>) -> Result<T, CacheError> {
    Err(CacheError {
        message: message.into(),
    })
}

const MAGIC: &str = "noc-sweep-cache v2";

/// Second-lane salt so the two 64-bit FNV lanes of the key are
/// independent functions of the same fields (a single lane's collision
/// probability over million-point grids is not comfortable; two lanes'
/// is negligible).
const LANE2_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The outcome of a cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A verified entry: the digest matched and the payload parsed.
    /// (Boxed: the outcome dwarfs the other variants.)
    Hit(Box<PointOutcome>),
    /// No entry under this key.
    Miss,
    /// An entry exists but failed verification (digest mismatch, bad
    /// magic, or unparseable payload). The caller must recompute and
    /// may overwrite the entry.
    Corrupt,
}

fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = StateHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// A directory of verified point results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: String,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn open(dir: &str) -> Result<ResultCache, CacheError> {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return err(format!("cannot create cache dir {dir}: {e}"));
        }
        Ok(ResultCache {
            dir: dir.to_string(),
        })
    }

    /// The 128-bit content address of one point computation, as 32 hex
    /// digits: two independent FNV-1a lanes over `(spec_hash, index,
    /// seed, attempt)`.
    pub fn key(spec_hash: u64, index: usize, seed: u64, attempt: u32) -> String {
        let mut a = StateHasher::new();
        a.write_u64(spec_hash);
        a.write_usize(index);
        a.write_u64(seed);
        a.write_u32(attempt);
        let mut b = StateHasher::new();
        b.write_u64(LANE2_SALT);
        b.write_u64(spec_hash);
        b.write_usize(index);
        b.write_u64(seed);
        b.write_u32(attempt);
        format!("{:016x}{:016x}", a.finish(), b.finish())
    }

    fn entry_path(&self, key: &str) -> String {
        format!("{}/{key}", self.dir)
    }

    /// Whether a record may be cached at all: rows whose status encodes
    /// a wall-clock event are not pure functions of the cache key and
    /// must always be recomputed.
    pub fn cacheable(record: &PointRecord) -> bool {
        !record.status.starts_with("timeout(wall>")
    }

    /// Probes the cache. Never fails: an unreadable or unverifiable
    /// entry degrades to [`CacheLookup::Corrupt`], an absent one to
    /// [`CacheLookup::Miss`] — the caller recomputes either way.
    pub fn lookup(&self, key: &str) -> CacheLookup {
        let text = match std::fs::read_to_string(self.entry_path(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(_) => return CacheLookup::Corrupt,
        };
        let Some((header, payload)) = text.split_once('\n') else {
            return CacheLookup::Corrupt;
        };
        let Some(digest) = header
            .strip_prefix(MAGIC)
            .and_then(|rest| rest.strip_prefix("\tdigest="))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        else {
            return CacheLookup::Corrupt;
        };
        let payload = payload.strip_suffix('\n').unwrap_or(payload);
        if fnv_of(payload.as_bytes()) != digest {
            return CacheLookup::Corrupt;
        }
        match parse_point_line(payload) {
            Some(outcome) => CacheLookup::Hit(Box::new(outcome)),
            None => CacheLookup::Corrupt,
        }
    }

    /// Stores (or overwrites) the entry for `key`. Silently skips
    /// non-[`cacheable`](ResultCache::cacheable) rows. The write is
    /// atomic — temp file, fsync, rename, directory fsync — so a
    /// concurrent reader sees the old entry or the new one, never a
    /// torn one.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing the entry.
    pub fn store(&self, key: &str, outcome: &PointOutcome) -> Result<(), CacheError> {
        if !ResultCache::cacheable(&outcome.record) {
            return Ok(());
        }
        let payload = point_line(outcome);
        let contents = format!(
            "{MAGIC}\tdigest={:016x}\n{payload}\n",
            fnv_of(payload.as_bytes())
        );
        let path = self.entry_path(key);
        let tmp = format!("{path}.tmp.{}", std::process::id());
        let mut file = match File::create(&tmp) {
            Ok(f) => f,
            Err(e) => return err(format!("cannot create {tmp}: {e}")),
        };
        if let Err(e) = file
            .write_all(contents.as_bytes())
            .and_then(|()| file.sync_data())
        {
            return err(format!("cannot write {tmp}: {e}"));
        }
        drop(file);
        if let Err(e) = std::fs::rename(&tmp, &path) {
            return err(format!("cannot rename {tmp} over {path}: {e}"));
        }
        match fsync_parent_dir(&path) {
            Ok(()) => Ok(()),
            Err(e) => err(e.message),
        }
    }
}

/// What the cache contributed to a run of points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Points served from a verified entry.
    pub hits: u64,
    /// Entries that failed verification, or described another point,
    /// and were recomputed.
    pub corrupt: u64,
}

impl std::ops::AddAssign for CacheCounts {
    fn add_assign(&mut self, other: CacheCounts) {
        self.hits += other.hits;
        self.corrupt += other.corrupt;
    }
}

/// Runs point `p` of the sweep whose spec hashes to `spec_hash`, through
/// `cache` when there is one: a verified entry naming this very point
/// is served as is; a miss, a corrupted entry or an entry for another
/// point is recomputed with [`run_point_full`] and stored. Returns the
/// outcome plus what the cache contributed.
pub fn run_point_cached(
    cache: Option<&ResultCache>,
    spec_hash: u64,
    p: &PointSpec,
) -> (PointOutcome, CacheCounts) {
    let mut counts = CacheCounts::default();
    let Some(cache) = cache else {
        return (run_point_full(p), counts);
    };
    let key = ResultCache::key(spec_hash, p.index, p.seed, 0);
    match cache.lookup(&key) {
        // Trust a verified entry only if it describes this exact point —
        // a key collision must degrade to a recompute, not a wrong row.
        CacheLookup::Hit(o) if o.record.index == p.index && o.record.seed == p.seed => {
            counts.hits = 1;
            return (*o, counts);
        }
        CacheLookup::Miss => {}
        CacheLookup::Hit(_) | CacheLookup::Corrupt => counts.corrupt = 1,
    }
    let fresh = run_point_full(p);
    if let Err(e) = cache.store(&key, &fresh) {
        // Cache writes are an optimisation; losing one must not kill the
        // sweep.
        eprintln!("warning: {e}");
    }
    (fresh, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::Organization;
    use crate::spec::SweepSpec;

    fn sample_outcome(index: usize) -> PointOutcome {
        let p = SweepSpec::new("c")
            .orgs(&[Organization::Mesh])
            .points()
            .remove(0);
        let mut record = p.failed_record("sample row");
        record.index = index;
        record.status = "ok".to_string();
        record.avg_latency = 1.0 / 3.0;
        PointOutcome {
            record,
            trail: vec![(100, 0xdead_beef)],
        }
    }

    fn tmp_cache(name: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("noc-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(&dir.to_string_lossy()).expect("open cache")
    }

    #[test]
    fn miss_store_hit_round_trips_bit_exactly() {
        let cache = tmp_cache("roundtrip");
        let key = ResultCache::key(0xabcd, 3, 42, 0);
        assert_eq!(cache.lookup(&key), CacheLookup::Miss);
        let outcome = sample_outcome(3);
        cache.store(&key, &outcome).expect("store");
        assert_eq!(cache.lookup(&key), CacheLookup::Hit(Box::new(outcome)));
    }

    #[test]
    fn corruption_is_detected_and_overwritable() {
        let cache = tmp_cache("corrupt");
        let key = ResultCache::key(1, 0, 7, 0);
        let outcome = sample_outcome(0);
        cache.store(&key, &outcome).expect("store");
        // Flip one payload byte: the digest must catch it.
        let path = format!("{}/{key}", cache.dir);
        let mut bytes = std::fs::read(&path).expect("read entry");
        let at = bytes.len() - 3;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt entry");
        assert_eq!(cache.lookup(&key), CacheLookup::Corrupt);
        // Truncation (a torn writer) is also corruption, not a hit.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate entry");
        assert_eq!(cache.lookup(&key), CacheLookup::Corrupt);
        // Recompute-and-store heals the entry.
        cache.store(&key, &outcome).expect("overwrite");
        assert_eq!(cache.lookup(&key), CacheLookup::Hit(Box::new(outcome)));
    }

    #[test]
    fn wall_clock_rows_are_never_cached() {
        let cache = tmp_cache("wallclock");
        let key = ResultCache::key(2, 1, 9, 0);
        let mut outcome = sample_outcome(1);
        outcome.record.status = "timeout(wall>1000ms)".to_string();
        assert!(!ResultCache::cacheable(&outcome.record));
        cache.store(&key, &outcome).expect("store is a no-op");
        assert_eq!(cache.lookup(&key), CacheLookup::Miss);
        // Deterministic cycle-budget timeouts, by contrast, are pure
        // functions of the key and are cached.
        let mut outcome = sample_outcome(1);
        outcome.record.status = "timeout(cycles>5000)".to_string();
        assert!(ResultCache::cacheable(&outcome.record));
    }

    #[test]
    fn every_key_field_changes_the_address() {
        let base = ResultCache::key(10, 20, 30, 0);
        assert_eq!(base.len(), 32);
        let mut seen = std::collections::BTreeSet::new();
        assert!(seen.insert(base));
        assert!(seen.insert(ResultCache::key(11, 20, 30, 0)), "spec hash");
        assert!(seen.insert(ResultCache::key(10, 21, 30, 0)), "index");
        assert!(seen.insert(ResultCache::key(10, 20, 31, 0)), "seed");
        assert!(seen.insert(ResultCache::key(10, 20, 30, 1)), "attempt");
    }
}
