//! The crash-safe sweep checkpoint journal (I/O layer).
//!
//! A sweep journals every completed point to `<artifact>.ckpt` as it
//! lands: one self-describing header line, then one append-only,
//! fsync'd line per finished point. If the process dies — OOM kill,
//! power loss, ^C — `sweep --resume` replays the journal, skips every
//! point already on disk, and runs only the remainder. Because each
//! line round-trips the full [`PointRecord`] **exactly** (floats are
//! stored as `f64::to_bits` hex, not decimal), the final CSV/JSON
//! artifacts are byte-identical whether the sweep ran once or was
//! killed and resumed arbitrarily often.
//!
//! Format, one record per line, tab-separated:
//!
//! ```text
//! noc-sweep-ckpt v1\tspec_hash=<hex>\tbase_seed=<dec>\tcount=<dec>\tname=<escaped>
//! point\t<index>\t...record fields...\t<trail>
//! ```
//!
//! A torn final line (the crash happened mid-append) is tolerated and
//! simply dropped — even when the tear lands inside a multi-byte UTF-8
//! character in an escaped field; everything before it is trusted,
//! because each append is flushed with `sync_data` before the runner
//! moves on. A resume never appends behind a torn tail: it rewrites the
//! trusted rows into a fresh journal and renames it over the old one
//! (`runner::supervisor::prepare`), so a journal can be killed and
//! resumed arbitrarily often without a torn tail ever swallowing the
//! next record.
//!
//! All decisions — serialisation, trusted-prefix computation, torn-tail
//! vs corruption — live in the pure [`crate::protocol`] module, which
//! the `analyzer` crate's model checker explores directly. This module
//! only does the reads, writes, and fsyncs.

use std::fs::File;
use std::io::Write as _;

use crate::point::PointOutcome;
use crate::protocol::{
    header_line, point_line, replay_journal_bytes, start_line, JournalDialect, JournalReplay,
};

#[cfg(doc)]
use crate::point::PointRecord;

pub use crate::protocol::JournalHeader;

use std::collections::BTreeMap;

/// A journal that cannot be written, read, or parsed.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint journal: {}", self.message)
    }
}

impl std::error::Error for JournalError {}

fn err<T>(message: impl Into<String>) -> Result<T, JournalError> {
    Err(JournalError {
        message: message.into(),
    })
}

/// Makes the *directory entry* of `path` durable.
///
/// `sync_data` on a freshly created file persists its bytes, but not the
/// name that points at them — after a power loss the fsync'd journal can
/// simply not exist in its directory. POSIX answers with "fsync the
/// parent directory"; this helper does exactly that (and is shared by
/// the lease and cache modules, which create files with the same
/// durability contract).
pub(crate) fn fsync_parent_dir(path: &str) -> Result<(), JournalError> {
    let parent = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(
            || std::path::PathBuf::from("."),
            std::path::Path::to_path_buf,
        );
    match File::open(&parent) {
        Ok(dir) => match dir.sync_all() {
            Ok(()) => Ok(()),
            Err(e) => err(format!("cannot fsync directory {}: {e}", parent.display())),
        },
        Err(e) => err(format!("cannot open directory {}: {e}", parent.display())),
    }
}

/// An open, append-mode journal. Every append hits the disk before it
/// returns — a point the caller believes is journaled *is* journaled.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, or syncing the file.
    pub fn create(path: &str, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        let mut file = match File::create(path) {
            Ok(f) => f,
            Err(e) => return err(format!("cannot create {path}: {e}")),
        };
        let line = header_line(header);
        if let Err(e) = file
            .write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
        {
            return err(format!("cannot write header to {path}: {e}"));
        }
        // The file's bytes are durable; now make its *name* durable too,
        // or a crash right here can leave a synced journal that simply
        // is not in the directory after reboot.
        fsync_parent_dir(path)?;
        Ok(JournalWriter { file })
    }

    /// Appends a `start` marker: point `index` is about to run in this
    /// process. Synced before the point starts, so a crash mid-point
    /// leaves a dangling marker naming the culprit — this is how the
    /// multi-process supervisor attributes a worker's death to the point
    /// that killed it (and quarantines repeat offenders).
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing.
    pub fn append_start(&mut self, index: usize) -> Result<(), JournalError> {
        let mut line = start_line(index);
        line.push('\n');
        match self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
        {
            Ok(()) => Ok(()),
            Err(e) => err(format!("cannot append start marker: {e}")),
        }
    }

    /// Appends one completed point and syncs it to disk.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing.
    pub fn append(&mut self, outcome: &PointOutcome) -> Result<(), JournalError> {
        let mut line = point_line(outcome);
        line.push('\n');
        match self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
        {
            Ok(()) => Ok(()),
            Err(e) => err(format!("cannot append point: {e}")),
        }
    }
}

/// A successfully replayed journal.
#[derive(Debug, Clone)]
pub struct LoadedJournal {
    /// The journal's self-describing header.
    pub header: JournalHeader,
    /// Every fully-written point, keyed by grid index.
    pub done: BTreeMap<usize, PointOutcome>,
}

/// A replayed worker shard journal: the completed points plus the
/// `start` marker left dangling by a crash, if any.
#[derive(Debug, Clone)]
pub struct WorkerJournal {
    /// The journal's self-describing header (same format as the main
    /// journal's — a shard journal is bound to the same spec).
    pub header: JournalHeader,
    /// Every fully-written point, keyed by grid index.
    pub done: BTreeMap<usize, PointOutcome>,
    /// The point a `start` marker named without a completed record
    /// following it — the point the worker was running when it died.
    pub dangling_start: Option<usize>,
}

/// Reads `path` and replays it through the pure
/// [`replay_journal_bytes`], prefixing any decode error with the path.
fn replay_file(path: &str, dialect: JournalDialect) -> Result<JournalReplay, JournalError> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) => return err(format!("cannot read {path}: {e}")),
    };
    match replay_journal_bytes(&data, dialect) {
        Ok(replay) => Ok(replay),
        Err(e) => err(format!("{path}: {}", e.message)),
    }
}

/// Replays a journal: the header plus every fully-written point, keyed
/// by grid index. A torn final line is dropped silently (that is the
/// expected crash artifact) — the file is read as bytes and decoded per
/// line, so a tear inside a multi-byte character is still just a torn
/// tail. A torn line *followed by more lines* means the file is
/// corrupt, not truncated, and is an error.
///
/// # Errors
///
/// Unreadable file, bad magic, malformed header, or mid-file corruption.
pub fn load_journal(path: &str) -> Result<LoadedJournal, JournalError> {
    let replay = replay_file(path, JournalDialect::Main)?;
    debug_assert!(
        replay.dangling_start.is_none(),
        "start markers are rejected above"
    );
    Ok(LoadedJournal {
        header: replay.header,
        done: replay.done,
    })
}

/// Replays a worker shard journal, which interleaves `start` markers
/// with completed points. The dangling marker (started, never finished)
/// is how the supervisor names the point that killed the worker.
///
/// # Errors
///
/// Same contract as [`load_journal`].
pub fn load_worker_journal(path: &str) -> Result<WorkerJournal, JournalError> {
    let replay = replay_file(path, JournalDialect::WorkerShard)?;
    Ok(WorkerJournal {
        header: replay.header,
        done: replay.done,
        dangling_start: replay.dangling_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::Organization;
    use crate::protocol::point_line;
    use crate::spec::SweepSpec;

    fn sample_outcome(index: usize) -> PointOutcome {
        let p = SweepSpec::new("j")
            .orgs(&[Organization::Mesh])
            .points()
            .remove(0);
        let mut record = p.failed_record("tab\there, comma, done");
        record.index = index;
        record.rate = 0.1 + 0.2; // a float that does not round-trip via decimal
        record.avg_latency = 1.0 / 3.0;
        PointOutcome {
            record,
            trail: vec![(100, 0xdead_beef), (200, 0xcafe)],
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("noc-journal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir tempdir");
        dir.join("sweep.ckpt").to_string_lossy().into_owned()
    }

    fn header() -> JournalHeader {
        JournalHeader {
            spec_hash: 0x1234_5678_9abc_def0,
            base_seed: 42,
            count: 3,
            name: "smoke test".to_string(),
        }
    }

    #[test]
    fn round_trips_records_exactly() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        let a = sample_outcome(0);
        let b = sample_outcome(2);
        w.append(&a).expect("append a");
        w.append(&b).expect("append b");
        drop(w);
        let j = load_journal(&path).expect("load");
        assert_eq!(j.header, header());
        assert_eq!(j.done.len(), 2);
        assert_eq!(j.done[&0], a, "bit-exact round-trip, floats included");
        assert_eq!(j.done[&2], b);
    }

    #[test]
    fn a_torn_final_line_is_dropped() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append(&sample_outcome(0)).expect("append");
        w.append(&sample_outcome(1)).expect("append");
        drop(w);
        // Simulate a crash mid-append: cut the file mid-way through the
        // last line.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - 17;
        std::fs::write(&path, &text[..cut]).expect("truncate");
        let j = load_journal(&path).expect("torn tail tolerated");
        assert_eq!(j.done.len(), 1, "only the fully-synced point survives");
        assert!(j.done.contains_key(&0));
    }

    #[test]
    fn a_tear_inside_a_multibyte_character_is_still_a_torn_tail() {
        let path = tmp("multibyte");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append(&sample_outcome(0)).expect("append");
        let mut snowy = sample_outcome(1);
        snowy.record.status = "failed(panic: déjà-vu ☃)".to_string();
        w.append(&snowy).expect("append multibyte");
        drop(w);
        // Cut one byte into the snowman (a 3-byte character): the file
        // is no longer valid UTF-8 end to end, but the journal must
        // still load, dropping only the torn line.
        let bytes = std::fs::read(&path).expect("read");
        let snowman = "☃".as_bytes();
        let at = bytes
            .windows(snowman.len())
            .rposition(|w| w == snowman)
            .expect("snowman serialised");
        std::fs::write(&path, &bytes[..at + 1]).expect("tear mid-character");
        let j = load_journal(&path).expect("mid-character tear tolerated");
        assert_eq!(j.done.len(), 1, "only the fully-synced point survives");
        assert!(j.done.contains_key(&0));
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_skip() {
        let path = tmp("corrupt");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append(&sample_outcome(0)).expect("append");
        drop(w);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("point\tgarbage\n");
        let good = point_line(&sample_outcome(1));
        text.push_str(&good);
        text.push('\n');
        std::fs::write(&path, text).expect("rewrite");
        let e = load_journal(&path).expect_err("corruption must not be silent");
        assert!(e.message.contains("corrupt line"), "{e}");
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("badheader");
        std::fs::write(&path, "not a journal\n").expect("write");
        assert!(load_journal(&path).is_err());
    }

    #[test]
    fn a_dangling_start_marker_names_the_crashed_point() {
        let path = tmp("dangling");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append_start(0).expect("start 0");
        w.append(&sample_outcome(0)).expect("finish 0");
        w.append_start(7).expect("start 7");
        drop(w); // simulated SIGKILL mid-point
        let j = load_worker_journal(&path).expect("load worker journal");
        assert_eq!(j.header, header());
        assert_eq!(j.done.len(), 1);
        assert!(j.done.contains_key(&0));
        assert_eq!(
            j.dangling_start,
            Some(7),
            "the unfinished point is the culprit"
        );
    }

    #[test]
    fn a_completed_point_clears_its_start_marker() {
        let path = tmp("cleared");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append_start(3).expect("start");
        w.append(&sample_outcome(3)).expect("finish");
        drop(w);
        let j = load_worker_journal(&path).expect("load");
        assert_eq!(j.dangling_start, None, "a clean exit leaves no culprit");
        assert!(j.done.contains_key(&3));
    }

    #[test]
    fn a_torn_start_marker_is_dropped_not_attributed() {
        let path = tmp("tornstart");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append(&sample_outcome(1)).expect("append");
        drop(w);
        // A crash inside the marker write itself: "start\t12" with no
        // newline. Nothing actually started, so no point is blamed.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"start\t12");
        std::fs::write(&path, bytes).expect("tear");
        let j = load_worker_journal(&path).expect("torn marker tolerated");
        assert_eq!(j.dangling_start, None);
        assert_eq!(j.done.len(), 1);
    }

    #[test]
    fn the_main_journal_loader_rejects_interleaved_start_markers() {
        // `start` lines are a worker-shard dialect; in the merged main
        // journal a mid-file one is corruption, same as any other
        // unparseable interior line.
        let path = tmp("strict");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        w.append_start(2).expect("start");
        w.append(&sample_outcome(2)).expect("finish");
        drop(w);
        let e = load_journal(&path).expect_err("strict loader must balk");
        assert!(e.message.contains("corrupt line"), "{e}");
        // But the worker loader reads the same bytes happily.
        assert!(load_worker_journal(&path).is_ok());
    }
}
