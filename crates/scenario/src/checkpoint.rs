//! Crash-safe persistence for the route server: snapshots + write-ahead
//! log.
//!
//! The durability contract mirrors a classic redo log.  Every churn event
//! is appended to the WAL *before* it is applied, and every `N` events the
//! server writes a snapshot (the topology shape, the weight overrides, the
//! still-pending batch, the lifetime counters and the answers-digest
//! state) and truncates the WAL.  A snapshot holds the network, not its
//! routing table: the serve algebras are strictly increasing, so the table
//! is the unique fixed point of the shape and the overrides, and σ reaches
//! it from any start.  Recovery loads the snapshot, converges the table
//! once from the identity (as a fresh server does), replays the WAL tail
//! through the *normal* submit path, and resumes the trace at
//! `snapshot.offset + wal.len()` — so a recovered replay lands on
//! byte-identical digests (`BENCH_serve.json` minus `timing`) no matter
//! where the process died.
//!
//! Integrity is enforced at both granularities:
//!
//! * the snapshot carries a trailing FNV-1a digest over its entire body —
//!   any tampering is detected and recovery refuses the file;
//! * each WAL record carries a per-record checksum.  A damaged *final*
//!   record is a torn write: it is dropped, which is safe because the
//!   trace re-supplies the event at that offset.  A damaged *interior*
//!   record means silent history loss, so recovery fails with a
//!   structured error instead of diverging.
//!
//! Formats are versioned line-oriented text (`# dbf-checkpoint v2`,
//! `# dbf-wal v1`), written atomically (temp file + rename) for the
//! snapshot and append-plus-flush for the WAL.  A `v1` snapshot, written
//! by older builds, also carried the table as `row` records; the reader
//! still accepts it and skips them as derived data.  "Flush" is to the OS:
//! nothing here calls `fsync`, so the store is **process-crash safe, not
//! power-loss safe** — a killed process loses nothing the OS had
//! accepted, a machine that loses power may lose the page cache.

use crate::report::Digest;
use crate::spec::finite_weight;
use dbf_matrix::blocked::decimal;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// Header line (and version gate) of the snapshot file.
const SNAPSHOT_HEADER: &str = "# dbf-checkpoint v2";
/// Header of the snapshots older builds wrote: the same records plus the
/// routing table's `row` records, which the reader skips.
const SNAPSHOT_HEADER_V1: &str = "# dbf-checkpoint v1";
/// Header line (and version gate) of the write-ahead log.
const WAL_HEADER: &str = "# dbf-wal v1";
/// Snapshot file name inside the checkpoint directory.
const SNAPSHOT_FILE: &str = "snapshot.ckpt";
/// WAL file name inside the checkpoint directory.
const WAL_FILE: &str = "events.wal";

/// Everything a route server needs to resume exactly where it stopped.
///
/// There is no routing table here: it is the unique fixed point of the
/// shape and the overrides, which a restored server converges to.  Note
/// the *pending* batch is persisted rather than force-flushed: batching
/// alignment (and hence `stats.batches`) stays identical to an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The next trace event index to process.
    pub offset: u64,
    /// Algebra tag (`hopcount <limit>` / `shortest`) — recovery refuses a
    /// snapshot taken under a different algebra.
    pub algebra: String,
    /// Node count of shape and state.
    pub nodes: usize,
    /// Directed edges of the weightless shape, sorted.
    pub edges: Vec<(usize, usize)>,
    /// Per-edge weight overrides (`set_weight` events), sorted.
    pub overrides: Vec<(usize, usize, u64)>,
    /// The pending (unflushed) batch, one change per line in the trace
    /// vocabulary.
    pub pending: Vec<String>,
    /// Deterministic lifetime counters, in the order
    /// `[changes, queries, batches, naive_dirty_rows, batch_dirty_rows,
    ///   rounds, row_recomputations, worst_flush_rounds,
    ///   worst_flush_bound, bound_ok]`.
    pub stats: [u64; 10],
    /// The FNV state of the answers digest at `offset`.
    pub answers_state: u64,
}

impl Snapshot {
    /// Render the full document: body plus trailing integrity digest.
    pub fn to_text(&self) -> String {
        let lines = self.edges.len() + self.overrides.len() + self.pending.len();
        let mut out = String::with_capacity(24 * lines + 256);
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        let _ = writeln!(out, "offset {}", self.offset);
        let _ = writeln!(out, "algebra {}", self.algebra);
        let _ = writeln!(out, "nodes {}", self.nodes);
        out.push_str("stats");
        for v in &self.stats {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
        let _ = writeln!(out, "answers {}", self.answers_state);
        let mut digits = [0; 20];
        for &(a, b) in &self.edges {
            out.push_str("edge ");
            out.push_str(decimal(a as u64, &mut digits));
            out.push(' ');
            out.push_str(decimal(b as u64, &mut digits));
            out.push('\n');
        }
        for (a, b, w) in &self.overrides {
            let _ = writeln!(out, "override {a} {b} {w}");
        }
        for line in &self.pending {
            let _ = writeln!(out, "pending {line}");
        }
        // the digest covers everything before its own line
        let mut d = Digest::default();
        d.update(&out);
        let _ = writeln!(out, "digest {}", d.finish());
        out
    }

    /// Parse and verify a snapshot document.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let digest_at = text
            .rfind("digest ")
            .ok_or("checkpoint has no integrity digest")?;
        let (body, tail) = text.split_at(digest_at);
        let claimed = tail
            .trim_start_matches("digest ")
            .trim_end_matches('\n')
            .trim();
        let mut d = Digest::default();
        d.update(body);
        if d.finish() != claimed {
            return Err(format!(
                "checkpoint integrity digest mismatch (file says {claimed}, body hashes to {})",
                d.finish()
            ));
        }
        let mut lines = body.lines();
        let v1 = match lines.next().map(str::trim) {
            Some(SNAPSHOT_HEADER) => false,
            Some(SNAPSHOT_HEADER_V1) => true,
            other => return Err(format!("not a checkpoint (header {other:?})")),
        };
        let mut offset = None;
        let mut algebra = None;
        let mut nodes = None;
        let mut stats = None;
        let mut answers = None;
        let mut edges = Vec::new();
        let mut overrides = Vec::new();
        let mut pending = Vec::new();
        for (k, raw) in lines.enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |msg: &str| format!("checkpoint line {}: {msg}", k + 2);
            let toks: Vec<&str> = line.split_whitespace().collect();
            let num = |pos: usize| -> Result<u64, String> {
                toks.get(pos)
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| bad(&format!("bad numeric operand at position {pos}")))
            };
            match toks[0] {
                "offset" => offset = Some(num(1)?),
                "algebra" => algebra = Some(toks[1..].join(" ")),
                "nodes" => nodes = Some(num(1)? as usize),
                "stats" => {
                    if toks.len() != 11 {
                        return Err(bad("stats takes 10 counters"));
                    }
                    let mut s = [0u64; 10];
                    for (i, slot) in s.iter_mut().enumerate() {
                        *slot = num(i + 1)?;
                    }
                    stats = Some(s);
                }
                "answers" => answers = Some(num(1)?),
                "edge" => edges.push((num(1)? as usize, num(2)? as usize)),
                "override" => {
                    let weight = finite_weight(num(3)?).map_err(|e| bad(&e))?;
                    overrides.push((num(1)? as usize, num(2)? as usize, weight));
                }
                "pending" => pending.push(toks[1..].join(" ")),
                // a v1 snapshot's routing table: derived data
                "row" if v1 => {}
                other => return Err(bad(&format!("unknown record {other:?}"))),
            }
        }
        Ok(Snapshot {
            offset: offset.ok_or("checkpoint has no offset line")?,
            algebra: algebra.ok_or("checkpoint has no algebra line")?,
            nodes: nodes.ok_or("checkpoint has no nodes line")?,
            edges,
            overrides,
            pending,
            stats: stats.ok_or("checkpoint has no stats line")?,
            answers_state: answers.ok_or("checkpoint has no answers line")?,
        })
    }
}

/// How loading the WAL failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// The file exists but cannot be read.
    Io(String),
    /// An *interior* record is damaged — history was lost, recovery must
    /// not proceed.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "WAL unreadable: {m}"),
            WalError::Corrupt { line, message } => {
                write!(f, "WAL record at line {line} is corrupt: {message}")
            }
        }
    }
}

/// The on-disk home of one server's snapshot and WAL.
pub struct CheckpointStore {
    dir: PathBuf,
    wal: Option<io::BufWriter<fs::File>>,
}

/// Per-record WAL checksum: FNV over `"<offset> <event line>"`, rendered
/// as 8 hex digits.
fn wal_checksum(offset: u64, line: &str) -> String {
    let mut d = Digest::default();
    d.update(decimal(offset, &mut [0; 20]));
    d.update(" ");
    d.update(line);
    format!("{:08x}", d.value() & 0xffff_ffff)
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: &Path) -> io::Result<CheckpointStore> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            wal: None,
        })
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Atomically persist a snapshot (temp file + rename), then truncate
    /// the WAL — the snapshot subsumes everything logged so far.
    pub fn write_snapshot(&mut self, snap: &Snapshot) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        fs::write(&tmp, snap.to_text())?;
        fs::rename(&tmp, self.snapshot_path())?;
        self.wal = None;
        fs::write(self.wal_path(), format!("{WAL_HEADER}\n"))?;
        Ok(())
    }

    /// Load the snapshot, if one was ever written.  A present-but-damaged
    /// snapshot is an error, never silently ignored.
    pub fn load_snapshot(&self) -> Result<Option<Snapshot>, String> {
        let path = self.snapshot_path();
        match fs::read_to_string(&path) {
            Ok(text) => Snapshot::parse(&text).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read {path:?}: {e}")),
        }
    }

    /// Append one event to the WAL and flush it to the OS before the
    /// event is applied (write-ahead ordering).  A log that does not yet
    /// hold a whole header line — new, emptied, or torn inside its header
    /// by a crash in [`CheckpointStore::write_snapshot`] — holds no record,
    /// and is started afresh with the header.
    pub fn append_wal(&mut self, offset: u64, line: &str) -> io::Result<()> {
        if self.wal.is_none() {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.wal_path())?;
            let fresh = file.metadata()?.len() <= WAL_HEADER.len() as u64;
            if fresh {
                file.set_len(0)?;
            }
            let mut w = io::BufWriter::new(file);
            if fresh {
                w.write_all(format!("{WAL_HEADER}\n").as_bytes())?;
            }
            self.wal = Some(w);
        }
        let w = self.wal.as_mut().expect("just opened");
        writeln!(w, "e {offset} {} {line}", wal_checksum(offset, line))?;
        w.flush()
    }

    /// Read the WAL back as `(offset, event line)` records.
    ///
    /// A missing file is an empty log, and so is an empty one or one that
    /// holds only the start of its header: [`CheckpointStore::write_snapshot`]
    /// empties the log before it writes the header, and a crash between
    /// the two leaves that — after a snapshot that subsumes every event
    /// before it.  A damaged **final** record is a torn write and is
    /// dropped (the trace re-supplies that event); a damaged interior
    /// record is [`WalError::Corrupt`].
    pub fn load_wal(&self) -> Result<Vec<(u64, String)>, WalError> {
        let path = self.wal_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(WalError::Io(format!("cannot read {path:?}: {e}"))),
        };
        if WAL_HEADER.starts_with(&text) {
            return Ok(Vec::new());
        }
        let ended_clean = text.ends_with('\n');
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() || lines[0].trim() != WAL_HEADER {
            return Err(WalError::Corrupt {
                line: 1,
                message: format!("missing header {WAL_HEADER:?}"),
            });
        }
        let mut out = Vec::new();
        let last = lines.len() - 1;
        for (k, raw) in lines.iter().enumerate().skip(1) {
            let is_final = k == last;
            let parsed = parse_wal_record(raw);
            match parsed {
                Ok(rec) if is_final && !ended_clean => {
                    // A record without its newline is mid-write; whether
                    // its checksum happens to hold or not, treat it as
                    // torn and let the trace re-supply the event.
                    let _ = rec;
                }
                Ok(rec) => out.push(rec),
                Err(message) if is_final => {
                    // Torn final write: tolerated by design.
                    let _ = message;
                }
                Err(message) => {
                    return Err(WalError::Corrupt {
                        line: k + 1,
                        message,
                    })
                }
            }
        }
        Ok(out)
    }

    /// Rewrite the WAL to exactly `records` — used after recovery so a
    /// tolerated torn tail does not get glued onto subsequent appends.
    pub fn reset_wal(&mut self, records: &[(u64, String)]) -> io::Result<()> {
        self.wal = None;
        let mut text = format!("{WAL_HEADER}\n");
        for (offset, line) in records {
            let _ = writeln!(text, "e {offset} {} {line}", wal_checksum(*offset, line));
        }
        fs::write(self.wal_path(), text)
    }

    /// Chaos tool: chop `bytes` off the end of the WAL (simulates a crash
    /// mid-write / lost sectors).
    pub fn tamper_truncate(&mut self, bytes: u64) -> io::Result<()> {
        self.wal = None;
        let path = self.wal_path();
        let len = fs::metadata(&path)?.len();
        let file = fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(len.saturating_sub(bytes))?;
        Ok(())
    }

    /// Chaos tool: flip one byte at `pos` (counted from just after the
    /// header line) — lands in an interior record when the log is long
    /// enough, which recovery must refuse.
    pub fn tamper_corrupt(&mut self, pos: u64) -> io::Result<()> {
        self.wal = None;
        let path = self.wal_path();
        let mut bytes = fs::read(&path)?;
        let header_len = WAL_HEADER.len() as u64 + 1;
        let at = (header_len + pos).min(bytes.len().saturating_sub(1) as u64) as usize;
        bytes[at] ^= 0x01;
        let mut file = fs::OpenOptions::new().write(true).open(&path)?;
        file.seek(io::SeekFrom::Start(0))?;
        file.write_all(&bytes)?;
        file.set_len(bytes.len() as u64)?;
        Ok(())
    }
}

/// Parse one `e <offset> <checksum> <event line>` record.
fn parse_wal_record(raw: &str) -> Result<(u64, String), String> {
    let toks: Vec<&str> = raw.split_whitespace().collect();
    if toks.len() < 4 || toks[0] != "e" {
        return Err(format!("malformed record {raw:?}"));
    }
    let offset = toks[1]
        .parse::<u64>()
        .map_err(|e| format!("bad offset {:?}: {e}", toks[1]))?;
    let line = toks[3..].join(" ");
    if wal_checksum(offset, &line) != toks[2] {
        return Err(format!("checksum mismatch on record {raw:?}"));
    }
    Ok((offset, line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> (PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!("dbf-ckpt-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        (dir, store)
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            offset: 42,
            algebra: "hopcount 24".into(),
            nodes: 2,
            edges: vec![(0, 1), (1, 0)],
            overrides: vec![(0, 1, 9)],
            pending: vec!["set_link 0 1".into()],
            stats: [5, 2, 1, 10, 4, 7, 30, 7, 100, 1],
            answers_state: 0xdead_beef,
        }
    }

    /// `body` sealed with a `digest` line over it.
    fn reseal(body: &str) -> String {
        let mut d = Digest::default();
        d.update(body);
        format!("{body}digest {}\n", d.finish())
    }

    #[test]
    fn a_v1_snapshots_rows_are_skipped_and_a_v2_row_is_refused() {
        let snap = sample_snapshot();
        let text = snap.to_text();
        let body = &text[..text.rfind("digest ").unwrap()];
        assert!(body.starts_with("# dbf-checkpoint v2\n"), "{body}");
        assert!(!body.contains("row "), "{body}");
        // what an older build wrote: the v1 header and the table's rows
        let v1 = body.replacen("v2", "v1", 1) + "row 0 0 1\nrow 1 1 inf\n";
        assert_eq!(Snapshot::parse(&reseal(&v1)).expect("v1 parses"), snap);
        // the rows are not read at all: a width no table has still parses
        let odd = body.replacen("v2", "v1", 1) + "row 7 x\n";
        assert_eq!(Snapshot::parse(&reseal(&odd)).expect("v1 parses"), snap);
        let v2 = body.to_string() + "row 0 0 1\n";
        let err = Snapshot::parse(&reseal(&v2)).expect_err("v2 has no rows");
        assert!(err.contains("unknown record \"row\""), "{err}");
        for header in ["# dbf-checkpoint v0", "# dbf-checkpoint v3"] {
            let other = body.replacen("# dbf-checkpoint v2", header, 1);
            let err = Snapshot::parse(&reseal(&other)).expect_err("unknown version");
            assert!(err.starts_with("not a checkpoint"), "{err}");
        }
    }

    #[test]
    fn an_override_of_the_infinity_sentinel_is_rejected_with_its_line() {
        let mut snap = sample_snapshot();
        snap.overrides = vec![(0, 1, u64::MAX - 1)];
        assert_eq!(Snapshot::parse(&snap.to_text()).expect("a weight"), snap);
        // ... and neither is 0: not strictly increasing
        for not_a_weight in [u64::MAX, 0] {
            snap.overrides = vec![(0, 1, not_a_weight)];
            let err = Snapshot::parse(&snap.to_text()).expect_err("u64::MAX stands for ∞");
            assert!(
                err.starts_with("checkpoint line ") && err.contains("out of range"),
                "{err}"
            );
        }
    }

    #[test]
    fn snapshots_round_trip_and_detect_tampering() {
        let snap = sample_snapshot();
        let text = snap.to_text();
        assert_eq!(Snapshot::parse(&text).expect("own output parses"), snap);
        // Flip one byte of the body: the integrity digest must catch it.
        let tampered = text.replace("answers 3735928559", "answers 3735928560");
        assert_ne!(tampered, text, "the replacement must hit");
        let err = Snapshot::parse(&tampered).expect_err("tampering detected");
        assert!(err.contains("integrity digest"), "{err}");
    }

    #[test]
    fn the_wal_round_trips_and_tolerates_a_torn_tail() {
        let (dir, mut store) = temp_store("torn");
        store.append_wal(0, "set_link 1 2").unwrap();
        store.append_wal(1, "query 0 3").unwrap();
        store.append_wal(2, "fail_link 4 5").unwrap();
        assert_eq!(
            store.load_wal().expect("clean log"),
            vec![
                (0, "set_link 1 2".to_string()),
                (1, "query 0 3".to_string()),
                (2, "fail_link 4 5".to_string()),
            ]
        );
        // Tear the final record mid-write: it must be dropped, silently.
        store.tamper_truncate(5).unwrap();
        assert_eq!(
            store.load_wal().expect("torn tail tolerated"),
            vec![
                (0, "set_link 1 2".to_string()),
                (1, "query 0 3".to_string()),
            ]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_wal_corruption_is_refused() {
        let (dir, mut store) = temp_store("corrupt");
        store.append_wal(0, "set_link 1 2").unwrap();
        store.append_wal(1, "query 0 3").unwrap();
        store.tamper_corrupt(2).unwrap();
        match store.load_wal() {
            Err(WalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected interior corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_truncate_the_wal_they_subsume() {
        let (dir, mut store) = temp_store("subsume");
        store.append_wal(0, "set_link 1 2").unwrap();
        store.write_snapshot(&sample_snapshot()).unwrap();
        assert_eq!(store.load_wal().expect("fresh log"), Vec::new());
        let back = store.load_snapshot().expect("readable").expect("present");
        assert_eq!(back, sample_snapshot());
        // Appends after the snapshot land in the fresh log.
        store.append_wal(42, "query 0 1").unwrap();
        assert_eq!(
            store.load_wal().expect("clean log"),
            vec![(42, "query 0 1".to_string())]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_empty_or_torn_header_wal_is_an_empty_log() {
        let (dir, store) = temp_store("torn-header");
        for text in ["", "# dbf-w", "# dbf-wal v", WAL_HEADER] {
            fs::write(store.wal_path(), text).unwrap();
            assert_eq!(store.load_wal().expect("empty log"), Vec::new(), "{text:?}");
        }
        // Not the start of the header: still refused.
        for text in ["# dbf-wax", "e 0 0 set_link 1 2\n"] {
            fs::write(store.wal_path(), text).unwrap();
            match store.load_wal() {
                Err(WalError::Corrupt { line: 1, .. }) => {}
                other => panic!("{text:?}: expected a missing header, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_append_to_an_emptied_or_torn_wal_writes_the_header_first() {
        for (name, left) in [("emptied", ""), ("torn", "# dbf-w")] {
            let (dir, mut store) = temp_store(&format!("append-{name}"));
            fs::write(store.wal_path(), left).unwrap();
            store.append_wal(7, "set_link 1 2").unwrap();
            store.append_wal(8, "query 0 3").unwrap();
            let text = fs::read_to_string(store.wal_path()).unwrap();
            assert!(
                text.starts_with(&format!("{WAL_HEADER}\ne 7 ")),
                "{name}: {text:?}"
            );
            assert_eq!(
                store.load_wal().expect("clean log"),
                vec![
                    (7, "set_link 1 2".to_string()),
                    (8, "query 0 3".to_string())
                ],
                "{name}"
            );
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_missing_store_is_an_empty_store() {
        let (dir, store) = temp_store("empty");
        assert_eq!(store.load_snapshot().expect("no snapshot"), None);
        assert_eq!(store.load_wal().expect("no wal"), Vec::new());
        fs::remove_dir_all(&dir).ok();
    }
}
