//! The write-ahead journal for suite execution.
//!
//! One append-only JSONL file per suite directory
//! (`.apex/lab/<suite-digest>/journal.jsonl`) records the life of a run:
//! `started`, then per cell `claimed` → (`committed` | `poisoned`), then
//! `finished`. A farm worker also writes one `leased` line per shard it
//! claims (see [`JournalEntry::Leased`]). Every line is a versioned,
//! self-contained compact-JSON record. Lines are appended whole — one
//! `write` per batch of lines — so after a crash the journal is a
//! prefix of a valid history (at worst the final line is torn —
//! [`read_journal`] tolerates exactly that and nothing else). Lines have
//! one parser: [`JournalReader`], which a farm worker keeps as the
//! journal grows, parsing only what was appended since its last read;
//! [`read_journal`] is one pass of it over a file. As it replays each
//! terminal line it keeps, per cell index, the owner (the `by` of the
//! first terminal line) and the latest `poisoned` outcome
//! ([`JournalState::owners`], [`JournalState::poisoned`]), so a reader
//! asks about a cell without rescanning the entries.
//!
//! Resume does **not** trust the journal for results — record files are
//! content-addressed and digest-verified independently. The journal is
//! the *intent* log: which cells a previous run claimed and how far it
//! got, so `apex suite run --resume` can report what it is skipping and
//! fsck can tell an in-flight suite directory from an abandoned one.
//!
//! # Group commit
//!
//! Cells are made durable in batches, not one at a time. The runner's
//! [`Committer`](crate::runner::Committer) takes whatever claims and
//! finished cells are ready and commits them in four steps:
//!
//! 1. append the batch's `claimed` lines, each farm shard's `leased`
//!    line ahead of its claims ([`Journal::append_batch`], no fsync),
//!    and write every finished record's bytes to the `.tmp` sibling of
//!    its final path ([`LabStore::stage_text`], no fsync);
//! 2. **barrier 1** — one filesystem sync covering the temp bytes and
//!    every claim line written so far ([`Disk::sync_files`]);
//! 3. rename each temp file into place, then **barrier 2** — one fsync of
//!    the suite directory ([`Disk::sync_dir`]);
//! 4. append every terminal line (`committed` / `poisoned`) in one write,
//!    then **barrier 3** — one fsync of the journal.
//!
//! A barrier with nothing to cover is skipped: a batch of claims alone
//! issues none, and a batch without records issues only barrier 3. On a
//! single runner thread every batch holds one event, so the journal's
//! line order is the same as committing cell by cell.
//!
//! The protocol keeps five invariants, whatever instant a crash picks:
//!
//! 1. a record's final path never holds a torn file: its bytes are
//!    durable (barrier 1) before its rename;
//! 2. a durable terminal line implies its record's rename is durable
//!    (barrier 2 precedes step 4);
//! 3. a record at its final path implies its `claimed` line is durable
//!    (claims are written in step 1, before barrier 1 and the rename);
//! 4. for each cell, `claimed` precedes its terminal line in the file
//!    (a cell's claim is appended in the same or an earlier batch);
//! 5. `finished` is appended only after the manifest is durable.
//!
//! `tests/lab_faults.rs` checks 2–4 on disk after a kill at every
//! journal boundary of a two-thread run. Every step goes through the
//! store's [`Disk`], which counts the barriers it issues.
//!
//! [`LabStore::stage_text`]: crate::store::LabStore::stage_text

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_sim::{Json, JsonError};

use crate::disk::{Disk, FsDisk};

/// File name of the journal inside a suite directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Major version stamped on every journal line (mismatches are rejected).
pub const JOURNAL_FORMAT_MAJOR: u64 = 1;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// An optional string field (absent reads back as `""` — how journals
/// written before the field existed stay parseable).
fn opt_str(v: &Json, key: &str) -> Result<String, JsonError> {
    match v.get_opt(key) {
        Some(s) => Ok(s.as_str()?.to_string()),
        None => Ok(String::new()),
    }
}

/// One journal line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEntry {
    /// A run began (fresh or resumed).
    Started {
        /// Digest of the suite being run.
        suite: String,
        /// Suite name (human context when reading journals by hand).
        name: String,
        /// Total cells in the expansion.
        cells: u64,
        /// Whether this run resumed an interrupted one.
        resumed: bool,
    },
    /// A worker took ownership of a cell (written *before* the cell
    /// runs — the write-ahead half of the protocol).
    Claimed {
        /// Cell index in expansion order.
        index: u64,
        /// The cell's scenario digest.
        cell: String,
    },
    /// A cell completed and its record file is durably on disk.
    Committed {
        /// Cell index in expansion order.
        index: u64,
        /// The cell's scenario digest.
        cell: String,
        /// Whether the run met its mode's correctness bar.
        ok: bool,
        /// Which worker committed (empty for single-runner journals,
        /// omitted on the wire). Because appends are totally ordered,
        /// the *first* terminal entry per index attributes the cell to
        /// exactly one worker — how farm metrics shards avoid counting
        /// a lease-stolen, doubly-executed cell twice.
        by: String,
    },
    /// A farm worker leased the cell range `start..start + count`. The
    /// lease is issued at the line's position in the journal and
    /// expires once the journal holds `position + ttl` entries
    /// ([`LeaseLine::expired`]): expiry runs on the journal's own
    /// operation clock, never the wall clock. Leases only keep workers
    /// from duplicating work: records are content-addressed and
    /// idempotent, so no lease guards a byte.
    Leased {
        /// First cell index covered.
        start: u64,
        /// Number of cells covered.
        count: u64,
        /// The leasing worker.
        by: String,
        /// Journal appends until expiry.
        ttl: u64,
    },
    /// A cell failed without a record: the scenario panicked
    /// (`status: "poisoned"`) or exhausted its tick budget
    /// (`status: "exhausted"`).
    Poisoned {
        /// Cell index in expansion order.
        index: u64,
        /// The cell's scenario digest.
        cell: String,
        /// `"poisoned"` or `"exhausted"`.
        status: String,
        /// The classified panic / exhaustion message.
        message: String,
        /// Which worker hit the failure (empty for single-runner
        /// journals, omitted on the wire; see [`JournalEntry::Committed`]).
        by: String,
    },
    /// The run completed: every cell reached a terminal state and the
    /// manifest is on disk.
    Finished {
        /// Whether every cell verified ok.
        ok: bool,
        /// Store-wide finish sequence number: one more than the highest
        /// `seq` of any `finished` entry across the store at finalize
        /// time. This is the operation clock `apex lab gc` ranks by —
        /// mtimes skew across workers and filesystems; this does not.
        /// Journals written before the field existed read back as 0.
        seq: u64,
    },
}

impl JournalEntry {
    /// The entry's `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEntry::Started { .. } => "started",
            JournalEntry::Claimed { .. } => "claimed",
            JournalEntry::Committed { .. } => "committed",
            JournalEntry::Poisoned { .. } => "poisoned",
            JournalEntry::Leased { .. } => "leased",
            JournalEntry::Finished { .. } => "finished",
        }
    }

    /// Serialize to one compact-JSON journal line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("v".to_string(), Json::UInt(JOURNAL_FORMAT_MAJOR)),
            ("kind".to_string(), Json::Str(self.kind().into())),
        ];
        match self {
            JournalEntry::Started {
                suite,
                name,
                cells,
                resumed,
            } => {
                fields.push(("suite".into(), Json::Str(suite.clone())));
                fields.push(("name".into(), Json::Str(name.clone())));
                fields.push(("cells".into(), Json::UInt(*cells)));
                fields.push(("resumed".into(), Json::Bool(*resumed)));
            }
            JournalEntry::Claimed { index, cell } => {
                fields.push(("index".into(), Json::UInt(*index)));
                fields.push(("cell".into(), Json::Str(cell.clone())));
            }
            JournalEntry::Committed {
                index,
                cell,
                ok,
                by,
            } => {
                fields.push(("index".into(), Json::UInt(*index)));
                fields.push(("cell".into(), Json::Str(cell.clone())));
                fields.push(("ok".into(), Json::Bool(*ok)));
                if !by.is_empty() {
                    fields.push(("by".into(), Json::Str(by.clone())));
                }
            }
            JournalEntry::Poisoned {
                index,
                cell,
                status,
                message,
                by,
            } => {
                fields.push(("index".into(), Json::UInt(*index)));
                fields.push(("cell".into(), Json::Str(cell.clone())));
                fields.push(("status".into(), Json::Str(status.clone())));
                fields.push(("message".into(), Json::Str(message.clone())));
                if !by.is_empty() {
                    fields.push(("by".into(), Json::Str(by.clone())));
                }
            }
            JournalEntry::Leased {
                start,
                count,
                by,
                ttl,
            } => {
                fields.push(("start".into(), Json::UInt(*start)));
                fields.push(("count".into(), Json::UInt(*count)));
                fields.push(("by".into(), Json::Str(by.clone())));
                fields.push(("ttl".into(), Json::UInt(*ttl)));
            }
            JournalEntry::Finished { ok, seq } => {
                fields.push(("ok".into(), Json::Bool(*ok)));
                fields.push(("seq".into(), Json::UInt(*seq)));
            }
        }
        Json::Obj(fields).render()
    }

    /// Parse one journal line.
    pub fn parse_line(line: &str) -> Result<Self, JsonError> {
        let v = Json::parse(line)?;
        let version = v.get("v")?.as_u64()?;
        if version != JOURNAL_FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported journal version {version} (this build reads {JOURNAL_FORMAT_MAJOR})"
            )));
        }
        let bool_field = |key: &str| -> Result<bool, JsonError> {
            match v.get(key)? {
                Json::Bool(b) => Ok(*b),
                other => Err(jerr(format!("expected bool {key}, got {other:?}"))),
            }
        };
        match v.get("kind")?.as_str()? {
            "started" => Ok(JournalEntry::Started {
                suite: v.get("suite")?.as_str()?.to_string(),
                name: v.get("name")?.as_str()?.to_string(),
                cells: v.get("cells")?.as_u64()?,
                resumed: bool_field("resumed")?,
            }),
            "claimed" => Ok(JournalEntry::Claimed {
                index: v.get("index")?.as_u64()?,
                cell: v.get("cell")?.as_str()?.to_string(),
            }),
            "committed" => Ok(JournalEntry::Committed {
                index: v.get("index")?.as_u64()?,
                cell: v.get("cell")?.as_str()?.to_string(),
                ok: bool_field("ok")?,
                by: opt_str(&v, "by")?,
            }),
            "poisoned" => Ok(JournalEntry::Poisoned {
                index: v.get("index")?.as_u64()?,
                cell: v.get("cell")?.as_str()?.to_string(),
                status: v.get("status")?.as_str()?.to_string(),
                message: v.get("message")?.as_str()?.to_string(),
                by: opt_str(&v, "by")?,
            }),
            "leased" => Ok(JournalEntry::Leased {
                start: v.get("start")?.as_u64()?,
                count: v.get("count")?.as_u64()?,
                by: v.get("by")?.as_str()?.to_string(),
                ttl: v.get("ttl")?.as_u64()?,
            }),
            "finished" => Ok(JournalEntry::Finished {
                ok: bool_field("ok")?,
                seq: match v.get_opt("seq") {
                    Some(s) => s.as_u64()?,
                    None => 0,
                },
            }),
            other => Err(jerr(format!("unknown journal entry kind {other:?}"))),
        }
    }
}

/// An append-only journal writer bound to one file, writing through a
/// [`Disk`] (a store builds its journals on its own disk).
#[derive(Clone, Debug)]
pub struct Journal {
    pub(crate) path: PathBuf,
    pub(crate) disk: Arc<dyn Disk>,
}

impl Journal {
    /// A journal at `path` on the filesystem (the file is created on
    /// first append).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal {
            path: path.into(),
            disk: Arc::new(FsDisk::default()),
        }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one entry durably: one line, then fsync.
    pub fn append(&self, entry: &JournalEntry) -> std::io::Result<()> {
        self.append_batch(std::slice::from_ref(entry), true)
    }

    /// Append `entries` with a single `write` of all their lines, then
    /// fsync when `sync` is set — a crash between appends never tears an
    /// earlier line. An empty batch touches nothing.
    pub fn append_batch(&self, entries: &[JournalEntry], sync: bool) -> std::io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let text: String = entries.iter().map(|e| e.to_line() + "\n").collect();
        self.disk.append(&self.path, &text, sync)
    }
}

/// The replayed state of a journal: which cells reached which terminal
/// state, plus bookkeeping resume and fsck ask about.
#[derive(Clone, Debug, Default)]
pub struct JournalState {
    /// Every entry, in file order.
    pub entries: Vec<JournalEntry>,
    /// Per cell index, the `by` of its first terminal line (`committed`
    /// or `poisoned`): the cell's owner. Appends are totally ordered, so
    /// every reader names the same owner, and a cell two workers
    /// executed is attributed once.
    pub owners: BTreeMap<u64, String>,
    /// Per cell index, the `status` and `message` of its latest
    /// `poisoned` line: how a cell without a record ended.
    pub poisoned: BTreeMap<u64, (String, String)>,
    /// Whether a `finished` entry is present.
    pub finished: bool,
    /// Highest `seq` among `finished` entries (0 when none, or for
    /// journals from before the field existed).
    pub finish_seq: u64,
    /// Whether the final line was torn (unparseable — the one corruption
    /// a crash during append can produce; tolerated and reported).
    pub torn_tail: bool,
}

/// One `leased` line, located: its position is when it was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseLine<'a> {
    /// Entry index of the line in the journal.
    pub position: u64,
    /// First cell index covered.
    pub start: u64,
    /// Number of cells covered.
    pub count: u64,
    /// The leasing worker.
    pub by: &'a str,
    /// Journal appends until expiry.
    pub ttl: u64,
}

impl LeaseLine<'_> {
    /// Whether the lease covers cell `index`.
    pub fn covers(&self, index: u64) -> bool {
        index >= self.start && index - self.start < self.count
    }

    /// Whether the lease has lapsed once the journal holds
    /// `journal_len` entries: at `position + ttl`. A deadline that
    /// overflows can never be reached, so such a lease never lapses.
    pub fn expired(&self, journal_len: u64) -> bool {
        self.position
            .checked_add(self.ttl)
            .is_some_and(|deadline| journal_len >= deadline)
    }
}

impl JournalState {
    /// Every `leased` line, in journal order.
    pub fn leases(&self) -> impl Iterator<Item = LeaseLine<'_>> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(position, entry)| match entry {
                JournalEntry::Leased {
                    start,
                    count,
                    by,
                    ttl,
                } => Some(LeaseLine {
                    position: position as u64,
                    start: *start,
                    count: *count,
                    by,
                    ttl: *ttl,
                }),
                _ => None,
            })
    }

    /// The `leased` lines that have not lapsed.
    pub fn live_leases(&self) -> impl Iterator<Item = LeaseLine<'_>> + '_ {
        let len = self.entries.len() as u64;
        self.leases().filter(move |lease| !lease.expired(len))
    }
}

/// The finish sequence number of one suite: the highest `finished` seq
/// in its journal, or 0 when the suite has no journal, an unreadable
/// one, or no `finished` entry. Never an error — gc and fsck must rank
/// whatever is actually on disk.
pub fn finish_seq(store: &crate::store::LabStore, suite_digest: &str) -> u64 {
    read_journal(&store.journal_path(suite_digest))
        .map(|s| s.finish_seq)
        .unwrap_or(0)
}

/// The next finish sequence number for a run finalizing now: one more
/// than the highest `finished` seq across every suite in the store.
/// This scan is what gives `finished` entries a store-wide total order
/// without wall-clock timestamps.
pub fn next_finish_seq(store: &crate::store::LabStore) -> u64 {
    let suites = store.suite_digests().unwrap_or_default();
    1 + suites
        .iter()
        .map(|s| finish_seq(store, s))
        .max()
        .unwrap_or(0)
}

/// Read and replay a journal file. A torn **final** line is tolerated
/// (`torn_tail` is set); a corrupt line anywhere else is an error — the
/// append discipline cannot produce one, so it means real tampering.
/// This is one [`JournalReader`] pass over the whole file, its last
/// line judged with or without its newline.
pub fn read_journal(path: &Path) -> Result<JournalState, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = JournalReader::new(path);
    reader.replay(&bytes, true)?;
    Ok(reader.state)
}

/// A journal replayed as it grows: each [`JournalReader::read`] parses
/// only the bytes appended since the last one. After every read the
/// state is [`read_journal`]'s for the file up to its last newline: a
/// final line without its newline is held back until it lands (and is
/// not `torn_tail`). A file that no longer holds the last line read
/// where it was read — it shrank, or was removed and written anew, as
/// a fresh `suite run` does — is replayed from offset 0; a missing file
/// reads as empty.
#[derive(Clone, Debug)]
pub struct JournalReader {
    path: PathBuf,
    state: JournalState,
    /// Bytes and lines replayed so far.
    offset: usize,
    lines: usize,
    /// The last line replayed, newline included.
    tail: Vec<u8>,
}

impl JournalReader {
    /// A reader of the journal at `path` that has read nothing yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalReader {
            path: path.into(),
            state: JournalState::default(),
            offset: 0,
            lines: 0,
            tail: Vec::new(),
        }
    }

    /// The state replayed so far.
    pub fn state(&self) -> &JournalState {
        &self.state
    }

    /// Replay what was appended since the last read, and return the
    /// entries this read added (every entry, after a replay from 0).
    pub fn read(&mut self) -> Result<&[JournalEntry], String> {
        let mut bytes = self.bytes_from(self.offset - self.tail.len())?;
        if bytes.starts_with(&self.tail) {
            bytes.drain(..self.tail.len());
        } else {
            *self = JournalReader::new(std::mem::take(&mut self.path));
            bytes = self.bytes_from(0)?;
        }
        let first = self.state.entries.len();
        self.replay(&bytes, false)?;
        Ok(&self.state.entries[first..])
    }

    /// The file's bytes from `offset` on (none if it is missing).
    fn bytes_from(&self, offset: usize) -> Result<Vec<u8>, String> {
        use std::io::{Read as _, Seek as _};
        let mut bytes = Vec::new();
        let read = std::fs::File::open(&self.path).and_then(|mut file| {
            file.seek(std::io::SeekFrom::Start(offset as u64))?;
            file.read_to_end(&mut bytes)
        });
        match read {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("{}: {e}", self.path.display()))
            }
            _ => Ok(bytes),
        }
    }

    /// The journal's one parser: replay the lines of `bytes`, which
    /// start at `self.offset` — only newline-terminated ones, unless
    /// `eof` makes the rest the file's final line. A final line that
    /// does not parse sets `torn_tail` (expected after a mid-append
    /// crash) and stays unread; any other is an error.
    fn replay(&mut self, bytes: &[u8], eof: bool) -> Result<(), String> {
        let end = match eof {
            true => bytes.len(),
            false => bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1),
        };
        self.state.torn_tail = false;
        let mut lines = bytes[..end].split_inclusive(|&b| b == b'\n').peekable();
        while let Some(raw) = lines.next() {
            let line = String::from_utf8_lossy(raw);
            let line = line.trim_end_matches(['\n', '\r']);
            if !line.trim().is_empty() {
                let entry = match JournalEntry::parse_line(line) {
                    Ok(entry) => entry,
                    Err(_) if lines.peek().is_none() => {
                        self.state.torn_tail = true;
                        break;
                    }
                    Err(e) => {
                        let (path, at) = (self.path.display(), self.lines + 1);
                        return Err(format!("{path}:{at}: corrupt journal line: {e}"));
                    }
                };
                let state = &mut self.state;
                match &entry {
                    JournalEntry::Committed { index, by, .. } => {
                        state.owners.entry(*index).or_insert_with(|| by.clone());
                    }
                    JournalEntry::Poisoned {
                        index,
                        status,
                        message,
                        by,
                        ..
                    } => {
                        state.owners.entry(*index).or_insert_with(|| by.clone());
                        state
                            .poisoned
                            .insert(*index, (status.clone(), message.clone()));
                    }
                    JournalEntry::Finished { seq, .. } => {
                        state.finished = true;
                        state.finish_seq = state.finish_seq.max(*seq);
                    }
                    JournalEntry::Started { .. }
                    | JournalEntry::Claimed { .. }
                    | JournalEntry::Leased { .. } => {}
                }
                state.entries.push(entry);
            }
            self.offset += raw.len();
            self.lines += 1;
            self.tail = raw.to_vec();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Started {
                suite: "0123456789abcdef".into(),
                name: "smoke".into(),
                cells: 3,
                resumed: false,
            },
            JournalEntry::Claimed {
                index: 0,
                cell: "aaaaaaaaaaaaaaaa".into(),
            },
            JournalEntry::Committed {
                index: 0,
                cell: "aaaaaaaaaaaaaaaa".into(),
                ok: true,
                by: String::new(),
            },
            JournalEntry::Leased {
                start: 1,
                count: 2,
                by: "w1".into(),
                ttl: 4,
            },
            JournalEntry::Claimed {
                index: 1,
                cell: "bbbbbbbbbbbbbbbb".into(),
            },
            JournalEntry::Poisoned {
                index: 1,
                cell: "bbbbbbbbbbbbbbbb".into(),
                status: "poisoned".into(),
                message: "injected fault: cell panic".into(),
                by: "w1".into(),
            },
            JournalEntry::Finished { ok: false, seq: 7 },
        ]
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("apex-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(JOURNAL_FILE)
    }

    /// The journal at `path` (as [`temp_journal`] lays it out) of a
    /// store whose disk is `faults`.
    fn faulty_journal(path: &Path, faults: Arc<crate::fault::FaultInjector>) -> Journal {
        let dir = path.parent().unwrap();
        let store = crate::LabStore::new(dir.parent().unwrap()).with_faults(faults);
        store.journal(dir.file_name().unwrap().to_str().unwrap())
    }

    #[test]
    fn entries_round_trip_through_lines() {
        for entry in sample_entries() {
            let line = entry.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(JournalEntry::parse_line(&line).unwrap(), entry);
        }
    }

    #[test]
    fn lease_expiry_runs_on_the_journal_length() {
        let lease = LeaseLine {
            position: 11,
            start: 0,
            count: 1,
            by: "w",
            ttl: 6,
        };
        assert!(!lease.expired(11), "fresh when issued");
        assert!(!lease.expired(16), "one append short of the budget");
        assert!(lease.expired(17), "budget consumed");
        let immortal = LeaseLine {
            ttl: u64::MAX,
            ..lease
        };
        assert!(!immortal.expired(u64::MAX), "saturating, not wrapping");

        // The sample's lease sits at entry 3 with ttl 4: live while the
        // journal holds six entries, lapsed once a seventh lands.
        let mut state = JournalState {
            entries: sample_entries()[..6].to_vec(),
            ..JournalState::default()
        };
        let lease = state.leases().next().unwrap();
        assert_eq!((lease.position, lease.by), (3, "w1"));
        assert!(lease.covers(1) && lease.covers(2));
        assert!(!lease.covers(0) && !lease.covers(3));
        assert_eq!(state.live_leases().count(), 1);
        state
            .entries
            .push(JournalEntry::Finished { ok: true, seq: 8 });
        assert_eq!(state.live_leases().count(), 0);
    }

    #[test]
    fn append_then_replay_recovers_the_history() {
        let path = temp_journal("replay");
        let journal = Journal::new(&path);
        for entry in sample_entries() {
            journal.append(&entry).unwrap();
        }
        let state = read_journal(&path).unwrap();
        assert_eq!(state.entries, sample_entries());
        let claimed: Vec<u64> = state
            .entries
            .iter()
            .filter_map(|e| match e {
                JournalEntry::Claimed { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(claimed, vec![0, 1]);
        let owners = [(0, String::new()), (1, "w1".to_string())];
        assert_eq!(state.owners, BTreeMap::from(owners));
        let poisoned = (
            "poisoned".to_string(),
            "injected fault: cell panic".to_string(),
        );
        assert_eq!(state.poisoned, BTreeMap::from([(1, poisoned)]));
        assert!(state.finished);
        assert_eq!(state.finish_seq, 7);
        assert!(!state.torn_tail);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_tolerated_inner_corruption_is_not() {
        let path = temp_journal("torn");
        let journal = Journal::new(&path);
        for entry in &sample_entries()[..3] {
            journal.append(entry).unwrap();
        }
        // Tear the tail: append half a line without newline discipline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"kind\":\"clai");
        std::fs::write(&path, &text).unwrap();
        let state = read_journal(&path).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.entries.len(), 3);

        // Corrupt an inner line: hard error.
        let broken = text.replacen("\"kind\":\"claimed\"", "\"kind\":\"cl", 1);
        std::fs::write(&path, broken).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.contains("corrupt journal line"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn batch_append_is_one_history_and_a_kill_inside_it_lands_the_prefix() {
        use crate::fault::{is_kill, FaultInjector, FaultPlan};
        let path = temp_journal("batch");
        Journal::new(&path)
            .append_batch(&sample_entries(), false)
            .unwrap();
        assert_eq!(read_journal(&path).unwrap().entries, sample_entries());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());

        let path = temp_journal("batch-kill");
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(4),
            ..FaultPlan::default()
        }));
        let journal = faulty_journal(&path, inj);
        let entries = sample_entries();
        journal.append_batch(&entries[..1], true).unwrap();
        journal.append_batch(&[], true).unwrap();
        let err = journal.append_batch(&entries[1..], true).unwrap_err();
        assert!(is_kill(&err.to_string()), "{err}");
        let state = read_journal(&path).unwrap();
        assert_eq!(state.entries, entries[..4]);
        assert!(!state.torn_tail);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fault_injected_appends_kill_at_the_boundary() {
        use crate::fault::{is_kill, FaultInjector, FaultPlan};
        let path = temp_journal("kill");
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(2),
            ..FaultPlan::default()
        }));
        let journal = faulty_journal(&path, inj);
        let entries = sample_entries();
        journal.append(&entries[0]).unwrap();
        journal.append(&entries[1]).unwrap();
        let err = journal.append(&entries[2]).unwrap_err();
        assert!(is_kill(&err.to_string()), "{err}");
        // Exactly two durable lines; replay sees a clean prefix.
        let state = read_journal(&path).unwrap();
        assert_eq!(state.entries.len(), 2);
        assert!(!state.torn_tail);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
