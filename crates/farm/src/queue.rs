//! The file-based dispatch queue (`apex farm submit` / `apex farm status`).
//!
//! A queue is a directory of suite documents, one file per suite, named
//! by the suite's content digest (`<suite-digest>.json`). Submission is
//! therefore idempotent — submitting the same suite twice writes the
//! same file with the same bytes — and the queue needs no locking: it
//! is append-only in the same sense the store is, and workers treat a
//! fully-cached entry as already drained. Entries are never dequeued;
//! a drained entry is simply one whose suite has a finished manifest in
//! the store, which `apex farm status` reports.
//!
//! One bad entry never stops the fleet: a file that does not load,
//! expand, or digest to its own name is reported as an [`EntryError`]
//! and skipped, and every readable suite is still drained.

use std::path::{Path, PathBuf};

use apex_lab::runner::resolve_threads;
use apex_lab::{read_journal, read_verified, CachedCell, Cell, LabStore, Suite};

/// Default queue root, relative to the working directory (a sibling of
/// the lab store's `.apex/lab`).
pub const DEFAULT_QUEUE_ROOT: &str = ".apex/farm";

/// One readable queue entry: a suite that loads, digests to its file
/// name, and expands to its cells.
#[derive(Clone, Debug)]
pub struct QueueEntry {
    /// The suite's content digest (the entry's file stem).
    pub digest: String,
    /// The suite document.
    pub suite: Suite,
    /// Its expansion.
    pub cells: Vec<Cell>,
}

/// A queue file that was skipped instead of run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryError {
    /// The file does not read, parse, or expand as a suite document.
    Unreadable {
        /// The entry's path.
        path: PathBuf,
        /// What failed.
        error: String,
    },
    /// The suite digests to something other than its file name.
    Misnamed {
        /// The entry's path.
        path: PathBuf,
        /// The digest its content has.
        digest: String,
    },
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Unreadable { path, error } => {
                write!(f, "{}: unreadable queue entry: {error}", path.display())
            }
            EntryError::Misnamed { path, digest } => write!(
                f,
                "{}: queue entry digests to {digest}, not its file name",
                path.display()
            ),
        }
    }
}

/// A directory of enqueued suite documents.
#[derive(Clone, Debug)]
pub struct FarmQueue {
    root: PathBuf,
}

impl FarmQueue {
    /// A queue rooted at `root` (created lazily on first submit).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        FarmQueue { root: root.into() }
    }

    /// The queue at the default location, [`DEFAULT_QUEUE_ROOT`].
    pub fn default_location() -> Self {
        Self::new(DEFAULT_QUEUE_ROOT)
    }

    /// The queue's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The queue file path for a suite digest.
    pub fn entry_path(&self, suite_digest: &str) -> PathBuf {
        self.root.join(format!("{suite_digest}.json"))
    }

    /// Enqueue a suite: validate, then write its canonical document at
    /// its content address. Returns `(digest, path, fresh)`; `fresh` is
    /// false when an identical entry was already queued (idempotent).
    pub fn submit(&self, suite: &Suite) -> Result<(String, PathBuf, bool), String> {
        suite.validate()?;
        let digest = suite.digest();
        let path = self.entry_path(&digest);
        let text = suite.render_pretty();
        if let Ok(existing) = std::fs::read_to_string(&path) {
            if existing == text {
                return Ok((digest, path, false));
            }
        }
        std::fs::create_dir_all(&self.root).map_err(|e| format!("{}: {e}", self.root.display()))?;
        apex_scenario::atomic_write(&path, &text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((digest, path, true))
    }

    /// Every queue file, sorted by name (deterministic worker scan
    /// order). Each entry is re-validated — it must load, expand, and
    /// digest to its file name — so a corrupted queue file is an
    /// [`EntryError`] in its own slot, not a silently different workload
    /// and not a failure of the whole scan. `Err` only when the queue
    /// directory itself cannot be listed.
    pub fn entries(&self) -> Result<Vec<Result<QueueEntry, EntryError>>, String> {
        if !self.root.exists() {
            return Ok(Vec::new());
        }
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.root)
            .map_err(|e| format!("{}: {e}", self.root.display()))?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: {e}", self.root.display()))?;
        paths.sort();
        let mut out = Vec::new();
        for path in paths {
            if path.is_dir() || path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            out.push(Self::load_entry(path));
        }
        Ok(out)
    }

    fn load_entry(path: PathBuf) -> Result<QueueEntry, EntryError> {
        let loaded = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Suite::parse(&text).map_err(|e| e.to_string()))
            .and_then(|suite| suite.expand().map(|cells| (suite, cells)));
        let (suite, cells) = match loaded {
            Ok(loaded) => loaded,
            Err(error) => return Err(EntryError::Unreadable { path, error }),
        };
        let digest = suite.digest();
        if path.file_stem().and_then(|s| s.to_str()) != Some(digest.as_str()) {
            return Err(EntryError::Misnamed { path, digest });
        }
        Ok(QueueEntry {
            digest,
            suite,
            cells,
        })
    }

    /// Survey every queue entry against `store` (what `apex farm
    /// status` prints).
    pub fn status(&self, store: &LabStore) -> Result<FarmStatus, String> {
        let mut out = FarmStatus::default();
        let threads = resolve_threads(None);
        for entry in self.entries()? {
            let QueueEntry {
                digest,
                suite,
                cells,
            } = match entry {
                Ok(entry) => entry,
                Err(bad) => {
                    out.unreadable.push(bad);
                    continue;
                }
            };
            let journal = read_journal(&store.journal_path(&digest)).ok();
            let records = read_verified(store, &digest, &cells, None, threads)
                .iter()
                .filter(|read| matches!(read, CachedCell::Hit(..)))
                .count();
            let finished = journal.as_ref().is_some_and(|s| s.finished)
                && store.read_manifest(&digest).is_ok();
            let leases = journal.as_ref().map_or(0, |s| s.live_leases().count());
            out.suites.push(SuiteProgress {
                digest,
                name: suite.name.clone(),
                cells: cells.len(),
                records,
                poisoned: journal.as_ref().map_or(0, |s| s.poisoned.len()),
                leases,
                finished,
            });
        }
        Ok(out)
    }
}

/// Progress of one queued suite against a store.
#[derive(Clone, Debug)]
pub struct SuiteProgress {
    /// Suite digest.
    pub digest: String,
    /// Suite name.
    pub name: String,
    /// Cells in the expansion.
    pub cells: usize,
    /// Cells with a verified record in the store.
    pub records: usize,
    /// Cells whose journal says they poisoned/exhausted (no record).
    pub poisoned: usize,
    /// Unexpired `leased` lines in the suite's journal.
    pub leases: usize,
    /// Whether the journal has a `finished` entry and the manifest is
    /// readable.
    pub finished: bool,
}

impl SuiteProgress {
    /// Every cell reached a terminal state.
    pub fn done(&self) -> bool {
        self.records + self.poisoned >= self.cells
    }
}

/// What `apex farm status` prints: one row per queue entry.
#[derive(Clone, Debug, Default)]
pub struct FarmStatus {
    /// Per-suite progress, in queue (digest) order.
    pub suites: Vec<SuiteProgress>,
    /// Queue files no worker will run.
    pub unreadable: Vec<EntryError>,
}

impl FarmStatus {
    /// Whether every queue entry is readable and finalized.
    pub fn all_finished(&self) -> bool {
        self.unreadable.is_empty() && self.suites.iter().all(|s| s.finished)
    }

    /// Deterministic multi-line summary.
    pub fn summary(&self) -> String {
        if self.suites.is_empty() && self.unreadable.is_empty() {
            return "farm: queue is empty".to_string();
        }
        let mut out = format!(
            "farm: {} queued suites, {} finished",
            self.suites.len(),
            self.suites.iter().filter(|s| s.finished).count()
        );
        if !self.unreadable.is_empty() {
            out.push_str(&format!(", {} unreadable", self.unreadable.len()));
        }
        for s in &self.suites {
            let state = if s.finished {
                "finished".to_string()
            } else if s.leases > 0 {
                format!("in-flight ({} leases)", s.leases)
            } else if s.records + s.poisoned > 0 {
                "in-flight".to_string()
            } else {
                "queued".to_string()
            };
            out.push_str(&format!(
                "\n  {} {}: {}/{} cells ({} records, {} poisoned) — {state}",
                s.digest,
                s.name,
                s.records + s.poisoned,
                s.cells,
                s.records,
                s.poisoned
            ));
        }
        for bad in &self.unreadable {
            out.push_str(&format!("\n  {bad}"));
        }
        out
    }
}
