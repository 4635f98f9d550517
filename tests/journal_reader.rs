//! The incremental journal reader against the one-shot replay.
//!
//! A farm worker keeps its journal state with `JournalReader`, which
//! parses only the bytes appended since its last read; `read_journal`
//! is one pass of the same reader over a whole file. This file pins the
//! two together: fed a journal in arbitrary chunk splits, the reader's
//! state after every chunk is `read_journal`'s for the same prefix up to
//! its last newline. A line still being written is held back (and is
//! not a torn tail), a file that shrank or was replaced is replayed
//! from offset 0, and `read_journal`'s torn-final-line and
//! corrupt-middle-line verdicts stand.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use apex_farm::{run_worker, FarmQueue, WorkerOpts};
use apex_lab::{read_journal, JournalEntry, JournalReader, JournalState, LabStore, Suite};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-jreader-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything a replay produces, in a comparable form.
type Replayed = (
    Vec<JournalEntry>,
    BTreeMap<u64, String>,
    BTreeMap<u64, (String, String)>,
    bool,
    u64,
    bool,
);

fn replayed(state: &JournalState) -> Replayed {
    (
        state.entries.clone(),
        state.owners.clone(),
        state.poisoned.clone(),
        state.finished,
        state.finish_seq,
        state.torn_tail,
    )
}

/// `read_journal` of `bytes`, written to a file of its own.
fn one_shot(dir: &Path, bytes: &[u8]) -> Result<JournalState, String> {
    let path = dir.join("one-shot.jsonl");
    std::fs::write(&path, bytes).unwrap();
    read_journal(&path)
}

/// `bytes` up to and including its last newline.
fn through_last_newline(bytes: &[u8]) -> &[u8] {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    &bytes[..end]
}

/// A small deterministic generator for chunk lengths.
struct Splits(u64);

impl Splits {
    fn next(&mut self, cap: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Mostly short chunks (mid-line cuts), now and then a long one.
        let bound = if (self.0 >> 60) == 0 { 4096 } else { 97 };
        1 + ((self.0 >> 33) as usize % bound).min(cap - 1)
    }
}

/// Append `text` to a journal in chunks split by `seed`, reading after
/// every chunk, and check the reader against the one-shot replay.
fn check_chunked(text: &[u8], seed: u64, dir: &Path) {
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut reader = JournalReader::new(&path);
    assert!(
        reader.read().unwrap().is_empty(),
        "a missing file reads as empty"
    );
    let (mut splits, mut written, mut seen) = (Splits(seed), 0, Vec::new());
    while written < text.len() {
        let step = splits.next(text.len() - written);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut file, &text[written..written + step]).unwrap();
        written += step;
        seen.extend_from_slice(reader.read().unwrap());
        let expect = one_shot(dir, through_last_newline(&text[..written])).unwrap();
        assert_eq!(
            replayed(reader.state()),
            replayed(&expect),
            "seed {seed}: after {written} of {} bytes",
            text.len()
        );
        assert!(!reader.state().torn_tail, "a held-back line is not torn");
    }
    assert_eq!(seen, reader.state().entries, "each entry is returned once");
    let whole = read_journal(&path).unwrap();
    assert_eq!(replayed(reader.state()), replayed(&whole));
}

/// The journal a two-worker farm drain of the committed smoke suite
/// leaves: leases, claims and terminal lines of both workers.
fn two_worker_journal(dir: &Path) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let suite = Suite::load(&path).unwrap();
    let store = LabStore::new(dir.join("store"));
    let queue = FarmQueue::new(dir.join("queue"));
    queue.submit(&suite).unwrap();
    std::thread::scope(|scope| {
        for id in ["left", "right"] {
            let (queue, store) = (&queue, &store);
            let opts = WorkerOpts {
                worker: id.to_string(),
                shard_cells: 1,
                threads: Some(1),
                ..WorkerOpts::default()
            };
            scope.spawn(move || run_worker(queue, store, &opts).unwrap());
        }
    });
    let text = std::fs::read(store.journal_path(&suite.digest())).unwrap();
    let state = read_journal(&store.journal_path(&suite.digest())).unwrap();
    assert!(state.finished);
    assert!(state.leases().count() > 0);
    let cells = suite.expand().unwrap().len() as u64;
    assert_eq!(
        state.owners.keys().copied().collect::<Vec<_>>(),
        (0..cells).collect::<Vec<_>>()
    );
    assert!(state
        .owners
        .values()
        .all(|by| by == "left" || by == "right"));
    text
}

/// `text` plus terminal lines that race, for cells past its own: cell
/// 100 poisoned by two workers (the first line owns the cell, the latest
/// is its outcome) and cell 101 committed by two.
fn with_terminal_races(text: &[u8]) -> Vec<u8> {
    let poisoned = |status: &str, message: &str, by: &str| JournalEntry::Poisoned {
        index: 100,
        cell: "0000000000000100".into(),
        status: status.into(),
        message: message.into(),
        by: by.into(),
    };
    let committed = |by: &str| JournalEntry::Committed {
        index: 101,
        cell: "0000000000000101".into(),
        ok: true,
        by: by.into(),
    };
    let mut text = text.to_vec();
    for entry in [
        poisoned("exhausted", "clock stalled", "left"),
        committed("right"),
        poisoned("poisoned", "boom", "right"),
        committed("left"),
    ] {
        text.extend_from_slice(entry.to_line().as_bytes());
        text.push(b'\n');
    }
    text
}

#[test]
fn chunked_reads_replay_what_read_journal_replays() {
    let dir = temp_dir("chunked");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/canonical-journal.jsonl");
    let canonical = std::fs::read(golden).unwrap();
    let farm = two_worker_journal(&dir);
    let raced = with_terminal_races(&canonical);
    for seed in 0..24 {
        check_chunked(&canonical, seed, &dir);
        check_chunked(&farm, seed, &dir);
        check_chunked(&raced, seed, &dir);
    }
    let state = one_shot(&dir, &raced).unwrap();
    assert_eq!(
        (&state.owners[&100], &state.owners[&101]),
        (&"left".to_string(), &"right".to_string())
    );
    let latest = ("poisoned".to_string(), "boom".to_string());
    assert_eq!(state.poisoned, BTreeMap::from([(100, latest)]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shrunk_or_replaced_journal_is_replayed_from_the_start() {
    let dir = temp_dir("replaced");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/canonical-journal.jsonl");
    let canonical = std::fs::read(golden).unwrap();
    let farm = two_worker_journal(&dir);
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, &farm).unwrap();
    let mut reader = JournalReader::new(&path);
    reader.read().unwrap();

    // Removed and written anew (as a fresh `suite run` does), longer
    // than what was read: every entry is new again.
    std::fs::remove_file(&path).unwrap();
    let mut longer = canonical.clone();
    while longer.len() <= farm.len() {
        longer.extend_from_slice(&canonical);
    }
    std::fs::write(&path, &longer).unwrap();
    let fresh = reader.read().unwrap().len();
    let expect = read_journal(&path).unwrap();
    assert_eq!(fresh, expect.entries.len());
    assert_eq!(replayed(reader.state()), replayed(&expect));

    // Shrunk to a prefix.
    let prefix = through_last_newline(&longer[..longer.len() / 3]).to_vec();
    std::fs::write(&path, &prefix).unwrap();
    reader.read().unwrap();
    assert_eq!(
        replayed(reader.state()),
        replayed(&one_shot(&dir, &prefix).unwrap())
    );

    // Removed: nothing left to replay.
    std::fs::remove_file(&path).unwrap();
    assert!(reader.read().unwrap().is_empty());
    assert!(reader.state().entries.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_and_corrupt_lines_keep_read_journals_verdicts() {
    let dir = temp_dir("verdicts");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/canonical-journal.jsonl");
    let canonical = std::fs::read_to_string(golden).unwrap();
    let lines: Vec<&str> = canonical.lines().collect();
    let head = format!("{}\n{}\n", lines[0], lines[1]);
    let path = dir.join("journal.jsonl");

    // A final line without its newline: torn for the one-shot replay,
    // held back (not torn) by the reader.
    let torn = format!("{head}{{\"v\":1,\"kind\":\"clai");
    let state = one_shot(&dir, torn.as_bytes()).unwrap();
    assert!(state.torn_tail);
    assert_eq!(state.entries.len(), 2);
    std::fs::write(&path, &torn).unwrap();
    let mut reader = JournalReader::new(&path);
    assert_eq!(reader.read().unwrap().len(), 2);
    assert!(!reader.state().torn_tail);

    // A complete final line that parses without its newline is an
    // entry for the one-shot replay.
    let unterminated = format!("{head}{}", lines[2]);
    assert_eq!(
        one_shot(&dir, unterminated.as_bytes())
            .unwrap()
            .entries
            .len(),
        3
    );

    // A complete final line that does not parse is torn for both.
    let garbage = format!("{head}{{\"v\":1,\"kind\":\"cl\n");
    assert!(one_shot(&dir, garbage.as_bytes()).unwrap().torn_tail);
    std::fs::write(&path, &garbage).unwrap();
    let mut reader = JournalReader::new(&path);
    reader.read().unwrap();
    assert!(reader.state().torn_tail);
    assert_eq!(reader.state().entries.len(), 2);

    // A line after it makes it corruption in the middle, for both.
    let corrupt = format!("{garbage}{}\n", lines[2]);
    let err = one_shot(&dir, corrupt.as_bytes()).unwrap_err();
    assert!(err.contains(":3: corrupt journal line"), "{err}");
    std::fs::write(&path, &corrupt).unwrap();
    let err = reader.read().unwrap_err();
    assert!(err.contains(":3: corrupt journal line"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
