//! Deterministic fault injection for the lab's crash-safety machinery.
//!
//! A [`FaultPlan`] is a serializable description of *exactly which*
//! operations misbehave — kill the process before the k-th journal
//! line, tear the j-th store write, flip one bit of another, fail a
//! write transiently, panic a chosen cell. A [`FaultInjector`] runs a
//! plan as a [`Disk`]: it wraps the real disk (`FsDisk`) and, installed
//! with [`LabStore::with_faults`](crate::LabStore::with_faults), sits
//! under every store write and journal append of the run. The plan
//! triggers by **operation index**, never by wall clock or thread
//! timing, so every fault scenario in `tests/lab_faults.rs` replays
//! bit-for-bit. This is the same move the rest of the workspace makes
//! for adversarial schedules: the adversary is data, the run is a pure
//! function of it.

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use apex_sim::{Json, JsonDoc, JsonError, JsonVal};

use crate::disk::{Disk, FsDisk};

/// Marker carried by every error produced by a simulated process kill.
/// Retry logic treats errors containing this marker as fatal (a dead
/// process cannot retry), and tests use it to tell injected kills from
/// genuine I/O failures.
pub const KILL_MARKER: &str = "injected fault: simulated kill";

/// Panic message used for plan-injected cell panics.
pub const CELL_PANIC_MARKER: &str = "injected fault: cell panic";

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// Tear one store write: only the first `keep` bytes of write number
/// `write` reach the *final* path (bypassing temp+rename, simulating a
/// pre-atomic-write crash or a filesystem that lies about rename), after
/// which the process dies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornWrite {
    /// Zero-based store-write index to tear.
    pub write: u64,
    /// Bytes of the intended content that reach disk.
    pub keep: usize,
}

/// Silently corrupt one store write: XOR `mask` into byte `byte` of
/// write number `write`. The write "succeeds" — the corruption is only
/// discoverable by integrity checking (`apex lab fsck`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitFlip {
    /// Zero-based store-write index to corrupt.
    pub write: u64,
    /// Byte offset within the written content (clamped to length − 1).
    pub byte: usize,
    /// XOR mask applied to that byte (0 disables; tests use nonzero).
    pub mask: u8,
}

/// Fail attempts at one store write with a transient I/O error: the
/// first `fails` attempts of write number `write` error, later attempts
/// succeed — the shape bounded retry must absorb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransientFault {
    /// Zero-based store-write index to disturb.
    pub write: u64,
    /// How many leading attempts fail.
    pub fails: u32,
}

/// A serializable, seeded description of every fault one run injects.
///
/// Indices count *operations*, not time: journal appends are numbered in
/// append order, store writes in issue order, so a plan names the same
/// faults on every replay of the same (suite, plan) pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill the process immediately before journal append number `k`
    /// (zero-based): exactly `k` appends land, append `k` fails with
    /// [`KILL_MARKER`], and every later store/journal operation fails
    /// too (a dead process does nothing further).
    pub kill_after_journal: Option<u64>,
    /// Tear one store write.
    pub torn_write: Option<TornWrite>,
    /// Silently bit-flip one store write.
    pub bit_flip: Option<BitFlip>,
    /// Panic the runner inside these cells (by expansion index).
    pub panic_cells: Vec<usize>,
    /// Transiently fail attempts at these store writes.
    pub transient: Vec<TransientFault>,
}

impl FaultPlan {
    /// Serialize (canonical field order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "kill_after_journal".into(),
                self.kill_after_journal.map_or(Json::Null, Json::UInt),
            ),
            (
                "torn_write".into(),
                self.torn_write.as_ref().map_or(Json::Null, |t| {
                    Json::Obj(vec![
                        ("write".into(), Json::UInt(t.write)),
                        ("keep".into(), Json::UInt(t.keep as u64)),
                    ])
                }),
            ),
            (
                "bit_flip".into(),
                self.bit_flip.as_ref().map_or(Json::Null, |b| {
                    Json::Obj(vec![
                        ("write".into(), Json::UInt(b.write)),
                        ("byte".into(), Json::UInt(b.byte as u64)),
                        ("mask".into(), Json::UInt(b.mask as u64)),
                    ])
                }),
            ),
            (
                "panic_cells".into(),
                Json::Arr(
                    self.panic_cells
                        .iter()
                        .map(|&i| Json::UInt(i as u64))
                        .collect(),
                ),
            ),
            (
                "transient".into(),
                Json::Arr(
                    self.transient
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("write".into(), Json::UInt(t.write)),
                                ("fails".into(), Json::UInt(t.fails as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialize.
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Ok(FaultPlan {
            kill_after_journal: v
                .get("kill_after_journal")?
                .non_null()
                .map(JsonVal::as_u64)
                .transpose()?,
            torn_write: match v.get("torn_write")?.non_null() {
                None => None,
                Some(t) => Some(TornWrite {
                    write: t.get("write")?.as_u64()?,
                    keep: t.get("keep")?.as_usize()?,
                }),
            },
            bit_flip: match v.get("bit_flip")?.non_null() {
                None => None,
                Some(b) => {
                    let mask = b.get("mask")?.as_u64()?;
                    Some(BitFlip {
                        write: b.get("write")?.as_u64()?,
                        byte: b.get("byte")?.as_usize()?,
                        mask: u8::try_from(mask)
                            .map_err(|_| jerr(format!("bit-flip mask {mask} exceeds u8")))?,
                    })
                }
            },
            panic_cells: v
                .get("panic_cells")?
                .as_arr()?
                .map(JsonVal::as_usize)
                .collect::<Result<_, _>>()?,
            transient: v
                .get("transient")?
                .as_arr()?
                .map(|t| {
                    let fails = t.get("fails")?.as_u64()?;
                    Ok(TransientFault {
                        write: t.get("write")?.as_u64()?,
                        fails: u32::try_from(fails)
                            .map_err(|_| jerr(format!("transient fails {fails} exceeds u32")))?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
        })
    }

    /// Parse a complete plan document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        JsonDoc::decode(text, Self::decode)
    }

    /// Load and parse a plan file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What the plan does to one store-write attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WriteDirective {
    /// Perform the write normally.
    Proceed,
    /// Fail this attempt with a transient (retryable) I/O error.
    Transient,
    /// Write only a prefix to the final path, then die.
    Torn(usize),
    /// XOR `mask` into byte `byte` of the content, then write "normally".
    Flip {
        /// Byte offset to corrupt.
        byte: usize,
        /// XOR mask.
        mask: u8,
    },
}

/// A [`FaultPlan`] running as a [`Disk`] over the real one: operation
/// counters (one store-write index per logical write, shared by its
/// retries; one journal-append index per line) and the "process is
/// dead" latch. Threads share one injector via `Arc`.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    journal_appends: AtomicU64,
    store_writes: AtomicU64,
    killed: AtomicBool,
    disk: FsDisk,
}

thread_local! {
    /// The store-write index of this thread's write in flight.
    static WRITE_IN_FLIGHT: Cell<u64> = const { Cell::new(0) };
}

impl FaultInjector {
    /// An injector executing `plan` from operation zero.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ..FaultInjector::default()
        }
    }

    /// Whether a simulated kill has fired (after which every store write
    /// and journal append fails).
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Journal appends that have been allowed so far.
    #[cfg(test)]
    fn journal_appends(&self) -> u64 {
        self.journal_appends.load(Ordering::SeqCst)
    }

    /// Gate one journal line: `Err(KILL_MARKER…)` when the plan kills at
    /// this boundary (or already killed), `Ok` otherwise.
    fn on_journal_append(&self) -> Result<(), String> {
        if self.killed() {
            return Err(format!("{KILL_MARKER} (process already dead)"));
        }
        let n = self.journal_appends.load(Ordering::SeqCst);
        if self.plan.kill_after_journal == Some(n) {
            self.kill();
            return Err(format!("{KILL_MARKER} before journal append {n}"));
        }
        self.journal_appends.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Claim the next store-write index.
    fn next_store_write(&self) -> u64 {
        self.store_writes.fetch_add(1, Ordering::SeqCst)
    }

    /// What should happen to attempt `attempt` of store write `write`.
    fn directive(&self, write: u64, attempt: u32) -> WriteDirective {
        if let Some(t) = &self.plan.torn_write {
            if t.write == write {
                return WriteDirective::Torn(t.keep);
            }
        }
        if let Some(b) = &self.plan.bit_flip {
            if b.write == write {
                return WriteDirective::Flip {
                    byte: b.byte,
                    mask: b.mask,
                };
            }
        }
        if self
            .plan
            .transient
            .iter()
            .any(|t| t.write == write && attempt < t.fails)
        {
            return WriteDirective::Transient;
        }
        WriteDirective::Proceed
    }

    /// Latch the dead-process state.
    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Whether the plan panics the runner inside cell `index`.
    pub(crate) fn panics_cell(&self, index: usize) -> bool {
        self.plan.panic_cells.contains(&index)
    }
}

/// Store writes and journal lines follow the plan; renames, removals and
/// barriers are the filesystem's.
impl Disk for FaultInjector {
    fn barrier_count(&self) -> &AtomicU64 {
        self.disk.barrier_count()
    }

    /// Write the bytes (one flipped, for a planned bit flip), fail
    /// transiently, or tear a prefix onto the final path — a write with
    /// no atomic-write discipline — and die.
    fn write(&self, path: &Path, tmp: Option<&Path>, bytes: &[u8], attempt: u32) -> io::Result<()> {
        if self.killed() {
            return Err(io::Error::other(format!(
                "{KILL_MARKER} (process already dead)"
            )));
        }
        if attempt == 0 {
            WRITE_IN_FLIGHT.set(self.next_store_write());
        }
        match self.directive(WRITE_IN_FLIGHT.get(), attempt) {
            WriteDirective::Proceed => self.disk.write(path, tmp, bytes, attempt),
            WriteDirective::Flip { byte, mask } => {
                // Silent corruption: the write "succeeds" with one byte
                // XORed — only integrity checking can tell.
                let mut bytes = bytes.to_vec();
                if let Some(last) = bytes.len().checked_sub(1) {
                    bytes[byte.min(last)] ^= mask;
                }
                self.disk.write(path, tmp, &bytes, attempt)
            }
            WriteDirective::Torn(keep) => {
                let prefix = &bytes[..keep.min(bytes.len())];
                self.disk.write(path, Some(path), prefix, attempt)?;
                self.kill();
                Err(io::Error::other(format!(
                    "{KILL_MARKER} after torn write of {}",
                    path.display()
                )))
            }
            WriteDirective::Transient => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected fault: transient write error (attempt {attempt})"),
            )),
        }
    }

    /// The lines before a planned kill land (and are synced when `sync`
    /// is set); the kill's line and every later one do not.
    fn append(&self, path: &Path, text: &str, sync: bool) -> io::Result<()> {
        let mut landed = 0;
        for line in text.split_inclusive('\n') {
            if let Err(e) = self.on_journal_append() {
                if landed > 0 {
                    self.disk.append(path, &text[..landed], sync)?;
                }
                return Err(io::Error::other(e));
            }
            landed += line.len();
        }
        self.disk.append(path, text, sync)
    }
}

/// Whether an error message denotes a simulated kill (fatal — never
/// retried, reported as an interrupted run).
pub fn is_kill(msg: &str) -> bool {
    msg.contains(KILL_MARKER)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_plan() -> FaultPlan {
        FaultPlan {
            kill_after_journal: Some(3),
            torn_write: Some(TornWrite { write: 2, keep: 17 }),
            bit_flip: Some(BitFlip {
                write: 4,
                byte: 9,
                mask: 0x40,
            }),
            panic_cells: vec![1, 5],
            transient: vec![TransientFault { write: 0, fails: 2 }],
        }
    }

    #[test]
    fn plan_round_trips_byte_identically() {
        for plan in [FaultPlan::default(), full_plan()] {
            let text = plan.to_json().render_pretty();
            let back = FaultPlan::parse(&text).unwrap();
            assert_eq!(back, plan);
            assert_eq!(back.to_json().render_pretty(), text);
        }
    }

    #[test]
    fn kill_fires_exactly_at_the_planned_boundary_and_latches() {
        let inj = FaultInjector::new(FaultPlan {
            kill_after_journal: Some(2),
            ..FaultPlan::default()
        });
        assert!(inj.on_journal_append().is_ok());
        assert!(inj.on_journal_append().is_ok());
        let err = inj.on_journal_append().unwrap_err();
        assert!(is_kill(&err), "{err}");
        // Dead processes stay dead.
        assert!(inj.on_journal_append().is_err());
        assert!(inj.killed());
        assert_eq!(inj.journal_appends(), 2);
    }

    #[test]
    fn directives_trigger_by_write_index_and_attempt() {
        let inj = FaultInjector::new(full_plan());
        assert_eq!(inj.directive(0, 0), WriteDirective::Transient);
        assert_eq!(inj.directive(0, 1), WriteDirective::Transient);
        assert_eq!(inj.directive(0, 2), WriteDirective::Proceed);
        assert_eq!(inj.directive(1, 0), WriteDirective::Proceed);
        assert_eq!(inj.directive(2, 0), WriteDirective::Torn(17));
        assert_eq!(
            inj.directive(4, 0),
            WriteDirective::Flip {
                byte: 9,
                mask: 0x40
            }
        );
        assert_eq!(inj.next_store_write(), 0);
        assert_eq!(inj.next_store_write(), 1);
        assert!(inj.panics_cell(5));
        assert!(!inj.panics_cell(0));
    }
}
