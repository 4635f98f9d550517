//! Shared memory of the host system.
//!
//! A flat array of [`Stamped`] cells. Processors access it only through the
//! atomic operations of [`crate::exec::Ctx`] (each costing one work unit);
//! everything in this module that does *not* cost work is explicitly labelled
//! as instrumentation (`peek`, `snapshot_*`, hooks) — such accesses model the
//! *observer's* view used by validators and experiments, never a processor's.

use std::cell::Cell;
use std::rc::Rc;

use crate::word::{ProcId, Stamp, Stamped, Value};

/// A contiguous range of shared-memory cells assigned to one data structure
/// (a bin array, the phase clock, program variables, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First cell of the region.
    pub base: usize,
    /// Number of cells.
    pub len: usize,
}

impl Region {
    /// Construct a region.
    pub const fn new(base: usize, len: usize) -> Self {
        Region { base, len }
    }

    /// Address of the `i`-th cell of this region.
    ///
    /// # Panics
    /// If `i >= self.len` (a layout bug, not a protocol event).
    #[inline]
    pub fn addr(&self, i: usize) -> usize {
        assert!(
            i < self.len,
            "region index {i} out of bounds (len {})",
            self.len
        );
        self.base + i
    }

    /// One past the last address.
    #[inline]
    pub fn end(&self) -> usize {
        self.base + self.len
    }

    /// Whether `addr` falls inside this region.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Sequentially allocates non-overlapping [`Region`]s; used by the memory
/// maps of the protocol crates.
#[derive(Debug, Default)]
pub struct RegionAllocator {
    next: usize,
}

impl RegionAllocator {
    /// A fresh allocator starting at address 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` cells.
    pub fn alloc(&mut self, len: usize) -> Region {
        let r = Region::new(self.next, len);
        self.next += len;
        r
    }

    /// Total number of cells allocated so far (= required memory size).
    pub fn total(&self) -> usize {
        self.next
    }
}

/// An observed write, reported to [write hooks](SharedMemory::add_write_hook).
#[derive(Clone, Copy, Debug)]
pub struct WriteEvent {
    /// Cell written.
    pub addr: usize,
    /// Content before the write.
    pub old: Stamped,
    /// Content after the write.
    pub new: Stamped,
    /// Processor that performed the write.
    pub writer: ProcId,
    /// Global work counter at the moment of the write (actual-time proxy).
    pub work: u64,
}

/// Observer callback invoked on every store. Hooks are instrumentation: they
/// run outside the machine model and cost no work.
pub type WriteHook = Box<dyn FnMut(&WriteEvent)>;

/// The shared memory space of the `n`-processor host system.
pub struct SharedMemory {
    cells: Vec<Stamped>,
    hooks: Vec<WriteHook>,
    now: u64,
    /// Live view of the machine's work counter. When attached (every
    /// machine-owned memory), "now" is read lazily from here at the moment
    /// a hook fires, so the engine never pays a per-tick `set_now` call.
    now_src: Option<Rc<Cell<u64>>>,
    reads: u64,
    writes: u64,
}

impl SharedMemory {
    /// Allocate `size` cells, all initialized to [`Stamped::ZERO`].
    pub fn new(size: usize) -> Self {
        SharedMemory {
            cells: vec![Stamped::ZERO; size],
            hooks: Vec::new(),
            now: 0,
            now_src: None,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memory has zero cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomic load performed by a processor (called from `Ctx::read`).
    #[inline]
    pub(crate) fn load(&mut self, addr: usize, _who: ProcId) -> Stamped {
        self.reads += 1;
        self.cells[addr]
    }

    /// Atomic store performed by a processor (called from `Ctx::write`).
    #[inline]
    pub(crate) fn store(&mut self, addr: usize, new: Stamped, who: ProcId) {
        self.writes += 1;
        self.poke_observed(addr, new, who);
    }

    /// Model-violating compare-and-swap used only by the `ideal-cas`
    /// baseline (the paper's model forbids compound atomic operations; see
    /// DESIGN.md §6). Returns the previous content; stores `new` only when
    /// the previous content equals `expect`.
    ///
    /// Accounting: a CAS always inspects the cell, so it always counts one
    /// load; a successful CAS additionally counts one store. (It still
    /// costs a single work unit — that is exactly the model-violating
    /// bundling the baseline exists to quantify.)
    pub(crate) fn cas(
        &mut self,
        addr: usize,
        expect: Stamped,
        new: Stamped,
        who: ProcId,
    ) -> Stamped {
        let old = self.cells[addr];
        self.reads += 1;
        if old == expect {
            self.store(addr, new, who);
        }
        old
    }

    /// Instrumentation read: the observer's view. Costs no work and no
    /// model-level read.
    #[inline]
    pub fn peek(&self, addr: usize) -> Stamped {
        self.cells[addr]
    }

    /// Instrumentation write, for test setup only.
    pub fn poke(&mut self, addr: usize, w: Stamped) {
        self.cells[addr] = w;
    }

    /// Instrumentation write that *does* fire write hooks, attributed to
    /// `who` — lets tests exercise observers without a live processor.
    /// Costs no work and no model-level write.
    #[inline]
    pub fn poke_observed(&mut self, addr: usize, w: Stamped, who: ProcId) {
        let old = self.cells[addr];
        self.cells[addr] = w;
        if !self.hooks.is_empty() {
            self.fire_hooks(WriteEvent {
                addr,
                old,
                new: w,
                writer: who,
                work: self.now(),
            });
        }
    }

    /// Run every write hook on `ev` (kept out of line: the store path
    /// without observers is the hot one).
    #[cold]
    fn fire_hooks(&mut self, ev: WriteEvent) {
        // Hooks are moved out during iteration so they may themselves
        // inspect the memory via `peek` without aliasing issues. Hooks
        // installed *by* hooks are not supported.
        let mut hooks = std::mem::take(&mut self.hooks);
        for h in &mut hooks {
            h(&ev);
        }
        debug_assert!(self.hooks.is_empty());
        self.hooks = hooks;
    }

    /// Instrumentation snapshot of a region.
    pub fn snapshot(&self, region: Region) -> Vec<Stamped> {
        self.cells[region.base..region.end()].to_vec()
    }

    /// Iterate (instrumentation) over the values of a region.
    pub fn region_values<'a>(&'a self, region: Region) -> impl Iterator<Item = Value> + 'a {
        self.cells[region.base..region.end()]
            .iter()
            .map(|w| w.value)
    }

    /// Iterate (instrumentation) over the stamps of a region.
    pub fn region_stamps<'a>(&'a self, region: Region) -> impl Iterator<Item = Stamp> + 'a {
        self.cells[region.base..region.end()]
            .iter()
            .map(|w| w.stamp)
    }

    /// Install a write observer. Hooks see every store in execution order.
    pub fn add_write_hook(&mut self, hook: WriteHook) {
        self.hooks.push(hook);
    }

    /// Attach a live view of the machine's work counter; from then on the
    /// observer's "now" tracks it without per-tick propagation.
    pub(crate) fn attach_now_source(&mut self, src: Rc<Cell<u64>>) {
        self.now_src = Some(src);
    }

    /// Advance the observer's notion of "now" (the global work counter) on
    /// a standalone memory (test setup). Machine-owned memories track the
    /// work counter through [`SharedMemory::attach_now_source`] instead.
    #[allow(dead_code)]
    pub(crate) fn set_now(&mut self, work: u64) {
        self.now = work;
    }

    /// The observer's current "now" (global work counter proxy).
    #[inline]
    fn now(&self) -> u64 {
        match &self.now_src {
            Some(src) => src.get(),
            None => self.now,
        }
    }

    /// Total model-level loads performed so far.
    pub fn total_reads(&self) -> u64 {
        self.reads
    }

    /// Total model-level stores performed so far.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }
}

impl std::fmt::Debug for SharedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemory")
            .field("len", &self.cells.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .field("hooks", &self.hooks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn region_addressing() {
        let r = Region::new(10, 5);
        assert_eq!(r.addr(0), 10);
        assert_eq!(r.addr(4), 14);
        assert_eq!(r.end(), 15);
        assert!(r.contains(10) && r.contains(14));
        assert!(!r.contains(9) && !r.contains(15));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn region_bounds_checked() {
        Region::new(0, 3).addr(3);
    }

    #[test]
    fn allocator_is_contiguous_and_disjoint() {
        let mut a = RegionAllocator::new();
        let r1 = a.alloc(8);
        let r2 = a.alloc(3);
        assert_eq!(r1.base, 0);
        assert_eq!(r2.base, 8);
        assert_eq!(a.total(), 11);
        assert!(!r1.contains(r2.base));
    }

    #[test]
    fn load_store_roundtrip_and_counters() {
        let mut m = SharedMemory::new(4);
        assert_eq!(m.load(2, ProcId(0)), Stamped::ZERO);
        m.store(2, Stamped::new(9, 1), ProcId(0));
        assert_eq!(m.load(2, ProcId(1)), Stamped::new(9, 1));
        assert_eq!(m.total_reads(), 2);
        assert_eq!(m.total_writes(), 1);
    }

    #[test]
    fn write_hook_sees_old_and_new() {
        let mut m = SharedMemory::new(2);
        let log: Rc<RefCell<Vec<(usize, Stamped, Stamped)>>> = Rc::new(RefCell::new(vec![]));
        let log2 = log.clone();
        m.add_write_hook(Box::new(move |ev| {
            log2.borrow_mut().push((ev.addr, ev.old, ev.new));
        }));
        m.store(1, Stamped::new(5, 2), ProcId(3));
        m.store(1, Stamped::new(6, 3), ProcId(3));
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (1, Stamped::ZERO, Stamped::new(5, 2)));
        assert_eq!(log[1], (1, Stamped::new(5, 2), Stamped::new(6, 3)));
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let mut m = SharedMemory::new(1);
        let old = m.cas(0, Stamped::ZERO, Stamped::new(1, 1), ProcId(0));
        assert_eq!(old, Stamped::ZERO);
        assert_eq!(m.peek(0), Stamped::new(1, 1));
        let old = m.cas(0, Stamped::ZERO, Stamped::new(2, 2), ProcId(0));
        assert_eq!(old, Stamped::new(1, 1));
        assert_eq!(
            m.peek(0),
            Stamped::new(1, 1),
            "mismatched cas must not store"
        );
    }

    #[test]
    fn cas_counts_one_read_always_plus_one_write_on_success() {
        let mut m = SharedMemory::new(1);
        // Success: the inspection load plus the store.
        m.cas(0, Stamped::ZERO, Stamped::new(1, 1), ProcId(0));
        assert_eq!((m.total_reads(), m.total_writes()), (1, 1));
        // Failure: the inspection load only.
        m.cas(0, Stamped::ZERO, Stamped::new(2, 2), ProcId(0));
        assert_eq!((m.total_reads(), m.total_writes()), (2, 1));
    }

    #[test]
    fn snapshot_is_observer_level() {
        let mut m = SharedMemory::new(6);
        m.poke(4, Stamped::new(7, 1));
        let r = Region::new(3, 3);
        let snap = m.snapshot(r);
        assert_eq!(snap, vec![Stamped::ZERO, Stamped::new(7, 1), Stamped::ZERO]);
        assert_eq!(m.total_reads(), 0, "snapshots cost no model reads");
        assert_eq!(m.region_values(r).collect::<Vec<_>>(), vec![0, 7, 0]);
        assert_eq!(m.region_stamps(r).collect::<Vec<_>>(), vec![0, 1, 0]);
    }
}
