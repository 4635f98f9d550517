//! # apex-bc — flat bytecode compiler + VM for the scheme hot loop
//!
//! ROADMAP direction 3: the tree-walking scheme processors pay interpreter
//! overhead on every atomic operation — boxed `dyn` value-source futures,
//! per-operand last-write binary searches, asserted address arithmetic,
//! cycle-log bookkeeping, and deep nested poll chains. This crate lowers a
//! resolved program *once*, at machine-assembly time, into a contiguous
//! slot table with pre-resolved operand addresses and expected stamps
//! ([`compile`]), and executes it with a flat VM: one processor [`Bank`]
//! that holds every processor's registers, credit and op counters and
//! private RNG as plain fields, and takes one memory borrow per decision
//! block.
//!
//! The VM is op-for-op identical to the tree walker — same operation
//! kinds, addresses, and RNG draws per processor per tick — so schedules,
//! work accounting, memory stamps, and reports are byte-identical; only
//! throughput changes. The tree walker stays the oracle:
//! `tests/bytecode_determinism.rs` diffs the two engines over synthesized
//! programs × adversary trees and the committed corpus.
//!
//! Entry point: [`factory`], which plugs into
//! [`SchemeRun::new_with_factory`](apex_scheme::SchemeRun::new_with_factory).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod compile;
#[cfg(test)]
mod tests;
mod vm;

use std::rc::Rc;

use apex_scheme::SchemeParts;
use apex_sim::{Bank, Spawn, Wiring};

pub use compile::{compile, CompileStats, CompiledScheme};

use vm::VmBank;

/// Compile `parts` and return the processors for
/// [`SchemeRun::new_with_factory`](apex_scheme::SchemeRun::new_with_factory):
/// one VM bank over the shared compiled table, driven by the machine's
/// dispatch loop through the same credit protocol as the tree-walking
/// processors.
pub fn factory(parts: &SchemeParts) -> impl Spawn {
    factory_of(Rc::new(compile(parts)), parts)
}

/// [`factory`] over an already-lowered table. Callers that want the
/// [`CompileStats`] before the run starts (the scenario layer's `compile.*`
/// trace instrument) call [`compile`] themselves and hand the result in,
/// so lowering still happens exactly once.
pub fn factory_of(prog: Rc<CompiledScheme>, parts: &SchemeParts) -> impl Spawn {
    VmSpawn {
        prog,
        events: parts.events.clone(),
    }
}

/// The VM bank, waiting for its machine's [`Wiring`].
struct VmSpawn {
    prog: Rc<CompiledScheme>,
    events: apex_scheme::tasks::EventsHandle,
}

impl Spawn for VmSpawn {
    fn spawn(self, wiring: Wiring) -> Box<dyn Bank> {
        Box::new(VmBank::new(self.prog, self.events, wiring))
    }
}
