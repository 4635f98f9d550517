//! # apex-sim — the A-PRAM host system
//!
//! A deterministic simulator of the machine model of Aumann, Bender & Zhang,
//! *Efficient Execution of Nondeterministic Parallel Programs on Asynchronous
//! Systems* (SPAA'96 / Inf. & Comp. 139, 1997), §1 "The model":
//!
//! * `n` asynchronous processors with a shared memory of word-sized cells,
//!   each cell carrying a timestamp read/written atomically with the value;
//! * atomic operations: shared-memory **read**, shared-memory **write**, one
//!   **basic computation** on local registers, a draw from the processor's
//!   **private random source**, or a **no-op** — never a compound
//!   read-modify-write;
//! * an **oblivious adversary scheduler** that fixes the entire interleaving
//!   in advance, knowing the program and inputs but not the processors'
//!   dynamic random choices;
//! * complexity measured as **total work**: the number of steps performed by
//!   all processors within an interval, busy waiting and idling included.
//!
//! ## How protocols are written
//!
//! Protocol code is plain `async` Rust over a [`Ctx`]; every `await` of a
//! `Ctx` operation is exactly one atomic step, granted by the adversary
//! schedule one tick at a time (the `exec` engine). This gives exact, replayable
//! work accounting — the measurement the paper's theorems are stated in —
//! which physical threads cannot provide. An engine that holds its
//! processors itself (the bytecode VM) implements a processor [`Bank`]
//! instead and populates the machine with [`MachineBuilder::spawn`]; the
//! same dispatch loop ([`Block::run`]) drives both.
//!
//! ```
//! use apex_sim::{MachineBuilder, ScheduleKind, Stamped};
//!
//! // Each processor increments its own counter cell 10 times.
//! let mut m = MachineBuilder::new(4, 4)
//!     .seed(1)
//!     .schedule_kind(&ScheduleKind::Uniform)
//!     .build(|ctx| async move {
//!         let me = ctx.id().0;
//!         for i in 1..=10 {
//!             ctx.write(me, Stamped::new(i, 0)).await;
//!         }
//!     });
//! let work = m.run_to_completion(1_000_000).unwrap();
//! assert_eq!(work, m.work());
//! assert!(m.all_done());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod exec;
pub mod json;
pub mod math;
mod memory;
mod metrics;
pub mod rng;
pub mod sched;
mod word;

pub use error::RunTimeout;
pub use exec::{
    Account, Bank, Block, BlockHook, Ctx, Machine, MachineBuilder, Port, Processors, Resumed,
    Spawn, Wiring, DEFAULT_BATCH,
};
pub use json::{fnv1a64, Fnv1a, Items, Json, JsonError, JsonWriter, Sink, WriteJson};
pub use memory::{Region, RegionAllocator, SharedMemory, WriteEvent, WriteHook};
pub use metrics::WorkReport;
pub use sched::{
    AdversarySpec, BoxedSchedule, Group, OverlayKind, Schedule, ScheduleKind, Script,
    ScriptSegment, ScriptSpec, Span, MAX_ADVERSARY_DEPTH,
};
pub use word::{ProcId, Stamp, Stamped, Value};
