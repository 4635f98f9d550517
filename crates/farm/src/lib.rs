//! # apex-farm — a memoizing campaign service over the lab store
//!
//! The paper's subject is executing nondeterministic parallel programs
//! efficiently on asynchronous machines; this crate makes the campaign
//! layer itself such a system. It is the shape of a queue-dispatch
//! asynchronous system: uncoordinated workers drain a dispatch queue at
//! arbitrary relative speeds, and correctness is checked mechanically
//! rather than assumed — here for free, because every result write is
//! content-addressed and idempotent, so the only thing workers ever
//! race on is *who does the work*, never *what the bytes are*.
//!
//! Three pieces:
//!
//! * [`FarmQueue`] — a file-based work queue (`apex farm submit`
//!   enqueues a suite document; entries are content-addressed and
//!   idempotent like everything else);
//! * [`run_worker`] — drain the queue ([`apex farm worker`]): lease
//!   cell shards with `leased` lines in the suite journal, whose expiry
//!   is *operation-indexed* on that same journal (never wall-clock),
//!   answer cells from verified store bytes, execute only true misses,
//!   and finalize each suite with a manifest byte-identical to a
//!   single-runner run. Any two workers that produce bytes for the same
//!   cell are diffed against each other (drift's
//!   [`Divergence`](apex_lab::Divergence)) — a free integrity check on
//!   the whole deterministic pipeline. A worker id must be
//!   `[A-Za-z0-9_-]+` ([`check_worker_id`]): it names journal lines and
//!   files;
//! * [`query`] — the front-end (`apex farm query`): answer a single
//!   scenario from cache, or enqueue it as a one-cell suite for the
//!   workers.
//!
//! A crashed worker leaves, at worst, a journal prefix (its last
//! `leased` line included) and verified records. The lease lapses once
//! the operation clock passes its ttl, and any worker then takes the
//! shard over. The journal is the only thing workers coordinate
//! through, and the lease in it is only an optimization against
//! duplicated work.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod query;
mod queue;
mod worker;

pub use query::{query, QueryAnswer};
pub use queue::{EntryError, FarmQueue, FarmStatus, QueueEntry, SuiteProgress, DEFAULT_QUEUE_ROOT};
pub use worker::{
    check_worker_id, run_worker, InvalidWorkerId, WorkerOpts, WorkerReport, DEFAULT_SHARD_CELLS,
    DEFAULT_TTL,
};
