//! # apex-obs — the deterministic observability plane
//!
//! Everything the rest of the workspace records *about* a run without
//! ever changing the run's bytes:
//!
//! * [`TraceEvent`] / [`Obs`] — operation-indexed (never wall-clock)
//!   structured trace events with a versioned compact-JSON line codec
//!   (the journal's conventions), emitted through a pluggable
//!   [`TraceSink`] that is a no-op null check when disabled;
//! * [`Metrics`] — typed counters, gauges, and fixed-bucket histograms
//!   with deterministic merge rules, written to a `metrics.json`
//!   sidecar; wall-clock readings (`time.*`, only under `--profile`)
//!   stay in its profiling plane, out of every byte-identity check;
//! * [`Table`] / [`summarize`] — the plain-text renderers behind
//!   `apex obs view`, `apex obs metrics`, `apex drift --compare`, and
//!   `apex farm status --metrics`.
//!
//! The load-bearing invariant, property-tested in
//! `tests/obs_properties.rs`: enabling any of this never changes a
//! single byte of any `ReportRecord`, manifest, or digest — telemetry
//! is excluded from byte-identity comparisons exactly like the
//! journal, and observation has no observer effect.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod sink;
pub mod trace;
pub mod view;

pub use metrics::{Hist, Metrics, METRICS_FILE, METRICS_FORMAT_MAJOR, POW2_BOUNDS};
pub use sink::{FileSink, MemEvents, Obs, TraceSink};
pub use trace::{read_trace, TraceEvent, TraceLog, TRACE_FILE, TRACE_FORMAT_MAJOR};
pub use view::{summarize, Table, TraceSummary};

use std::path::PathBuf;

/// What a caller asked the telemetry plane to do — carried beside the
/// engine knobs (never inside them: a scenario's digest must not
/// depend on whether anyone was watching).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsOpts {
    /// Write a JSONL trace of the run to this path.
    pub trace: Option<PathBuf>,
    /// Collect metrics and write the `metrics.json` sidecar.
    pub metrics: bool,
    /// Include wall-clock `time.*` gauges in the metrics document.
    /// Off, the document is a deterministic function of the run.
    pub profile: bool,
}

impl ObsOpts {
    /// Everything off (the default).
    pub fn off() -> Self {
        ObsOpts::default()
    }

    /// Open the trace sink named by `self.trace` (disabled handle when
    /// no trace was requested).
    pub fn open_trace(&self) -> std::io::Result<Obs> {
        match &self.trace {
            Some(path) => Obs::to_file(path),
            None => Ok(Obs::disabled()),
        }
    }
}

/// Whole milliseconds since `start`: the one clock behind every
/// `time.elapsed_ms` reading (`apex run --profile`, `apex suite run
/// --profile`).
pub fn elapsed_ms(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_default_off_and_open_disabled_handles() {
        let opts = ObsOpts::off();
        assert_eq!(opts, ObsOpts::default());
        assert!(!opts.open_trace().unwrap().enabled());
    }
}
