//! # apex-obs — the deterministic observability plane
//!
//! Everything the rest of the workspace records *about* a run without
//! ever changing the run's bytes:
//!
//! * [`TraceEvent`] / [`Obs`] — operation-indexed (never wall-clock)
//!   structured trace events with a versioned compact-JSON line codec
//!   (the journal's conventions), emitted through a pluggable
//!   [`TraceSink`] that is a no-op null check when disabled;
//! * [`Metrics`] / [`MetricsHub`] — typed counters, gauges, and
//!   fixed-bucket histograms with deterministic merge rules, written
//!   to a `metrics.json` sidecar;
//! * [`Stopwatch`] — wall-clock profiling confined to the telemetry
//!   plane and feature-gated (`wallclock`, on by default); with the
//!   feature off every reading is 0;
//! * [`Table`] / [`summarize`] — the plain-text renderers behind
//!   `apex obs view`, `apex obs metrics`, `apex drift report`, and
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

pub use metrics::{Hist, Metrics, MetricsHub, METRICS_FILE, METRICS_FORMAT_MAJOR, POW2_BOUNDS};
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

    /// Whether any telemetry was requested.
    pub fn any(&self) -> bool {
        self.trace.is_some() || self.metrics || self.profile
    }

    /// Open the trace sink named by `self.trace` (disabled handle when
    /// no trace was requested).
    pub fn open_trace(&self) -> std::io::Result<Obs> {
        match &self.trace {
            Some(path) => Obs::to_file(path),
            None => Ok(Obs::disabled()),
        }
    }

    /// A metrics hub matching `self.metrics` / `self.profile`.
    pub fn open_metrics(&self) -> MetricsHub {
        if self.metrics || self.profile {
            MetricsHub::live()
        } else {
            MetricsHub::disabled()
        }
    }
}

/// A wall-clock stopwatch confined to the telemetry plane. With the
/// `wallclock` feature disabled it always reads 0 ms, making even the
/// profiling plane deterministic.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    #[cfg(feature = "wallclock")]
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            #[cfg(feature = "wallclock")]
            start: std::time::Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`Stopwatch::start`] (0 without the
    /// `wallclock` feature).
    pub fn elapsed_ms(&self) -> u64 {
        #[cfg(feature = "wallclock")]
        {
            self.start.elapsed().as_millis() as u64
        }
        #[cfg(not(feature = "wallclock"))]
        {
            0
        }
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_default_off_and_open_disabled_handles() {
        let opts = ObsOpts::off();
        assert!(!opts.any());
        assert!(!opts.open_trace().unwrap().enabled());
        assert!(!opts.open_metrics().enabled());

        let on = ObsOpts {
            metrics: true,
            ..ObsOpts::off()
        };
        assert!(on.any());
        assert!(on.open_metrics().enabled());
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        // Either the feature is on (any reading is >= 0 and monotone)
        // or off (always 0); both satisfy this.
        let a = sw.elapsed_ms();
        let b = sw.elapsed_ms();
        assert!(b >= a);
    }
}
