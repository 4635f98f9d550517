//! [`CacheStats`] — the typed tally of a memoized (cached) run.
//!
//! The lab store is content-addressed and every record deterministic, so
//! a second request for the same cell digest should never recompute.
//! When a runner consults the store before executing (the `--cached`
//! path, or a farm worker draining a queue), every cell lands in exactly
//! one of three buckets: **hit** (verified bytes already present —
//! nothing executed), **miss** (no bytes at the cell's address), or
//! **rejected** (bytes present but they failed verification: parse,
//! digest, canonical rendering, or pinned checksum — the cache never
//! trusts unverified bytes). The tally lands in the run summary and, as
//! `cache.*` counters, in the run's `metrics.json`.

/// Per-run memoization tally: every cell the runner looked up lands in
/// exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells answered from verified store bytes (not executed).
    pub hits: u64,
    /// Cells with no bytes at their content address (executed).
    pub misses: u64,
    /// Cells whose stored bytes failed verification — parse, digest,
    /// canonical-rendering, or checksum — and were therefore re-executed
    /// rather than trusted.
    pub rejected: u64,
}

impl CacheStats {
    /// Total cells looked up.
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.rejected
    }

    /// Whether every looked-up cell was a verified hit (the memoization
    /// proof: a warm re-run executes nothing).
    pub fn all_hit(&self) -> bool {
        self.total() > 0 && self.misses == 0 && self.rejected == 0
    }

    /// One-line human summary (what `apex suite run --cached` prints).
    pub fn summary(&self) -> String {
        format!(
            "cache: {} hits, {} misses, {} rejected",
            self.hits, self.misses, self.rejected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tally_and_classify() {
        let a = CacheStats {
            hits: 3,
            misses: 0,
            rejected: 0,
        };
        assert!(a.all_hit());
        assert_eq!(a.total(), 3);
        let b = CacheStats {
            hits: 4,
            misses: 2,
            rejected: 1,
        };
        assert_eq!(b.total(), 7);
        assert!(!b.all_hit());
        assert!(
            !CacheStats::default().all_hit(),
            "an empty tally proves nothing"
        );
        assert!(b.summary().contains("4 hits"));
    }
}
