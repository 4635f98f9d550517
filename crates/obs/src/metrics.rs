//! The typed, mergeable metrics registry and its `metrics.json` codec.
//!
//! Three instrument families, each with a fixed deterministic merge:
//!
//! * **counters** — monotone tallies; merge by **sum** (two workers'
//!   executed-cell counts add up to the fleet's);
//! * **gauges** — level readings; merge by **max** (the fleet's cell
//!   total is the largest any worker saw, not the sum);
//! * **histograms** — fixed-bucket distributions; merge by
//!   element-wise sum (bounds must match exactly).
//!
//! Like the journal, `metrics.json` is **telemetry, not store
//! identity**: it is excluded from every byte-identity diff and never
//! hashed into a content address. Unlike wall-clock profiling values
//! (which only appear under the `time.` namespace and only when
//! profiling is requested), every other instrument is a deterministic
//! function of the run, so merged fleet metrics are comparable across
//! machines and reruns.
//!
//! Naming convention (one dot-separated namespace per plane):
//! `cells.*` and `ticks.*` are the **result plane** — functions
//! of *what was computed*, identical however the fleet was arranged;
//! `cache.*`, `farm.*`, `journal.*`, `store.*` are the
//! **coordination plane** — functions of *how* this particular run got
//! there; `time.*` is the **profiling plane** — wall clock, present
//! only on request. [`Metrics::result_plane`] carves out the first
//! group, which is what fleet-vs-serial equality checks compare.

use std::collections::BTreeMap;
use std::path::Path;

use apex_sim::{Json, JsonDoc, JsonError, JsonVal};

/// File name of the unified metrics sidecar inside a suite directory.
pub const METRICS_FILE: &str = "metrics.json";

/// Major version stamped on every metrics document.
pub const METRICS_FORMAT_MAJOR: u64 = 1;

/// Default histogram bounds: powers of two from 1 to 65536 (plus the
/// implicit overflow bucket) — wide enough for batch sizes and
/// per-cell tick counts alike.
pub const POW2_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// A fixed-bucket histogram: `counts[i]` tallies observations
/// `<= bounds[i]`, with one final overflow bucket
/// (`counts.len() == bounds.len() + 1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Ascending inclusive upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (last = overflow).
    pub counts: Vec<u64>,
}

impl Hist {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &[u64]) -> Self {
        Hist {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let i = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// The metrics registry: named counters, gauges, and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Add `by` to counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Raise gauge `name` to at least `v` (gauges merge by max, so the
    /// recording operation is max too).
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Record one observation into histogram `name` with the default
    /// power-of-two bounds.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.observe_with(name, &POW2_BOUNDS, v);
    }

    /// Record one observation into histogram `name` with explicit
    /// bounds (which must match the histogram's existing bounds).
    pub fn observe_with(&mut self, name: &str, bounds: &[u64], v: u64) {
        self.hists
            .entry(name.to_string())
            .or_insert_with(|| Hist::new(bounds))
            .observe(v);
    }

    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of gauge `name`, if recorded.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge `other` into `self`: counters sum, gauges max, histograms
    /// add element-wise. Mismatched histogram bounds are an error — two
    /// documents disagreeing on buckets are not comparable.
    pub fn merge(&mut self, other: &Metrics) -> Result<(), String> {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    if mine.bounds != h.bounds {
                        return Err(format!("histogram {k:?}: bucket bounds differ"));
                    }
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                }
            }
        }
        Ok(())
    }

    /// The result-plane subset (`cells.*` and `ticks.*` counters and
    /// `cells.*` gauges): the instruments that are
    /// functions of *what was computed*, so a merged fleet document
    /// equals a serial run's document on exactly this subset.
    pub fn result_plane(&self) -> Metrics {
        let keep = |name: &str| name.starts_with("cells.") || name.starts_with("ticks.");
        Metrics {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| k.starts_with("cells."))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            hists: BTreeMap::new(),
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} counters, {} gauges, {} histograms",
            self.counters.len(),
            self.gauges.len(),
            self.hists.len()
        )
    }

    /// Serialize (canonical order: version, then each family sorted by
    /// name — `BTreeMap` iteration order is the canonical order).
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))).collect())
        };
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            (
                                "bounds".into(),
                                Json::Arr(h.bounds.iter().map(|b| Json::UInt(*b)).collect()),
                            ),
                            (
                                "counts".into(),
                                Json::Arr(h.counts.iter().map(|c| Json::UInt(*c)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("v".into(), Json::UInt(METRICS_FORMAT_MAJOR)),
            ("counters".into(), map(&self.counters)),
            ("gauges".into(), map(&self.gauges)),
            ("hists".into(), hists),
        ])
    }

    /// Deserialize the output of [`Metrics::to_json`].
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let version = v.get("v")?.as_u64()?;
        if version != METRICS_FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported metrics version {version} (this build reads {METRICS_FORMAT_MAJOR})"
            )));
        }
        let object = |key: &str| {
            let o = v.get(key)?;
            o.members()
                .ok_or_else(|| jerr(format!("expected {key} object, got {o:?}")))
        };
        let map = |key: &str| -> Result<BTreeMap<String, u64>, JsonError> {
            object(key)?
                .map(|(k, val)| Ok((k.to_string(), val.as_u64()?)))
                .collect()
        };
        let nums = |val: JsonVal<'_>| -> Result<Vec<u64>, JsonError> {
            val.as_arr()?.map(JsonVal::as_u64).collect()
        };
        let hists = object("hists")?
            .map(|(k, hv)| {
                let h = Hist {
                    bounds: nums(hv.get("bounds")?)?,
                    counts: nums(hv.get("counts")?)?,
                };
                if h.counts.len() != h.bounds.len() + 1 {
                    return Err(jerr(format!("histogram {k:?}: bucket count mismatch")));
                }
                Ok((k.to_string(), h))
            })
            .collect::<Result<BTreeMap<_, _>, JsonError>>()?;
        Ok(Metrics {
            counters: map("counters")?,
            gauges: map("gauges")?,
            hists,
        })
    }

    /// Parse a complete document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        JsonDoc::decode(text, Self::decode)
    }

    /// The canonical pretty-printed document.
    pub fn render_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Load a metrics document from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let mut m = Metrics::new();
        m.add("cells.executed", 5);
        m.add("cells.executed", 1);
        m.gauge_max("cells.total", 8);
        m.gauge_max("cells.total", 3); // max keeps 8
        m.observe("cell.ticks", 100);
        m.observe("cell.ticks", 1_000_000); // overflow bucket
        assert_eq!(m.counter("cells.executed"), 6);
        assert_eq!(m.gauge("cells.total"), Some(8));
        assert_eq!(m.hist("cell.ticks").unwrap().total(), 2);
        assert_eq!(*m.hist("cell.ticks").unwrap().counts.last().unwrap(), 1);
        let back = Metrics::parse(&m.render_pretty()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_adds_buckets() {
        let mut a = Metrics::new();
        a.add("cells.executed", 3);
        a.gauge_max("cells.total", 8);
        a.observe("cell.ticks", 4);
        let mut b = Metrics::new();
        b.add("cells.executed", 5);
        b.add("cache.hits", 2);
        b.gauge_max("cells.total", 8);
        b.observe("cell.ticks", 4);
        a.merge(&b).unwrap();
        assert_eq!(a.counter("cells.executed"), 8);
        assert_eq!(a.counter("cache.hits"), 2);
        assert_eq!(a.gauge("cells.total"), Some(8));
        assert_eq!(a.hist("cell.ticks").unwrap().total(), 2);

        let mut odd = Metrics::new();
        odd.observe_with("cell.ticks", &[10, 20], 5);
        assert!(a.merge(&odd).unwrap_err().contains("bounds differ"));
    }

    #[test]
    fn result_plane_keeps_only_deterministic_namespaces() {
        let mut m = Metrics::new();
        m.add("cells.executed", 4);
        m.add("ticks.executed", 999);
        m.add("cache.hits", 7);
        m.add("journal.appends", 12);
        m.gauge_max("cells.total", 4);
        m.gauge_max("time.elapsed_ms", 55);
        m.observe("cell.ticks", 10);
        let rp = m.result_plane();
        assert_eq!(rp.counter("cells.executed"), 4);
        assert_eq!(rp.counter("cache.hits"), 0);
        assert_eq!(rp.gauge("cells.total"), Some(4));
        assert_eq!(rp.gauge("time.elapsed_ms"), None);
        assert!(rp.hist("cell.ticks").is_none());
    }

    #[test]
    fn version_gate_rejects_future_documents() {
        let doc = Metrics::new()
            .render_pretty()
            .replace("\"v\": 1", "\"v\": 9");
        assert!(Metrics::parse(&doc).is_err());
    }
}
