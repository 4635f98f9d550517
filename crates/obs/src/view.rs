//! Rendering helpers: a plain-text column table and trace summaries.
//!
//! These back `apex obs view`, `apex obs metrics`, the per-suite table
//! of `apex drift --compare`, and `apex farm status --metrics` — one
//! aligner instead of four ad-hoc `format!` layouts.

use std::collections::BTreeMap;

use crate::trace::TraceEvent;

/// A left-aligned plain-text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (short rows are padded with empty cells).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns, a header rule, and two-space
    /// gutters. Ends with a newline when non-empty.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == widths.len() {
                    line.push_str(cell);
                } else {
                    line.push_str(&format!("{cell:<w$}  "));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Aggregated view of a trace: per-(scope, kind) event counts and
/// field sums, plus tick attribution by label (the per-adversary /
/// per-cell breakdown `apex obs view` prints).
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total events summarized.
    pub events: u64,
    /// Per `(scope, kind)`: event count.
    pub counts: BTreeMap<(String, String), u64>,
    /// Per `(scope, kind)`: sum of each numeric field.
    pub field_sums: BTreeMap<(String, String), BTreeMap<String, u64>>,
    /// Sum of `ticks` fields grouped by event label (events without a
    /// label are grouped under `"-"`).
    pub ticks_by_label: BTreeMap<String, u64>,
}

/// Summarize a slice of (already filtered) trace events.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for e in events {
        s.events += 1;
        let key = (e.scope.clone(), e.kind.clone());
        *s.counts.entry(key.clone()).or_insert(0) += 1;
        let sums = s.field_sums.entry(key).or_default();
        for (name, v) in &e.fields {
            *sums.entry(name.clone()).or_insert(0) += *v;
        }
        if let Some(t) = e.field("ticks") {
            let label = if e.label.is_empty() { "-" } else { &e.label };
            *s.ticks_by_label.entry(label.to_string()).or_insert(0) += t;
        }
    }
    s
}

impl TraceSummary {
    /// Render the per-seam table followed by the tick-attribution
    /// table (when any event carried a `ticks` field).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut seams = Table::new(&["scope", "kind", "events", "field totals"]);
        for ((scope, kind), count) in &self.counts {
            let sums = self
                .field_sums
                .get(&(scope.clone(), kind.clone()))
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default();
            seams.row(&[scope.clone(), kind.clone(), count.to_string(), sums]);
        }
        out.push_str(&seams.render());
        if !self.ticks_by_label.is_empty() {
            out.push('\n');
            let mut attr = Table::new(&["label", "ticks"]);
            // Largest consumers first; name breaks ties for determinism.
            let mut rows: Vec<_> = self.ticks_by_label.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for (label, ticks) in rows {
                attr.row(&[label.clone(), ticks.to_string()]);
            }
            out.push_str(&attr.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_pads() {
        let mut t = Table::new(&["name", "n"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "23".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("a-much-longer-name  23"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn summary_counts_seams_and_attributes_ticks() {
        let events = vec![
            TraceEvent::new(0, "engine", "block", 256, "uniform", &[("ticks", 256)]),
            TraceEvent::new(1, "engine", "block", 512, "uniform", &[("ticks", 256)]),
            TraceEvent::new(2, "engine", "block", 128, "bursty(4)", &[("ticks", 128)]),
            TraceEvent::new(3, "lab", "claim", 0, "cell-a", &[]),
        ];
        let s = summarize(&events);
        assert_eq!(s.events, 4);
        assert_eq!(s.counts[&("engine".into(), "block".into())], 3);
        assert_eq!(
            s.field_sums[&("engine".into(), "block".into())]["ticks"],
            640
        );
        assert_eq!(s.ticks_by_label["uniform"], 512);
        let render = s.render();
        assert!(render.contains("engine"));
        assert!(render.contains("uniform"));
    }
}
