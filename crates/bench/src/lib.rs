//! The experiment targets E1–E11 and their plumbing: tables, fits,
//! scales, and machine-readable artifacts.
//!
//! Every `benches/e*.rs` target regenerates one experiment from
//! EXPERIMENTS.md, prints a markdown table, and emits JSON artifacts (see
//! [`Experiment`]). Measurements are in model work units (deterministic),
//! so a single run per (config, seed) is exact; seeds supply the
//! statistical dimension. Each target builds its cells as
//! [`Scenario`](apex_scenario::Scenario)s and fans them across OS threads
//! with [`apex_lab::runner::run_trials`], which returns results in config
//! order, so every table and JSON results artifact is byte-identical to a
//! serial run.
//!
//! Environment knobs:
//!
//! * `APEX_BENCH_FULL=1` — large sizes (n up to 1024, plus the n = 2048
//!   crossover confirmation point in E8).
//! * `APEX_RUNNER_THREADS=k` — thread count of the fan-out
//!   ([`apex_lab::runner::resolve_threads`]; default: all cores; `1` runs
//!   every trial inline on the main thread).
//! * `APEX_BENCH_DIR=path` — artifact directory (default
//!   `target/bench-artifacts`).

#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Problem sizes for sweeps.
pub fn sweep_sizes() -> Vec<usize> {
    if full_scale() {
        vec![16, 32, 64, 128, 256, 512, 1024]
    } else {
        vec![16, 32, 64, 128, 256]
    }
}

/// Whether the full-scale flag is set.
pub fn full_scale() -> bool {
    std::env::var("APEX_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Seeds for a statistical dimension of size `k`.
pub fn seeds(k: u64) -> Vec<u64> {
    (0..k).map(|i| 0xBE5C + i * 7919).collect()
}

/// `log₂ n` as f64 (≥ 1).
pub fn lg(n: usize) -> f64 {
    (n as f64).log2().max(1.0)
}

/// `log₂ log₂ n` as f64 (≥ 1).
pub fn lglg(n: usize) -> f64 {
    lg(n).log2().max(1.0)
}

/// The Theorem-1 normalizer `n · log n · log log n`.
pub fn theorem_one_bound(n: usize) -> f64 {
    n as f64 * lg(n) * lglg(n)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Least-squares power-law fit `y = c·x^e` via regression in log–log space;
/// returns `(exponent, prefactor, r²)`.
pub fn fit_power(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let mx = mean(&lx);
    let my = mean(&ly);
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    let e = sxy / sxx;
    let c = (my - e * mx).exp();
    let ss_tot: f64 = ly.iter().map(|y| (y - my).powi(2)).sum();
    let ss_res: f64 = lx
        .iter()
        .zip(&ly)
        .map(|(x, y)| (y - (e * x + c.ln())).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (e, c, r2)
}

/// A markdown table printer with right-aligned cells.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Row cells in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Deterministic JSON rendering: `{"headers": [...], "rows": [[...]]}`.
    pub fn to_json(&self) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| json_string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| json_string(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"headers\":[{}],\"rows\":[{}]}}",
            headers.join(","),
            rows.join(",")
        )
    }

    /// Render to stdout as github-flavored markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths
            .iter()
            .map(|w| format!("{}:", "-".repeat(w.saturating_sub(1).max(1))))
            .collect();
        println!("| {} |", sep.join(" | "));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Print an experiment banner.
pub fn banner(id: &str, paper_item: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {paper_item}");
    println!("claim: {claim}");
    println!(
        "scale: {}",
        if full_scale() {
            "FULL (APEX_BENCH_FULL=1)"
        } else {
            "default"
        }
    );
    println!("================================================================\n");
}

/// JSON string literal with minimal escaping (sufficient for table cells).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Artifact directory: `APEX_BENCH_DIR` (resolved against the process
/// working directory) or, by default, `target/bench-artifacts` under the
/// *workspace* root — cargo runs bench executables with the package
/// directory as cwd, so a cwd-relative default would scatter artifacts.
pub fn artifact_dir() -> PathBuf {
    std::env::var("APEX_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/bench-artifacts"
            ))
        })
}

/// Wall-clock + throughput bookkeeping for one experiment target.
///
/// [`Experiment::finish`] writes two artifacts into [`artifact_dir`]:
///
/// * `BENCH_<ID>.json` — the experiment's deterministic results (every
///   printed table). Byte-identical across runner modes and thread counts.
/// * `BENCH_<ID>_perf.json` — the perf trajectory: wall-clock, total
///   machine ticks, ticks/sec, trial and thread counts. Inherently
///   machine- and run-dependent; kept out of the results artifact so the
///   results stay comparable byte-for-byte.
pub struct Experiment {
    id: String,
    start: Instant,
    tables: Vec<(String, String)>,
    total_ticks: u64,
    trials: usize,
}

impl Experiment {
    /// Start the experiment clock.
    pub fn start(id: &str) -> Self {
        Experiment {
            id: id.to_string(),
            start: Instant::now(),
            tables: Vec::new(),
            total_ticks: 0,
            trials: 0,
        }
    }

    /// Record finished trials, one item per trial: the machine ticks it
    /// consumed.
    pub fn record_trials(&mut self, ticks: impl IntoIterator<Item = u64>) {
        for t in ticks {
            self.trials += 1;
            self.total_ticks += t;
        }
    }

    /// Print a table to stdout and stage it for the results artifact.
    pub fn table(&mut self, name: &str, table: &Table) {
        table.print();
        self.tables.push((name.to_string(), table.to_json()));
    }

    /// Write both artifacts; returns the results path when writable.
    pub fn finish(self) -> Option<PathBuf> {
        let wall = self.start.elapsed();
        let dir = artifact_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }

        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|(name, json)| format!("{}:{}", json_string(name), json))
            .collect();
        let results = format!(
            "{{\"experiment\":{},\"tables\":{{{}}}}}\n",
            json_string(&self.id),
            tables.join(",")
        );
        let results_path = dir.join(format!("BENCH_{}.json", self.id));
        let ok = std::fs::File::create(&results_path)
            .and_then(|mut f| f.write_all(results.as_bytes()))
            .is_ok();

        let wall_s = wall.as_secs_f64();
        let tps = if wall_s > 0.0 {
            self.total_ticks as f64 / wall_s
        } else {
            0.0
        };
        let perf = format!(
            "{{\"experiment\":{},\"wall_seconds\":{:.6},\"total_ticks\":{},\"ticks_per_sec\":{:.1},\"trials\":{},\"runner_threads\":{}}}\n",
            json_string(&self.id),
            wall_s,
            self.total_ticks,
            tps,
            self.trials,
            apex_lab::runner::resolve_threads(None),
        );
        let perf_path = dir.join(format!("BENCH_{}_perf.json", self.id));
        let _ = std::fs::File::create(&perf_path).and_then(|mut f| f.write_all(perf.as_bytes()));

        println!(
            "\n[{}] wall {:.2}s, {} ticks, {:.2}M ticks/s, {} trials on {} thread(s)",
            self.id,
            wall_s,
            self.total_ticks,
            tps / 1e6,
            self.trials,
            apex_lab::runner::resolve_threads(None),
        );
        if ok {
            println!(
                "[{}] artifacts: {} (+ _perf.json)",
                self.id,
                results_path.display()
            );
            Some(results_path)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_fit_recovers_exponent() {
        let xs: Vec<f64> = (1..=8).map(|x| x as f64 * 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
        let (e, c, r2) = fit_power(&xs, &ys);
        assert!((e - 1.5).abs() < 1e-9);
        assert!((c - 3.0).abs() < 1e-6);
        assert!(r2 > 0.999);
    }

    #[test]
    fn stats_basics() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert!(theorem_one_bound(256) > 256.0 * 8.0);
    }

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["n", "work"]);
        t.row(vec!["16".into(), "123".into()]);
        t.print();
    }
}
