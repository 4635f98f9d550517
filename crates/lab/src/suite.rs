//! Scenario suites: whole experiments as one versioned JSON document.
//!
//! A [`Suite`] names a set of [`Scenario`]s two ways: an explicit `cells`
//! list, and `grids` — a base scenario crossed with axes (execution
//! schemes, machine sizes, adversaries, engine batch sizes, a seed range).
//! Expansion is **deterministic**: cells come first in document order,
//! then each grid in document order, each enumerated scheme-outermost /
//! seed-innermost (`scheme × n × schedule × batch × seed`, each axis in
//! document order).
//! The same document therefore always produces the same cell order and
//! the same cell digests, which is what lets the lab store content-address
//! results and `apex drift` treat any difference as a regression.

use apex_scenario::{ProgramMemo, Scenario, ScenarioError};
use apex_scheme::SchemeKind;
use apex_sim::{AdversarySpec, Items, Json, JsonDoc, JsonError, JsonVal, JsonWriter, WriteJson};

use crate::rendered_digest_hex;

/// Major version of the suite JSON format (mismatches are rejected).
pub const SUITE_FORMAT_MAJOR: u64 = 1;
/// Minor version of the suite JSON format (additive extensions only).
///
/// The optional `expect` output-assertion list is additive and emitted
/// only when non-empty, and digests hash the canonical document — so
/// the version stanza stays untouched and every pre-existing suite
/// keeps its store address.
pub const SUITE_FORMAT_MINOR: u64 = 0;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// The elements of `v`'s optional array `key` (absent or `null` is
/// empty).
fn opt_arr<'d>(v: JsonVal<'d>, key: &str) -> Result<impl Iterator<Item = JsonVal<'d>>, JsonError> {
    let arr = v.get_opt(key).and_then(JsonVal::non_null);
    Ok(arr.map(JsonVal::as_arr).transpose()?.into_iter().flatten())
}

/// An inclusive-start, length-counted seed range axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedRange {
    /// First seed.
    pub start: u64,
    /// Number of consecutive seeds.
    pub count: u64,
}

impl WriteJson for SeedRange {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("start", self.start);
            w.field("count", self.count);
        });
    }
}

impl SeedRange {
    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Ok(SeedRange {
            start: v.get("start")?.as_u64()?,
            count: v.get("count")?.as_u64()?,
        })
    }
}

/// A base scenario crossed with axes. An empty axis means "keep the base
/// scenario's value" (one implicit point), so a grid with all axes empty
/// expands to exactly its base.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    /// The scenario every cell starts from.
    pub base: Scenario,
    /// Execution-scheme axis (scheme-mode bases only).
    pub schemes: Vec<SchemeKind>,
    /// Machine-size axis: overrides the library program's `n` (scheme
    /// mode) or the participant count (agreement mode).
    pub ns: Vec<usize>,
    /// Adversary axis: any specs of the composable algebra (legacy
    /// base kinds included).
    pub schedules: Vec<AdversarySpec>,
    /// Engine batch-size axis.
    pub batches: Vec<usize>,
    /// Seed-range axis; `None` keeps the base seed.
    pub seeds: Option<SeedRange>,
}

impl Grid {
    /// A grid with no axes (expands to the base scenario alone).
    pub fn new(base: Scenario) -> Self {
        Grid {
            base,
            schemes: Vec::new(),
            ns: Vec::new(),
            schedules: Vec::new(),
            batches: Vec::new(),
            seeds: None,
        }
    }

    /// Number of cells this grid expands to (0 for a zero-count seed
    /// range — the one way an axis can be genuinely empty rather than
    /// "use the base value"), or `None` if the count overflows `usize`.
    pub fn len(&self) -> Option<usize> {
        let seeds = self
            .seeds
            .map_or(Some(1), |r| usize::try_from(r.count).ok())?;
        [
            self.schemes.len(),
            self.ns.len(),
            self.schedules.len(),
            self.batches.len(),
        ]
        .into_iter()
        .try_fold(seeds, |acc, axis| acc.checked_mul(axis.max(1)))
    }

    /// Whether the grid expands to no cells (only possible via a
    /// zero-count seed range).
    pub fn is_empty(&self) -> bool {
        self.seeds.is_some_and(|r| r.count == 0)
    }

    /// Apply the axes to the base, scheme-outermost / seed-innermost:
    /// `scheme × n × schedule × batch × seed`, each axis in document
    /// order. Pushes the expanded scenarios onto `out`.
    fn expand_into(&self, out: &mut Vec<Scenario>) -> Result<(), String> {
        use apex_scenario::{Mode, ProgramSource};
        let one = |len: usize| 0..len.max(1);
        for si in one(self.schemes.len()) {
            for ni in one(self.ns.len()) {
                for ki in one(self.schedules.len()) {
                    for bi in one(self.batches.len()) {
                        // `start + i` for i < count cannot overflow once
                        // the *last* seed, `start + (count - 1)`, is known
                        // to fit — so a range may end exactly at u64::MAX.
                        let (start, count) = match self.seeds {
                            None => (self.base.seed, 1),
                            Some(r) => {
                                if r.count > 0 && r.start.checked_add(r.count - 1).is_none() {
                                    return Err(format!(
                                        "seed range {}+{} overflows u64",
                                        r.start, r.count
                                    ));
                                }
                                (r.start, r.count)
                            }
                        };
                        for i in 0..count {
                            let mut s = self.base.clone();
                            s.seed = start + i;
                            if let Some(kind) = self.schedules.get(ki) {
                                s.schedule = kind.clone();
                            }
                            if let Some(batch) = self.batches.get(bi) {
                                s.engine.batch = Some(*batch);
                            }
                            if let Some(scheme) = self.schemes.get(si) {
                                match &mut s.mode {
                                    Mode::Scheme { scheme: sch, .. } => *sch = *scheme,
                                    Mode::Agreement { .. } => {
                                        return Err(
                                            "scheme axis on an agreement-mode base".to_string()
                                        )
                                    }
                                }
                            }
                            if let Some(n) = self.ns.get(ni) {
                                match &mut s.mode {
                                    Mode::Agreement { n: base_n, .. } => *base_n = *n,
                                    Mode::Scheme { program, .. } => match program {
                                        ProgramSource::Library { n: base_n, .. } => *base_n = *n,
                                        ProgramSource::Explicit(_) => {
                                            return Err("n axis on an explicit program (library \
                                                        sources only)"
                                                .to_string())
                                        }
                                    },
                                }
                            }
                            out.push(s);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Ok(Grid {
            base: Scenario::decode(v.get("base")?)?,
            schemes: opt_arr(v, "schemes")?
                .map(|s| apex_scenario::scheme_from_label(s.as_str()?))
                .collect::<Result<_, _>>()?,
            ns: opt_arr(v, "ns")?
                .map(JsonVal::as_usize)
                .collect::<Result<_, _>>()?,
            schedules: opt_arr(v, "schedules")?
                .map(AdversarySpec::decode)
                .collect::<Result<_, _>>()?,
            batches: opt_arr(v, "batches")?
                .map(JsonVal::as_usize)
                .collect::<Result<_, _>>()?,
            seeds: v
                .get_opt("seeds")
                .and_then(JsonVal::non_null)
                .map(SeedRange::decode)
                .transpose()?,
        })
    }
}

impl WriteJson for Grid {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("base", &self.base);
            w.key("schemes");
            w.arr(Items::Scalars, |w| {
                for s in &self.schemes {
                    w.str(s.label());
                }
            });
            w.field("ns", &self.ns);
            w.field("schedules", &self.schedules);
            w.field("batches", &self.batches);
            w.field("seeds", self.seeds);
        });
    }
}

/// A pinned result: the cell named by `cell` (a [`Scenario::digest`])
/// must produce exactly `outputs` as its named output-block values
/// ([`ReportRecord::outputs`](apex_scenario::ReportRecord)). This makes a
/// suite fail on wrong *results* even when the run's verifier is clean —
/// the check is on what the program computed, not on how it ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputExpectation {
    /// Digest of the cell's scenario (stable under grid re-ordering).
    pub cell: String,
    /// Expected output-block values, in block order.
    pub outputs: Vec<u64>,
}

impl WriteJson for OutputExpectation {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("cell", &self.cell);
            w.field("outputs", &self.outputs);
        });
    }
}

impl OutputExpectation {
    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Ok(OutputExpectation {
            cell: v.get("cell")?.as_str()?.to_string(),
            outputs: v
                .get("outputs")?
                .as_arr()?
                .map(JsonVal::as_u64)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Most cells one suite may expand to. Expansion materializes every
/// cell, so a larger suite is rejected before anything is allocated.
pub const MAX_SUITE_CELLS: usize = 1 << 20;

/// A suite whose expansion would exceed [`MAX_SUITE_CELLS`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TooManyCells {
    /// The suite's name.
    pub suite: String,
    /// The cell count the document asks for (`None` if it overflows).
    pub cells: Option<usize>,
}

impl std::fmt::Display for TooManyCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cells {
            Some(n) => write!(f, "suite {:?} expands to {n} cells", self.suite)?,
            None => write!(f, "suite {:?} cell count overflows", self.suite)?,
        }
        write!(f, "; the cap is {MAX_SUITE_CELLS}")
    }
}

impl From<TooManyCells> for String {
    fn from(e: TooManyCells) -> String {
        e.to_string()
    }
}

/// One expanded point of a suite: its position, its scenario, and the
/// scenario's content digest (the record address in the lab store).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Position in the suite's deterministic expansion order.
    pub index: usize,
    /// The fully-specified scenario.
    pub scenario: Scenario,
    /// [`Scenario::digest`] of the scenario.
    pub digest: String,
}

/// A versioned, shareable experiment: explicit cells plus grids, expanded
/// deterministically into [`Cell`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct Suite {
    /// Suite name (lower-case `[a-z0-9._-]`; names the store directory in
    /// manifests and reports).
    pub name: String,
    /// Explicit scenarios, expanded first in document order.
    pub cells: Vec<Scenario>,
    /// Grids, expanded after the explicit cells, in document order.
    pub grids: Vec<Grid>,
    /// Output assertions: cells (by scenario digest) whose named outputs
    /// are pinned. `suite run` fails when a pinned cell's outputs differ.
    pub expect: Vec<OutputExpectation>,
}

impl Suite {
    /// An empty suite.
    pub fn new(name: impl Into<String>) -> Self {
        Suite {
            name: name.into(),
            cells: Vec::new(),
            grids: Vec::new(),
            expect: Vec::new(),
        }
    }

    /// Content digest of the canonical compact suite document (16 hex
    /// digits of FNV-1a) — the suite's directory name in the lab store.
    pub fn digest(&self) -> String {
        rendered_digest_hex(self, false)
    }

    /// Number of cells the suite expands to — explicit cells plus every
    /// grid's [`Grid::len`], in checked arithmetic — or [`TooManyCells`]
    /// above [`MAX_SUITE_CELLS`].
    pub fn cell_count(&self) -> Result<usize, TooManyCells> {
        let total = self.grids.iter().try_fold(self.cells.len(), |acc, grid| {
            grid.len().and_then(|n| acc.checked_add(n))
        });
        match total {
            Some(n) if n <= MAX_SUITE_CELLS => Ok(n),
            cells => Err(TooManyCells {
                suite: self.name.clone(),
                cells,
            }),
        }
    }

    /// Check the document is well-formed: a filesystem-safe name, every
    /// expanded scenario valid, and no two cells sharing a digest (they
    /// would collide at one store address). This is a full
    /// [`Suite::expand`] with the cells dropped: a caller about to expand
    /// should just expand.
    pub fn validate(&self) -> Result<(), String> {
        self.expand().map(|_| ())
    }

    /// Expand to the deterministic cell list, validating every scenario.
    pub fn expand(&self) -> Result<Vec<Cell>, String> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"._-".contains(&b))
        {
            return Err(format!(
                "suite name {:?} must be non-empty lower-case [a-z0-9._-]",
                self.name
            ));
        }
        let mut scenarios = Vec::with_capacity(self.cell_count()?);
        scenarios.extend_from_slice(&self.cells);
        for (gi, grid) in self.grids.iter().enumerate() {
            grid.expand_into(&mut scenarios)
                .map_err(|e| format!("suite {:?} grid {gi}: {e}", self.name))?;
        }
        if scenarios.is_empty() {
            return Err(format!("suite {:?} expands to no cells", self.name));
        }
        // One pass validates and addresses every cell, resolving each
        // distinct program once (`ProgramMemo`); the memo borrows the
        // scenarios, so they move into cells only after it.
        let mut memo = ProgramMemo::default();
        let mut digests = Vec::with_capacity(scenarios.len());
        let mut declares_io = Vec::with_capacity(scenarios.len());
        let mut seen: std::collections::HashMap<String, usize> = Default::default();
        for (index, scenario) in scenarios.iter().enumerate() {
            let io = scenario
                .validate_in(&mut memo)
                .map_err(|e: ScenarioError| format!("suite {:?} cell {index}: {e}", self.name))?;
            let digest = scenario.digest();
            if let Some(prev) = seen.insert(digest.clone(), index) {
                return Err(format!(
                    "suite {:?}: cells {prev} and {index} are identical (digest {digest}); \
                     each cell must name a distinct scenario",
                    self.name
                ));
            }
            digests.push(digest);
            declares_io.push(io.is_some());
        }
        let cells: Vec<Cell> = scenarios
            .into_iter()
            .zip(digests)
            .enumerate()
            .map(|(index, (scenario, digest))| Cell {
                index,
                scenario,
                digest,
            })
            .collect();
        // Output assertions must name expanded cells (by digest, exactly
        // once each) that actually declare named outputs.
        let mut pinned: std::collections::HashSet<&str> = Default::default();
        for (ei, expect) in self.expect.iter().enumerate() {
            if !pinned.insert(&expect.cell) {
                return Err(format!(
                    "suite {:?}: expectation {ei} pins cell {} twice",
                    self.name, expect.cell
                ));
            }
            let Some(&index) = seen.get(&expect.cell) else {
                return Err(format!(
                    "suite {:?}: expectation {ei} names cell {}, which no cell expands to",
                    self.name, expect.cell
                ));
            };
            if !declares_io[index] {
                return Err(format!(
                    "suite {:?}: expectation {ei} pins cell {} (index {index}), whose scenario \
                     declares no named outputs (library scheme-mode sources only)",
                    self.name, expect.cell
                ));
            }
        }
        Ok(cells)
    }

    /// Serialize to the versioned suite document (canonical field order;
    /// all axes rendered explicitly so the canonical form is unique —
    /// except `expect`, emitted only when non-empty so expectation-free
    /// documents keep their canonical bytes and digests).
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize a suite document (rejects unknown major versions;
    /// structural errors only — call [`Suite::validate`] before running).
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let version = v
            .get("version")
            .map_err(|_| jerr("suite document has no version field"))?;
        let major = version.get("major")?.as_u64()?;
        if major != SUITE_FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported suite format major version {major} (this build reads \
                 {SUITE_FORMAT_MAJOR})"
            )));
        }
        Ok(Suite {
            name: v.get("name")?.as_str()?.to_string(),
            cells: opt_arr(v, "cells")?
                .map(Scenario::decode)
                .collect::<Result<_, _>>()?,
            grids: opt_arr(v, "grids")?
                .map(Grid::decode)
                .collect::<Result<_, _>>()?,
            expect: opt_arr(v, "expect")?
                .map(OutputExpectation::decode)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parse a complete suite document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        JsonDoc::decode(text, Self::decode)
    }

    /// The canonical pretty-printed document.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_to(&mut out);
        out
    }

    /// Write the canonical document to `path` atomically
    /// (temp + fsync + rename).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        apex_scenario::atomic_write(path, &self.render_pretty())
    }

    /// Load and parse a suite file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl WriteJson for Suite {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.key("version");
            w.obj(|w| {
                w.field("major", SUITE_FORMAT_MAJOR);
                w.field("minor", SUITE_FORMAT_MINOR);
            });
            w.field("name", &self.name);
            w.field("cells", &self.cells);
            w.field("grids", &self.grids);
            if !self.expect.is_empty() {
                w.field("expect", &self.expect);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_scenario::{ProgramSource, SourceSpec};
    use apex_sim::ScheduleKind;

    fn scheme_base() -> Scenario {
        Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("tree-reduce-max", 8, vec![3]),
            1,
        )
    }

    fn demo_suite() -> Suite {
        let mut suite = Suite::new("demo");
        suite
            .cells
            .push(Scenario::agreement(8, SourceSpec::Keyed, 1, 42));
        let mut grid = Grid::new(scheme_base());
        grid.schemes = vec![SchemeKind::Nondet, SchemeKind::DetBaseline];
        grid.schedules = vec![
            ScheduleKind::Uniform.into(),
            ScheduleKind::Bursty { mean_burst: 8 }.into(),
        ];
        grid.seeds = Some(SeedRange { start: 1, count: 3 });
        suite.grids.push(grid);
        suite
    }

    #[test]
    fn expansion_is_deterministic_and_scheme_outermost() {
        let suite = demo_suite();
        let cells = suite.expand().unwrap();
        assert_eq!(cells.len(), 1 + 2 * 2 * 3);
        let again = suite.expand().unwrap();
        assert_eq!(cells, again);
        // Cell 0 is the explicit cell; the grid follows scheme-outermost,
        // seed-innermost.
        use apex_scenario::Mode;
        let scheme_of = |c: &Cell| match &c.scenario.mode {
            Mode::Scheme { scheme, .. } => *scheme,
            _ => panic!("grid cells are scheme-mode"),
        };
        assert!(matches!(cells[0].scenario.mode, Mode::Agreement { .. }));
        assert_eq!(scheme_of(&cells[1]), SchemeKind::Nondet);
        assert_eq!(scheme_of(&cells[7]), SchemeKind::DetBaseline);
        assert_eq!(cells[1].scenario.seed, 1);
        assert_eq!(cells[2].scenario.seed, 2);
        assert_eq!(cells[3].scenario.seed, 3);
        assert_eq!(
            cells[4].scenario.schedule,
            ScheduleKind::Bursty { mean_burst: 8 }.into()
        );
        // Digests are pairwise distinct.
        let mut digests: Vec<_> = cells.iter().map(|c| c.digest.clone()).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), cells.len());
    }

    #[test]
    fn suite_round_trips_exactly() {
        let suite = demo_suite();
        let back = Suite::parse(&suite.render_pretty()).unwrap();
        assert_eq!(back, suite);
        assert_eq!(back.digest(), suite.digest());
        let compact = Suite::parse(&suite.to_json().render()).unwrap();
        assert_eq!(compact, suite);
    }

    #[test]
    fn ill_formed_suites_are_rejected() {
        // Bad name.
        let mut bad = demo_suite();
        bad.name = "Has Spaces".into();
        assert!(bad.expand().is_err());

        // Duplicate cells collide at one store address.
        let mut dup = Suite::new("dup");
        let cell = Scenario::agreement(8, SourceSpec::Keyed, 1, 42);
        dup.cells.push(cell.clone());
        dup.cells.push(cell);
        let e = dup.expand().unwrap_err();
        assert!(e.contains("identical"), "{e}");

        // Scheme axis on an agreement base.
        let mut ag = Suite::new("ag");
        let mut grid = Grid::new(Scenario::agreement(8, SourceSpec::Keyed, 1, 1));
        grid.schemes = vec![SchemeKind::Nondet];
        ag.grids.push(grid);
        assert!(ag.expand().unwrap_err().contains("agreement-mode"));

        // n axis on an explicit program.
        use apex_pram::library::coin_sum;
        let mut ex = Suite::new("ex");
        let mut grid = Grid::new(Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::Explicit(coin_sum(4, 8).program),
            1,
        ));
        grid.ns = vec![4, 8];
        ex.grids.push(grid);
        assert!(ex.expand().unwrap_err().contains("explicit"));

        // Empty suites expand to nothing.
        assert!(Suite::new("empty").expand().is_err());

        // Invalid expanded scenarios are caught with their cell index.
        let mut invalid = Suite::new("invalid");
        let mut grid = Grid::new(scheme_base());
        grid.ns = vec![6]; // not a power of two
        invalid.grids.push(grid);
        assert!(invalid.expand().unwrap_err().contains("cell 0"));
    }

    #[test]
    fn output_expectations_validate_and_round_trip() {
        // A suite with a pinned output: tree-reduce-max over n=8 params=[3].
        let mut suite = Suite::new("haspin");
        let cell = scheme_base();
        let digest = cell.digest();
        suite.cells.push(cell);
        suite.expect.push(OutputExpectation {
            cell: digest.clone(),
            outputs: vec![42],
        });
        suite.validate().unwrap();
        // Round-trips exactly, and the `expect` field is emitted.
        let back = Suite::parse(&suite.render_pretty()).unwrap();
        assert_eq!(back, suite);
        assert!(suite.to_json().render().contains("\"expect\":"));
        // An expectation-free suite's canonical form has no expect field,
        // so pre-1.1 documents keep their digests.
        let mut bare = suite.clone();
        bare.expect.clear();
        assert!(!bare.to_json().render().contains("\"expect\":"));

        // Unknown digests are rejected with the expectation index.
        let mut dangling = suite.clone();
        dangling.expect[0].cell = "feedfacefeedface".into();
        assert!(dangling.validate().unwrap_err().contains("expectation 0"));

        // Pinning one cell twice is rejected.
        let mut twice = suite.clone();
        twice.expect.push(OutputExpectation {
            cell: digest,
            outputs: vec![7],
        });
        assert!(twice.validate().unwrap_err().contains("twice"));

        // Pinning a cell with no named outputs is rejected.
        let mut ag = Suite::new("ag");
        let cell = Scenario::agreement(8, SourceSpec::Keyed, 1, 42);
        let digest = cell.digest();
        ag.cells.push(cell);
        ag.expect.push(OutputExpectation {
            cell: digest,
            outputs: vec![1],
        });
        assert!(ag.validate().unwrap_err().contains("no named outputs"));
    }

    #[test]
    fn n_axis_applies_to_both_modes() {
        use apex_scenario::Mode;
        let mut suite = Suite::new("ns");
        let mut g1 = Grid::new(scheme_base());
        g1.ns = vec![4, 8];
        suite.grids.push(g1);
        let mut g2 = Grid::new(Scenario::agreement(8, SourceSpec::Keyed, 1, 5));
        g2.ns = vec![4, 16];
        suite.grids.push(g2);
        let cells = suite.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].scenario.n(), 4);
        assert_eq!(cells[1].scenario.n(), 8);
        assert!(matches!(cells[2].scenario.mode, Mode::Agreement { .. }));
        assert_eq!(cells[2].scenario.n(), 4);
        assert_eq!(cells[3].scenario.n(), 16);
    }

    #[test]
    fn seed_axis_edge_cases() {
        // A zero-count seed range is the one genuinely empty axis:
        // len/is_empty agree, and a suite of only-empty grids is rejected.
        let mut grid = Grid::new(scheme_base());
        grid.schedules = vec![
            ScheduleKind::Uniform.into(),
            ScheduleKind::RoundRobin.into(),
        ];
        grid.seeds = Some(SeedRange { start: 1, count: 0 });
        assert_eq!(grid.len(), Some(0));
        assert!(grid.is_empty());
        let mut suite = Suite::new("zero");
        suite.grids.push(grid);
        assert!(suite.expand().unwrap_err().contains("no cells"));

        // A base seed of u64::MAX with no seeds axis must not overflow.
        let mut base = scheme_base();
        base.seed = u64::MAX;
        let mut suite = Suite::new("maxseed");
        suite.grids.push(Grid::new(base));
        let cells = suite.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].scenario.seed, u64::MAX);

        // A seed range ending exactly at u64::MAX is fine; one past it is
        // a clean error, not a wrap.
        let mut grid = Grid::new(scheme_base());
        grid.seeds = Some(SeedRange {
            start: u64::MAX - 1,
            count: 2,
        });
        let mut suite = Suite::new("maxrange");
        suite.grids.push(grid.clone());
        assert_eq!(suite.expand().unwrap().len(), 2);
        grid.seeds = Some(SeedRange {
            start: u64::MAX,
            count: 2,
        });
        let mut suite = Suite::new("overflow");
        suite.grids.push(grid);
        assert!(suite.expand().unwrap_err().contains("overflows"));
    }

    #[test]
    fn unknown_major_version_is_rejected() {
        let mut json = demo_suite().to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Obj(vec![
                ("major".into(), Json::UInt(SUITE_FORMAT_MAJOR + 1)),
                ("minor".into(), Json::UInt(0)),
            ]);
        }
        let e = json.decode(Suite::decode).unwrap_err();
        assert!(e.msg.contains("major version"), "{e}");
    }
}
