//! Program sources and the stable program JSON form.
//!
//! A [`ProgramSource`] names the workload of a scheme-mode scenario either
//! *by reference* — a library program plus its parameters, resolved against
//! [`apex_pram::library`] — or *by value* — an explicit [`Program`] carried
//! in full. The explicit form is what fuzz reproducers use (the program
//! text is the finding); the library form keeps hand-written scenarios
//! small and readable.
//!
//! The program JSON encoding (`op` names, operand objects, step rows with
//! `null` for inactive threads) is the stable artifact form introduced by
//! the synthesis subsystem's reproducers; it lives here now so every
//! scenario consumer shares one codec.

use std::collections::HashMap;

use apex_pram::library::{
    blelloch_scan, coin_sum, gen_values, hypercube_allreduce, jacobi_smooth, leader_election,
    matvec, odd_even_sort, random_walks, tree_reduce, Built,
};
use apex_pram::{Instr, Op, Operand, Program, VarBlock, VarId};
use apex_scheme::SchemeKind;
use apex_sim::{Items, Json, JsonError, JsonVal, JsonWriter, WriteJson};

use crate::scenario::{ScenarioError, MAX_N};
use crate::Doc;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// `Op` → stable artifact name.
pub fn op_name(op: Op) -> &'static str {
    match op {
        Op::Add => "add",
        Op::Sub => "sub",
        Op::Mul => "mul",
        Op::Min => "min",
        Op::Max => "max",
        Op::Xor => "xor",
        Op::And => "and",
        Op::Or => "or",
        Op::Shl => "shl",
        Op::Shr => "shr",
        Op::Lt => "lt",
        Op::Eq => "eq",
        Op::Mov => "mov",
        Op::RandBit => "rand-bit",
        Op::RandBelow => "rand-below",
    }
}

/// Stable artifact name → `Op`.
pub fn op_from_name(name: &str) -> Result<Op, JsonError> {
    Ok(match name {
        "add" => Op::Add,
        "sub" => Op::Sub,
        "mul" => Op::Mul,
        "min" => Op::Min,
        "max" => Op::Max,
        "xor" => Op::Xor,
        "and" => Op::And,
        "or" => Op::Or,
        "shl" => Op::Shl,
        "shr" => Op::Shr,
        "lt" => Op::Lt,
        "eq" => Op::Eq,
        "mov" => Op::Mov,
        "rand-bit" => Op::RandBit,
        "rand-below" => Op::RandBelow,
        other => return Err(jerr(format!("unknown op {other:?}"))),
    })
}

/// Scheme label round-trip (uses [`SchemeKind::label`] names).
pub fn scheme_from_label(label: &str) -> Result<SchemeKind, JsonError> {
    Ok(match label {
        "nondet-scheme" => SchemeKind::Nondet,
        "det-baseline" => SchemeKind::DetBaseline,
        "scan-consensus" => SchemeKind::ScanConsensus,
        "ideal-cas" => SchemeKind::IdealCas,
        other => return Err(jerr(format!("unknown scheme {other:?}"))),
    })
}

impl WriteJson for Doc<'_, Operand> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match *self.0 {
            Operand::Var(v) => w.field("var", v as u64),
            Operand::Const(c) => w.field("const", c),
        });
    }
}

fn operand_from_json(v: JsonVal<'_>) -> Result<Operand, JsonError> {
    if let Some(var) = v.get_opt("var") {
        Ok(Operand::Var(var.as_usize()?))
    } else if let Some(c) = v.get_opt("const") {
        Ok(Operand::Const(c.as_u64()?))
    } else {
        Err(jerr(format!("operand needs var or const: {v:?}")))
    }
}

impl WriteJson for Doc<'_, Instr> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let i = self.0;
        w.obj(|w| {
            w.field("dst", i.dst as u64);
            w.field("op", op_name(i.op));
            w.field("a", Doc(&i.a));
            w.field("b", Doc(&i.b));
        });
    }
}

fn instr_from_json(v: JsonVal<'_>) -> Result<Instr, JsonError> {
    Ok(Instr::new(
        v.get("dst")?.as_usize()? as VarId,
        op_from_name(v.get("op")?.as_str()?)?,
        operand_from_json(v.get("a")?)?,
        operand_from_json(v.get("b")?)?,
    ))
}

/// Serialize a program to its JSON artifact form.
pub fn program_to_json(p: &Program) -> Json {
    Doc(p).to_tree()
}

impl WriteJson for Doc<'_, Program> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let p = self.0;
        w.obj(|w| {
            w.field("name", &p.name);
            w.field("n_threads", p.n_threads);
            w.field("mem_size", p.mem_size);
            w.field("init", &p.init);
            w.key("steps");
            w.arr(Items::Containers, |w| {
                for row in &p.steps {
                    // A row of idle slots is all nulls: scalars.
                    let items = if row.iter().all(Option::is_none) {
                        Items::Scalars
                    } else {
                        Items::Containers
                    };
                    w.arr(items, |w| {
                        for slot in row {
                            slot.as_ref().map(Doc).write_json(w);
                        }
                    });
                }
            });
        });
    }
}

/// Deserialize and **validate** a program from its JSON artifact form.
pub fn program_from_json(v: JsonVal<'_>) -> Result<Program, JsonError> {
    let p = Program {
        name: v.get("name")?.as_str()?.to_string(),
        n_threads: v.get("n_threads")?.as_usize()?,
        mem_size: v.get("mem_size")?.as_usize()?,
        init: v
            .get("init")?
            .as_arr()?
            .map(JsonVal::as_u64)
            .collect::<Result<_, _>>()?,
        steps: v
            .get("steps")?
            .as_arr()?
            .map(|row| {
                row.as_arr()?
                    .map(|slot| {
                        if slot.is_null() {
                            Ok(None)
                        } else {
                            instr_from_json(slot).map(Some)
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?,
    };
    p.validate()
        .map_err(|e| jerr(format!("invalid program in artifact: {e}")))?;
    Ok(p)
}

/// The workload of a scheme-mode scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgramSource {
    /// A library program, resolved by name against [`apex_pram::library`]
    /// (see [`ProgramSource::library_names`] for the catalog and each
    /// entry's parameter list).
    Library {
        /// Library entry name (e.g. `"coin-sum"`).
        name: String,
        /// Problem size / thread count (a power of two ≥ 2).
        n: usize,
        /// Entry-specific parameters, in catalog order.
        params: Vec<u64>,
    },
    /// An explicit program carried by value (fuzz reproducers, hand-built
    /// [`ProgramBuilder`](apex_pram::ProgramBuilder) workloads).
    Explicit(Program),
}

impl WriteJson for ProgramSource {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match self {
            ProgramSource::Library { name, n, params } => {
                w.field("source", "library");
                w.field("name", name);
                w.field("n", n);
                w.field("params", params);
            }
            ProgramSource::Explicit(p) => {
                w.field("source", "explicit");
                w.field("program", Doc(p));
            }
        });
    }
}

impl ProgramSource {
    /// A library source.
    pub fn library(name: &str, n: usize, params: Vec<u64>) -> Self {
        ProgramSource::Library {
            name: name.into(),
            n,
            params,
        }
    }

    /// The library catalog: `(name, params)` of every resolvable entry.
    /// `vseed` parameters feed [`gen_values`] to produce the input data.
    pub fn library_names() -> &'static [(&'static str, &'static [&'static str])] {
        &[
            ("coin-sum", &["bound"]),
            ("random-walks", &["init", "rounds"]),
            ("leader-election", &["rounds"]),
            ("tree-reduce-add", &["vseed"]),
            ("tree-reduce-max", &["vseed"]),
            ("blelloch-scan", &["vseed"]),
            ("jacobi-smooth", &["vseed", "iters"]),
            ("allreduce-add", &["vseed"]),
            ("matvec", &["vseed"]),
            ("odd-even-sort", &["vseed"]),
        ]
    }

    /// Build the program this source names. Library entries are resolved
    /// against the catalog; explicit programs are re-validated.
    pub fn resolve(&self) -> Result<Program, ScenarioError> {
        self.resolve_with_io().map(|(program, _)| program)
    }

    /// [`ProgramSource::resolve`] and [`ProgramSource::resolve_io`]
    /// from one build.
    pub(crate) fn resolve_with_io(
        &self,
    ) -> Result<(Program, Option<(VarBlock, VarBlock)>), ScenarioError> {
        match self {
            ProgramSource::Explicit(p) => {
                p.validate()
                    .map_err(|e| ScenarioError(format!("invalid explicit program: {e}")))?;
                Ok((p.clone(), None))
            }
            ProgramSource::Library { name, n, params } => {
                resolve_library(name, *n, params).map(|b| (b.program, Some((b.inputs, b.outputs))))
            }
        }
    }

    /// The named input/output [`VarBlock`]s of this workload, when the
    /// source declares them. Library entries carry the [`Built`] I/O
    /// conventions, so JSON-driven runs can assert program *results* (the
    /// output block of the final memory), not just verifier cleanliness;
    /// explicit programs declare no blocks and return `None`.
    pub fn resolve_io(&self) -> Result<Option<(VarBlock, VarBlock)>, ScenarioError> {
        match self {
            ProgramSource::Explicit(_) => Ok(None),
            ProgramSource::Library { name, n, params } => {
                resolve_library(name, *n, params).map(|b| Some((b.inputs, b.outputs)))
            }
        }
    }

    /// Declared thread count without building the program.
    pub fn n_threads(&self) -> usize {
        match self {
            ProgramSource::Library { n, .. } => *n,
            ProgramSource::Explicit(p) => p.n_threads,
        }
    }

    pub(crate) fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        match v.get("source")?.as_str()? {
            "library" => Ok(ProgramSource::Library {
                name: v.get("name")?.as_str()?.to_string(),
                n: v.get("n")?.as_usize()?,
                params: v
                    .get("params")?
                    .as_arr()?
                    .map(JsonVal::as_u64)
                    .collect::<Result<_, _>>()?,
            }),
            "explicit" => Ok(ProgramSource::Explicit(program_from_json(
                v.get("program")?,
            )?)),
            other => Err(jerr(format!("unknown program source {other:?}"))),
        }
    }
}

/// What validating a scenario needs of its resolved program: the
/// program's shape and its declared I/O blocks. [`ProgramMemo`] keeps
/// one per distinct library source instead of the program itself.
#[derive(Clone, Debug)]
pub(crate) struct ProgramFacts {
    pub(crate) name: String,
    pub(crate) n_steps: usize,
    pub(crate) n_threads: usize,
    pub(crate) io: Option<(VarBlock, VarBlock)>,
}

impl ProgramFacts {
    fn of(program: &Program, io: Option<(VarBlock, VarBlock)>) -> Self {
        ProgramFacts {
            name: program.name.clone(),
            n_steps: program.n_steps(),
            n_threads: program.n_threads,
            io,
        }
    }
}

/// A library source by its fields, borrowed from the scenarios a memo
/// serves.
type LibraryKey<'s> = (&'s str, usize, &'s [u64]);

/// Program resolution memoized over one batch of scenarios — one suite
/// expansion ([`Scenario::validate_in`](crate::Scenario::validate_in)).
/// Each distinct library source is built once, taking its program's
/// shape and its I/O blocks from that one build, so a suite of a
/// thousand cells over four programs builds four programs, not a
/// thousand. Failures are memoized too: every cell naming a bad source
/// gets the error one resolution gave. Explicit programs are validated
/// per scenario, as [`ProgramSource::resolve`] does, without the copy.
///
/// The memo borrows the scenarios it serves and keeps a few words per
/// distinct source, never a program; drop it with the batch.
#[derive(Debug, Default)]
pub struct ProgramMemo<'s> {
    library: HashMap<LibraryKey<'s>, Result<ProgramFacts, ScenarioError>>,
}

impl<'s> ProgramMemo<'s> {
    /// The facts of `source`'s program: memoized for a library entry,
    /// checked afresh for an explicit program.
    pub(crate) fn resolve(
        &mut self,
        source: &'s ProgramSource,
    ) -> Result<ProgramFacts, ScenarioError> {
        match source {
            ProgramSource::Explicit(p) => {
                p.validate()
                    .map_err(|e| ScenarioError(format!("invalid explicit program: {e}")))?;
                Ok(ProgramFacts::of(p, None))
            }
            ProgramSource::Library { name, n, params } => self
                .library
                .entry((name.as_str(), *n, params.as_slice()))
                .or_insert_with(|| {
                    resolve_library(name, *n, params)
                        .map(|b| ProgramFacts::of(&b.program, Some((b.inputs, b.outputs))))
                })
                .clone(),
        }
    }
}

/// The most instruction slots (steps × n) a library program may have.
///
/// 2^20 is about 340× the largest program any committed suite, test or
/// generator builds (odd-even-sort at n=32, 3072 slots) and 10× the
/// largest experiment sweep's (random-walks at n=1024 with 24 rounds,
/// 98,304 slots, under `APEX_BENCH_FULL`). At 48 bytes an instruction
/// slot, a program at the cap holds 48 MiB, so a hostile document
/// cannot grow memory without bound.
pub const MAX_LIBRARY_SLOTS: u64 = 1 << 20;

fn resolve_library(name: &str, n: usize, params: &[u64]) -> Result<Built, ScenarioError> {
    let fail = |msg: String| Err(ScenarioError(msg));
    if n < 2 || !n.is_power_of_two() {
        return fail(format!(
            "library program {name:?} needs a power-of-two n ≥ 2, got {n}"
        ));
    }
    let arity = match library_arity(name) {
        Some(a) => a,
        None => {
            return fail(format!(
                "unknown library program {name:?} (known: {})",
                ProgramSource::library_names()
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
    };
    if params.len() != arity {
        return fail(format!(
            "library program {name:?} takes {arity} params, got {}",
            params.len()
        ));
    }
    if n > MAX_N {
        return fail(format!(
            "library program {name:?} at n={n} exceeds the cap of {MAX_N}"
        ));
    }
    let slots = library_steps(name, n, params)?.saturating_mul(n as u64);
    if slots > MAX_LIBRARY_SLOTS {
        return fail(format!(
            "library program {name:?} at n={n} has {slots} instruction slots (steps × n); \
             the cap is {MAX_LIBRARY_SLOTS}"
        ));
    }
    let count = |x: u64| usize::try_from(x).expect("the slot cap bounds every count");
    let built = match name {
        "coin-sum" => coin_sum(n, params[0]),
        "random-walks" => random_walks(&vec![params[0]; n], count(params[1])),
        "leader-election" => leader_election(n, count(params[0])),
        "tree-reduce-add" => tree_reduce(Op::Add, &gen_values(n, params[0])),
        "tree-reduce-max" => tree_reduce(Op::Max, &gen_values(n, params[0])),
        "blelloch-scan" => blelloch_scan(&gen_values(n, params[0])),
        "jacobi-smooth" => jacobi_smooth(&gen_values(n, params[0]), count(params[1])),
        "allreduce-add" => hypercube_allreduce(Op::Add, &gen_values(n, params[0])),
        "matvec" => matvec(
            &gen_values(n * n, params[0] ^ 1),
            &gen_values(n, params[0]),
            n,
        ),
        "odd-even-sort" => odd_even_sort(&gen_values(n, params[0])),
        _ => unreachable!("arity table covers the catalog"),
    };
    Ok(built)
}

/// The step count of library entry `name` at a power-of-two `n`, in
/// closed form, once the entry's own precondition holds — so a hostile
/// size is refused before any input is generated or any step is built.
/// A count too large for `u64` saturates; the slot cap refuses it.
fn library_steps(name: &str, n: usize, params: &[u64]) -> Result<u64, ScenarioError> {
    let lg = u64::from(n.trailing_zeros());
    Ok(match name {
        "coin-sum" => {
            if params[0] == 0 {
                return Err(ScenarioError("coin-sum bound must be ≥ 1".into()));
            }
            1 + lg
        }
        "random-walks" => params[1].saturating_mul(4),
        "leader-election" => params[0].saturating_mul(7 + 2 * lg),
        "tree-reduce-add" | "tree-reduce-max" => lg,
        "blelloch-scan" => 4 * lg + 1,
        "jacobi-smooth" => {
            if n < 4 {
                return Err(ScenarioError(format!(
                    "library program {name:?} needs n ≥ 4, got {n}"
                )));
            }
            params[1].saturating_mul(4)
        }
        "allreduce-add" => 3 * lg,
        "matvec" => 2 * n as u64,
        // At n = 2 every odd round has no pair and emits no step.
        "odd-even-sort" => 3 * if n > 2 { n as u64 } else { 1 },
        _ => unreachable!("arity table covers the catalog"),
    })
}

fn library_arity(name: &str) -> Option<usize> {
    ProgramSource::library_names()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, params)| params.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every small parameter vector of the entry `name` takes: each
    /// parameter from 0 to 8.
    fn small_params(name: &str) -> Vec<Vec<u64>> {
        let mut all = vec![Vec::new()];
        for _ in 0..library_arity(name).unwrap() {
            all = all
                .into_iter()
                .flat_map(|p| {
                    (0..=8).map(move |x| {
                        let mut p = p.clone();
                        p.push(x);
                        p
                    })
                })
                .collect();
        }
        all
    }

    /// The closed form the slot cap is checked against is exact: every
    /// entry, at every small n and parameter vector it accepts, builds a
    /// program of `library_steps` steps; one it refuses names itself.
    #[test]
    fn closed_form_steps_match_every_small_build() {
        for (name, _) in ProgramSource::library_names() {
            let mut built = 0;
            for n in [2, 4, 8, 16] {
                for params in small_params(name) {
                    match resolve_library(name, n, &params) {
                        Ok(b) => {
                            built += 1;
                            let steps = library_steps(name, n, &params).unwrap();
                            assert_eq!(
                                steps * n as u64,
                                (b.program.n_steps() * n) as u64,
                                "{name} n={n} params={params:?}"
                            );
                        }
                        Err(e) => assert!(e.0.contains(name), "{name}: {e}"),
                    }
                }
            }
            assert!(built > 0, "{name} never built");
        }
    }

    /// A zero-step entry has no slots to cap, so its size is capped on
    /// its own: a direct resolution never sizes inputs past `MAX_N`.
    #[test]
    fn a_zero_step_entry_is_capped_by_its_size() {
        for (name, params) in [
            ("random-walks", [1, 0].as_slice()),
            ("leader-election", &[0]),
        ] {
            let err = resolve_library(name, 1 << 40, params).unwrap_err();
            assert!(err.0.contains("exceeds the cap of 65536"), "{err}");
            assert!(resolve_library(name, 8, params).is_ok());
        }
    }
}
