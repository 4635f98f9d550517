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
use apex_sim::{Items, Json, JsonError, JsonWriter, WriteJson};

use crate::scenario::ScenarioError;
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

fn operand_from_json(v: &Json) -> Result<Operand, JsonError> {
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

fn instr_from_json(v: &Json) -> Result<Instr, JsonError> {
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
pub fn program_from_json(v: &Json) -> Result<Program, JsonError> {
    let p = Program {
        name: v.get("name")?.as_str()?.to_string(),
        n_threads: v.get("n_threads")?.as_usize()?,
        mem_size: v.get("mem_size")?.as_usize()?,
        init: v
            .get("init")?
            .as_arr()?
            .iter()
            .map(|x| x.as_u64())
            .collect::<Result<_, _>>()?,
        steps: v
            .get("steps")?
            .as_arr()?
            .iter()
            .map(|row| {
                row.as_arr()?
                    .iter()
                    .map(|slot| match slot {
                        Json::Null => Ok(None),
                        other => instr_from_json(other).map(Some),
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

    pub(crate) fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.get("source")?.as_str()? {
            "library" => Ok(ProgramSource::Library {
                name: v.get("name")?.as_str()?.to_string(),
                n: v.get("n")?.as_usize()?,
                params: v
                    .get("params")?
                    .as_arr()?
                    .iter()
                    .map(|p| p.as_u64())
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
    let as_count = |x: u64, what: &str| -> Result<usize, ScenarioError> {
        usize::try_from(x).map_err(|_| ScenarioError(format!("{what} {x} does not fit usize")))
    };
    let built = match name {
        "coin-sum" => {
            if params[0] == 0 {
                return fail("coin-sum bound must be ≥ 1".into());
            }
            coin_sum(n, params[0])
        }
        "random-walks" => random_walks(&vec![params[0]; n], as_count(params[1], "rounds")?),
        "leader-election" => leader_election(n, as_count(params[0], "rounds")?),
        "tree-reduce-add" => tree_reduce(Op::Add, &gen_values(n, params[0])),
        "tree-reduce-max" => tree_reduce(Op::Max, &gen_values(n, params[0])),
        "blelloch-scan" => blelloch_scan(&gen_values(n, params[0])),
        "jacobi-smooth" => jacobi_smooth(&gen_values(n, params[0]), as_count(params[1], "iters")?),
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

fn library_arity(name: &str) -> Option<usize> {
    ProgramSource::library_names()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, params)| params.len())
}
