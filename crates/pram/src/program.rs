//! The synchronous EREW PRAM program: validation and static analysis.

use crate::instr::{Instr, VarId};
use crate::op::Value;

/// A complete `n`-thread, `T`-step EREW PRAM program.
///
/// `steps[π][i]` is thread `i`'s instruction at step π (`None` = the thread
/// idles that step). On the ideal machine all instructions of a step execute
/// simultaneously with read-before-write semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Program name (reports).
    pub name: String,
    /// Number of threads `n`.
    pub n_threads: usize,
    /// Number of program variables (the PRAM program's memory size).
    pub mem_size: usize,
    /// Initial variable values (length `mem_size`).
    pub init: Vec<Value>,
    /// `steps[π][i]`.
    pub steps: Vec<Vec<Option<Instr>>>,
}

/// A violation found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A step row has the wrong number of thread slots.
    MalformedStep {
        /// The offending step.
        step: usize,
    },
    /// An instruction references a variable out of bounds.
    OutOfBounds {
        /// The offending step.
        step: usize,
        /// The offending thread.
        thread: usize,
        /// The variable referenced.
        var: VarId,
    },
    /// Strict EREW violation: two threads touch the same variable in the
    /// same step (read or write).
    ErewConflict {
        /// The offending step.
        step: usize,
        /// The shared variable.
        var: VarId,
        /// The two threads involved.
        threads: (usize, usize),
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::MalformedStep { step } => write!(f, "step {step} malformed"),
            ProgramError::OutOfBounds { step, thread, var } => {
                write!(
                    f,
                    "step {step} thread {thread}: variable v{var} out of bounds"
                )
            }
            ProgramError::ErewConflict { step, var, threads } => write!(
                f,
                "step {step}: threads {} and {} both access v{var} (EREW violation)",
                threads.0, threads.1
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Number of steps `T`.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// The instruction of `(step, thread)`.
    pub fn instr(&self, step: usize, thread: usize) -> Option<&Instr> {
        self.steps.get(step)?.get(thread)?.as_ref()
    }

    /// Total non-idle instructions.
    pub fn n_instructions(&self) -> usize {
        self.steps.iter().map(|s| s.iter().flatten().count()).sum()
    }

    /// Whether any instruction is nondeterministic.
    pub fn is_nondeterministic(&self) -> bool {
        self.steps
            .iter()
            .flat_map(|s| s.iter().flatten())
            .any(|i| i.is_nondeterministic())
    }

    /// Validate shape, bounds, and the strict EREW discipline: within one
    /// step, every variable is accessed (read *or* written) by at most one
    /// thread. A single thread may both read and write the same variable
    /// (`z ← f(z, y)` accumulators are legal; reads precede writes).
    ///
    /// One pass over one per-variable array of `(last step + 1, first
    /// thread)`, allocated once `init` has vouched for `mem_size`: an
    /// entry from an earlier step reads as untouched, so the array is
    /// reused across steps without clearing. Threads are visited in
    /// ascending order, each thread's reads before its `dst`, so the
    /// first violation found is the one reported.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.init.len() != self.mem_size {
            return Err(ProgramError::MalformedStep { step: usize::MAX });
        }
        let mut touched = vec![(0usize, 0usize); self.mem_size];
        for (step, row) in self.steps.iter().enumerate() {
            if row.len() != self.n_threads {
                return Err(ProgramError::MalformedStep { step });
            }
            let stamp = step + 1;
            for (thread, slot) in row.iter().enumerate() {
                let Some(instr) = slot else { continue };
                for var in instr.reads().chain([instr.dst]) {
                    let Some(entry) = touched.get_mut(var) else {
                        return Err(ProgramError::OutOfBounds { step, thread, var });
                    };
                    if entry.0 != stamp {
                        *entry = (stamp, thread);
                    } else if entry.1 != thread {
                        return Err(ProgramError::ErewConflict {
                            step,
                            var,
                            threads: (entry.1, thread),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Compute the *last-write table*: `lw(var, step)` = the stamp a reader
    /// of `var` at step π must expect. Stamps encode "written at step s" as
    /// `s + 1`; the initial value carries stamp 0.
    ///
    /// This is computable exactly because addressing is static — the
    /// execution scheme's replica validation is built on it (DESIGN.md
    /// §4.4).
    pub fn last_write_table(&self) -> LastWriteTable {
        let mut writes: Vec<Vec<u64>> = vec![Vec::new(); self.mem_size];
        for (step, row) in self.steps.iter().enumerate() {
            for slot in row.iter().flatten() {
                writes[slot.dst].push(step as u64);
            }
        }
        LastWriteTable { writes }
    }

    /// Per-step count of active threads (diagnostics).
    pub fn activity(&self) -> Vec<usize> {
        self.steps
            .iter()
            .map(|s| s.iter().flatten().count())
            .collect()
    }
}

/// Stamp oracle derived from the program text (static analysis).
#[derive(Clone, Debug)]
pub struct LastWriteTable {
    /// For each variable, the sorted list of steps that write it.
    writes: Vec<Vec<u64>>,
}

impl LastWriteTable {
    /// The stamp a reader of `var` at the *start* of step `step` expects:
    /// `s+1` for the last write step `s < step`, or 0 (initial value).
    pub fn expected_stamp(&self, var: VarId, step: u64) -> u64 {
        let w = &self.writes[var];
        match w.partition_point(|s| *s < step) {
            0 => 0,
            k => w[k - 1] + 1,
        }
    }

    /// Steps at which `var` is written.
    pub fn write_steps(&self, var: VarId) -> &[u64] {
        &self.writes[var]
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::instr::Operand;
    use crate::library::{deterministic_catalog, gen_values, odd_even_sort, randomized_catalog};
    use crate::op::Op;

    /// The validator [`Program::validate`] replaced: one `HashMap` per
    /// step. The flat pass must return exactly its `Result`.
    fn validate_reference(p: &Program) -> Result<(), ProgramError> {
        if p.init.len() != p.mem_size {
            return Err(ProgramError::MalformedStep { step: usize::MAX });
        }
        for (step, row) in p.steps.iter().enumerate() {
            if row.len() != p.n_threads {
                return Err(ProgramError::MalformedStep { step });
            }
            let mut touched: HashMap<VarId, usize> = HashMap::new();
            for (thread, slot) in row.iter().enumerate() {
                let Some(instr) = slot else { continue };
                for var in instr.reads().chain([instr.dst]) {
                    if var >= p.mem_size {
                        return Err(ProgramError::OutOfBounds { step, thread, var });
                    }
                    let first = *touched.entry(var).or_insert(thread);
                    if first != thread {
                        return Err(ProgramError::ErewConflict {
                            step,
                            var,
                            threads: (first, thread),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Fault kinds [`inject`] knows.
    const FAULT_KINDS: u64 = 9;

    /// Inject one fault, chosen by `kind` and placed by the bits of
    /// `pick`, into a program that may already carry others:
    ///
    /// 0. a second thread reads a variable another thread reads or writes;
    /// 1. a second thread reads the variable another thread writes;
    /// 2. a thread reads its own `dst` — a legal `z ← f(z, y)` accumulator;
    /// 3. a `dst` or an operand past `mem_size`;
    /// 4. a row one slot too long or too short;
    /// 5. `init.len() != mem_size`;
    /// 6. an operand retargeted to any in-bounds variable;
    /// 7. a second thread reads what another reads and writes what it
    ///    writes — two conflicts in one slot, so the visit order decides
    ///    which is reported;
    /// 8. a thread idled.
    fn inject(p: &mut Program, kind: u64, pick: u64) {
        let at = |shift: u32, len: usize| (pick >> shift) as usize % len.max(1);
        let mem_size = p.mem_size;
        let step = at(0, p.steps.len());
        let Some(row) = p.steps.get_mut(step) else {
            return;
        };
        let active: Vec<usize> = (0..row.len()).filter(|&t| row[t].is_some()).collect();
        if active.is_empty() && kind != 4 && kind != 5 {
            return;
        }
        let t1 = active.get(at(16, active.len())).copied().unwrap_or(0);
        let t2 = active.get(at(32, active.len())).copied().unwrap_or(0);
        let first = |i: &Instr| i.reads().next().unwrap_or(i.dst);
        match kind {
            0 => {
                let var = first(row[t1].as_ref().unwrap());
                row[t2].as_mut().unwrap().a = Operand::Var(var);
            }
            1 => {
                let var = row[t1].as_ref().unwrap().dst;
                row[t2].as_mut().unwrap().b = Operand::Var(var);
            }
            2 => {
                let i = row[t1].as_mut().unwrap();
                i.a = Operand::Var(i.dst);
            }
            3 => {
                let var = mem_size + at(48, 3);
                let i = row[t1].as_mut().unwrap();
                if pick & 1 == 0 {
                    i.dst = var;
                } else {
                    i.b = Operand::Var(var);
                }
            }
            4 => {
                if pick & 1 == 0 {
                    row.push(None);
                } else {
                    row.pop();
                }
            }
            5 => {
                if pick & 1 == 0 {
                    p.init.push(0);
                } else {
                    p.init.pop();
                }
            }
            6 => row[t1].as_mut().unwrap().a = Operand::Var(at(40, mem_size)),
            7 => {
                let src = *row[t1].as_ref().unwrap();
                let i = row[t2].as_mut().unwrap();
                i.a = Operand::Var(first(&src));
                i.dst = src.dst;
            }
            _ => row[t1] = None,
        }
    }

    /// A library program (the catalogues the experiments draw from, and
    /// odd–even sort) at `n = 2^n_lg`, with `faults` injected in order.
    fn faulty_program(n_lg: u32, seed: u64, faults: &[(u64, u64)]) -> Program {
        let n = 1usize << n_lg;
        let mut catalog = deterministic_catalog(n, seed);
        catalog.extend(randomized_catalog(n, seed));
        catalog.push(odd_even_sort(&gen_values(n, seed)));
        let pick = (seed >> 8) as usize % catalog.len();
        let mut p = catalog.swap_remove(pick).program;
        for &(kind, pick) in faults {
            inject(&mut p, kind, pick);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The flat validator returns exactly the reference's `Result`
        /// — the same variant, step, variable and thread pair — on
        /// library programs with up to three injected faults.
        #[test]
        fn flat_validator_equals_the_reference(
            n_lg in 2u32..5,
            seed in any::<u64>(),
            faults in proptest::collection::vec((0..FAULT_KINDS, any::<u64>()), 0..4),
        ) {
            let p = faulty_program(n_lg, seed, &faults);
            prop_assert_eq!(p.validate(), validate_reference(&p), "faults {:?}", faults);
        }
    }

    /// The generator reaches every outcome: a valid program, and each
    /// [`ProgramError`] variant.
    #[test]
    fn fault_injection_reaches_every_outcome() {
        let mut seen = [false; 4];
        let mut x = 1u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^ (x >> 29)
        };
        for case in 0..512u64 {
            // Every fifth case is fault-free.
            let faults = [(case % FAULT_KINDS, next())];
            let n_faults = usize::from(case % 5 != 0);
            let p = faulty_program(2 + (case % 3) as u32, next(), &faults[..n_faults]);
            let got = p.validate();
            assert_eq!(got, validate_reference(&p));
            seen[match got {
                Ok(()) => 0,
                Err(ProgramError::MalformedStep { .. }) => 1,
                Err(ProgramError::OutOfBounds { .. }) => 2,
                Err(ProgramError::ErewConflict { .. }) => 3,
            }] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    fn prog(n: usize, mem: usize, steps: Vec<Vec<Option<Instr>>>) -> Program {
        Program {
            name: "test".into(),
            n_threads: n,
            mem_size: mem,
            init: vec![0; mem],
            steps,
        }
    }

    #[test]
    fn valid_program_passes() {
        // Step 0: T0: v2 = v0+v1 ; T1: v3 = RandBit.
        let p = prog(
            2,
            4,
            vec![vec![
                Some(Instr::new(2, Op::Add, Operand::Var(0), Operand::Var(1))),
                Some(Instr::new(
                    3,
                    Op::RandBit,
                    Operand::Const(0),
                    Operand::Const(0),
                )),
            ]],
        );
        assert!(p.validate().is_ok());
        assert_eq!(p.n_instructions(), 2);
        assert!(p.is_nondeterministic());
        assert_eq!(p.activity(), vec![2]);
    }

    #[test]
    fn two_readers_of_one_var_rejected() {
        let p = prog(
            2,
            4,
            vec![vec![
                Some(Instr::new(2, Op::Mov, Operand::Var(0), Operand::Const(0))),
                Some(Instr::new(3, Op::Mov, Operand::Var(0), Operand::Const(0))),
            ]],
        );
        assert_eq!(
            p.validate(),
            Err(ProgramError::ErewConflict {
                step: 0,
                var: 0,
                threads: (0, 1)
            })
        );
    }

    #[test]
    fn reader_and_writer_of_one_var_rejected() {
        let p = prog(
            2,
            4,
            vec![vec![
                Some(Instr::new(0, Op::Mov, Operand::Const(1), Operand::Const(0))),
                Some(Instr::new(3, Op::Mov, Operand::Var(0), Operand::Const(0))),
            ]],
        );
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ErewConflict { var: 0, .. })
        ));
    }

    #[test]
    fn a_slot_with_two_conflicts_reports_its_first_read() {
        // T1 reads v1, which T0 read, and writes v2, which T0 wrote.
        let p = prog(
            2,
            3,
            vec![vec![
                Some(Instr::new(2, Op::Add, Operand::Var(0), Operand::Var(1))),
                Some(Instr::new(2, Op::Add, Operand::Var(1), Operand::Const(0))),
            ]],
        );
        let conflict = Err(ProgramError::ErewConflict {
            step: 0,
            var: 1,
            threads: (0, 1),
        });
        assert_eq!(p.validate(), conflict);
        assert_eq!(validate_reference(&p), conflict);
    }

    #[test]
    fn malformed_rows_and_init_are_rejected_as_the_reference_does() {
        let mov = Some(Instr::new(0, Op::Mov, Operand::Const(1), Operand::Const(0)));
        let mut short_row = prog(2, 1, vec![vec![mov, None], vec![None]]);
        assert_eq!(
            short_row.validate(),
            Err(ProgramError::MalformedStep { step: 1 })
        );
        assert_eq!(short_row.validate(), validate_reference(&short_row));
        short_row.init.pop();
        assert_eq!(
            short_row.validate(),
            Err(ProgramError::MalformedStep { step: usize::MAX })
        );
        assert_eq!(short_row.validate(), validate_reference(&short_row));
    }

    #[test]
    fn accumulator_within_one_thread_is_legal() {
        let p = prog(
            1,
            2,
            vec![vec![Some(Instr::new(
                0,
                Op::Add,
                Operand::Var(0),
                Operand::Var(1),
            ))]],
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let p = prog(
            1,
            2,
            vec![vec![Some(Instr::new(
                5,
                Op::Mov,
                Operand::Const(0),
                Operand::Const(0),
            ))]],
        );
        assert!(matches!(
            p.validate(),
            Err(ProgramError::OutOfBounds { var: 5, .. })
        ));
    }

    #[test]
    fn last_write_table_tracks_stamps() {
        // v0 written at steps 0 and 2; v1 never written.
        let w = |step_dst: VarId| {
            Some(Instr::new(
                step_dst,
                Op::Mov,
                Operand::Const(1),
                Operand::Const(0),
            ))
        };
        let p = prog(1, 2, vec![vec![w(0)], vec![None], vec![w(0)]]);
        let lw = p.last_write_table();
        assert_eq!(lw.expected_stamp(0, 0), 0, "before step 0: initial");
        assert_eq!(lw.expected_stamp(0, 1), 1, "written at step 0");
        assert_eq!(lw.expected_stamp(0, 2), 1);
        assert_eq!(lw.expected_stamp(0, 3), 3, "written at step 2");
        assert_eq!(lw.expected_stamp(1, 3), 0, "never written");
        assert_eq!(lw.write_steps(0), &[0, 2]);
    }

    #[test]
    fn idle_threads_are_no_accesses() {
        let p = prog(2, 1, vec![vec![None, None]]);
        assert!(p.validate().is_ok());
        assert_eq!(p.n_instructions(), 0);
        assert!(!p.is_nondeterministic());
    }
}
