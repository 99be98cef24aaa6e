//! Instruction sequences with a single hardware loop.

use crate::{ArchError, Instr, SReg};

/// A validated instruction sequence.
///
/// Programs may contain at most one loop (`LoopStart … LoopEndIfLess`),
/// matching the RSQP sequencer, which re-runs the PCG body until the
/// residual test fires.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
    loop_bounds: Option<(usize, usize)>,
    max_trips: usize,
}

impl Program {
    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Loop body bounds `(start, end)` as instruction indices, if any.
    pub fn loop_bounds(&self) -> Option<(usize, usize)> {
        self.loop_bounds
    }

    /// Maximum loop trips before [`ArchError::LoopCapReached`].
    pub fn max_trips(&self) -> usize {
        self.max_trips
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Builder for [`Program`] with loop validation.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    loop_start: Option<usize>,
    loop_bounds: Option<(usize, usize)>,
    max_trips: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder (default loop cap 10 000 trips).
    pub fn new() -> Self {
        ProgramBuilder { max_trips: 10_000, ..Default::default() }
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Opens the hardware loop.
    pub fn loop_start(&mut self) -> &mut Self {
        self.instrs.push(Instr::LoopStart);
        self.loop_start = Some(self.instrs.len() - 1);
        self
    }

    /// Closes the loop with the exit test `sregs[a] < sregs[b]`.
    pub fn loop_end_if_less(&mut self, a: SReg, b: SReg) -> &mut Self {
        self.instrs.push(Instr::LoopEndIfLess { a, b });
        if let Some(s) = self.loop_start.take() {
            self.loop_bounds = Some((s, self.instrs.len() - 1));
        }
        self
    }

    /// Sets the loop trip cap.
    pub fn max_trips(&mut self, trips: usize) -> &mut Self {
        self.max_trips = trips;
        self
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::MalformedLoop`] for unbalanced or multiple
    /// loops.
    pub fn build(&mut self) -> Result<Program, ArchError> {
        let starts = self.instrs.iter().filter(|i| matches!(i, Instr::LoopStart)).count();
        let ends = self.instrs.iter().filter(|i| matches!(i, Instr::LoopEndIfLess { .. })).count();
        if starts != ends {
            return Err(ArchError::MalformedLoop(format!("{starts} LoopStart vs {ends} LoopEnd")));
        }
        if starts > 1 {
            return Err(ArchError::MalformedLoop("at most one hardware loop is supported".into()));
        }
        if starts == 1 && self.loop_bounds.is_none() {
            return Err(ArchError::MalformedLoop("LoopEnd precedes LoopStart".into()));
        }
        Ok(Program {
            instrs: self.instrs.clone(),
            loop_bounds: self.loop_bounds,
            max_trips: self.max_trips,
        })
    }
}

/// The instruction classes the cycle accounting of
/// [`crate::CycleBreakdown`] is split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    Control,
    Scalar,
    Transfer,
    Vector,
    Duplication,
    Spmv,
}

impl Class {
    /// The class's short human-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Class::Control => "control",
            Class::Scalar => "scalar",
            Class::Transfer => "transfer",
            Class::Vector => "vector",
            Class::Duplication => "duplication",
            Class::Spmv => "spmv",
        }
    }
}

pub(crate) fn class_of(i: &Instr) -> Class {
    match i {
        Instr::LoopStart | Instr::LoopEndIfLess { .. } => Class::Control,
        Instr::Scalar { .. } | Instr::SetScalar { .. } => Class::Scalar,
        Instr::LoadHbm { .. } | Instr::StoreHbm { .. } => Class::Transfer,
        Instr::Lincomb { .. }
        | Instr::EwMul { .. }
        | Instr::EwMax { .. }
        | Instr::EwMin { .. }
        | Instr::Dot { .. } => Class::Vector,
        Instr::Duplicate { .. } => Class::Duplication,
        Instr::Spmv { .. } | Instr::FactorSolve { .. } => Class::Spmv,
    }
}

/// The class name of an instruction — a short human-readable
/// instruction-class histogram key used by reports and the Table 1
/// regenerator.
pub fn instruction_class(i: &Instr) -> &'static str {
    class_of(i).name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_program() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::SetScalar { dst: SReg(0), value: 1.0 });
        let p = b.build().unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.loop_bounds().is_none());
    }

    #[test]
    fn builds_looped_program() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::SetScalar { dst: SReg(0), value: 0.0 });
        b.loop_start();
        b.push(Instr::Scalar { op: crate::ScalarOp::Add, dst: SReg(0), a: SReg(0), b: SReg(1) });
        b.loop_end_if_less(SReg(2), SReg(0));
        b.max_trips(5);
        let p = b.build().unwrap();
        assert_eq!(p.loop_bounds(), Some((1, 3)));
        assert_eq!(p.max_trips(), 5);
    }

    #[test]
    fn rejects_unbalanced_loops() {
        let mut b = ProgramBuilder::new();
        b.loop_start();
        assert!(matches!(b.build(), Err(ArchError::MalformedLoop(_))));
    }

    #[test]
    fn rejects_double_loops() {
        let mut b = ProgramBuilder::new();
        b.loop_start();
        b.loop_end_if_less(SReg(0), SReg(1));
        b.loop_start();
        b.loop_end_if_less(SReg(0), SReg(1));
        assert!(b.build().is_err());
    }

    #[test]
    fn classifies_instructions() {
        assert_eq!(instruction_class(&Instr::LoopStart), "control");
        assert_eq!(
            instruction_class(&Instr::Duplicate {
                vec: crate::VecId(0),
                matrix: crate::MatrixId(0)
            }),
            "duplication"
        );
    }
}
