//! The RSQP instruction set (Table 1 of the paper).

/// Vector-register identifier (a region of the VB, one logical vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecId(pub(crate) usize);

/// Scalar-register identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SReg(pub(crate) usize);

/// Matrix identifier (one SpMV operand resident in HBM, with its pack
/// schedule and CVB layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixId(pub(crate) usize);

/// Factor identifier (one LDLᵀ factor resident in HBM: its permutation,
/// `L` and `D⁻¹`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorId(pub(crate) usize);

impl VecId {
    /// Raw index (for display/debug).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index. Intended for ROM decoding and test
    /// harnesses; the machine validates ids at execution time and reports
    /// [`crate::ArchError::BadRegister`] for out-of-range values.
    pub fn from_raw(index: usize) -> Self {
        VecId(index)
    }
}

impl SReg {
    /// Raw index (for display/debug).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index. Intended for ROM decoding and test
    /// harnesses; the machine validates ids at execution time and reports
    /// [`crate::ArchError::BadRegister`] for out-of-range values.
    pub fn from_raw(index: usize) -> Self {
        SReg(index)
    }
}

impl MatrixId {
    /// Raw index (for display/debug).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index. Intended for ROM decoding and test
    /// harnesses; the machine validates ids at execution time and reports
    /// [`crate::ArchError::BadRegister`] for out-of-range values.
    pub fn from_raw(index: usize) -> Self {
        MatrixId(index)
    }
}

impl FactorId {
    /// Raw index (for display/debug).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index. Intended for ROM decoding and test
    /// harnesses; the machine validates ids at execution time and reports
    /// [`crate::ArchError::BadRegister`] for out-of-range values.
    pub fn from_raw(index: usize) -> Self {
        FactorId(index)
    }
}

/// Scalar ALU operations ("scalar arithmetic" row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarOp {
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a * b`
    Mul,
    /// `dst = a / b`
    Div,
    /// `dst = max(a, b)`
    Max,
}

/// One RSQP instruction.
///
/// The mapping to Table 1:
///
/// | Table 1 class | Variants |
/// |---|---|
/// | Control | [`Instr::LoopStart`], [`Instr::LoopEndIfLess`] |
/// | Scalar arithmetic | [`Instr::Scalar`], [`Instr::SetScalar`] |
/// | Data transfer | [`Instr::LoadHbm`], [`Instr::StoreHbm`] |
/// | Vector operations | [`Instr::Lincomb`], [`Instr::EwMul`], [`Instr::EwMax`], [`Instr::EwMin`], [`Instr::Dot`] |
/// | Vector duplication | [`Instr::Duplicate`] |
/// | SpMV | [`Instr::Spmv`], [`Instr::FactorSolve`] |
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Marks the top of the (single) hardware loop.
    LoopStart,
    /// Bottom of the loop: exit when `sregs[a] < sregs[b]`, otherwise jump
    /// back to [`Instr::LoopStart`]. ("Exit the algorithm loop if residual
    /// is less than threshold".)
    LoopEndIfLess {
        /// Residual-like scalar.
        a: SReg,
        /// Threshold scalar.
        b: SReg,
    },
    /// `sregs[dst] = op(sregs[a], sregs[b])`.
    Scalar {
        /// Operation.
        op: ScalarOp,
        /// Destination scalar.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
    },
    /// `sregs[dst] = value` (an immediate; free in hardware, folded into
    /// the instruction word).
    SetScalar {
        /// Destination scalar.
        dst: SReg,
        /// Immediate value.
        value: f64,
    },
    /// Streams a vector from HBM into a VB (host → accelerator transfer).
    LoadHbm {
        /// Destination vector.
        vec: VecId,
    },
    /// Streams a vector from a VB back to HBM.
    StoreHbm {
        /// Source vector.
        vec: VecId,
    },
    /// `vecs[dst] = sregs[alpha]·vecs[a] + sregs[beta]·vecs[b]` — the
    /// "linear combination of two vectors" vector-engine op.
    Lincomb {
        /// Destination vector.
        dst: VecId,
        /// Scale of `a`.
        alpha: SReg,
        /// First operand.
        a: VecId,
        /// Scale of `b`.
        beta: SReg,
        /// Second operand.
        b: VecId,
    },
    /// Element-wise product `dst = a ∘ b`.
    EwMul {
        /// Destination vector.
        dst: VecId,
        /// First operand.
        a: VecId,
        /// Second operand.
        b: VecId,
    },
    /// Element-wise maximum `dst = max(a, b)` (used by the projection Π).
    EwMax {
        /// Destination vector.
        dst: VecId,
        /// First operand.
        a: VecId,
        /// Second operand.
        b: VecId,
    },
    /// Element-wise minimum `dst = min(a, b)`.
    EwMin {
        /// Destination vector.
        dst: VecId,
        /// First operand.
        a: VecId,
        /// Second operand.
        b: VecId,
    },
    /// Dot product `sregs[dst] = vecs[a]ᵀ·vecs[b]`.
    Dot {
        /// Destination scalar.
        dst: SReg,
        /// First operand.
        a: VecId,
        /// Second operand.
        b: VecId,
    },
    /// Writes `vec` into the CVB feeding `matrix` (the vector-duplication
    /// instruction; costs one cycle per compressed CVB address).
    Duplicate {
        /// Vector to duplicate.
        vec: VecId,
        /// Target matrix whose CVB is loaded.
        matrix: MatrixId,
    },
    /// `vecs[output] = matrix · vecs[input]`; `input` must be resident in
    /// the matrix's CVB (enforced by the machine).
    Spmv {
        /// The matrix operand.
        matrix: MatrixId,
        /// Input vector (must match the last [`Instr::Duplicate`]).
        input: VecId,
        /// Output vector.
        output: VecId,
    },
    /// `vecs[vec] = K⁻¹·vecs[vec]` through the resident factor
    /// `PᵀKP = L·D·Lᵀ`: the vector permuted, a forward sweep through `L`,
    /// `D⁻¹`, a backward sweep through `Lᵀ`, and the result permuted back.
    /// The sweeps stream `L` through the SpMV engine twice, one elimination
    /// level after another.
    FactorSolve {
        /// The resident factor.
        factor: FactorId,
        /// The vector solved in place.
        vec: VecId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_expose_indices() {
        assert_eq!(VecId(3).index(), 3);
        assert_eq!(SReg(1).index(), 1);
        assert_eq!(MatrixId(0).index(), 0);
        assert_eq!(FactorId(2).index(), 2);
    }

    #[test]
    fn instructions_are_copy_and_comparable() {
        let i = Instr::SetScalar { dst: SReg(0), value: 1.5 };
        let j = i;
        assert_eq!(i, j);
    }
}
