//! Canned instruction sequences: the PCG solve of Algorithm 2 and the cycle
//! cost of Algorithm 1's outer vector updates.
//!
//! The PCG kernel is the program the RSQP accelerator spends >95 % of its
//! time in. It computes, entirely on the machine,
//!
//! ```text
//! b  = (σx − q) + Aᵀ(ρ∘z − y)          (right-hand side of Eq. 3)
//! x̃ = PCG(K, b, x₀ = x̃)                (Algorithm 2)
//! z̃ = A x̃
//! ```
//!
//! with `K·v` evaluated incrementally as `(P·v + σ·v) + Aᵀ(ρ∘(A·v))`, never
//! forming `AᵀA` (§2.2). The preconditioner `d = M⁻¹r` is Jacobi plus, when
//! `A` has dense rows `S`, the Woodbury correction for them
//! (`rsqp_linsys::DenseRowPrecond`):
//!
//! ```text
//! d = D'⁻¹∘r − D'⁻¹∘(A_Sᵀ C⁻¹ A_S (D'⁻¹∘r))
//! ```
//!
//! with `D'⁻¹` in the `minv` register and `A_S`, `C⁻¹`, `A_Sᵀ` as three
//! more resident matrices ([`DenseRowCorrection`]). It is built from the
//! instructions of Table 1 alone — `Duplicate`/`Spmv` pairs, an `EwMul` and
//! a `Lincomb` — and without a correction the kernel is the plain Jacobi
//! program of Algorithm 2, which the solver backends no longer run but the
//! paper's tables and the η model measure.
//!
//! When `A` has dense columns `D` instead, their block elimination
//! (`rsqp_linsys::DenseColPrecond`, [`DenseColCorrection`]) is `K⁻¹`
//! itself, and the kernel is a loop-free direct solve over the same
//! registers:
//!
//! ```text
//! b  = (σx − q) + Aᵀ(ρ∘z − y)
//! x̃ = G b + Hᵀ S⁻¹ H b                  (= K⁻¹ b)
//! z̃ = A x̃
//! ```
//!
//! with `G` in `minv` when it is diagonal and resident otherwise, and `H`,
//! `S⁻¹`, `Hᵀ` resident.
//!
//! With neither, the host factors the reduced `K` itself
//! (`rsqp_linsys::KktFactor`: `PᵀKP = L·D·Lᵀ` under AMD) and uploads the
//! factor after each refactorization ([`Machine::load_factor`]); the kernel
//! is the loop-free direct solve through one [`Instr::FactorSolve`]:
//!
//! ```text
//! x̃ = (σx − q) + Aᵀ(ρ∘z − y)
//! x̃ = K⁻¹ x̃                              (permute, L⁻¹, D⁻¹, L⁻ᵀ, permute back)
//! z̃ = A x̃
//! ```
//!
//! The instruction runs the CPU's own sweeps (`rsqp_sparse::ldl_solve_in_place`),
//! so both backends return the same bits.
//!
//! With dense rows over a diagonal `K_R = P + σI + A_Rᵀ R_R A_R` (`R` the
//! rows outside `S`), `D' = K_R` and the kernel is the loop-free solve of
//! the dense rows in OSQP's augmented form
//! (`rsqp_linsys::DenseRowPrecond::solve_augmented`, [`AugmentedRows`]):
//!
//! ```text
//! b  = (σx − q) + Aᵀ(mask_R∘(ρ∘z − y))
//! w  = D'⁻¹∘b ;  u = z − ρ⁻¹∘y
//! ν  = C⁻¹(A_S w − E_S u)
//! x̃ = w − D'⁻¹∘(A_Sᵀν)
//! z̃ = mask_R∘(A x̃) + ((u − mask_R∘u) + Bν)  (A x̃ outside S, u_S + ρ_S⁻¹∘ν on S)
//! ```
//!
//! with `E_S` the `k × m` selection of the dense rows and `B = E_Sᵀ
//! diag(ρ_S⁻¹)` resident, and `mask_R` and `ρ⁻¹` in device vectors. It
//! needs no new instruction and returns the CPU's bits. Dense rows over a
//! non-diagonal `K_R` keep PCG with the Woodbury `M⁻¹`: a direct solve on
//! the reduced right-hand side loses accuracy to cancellation over stiff
//! equality rows, which PCG's residual test repairs.
//!
//! The PCG loop is the specification of `rsqp_linsys::pcg_with`, operation
//! for operation. It starts from whatever the `xtilde` register holds —
//! the host leaves the previous KKT solution there — while `x` only enters
//! the right-hand side. An exact warm start (`r₀ = 0`) takes one step with
//! `λ = 0` that leaves `x̃` as it is; the host reads `r₀·r₀` from `res0`
//! to count it as none, as the CPU takes none. Degenerate denominators
//! (that step's `δ = pᵀKp = 0`) are guarded with a `max(·, tiny)` — the
//! hardware equivalent of a saturating divider.

use rsqp_sparse::vec_ops::PCG_EPS_ABS;

use crate::{FactorId, Instr, Machine, MatrixId, Program, ProgramBuilder, SReg, ScalarOp, VecId};

/// Register map and program of the on-accelerator KKT solve.
#[derive(Debug, Clone)]
pub struct PcgKernel {
    /// The compiled program: the PCG loop, or with [`AugmentedRows`], a
    /// [`DenseColCorrection`] or a factor the loop-free direct solve.
    pub program: Program,
    /// Input: current primal iterate `x`, read only for `σ·x` in the
    /// right-hand side (length n).
    pub x: VecId,
    /// In/out: PCG warm start on entry (the direct solve does not read
    /// it), solution `x̃` on exit (length n).
    pub xtilde: VecId,
    /// Input: current slack iterate `z` (length m).
    pub z: VecId,
    /// Input: current dual iterate `y` (length m).
    pub y: VecId,
    /// Input: linear cost `q` (length n).
    pub q: VecId,
    /// Input: per-constraint ρ vector (length m).
    pub rho_vec: VecId,
    /// Input: inverse preconditioner diagonal `D'⁻¹` — the Jacobi
    /// diagonal, without the dense rows when the kernel carries a
    /// [`DenseRowCorrection`] (`K_R⁻¹` in the augmented solve) — or the
    /// diagonal of `G` (length n).
    pub minv: VecId,
    /// Output: `z̃ = A·x̃` (length m).
    pub ztilde: VecId,
    /// Host-set scalar: σ.
    pub sigma: SReg,
    /// Host-set scalar: relative CG tolerance ε (read by PCG only).
    pub eps: SReg,
    /// Output of PCG: `r₀·r₀`, zero when the warm start solves the system
    /// exactly (the one step then taken has `λ = 0`).
    pub res0: SReg,
}

/// The resident matrices of the preconditioner's dense-row correction:
/// `A_S` (k×n), `C⁻¹` (k×k) and `A_Sᵀ` (n×k), with `C = R_S⁻¹ + A_S D'⁻¹
/// A_Sᵀ`. The host refreshes their values with
/// [`Machine::update_matrix_values`] whenever ρ or the matrices change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseRowCorrection {
    /// `A_S`: the dense rows of `A`.
    pub a_s: MatrixId,
    /// `C⁻¹`, every entry stored.
    pub cinv: MatrixId,
    /// `A_Sᵀ`.
    pub a_st: MatrixId,
    /// With a diagonal `K_R`, the operands of the loop-free augmented
    /// solve; without, the kernel runs PCG.
    pub augmented: Option<AugmentedRows>,
}

/// The operands the augmented dense-row solve adds to a
/// [`DenseRowCorrection`]: the resident `E_S` (k×m, a 1 at `(r, S_r)`) and
/// `B = E_Sᵀ diag(ρ_S⁻¹)` (m×k), and the device vectors `mask_R` (1 outside
/// `S`, 0 on it) and `ρ⁻¹` (length m). The host writes `mask_R` and `E_S`
/// once and refreshes `B` and `ρ⁻¹` whenever ρ changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugmentedRows {
    /// `E_S`.
    pub e_s: MatrixId,
    /// `B = E_Sᵀ diag(ρ_S⁻¹)`.
    pub b: MatrixId,
    /// `mask_R`.
    pub mask: VecId,
    /// `ρ⁻¹`.
    pub rho_inv: VecId,
}

/// The resident matrices of the preconditioner's dense-column elimination:
/// `G = K_RR⁻¹` (n×n) unless it is diagonal (then it is the `minv`
/// register), `H = E_D − K_DR G` (k×n), `S⁻¹` (k×k) and `Hᵀ` (n×k). The
/// host refreshes their values with [`Machine::update_matrix_values`]
/// whenever ρ or the matrices change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseColCorrection {
    /// `G`, when some block of `K_RR` has more than one variable.
    pub g: Option<MatrixId>,
    /// `H`.
    pub h: MatrixId,
    /// `S⁻¹`, every entry stored.
    pub sinv: MatrixId,
    /// `Hᵀ`.
    pub ht: MatrixId,
}

/// The correction a kernel's `M⁻¹` applies beyond the diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correction {
    /// Woodbury correction for the dense rows of `A`.
    Rows(DenseRowCorrection),
    /// Block elimination of the dense columns of `A`.
    Cols(DenseColCorrection),
    /// The resident factor of `K` itself, which the host (re)loads with
    /// [`Machine::load_factor`] whenever ρ or the matrices change.
    Factor(FactorId),
}

/// Builds the KKT-solve kernel on `machine` for matrices `p` (n×n), `a`
/// (m×n) and `at` (n×m) already registered with the machine: PCG
/// preconditioned with `minv` alone or, given a dense-row `correction`,
/// with its Woodbury correction, or, given an augmented dense-row one, a
/// dense-column one or a factor, the loop-free direct solve through the
/// augmented form, the elimination or the factor.
///
/// `max_iter` caps the PCG loop.
///
/// # Panics
///
/// Panics if the builder produces a malformed program (a bug, not a user
/// error).
pub fn build_pcg(
    machine: &mut Machine,
    p: MatrixId,
    a: MatrixId,
    at: MatrixId,
    n: usize,
    m: usize,
    max_iter: usize,
    correction: Option<Correction>,
) -> PcgKernel {
    // Vector registers.
    let x = machine.alloc_vec(n);
    let xtilde = machine.alloc_vec(n);
    let z = machine.alloc_vec(m);
    let y = machine.alloc_vec(m);
    let q = machine.alloc_vec(n);
    let rho_vec = machine.alloc_vec(m);
    let minv = machine.alloc_vec(n);
    let ztilde = machine.alloc_vec(m);
    let b = machine.alloc_vec(n);
    let r = machine.alloc_vec(n);
    let d = machine.alloc_vec(n);
    let pv = machine.alloc_vec(n);
    let kp = machine.alloc_vec(n);
    let px = machine.alloc_vec(n);
    let am = machine.alloc_vec(m);

    // Scalar registers.
    let sigma = machine.alloc_scalar();
    let eps = machine.alloc_scalar();
    let res0 = machine.alloc_scalar();
    let one = machine.alloc_scalar();
    let neg_one = machine.alloc_scalar();
    let zero = machine.alloc_scalar();
    let tiny = machine.alloc_scalar();
    let lambda = machine.alloc_scalar();
    let mu = machine.alloc_scalar();
    let delta = machine.alloc_scalar();
    let delta_new = machine.alloc_scalar();
    let pkp = machine.alloc_scalar();
    let res2 = machine.alloc_scalar();
    let normb2 = machine.alloc_scalar();
    let thr = machine.alloc_scalar();
    let guard = machine.alloc_scalar();
    // The correction's k-length intermediates `s` and `t` (`A_S d` and
    // `C⁻¹ s`, or `H b` and `S⁻¹ s`; empty for a factor); the k-to-n
    // product goes through `px`, which is free outside K·v.
    let correction = correction.map(|c| {
        let k = match c {
            Correction::Rows(c) => machine.matrix(c.a_s).nrows(),
            Correction::Cols(c) => machine.matrix(c.h).nrows(),
            Correction::Factor(_) => 0,
        };
        (c, machine.alloc_vec(k), machine.alloc_vec(k))
    });
    let spmv = |pb: &mut ProgramBuilder, matrix: MatrixId, input: VecId, output: VecId| {
        pb.push(Instr::Duplicate { vec: input, matrix });
        pb.push(Instr::Spmv { matrix, input, output });
    };
    // `d = M⁻¹ r` for PCG, for the registers `r` and `d` given.
    let precondition = |pb: &mut ProgramBuilder, r: VecId, d: VecId| {
        pb.push(Instr::EwMul { dst: d, a: minv, b: r });
        if let Some((Correction::Rows(c), s, t)) = correction {
            spmv(pb, c.a_s, d, s);
            spmv(pb, c.cinv, s, t);
            spmv(pb, c.a_st, t, px);
            pb.push(Instr::EwMul { dst: px, a: minv, b: px });
            pb.push(Instr::Lincomb { dst: d, alpha: one, a: d, beta: neg_one, b: px });
        }
    };
    // b = (σx − q) + Aᵀ(ρ∘z − y), into the register `b` given, with the
    // rows of `mask`'s zeros left out.
    let rhs = |pb: &mut ProgramBuilder, b: VecId, mask: Option<VecId>| {
        pb.push(Instr::EwMul { dst: am, a: rho_vec, b: z });
        pb.push(Instr::Lincomb { dst: am, alpha: one, a: am, beta: neg_one, b: y });
        if let Some(mask) = mask {
            pb.push(Instr::EwMul { dst: am, a: mask, b: am });
        }
        pb.push(Instr::Lincomb { dst: px, alpha: sigma, a: x, beta: neg_one, b: q });
        pb.push(Instr::Duplicate { vec: am, matrix: at });
        pb.push(Instr::Spmv { matrix: at, input: am, output: b });
        pb.push(Instr::Lincomb { dst: b, alpha: one, a: px, beta: one, b });
    };
    // z̃ = A·x̃.
    let ztilde_out = |pb: &mut ProgramBuilder| {
        pb.push(Instr::Duplicate { vec: xtilde, matrix: a });
        pb.push(Instr::Spmv { matrix: a, input: xtilde, output: ztilde });
    };

    let mut pb = ProgramBuilder::new();
    if let Some((Correction::Rows(c @ DenseRowCorrection { augmented: Some(aug), .. }), s, t)) =
        correction
    {
        // Two m-length intermediates: u = z − ρ⁻¹∘y and Bν.
        let (u, g) = (machine.alloc_vec(m), machine.alloc_vec(m));
        pb.push(Instr::SetScalar { dst: one, value: 1.0 });
        pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
        rhs(&mut pb, b, Some(aug.mask));
        // w = D'⁻¹∘b, in place; u = z − ρ⁻¹∘y.
        pb.push(Instr::EwMul { dst: b, a: minv, b });
        pb.push(Instr::EwMul { dst: u, a: aug.rho_inv, b: y });
        pb.push(Instr::Lincomb { dst: u, alpha: one, a: z, beta: neg_one, b: u });
        // ν = C⁻¹(A_S w − E_S u), in t.
        spmv(&mut pb, c.a_s, b, s);
        spmv(&mut pb, aug.e_s, u, t);
        pb.push(Instr::Lincomb { dst: s, alpha: one, a: s, beta: neg_one, b: t });
        spmv(&mut pb, c.cinv, s, t);
        // x̃ = w − D'⁻¹∘(A_Sᵀν).
        spmv(&mut pb, c.a_st, t, px);
        pb.push(Instr::EwMul { dst: px, a: minv, b: px });
        pb.push(Instr::Lincomb { dst: xtilde, alpha: one, a: b, beta: neg_one, b: px });
        // z̃ = mask_R∘(A x̃) + ((u − mask_R∘u) + Bν).
        ztilde_out(&mut pb);
        pb.push(Instr::EwMul { dst: ztilde, a: aug.mask, b: ztilde });
        spmv(&mut pb, aug.b, t, g);
        pb.push(Instr::EwMul { dst: am, a: aug.mask, b: u });
        pb.push(Instr::Lincomb { dst: am, alpha: one, a: u, beta: neg_one, b: am });
        pb.push(Instr::Lincomb { dst: g, alpha: one, a: am, beta: one, b: g });
        pb.push(Instr::Lincomb { dst: ztilde, alpha: one, a: ztilde, beta: one, b: g });
    } else if let Some((Correction::Factor(f), _, _)) = correction {
        // x̃ = K⁻¹ b through the factor, in place.
        pb.push(Instr::SetScalar { dst: one, value: 1.0 });
        pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
        rhs(&mut pb, xtilde, None);
        pb.push(Instr::FactorSolve { factor: f, vec: xtilde });
        ztilde_out(&mut pb);
    } else if let Some((Correction::Cols(c), s, t)) = correction {
        // x̃ = G b + Hᵀ S⁻¹ H b = K⁻¹ b, straight through.
        pb.push(Instr::SetScalar { dst: one, value: 1.0 });
        pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
        rhs(&mut pb, b, None);
        match c.g {
            Some(g) => spmv(&mut pb, g, b, xtilde),
            None => {
                pb.push(Instr::EwMul { dst: xtilde, a: minv, b });
            }
        }
        spmv(&mut pb, c.h, b, s);
        spmv(&mut pb, c.sinv, s, t);
        spmv(&mut pb, c.ht, t, px);
        pb.push(Instr::Lincomb { dst: xtilde, alpha: one, a: xtilde, beta: one, b: px });
        ztilde_out(&mut pb);
    } else {
        pb.max_trips(max_iter.max(1));
        // Constants.
        pb.push(Instr::SetScalar { dst: one, value: 1.0 });
        pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
        pb.push(Instr::SetScalar { dst: zero, value: 0.0 });
        pb.push(Instr::SetScalar { dst: tiny, value: 1e-300 });

        rhs(&mut pb, b, None);

        // K·x̃ -> kp  (initial residual).
        emit_kapply(&mut pb, p, a, at, xtilde, kp, px, am, rho_vec, sigma, one);
        // r = kp − b ; d = M⁻¹∘r ; p = −d
        pb.push(Instr::Lincomb { dst: r, alpha: one, a: kp, beta: neg_one, b });
        precondition(&mut pb, r, d);
        pb.push(Instr::Lincomb { dst: pv, alpha: neg_one, a: d, beta: zero, b: d });
        pb.push(Instr::Dot { dst: delta, a: r, b: d });
        // thr = max(ε²·(b·b), PCG_EPS_ABS²), the floor in `guard`.
        pb.push(Instr::Dot { dst: normb2, a: b, b });
        pb.push(Instr::Scalar { op: ScalarOp::Mul, dst: thr, a: eps, b: eps });
        pb.push(Instr::Scalar { op: ScalarOp::Mul, dst: thr, a: thr, b: normb2 });
        pb.push(Instr::SetScalar { dst: guard, value: PCG_EPS_ABS * PCG_EPS_ABS });
        pb.push(Instr::Scalar { op: ScalarOp::Max, dst: thr, a: thr, b: guard });
        pb.push(Instr::Dot { dst: res0, a: r, b: r });

        // Main loop (Algorithm 2, lines 3–9).
        pb.loop_start();
        emit_kapply(&mut pb, p, a, at, pv, kp, px, am, rho_vec, sigma, one);
        pb.push(Instr::Dot { dst: pkp, a: pv, b: kp });
        pb.push(Instr::Scalar { op: ScalarOp::Max, dst: guard, a: pkp, b: tiny });
        pb.push(Instr::Scalar { op: ScalarOp::Div, dst: lambda, a: delta, b: guard });
        pb.push(Instr::Lincomb { dst: xtilde, alpha: lambda, a: pv, beta: one, b: xtilde });
        pb.push(Instr::Lincomb { dst: r, alpha: lambda, a: kp, beta: one, b: r });
        pb.push(Instr::Dot { dst: res2, a: r, b: r });
        precondition(&mut pb, r, d);
        pb.push(Instr::Dot { dst: delta_new, a: r, b: d });
        pb.push(Instr::Scalar { op: ScalarOp::Max, dst: guard, a: delta, b: tiny });
        pb.push(Instr::Scalar { op: ScalarOp::Div, dst: mu, a: delta_new, b: guard });
        pb.push(Instr::Scalar { op: ScalarOp::Mul, dst: delta, a: delta_new, b: one });
        pb.push(Instr::Lincomb { dst: pv, alpha: mu, a: pv, beta: neg_one, b: d });
        pb.loop_end_if_less(res2, thr);
        ztilde_out(&mut pb);
    }
    let program = pb.build().expect("the kernel builder is loop-balanced");
    PcgKernel { program, x, xtilde, z, y, q, rho_vec, minv, ztilde, sigma, eps, res0 }
}

/// Emits `out = (P·v + σ·v) + Aᵀ(ρ∘(A·v))`.
#[allow(clippy::too_many_arguments)]
fn emit_kapply(
    pb: &mut ProgramBuilder,
    p: MatrixId,
    a: MatrixId,
    at: MatrixId,
    v: VecId,
    out: VecId,
    px: VecId,
    am: VecId,
    rho_vec: VecId,
    sigma: SReg,
    one: SReg,
) {
    pb.push(Instr::Duplicate { vec: v, matrix: p });
    pb.push(Instr::Spmv { matrix: p, input: v, output: px });
    pb.push(Instr::Lincomb { dst: px, alpha: sigma, a: v, beta: one, b: px });
    pb.push(Instr::Duplicate { vec: v, matrix: a });
    pb.push(Instr::Spmv { matrix: a, input: v, output: am });
    pb.push(Instr::EwMul { dst: am, a: rho_vec, b: am });
    pb.push(Instr::Duplicate { vec: am, matrix: at });
    pb.push(Instr::Spmv { matrix: at, input: am, output: out });
    pb.push(Instr::Lincomb { dst: out, alpha: one, a: px, beta: one, b: out });
}

/// Analytic cycle cost of one ADMM outer update (Algorithm 1 lines 4–7 plus
/// the periodic residual check amortized in): the x-relaxation (length n),
/// the z-candidate/projection/dual updates (4 vector ops of length m), and
/// the projection's two element-wise clamps.
///
/// These instructions have data-independent cycle counts (`⌈L/C⌉` streaming
/// plus fixed latency), so an analytic sum is exactly what the machine
/// would report; the solver-side backend uses this to extend the measured
/// PCG cycles to full-iteration cycles.
pub fn admm_outer_cycles(config: &crate::ArchConfig, n: usize, m: usize) -> u64 {
    // x update: 1 lincomb over n.
    let x_ops = config.vector_cycles(n);
    // z candidate (lincomb), + rho_inv*y (ewmul+lincomb), clamp (max+min),
    // dual update (lincomb + ewmul): 7 vector ops over m.
    let z_ops = 7 * config.vector_cycles(m);
    x_ops + z_ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchConfig;
    use rsqp_sparse::CsrMatrix;

    fn setup(c: usize) -> (Machine, PcgKernel, CsrMatrix, CsrMatrix) {
        let pm = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let am = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0]]);
        let atm = am.transpose();
        let mut machine = Machine::new(ArchConfig::baseline(c));
        let p = machine.add_matrix(&pm);
        let a = machine.add_matrix(&am);
        let at = machine.add_matrix(&atm);
        let k = build_pcg(&mut machine, p, a, at, 2, 2, 500, None);
        (machine, k, pm, am)
    }

    #[test]
    fn pcg_kernel_matches_reference_solver() {
        let (mut machine, k, pm, am) = setup(4);
        let sigma = 1e-6;
        let rho = vec![0.5, 0.25];
        let xv = vec![0.1, -0.2];
        let zv = vec![0.3, 0.4];
        let yv = vec![-0.1, 0.2];
        let qv = vec![1.0, -1.0];
        // Jacobi inverse diag.
        let mut diag = pm.diagonal();
        for (j, dj) in diag.iter_mut().enumerate() {
            *dj += sigma;
            for i in 0..2 {
                let v = am.get(i, j);
                *dj += rho[i] * v * v;
            }
        }
        let minv: Vec<f64> = diag.iter().map(|v| 1.0 / v).collect();

        machine.write_vec(k.x, &xv);
        machine.write_vec(k.xtilde, &xv);
        machine.write_vec(k.z, &zv);
        machine.write_vec(k.y, &yv);
        machine.write_vec(k.q, &qv);
        machine.write_vec(k.rho_vec, &rho);
        machine.write_vec(k.minv, &minv);
        machine.write_scalar(k.sigma, sigma);
        machine.write_scalar(k.eps, 1e-10);
        machine.run(&k.program).unwrap();

        // Reference: dense solve of (P + σI + Aᵀdiag(ρ)A)x = rhs.
        let kk =
            [[4.0 + sigma + rho[0] + rho[1], 1.0 + rho[0]], [1.0 + rho[0], 2.0 + sigma + rho[0]]];
        let rhs = [
            sigma * xv[0] - qv[0] + (rho[0] * zv[0] - yv[0]) + (rho[1] * zv[1] - yv[1]),
            sigma * xv[1] - qv[1] + (rho[0] * zv[0] - yv[0]),
        ];
        let det = kk[0][0] * kk[1][1] - kk[0][1] * kk[1][0];
        let want = [
            (kk[1][1] * rhs[0] - kk[0][1] * rhs[1]) / det,
            (-kk[1][0] * rhs[0] + kk[0][0] * rhs[1]) / det,
        ];
        let got = machine.read_vec(k.xtilde);
        for i in 0..2 {
            assert!((got[i] - want[i]).abs() < 1e-7, "x[{i}] {} vs {}", got[i], want[i]);
        }
        // ztilde = A x.
        let zt = machine.read_vec(k.ztilde);
        assert!((zt[0] - (got[0] + got[1])).abs() < 1e-9);
        assert!((zt[1] - got[0]).abs() < 1e-9);
        // Cycle accounting happened.
        let stats = machine.stats();
        assert!(stats.cycles > 0);
        assert!(stats.breakdown.spmv > 0);
        assert!(stats.breakdown.duplication > 0);
        assert!(stats.loop_trips >= 1);
    }

    #[test]
    fn exact_warm_start_is_numerically_safe() {
        let (mut machine, k, _pm, _am) = setup(4);
        // All-zero inputs: b = 0, x0 = 0 -> residual 0; guarded divisions
        // must not produce NaN.
        machine.write_vec(k.rho_vec, &[0.5, 0.5]);
        machine.write_vec(k.minv, &[1.0, 1.0]);
        machine.write_scalar(k.sigma, 1e-6);
        machine.write_scalar(k.eps, 1e-8);
        machine.run(&k.program).unwrap();
        let x = machine.read_vec(k.xtilde);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(x.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn cycle_count_scales_with_iterations() {
        let (mut machine, k, _pm, _am) = setup(4);
        machine.write_vec(k.q, &[1.0, -1.0]);
        machine.write_vec(k.rho_vec, &[0.5, 0.25]);
        machine.write_vec(k.minv, &[0.2, 0.3]);
        machine.write_scalar(k.sigma, 1e-6);
        // Loose tolerance -> fewer trips -> fewer cycles.
        machine.write_scalar(k.eps, 1e-2);
        machine.run(&k.program).unwrap();
        let loose = machine.stats();
        machine.reset_stats();
        machine.write_vec(k.xtilde, &[0.0, 0.0]);
        machine.write_scalar(k.eps, 1e-12);
        machine.run(&k.program).unwrap();
        let tight = machine.stats();
        assert!(tight.loop_trips >= loose.loop_trips);
        assert!(tight.cycles >= loose.cycles);
    }

    #[test]
    fn dense_row_correction_solves_portfolio_from_zero_at_once() {
        // A portfolio's non-dense rows are single-entry box rows and P is
        // diagonal, so Jacobi plus the dense-row correction is K itself.
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, 1, 1);
        let (pm, am, sigma) = (qp.p(), qp.a(), 1e-6);
        let (n, m) = (pm.nrows(), am.nrows());
        let rho: Vec<f64> =
            qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
        let pre = rsqp_linsys::DenseRowPrecond::new(pm, am, &am.transpose(), sigma, &rho).unwrap();
        assert_eq!(pre.dense_rows().len(), 2, "the factor row and the budget row");
        let mut machine = Machine::new(ArchConfig::baseline(8));
        let (p, a, at) =
            (machine.add_matrix(pm), machine.add_matrix(am), machine.add_matrix(&am.transpose()));
        let correction = Correction::Rows(DenseRowCorrection {
            a_s: machine.add_matrix(pre.a_s()),
            cinv: machine.add_matrix(pre.cinv()),
            a_st: machine.add_matrix(&pre.a_s().transpose()),
            augmented: None,
        });
        let k = build_pcg(&mut machine, p, a, at, n, m, 500, Some(correction));
        assert!(k.program.loop_bounds().is_some(), "without its augmented operands, PCG");
        let wave = |len: usize, phase: f64| -> Vec<f64> {
            (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
        };
        let (xv, zv, yv, qv) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
        machine.write_vec(k.x, &xv);
        machine.write_vec(k.z, &zv);
        machine.write_vec(k.y, &yv);
        machine.write_vec(k.q, &qv);
        machine.write_vec(k.rho_vec, &rho);
        machine.write_vec(k.minv, pre.inv_diag());
        machine.write_scalar(k.sigma, sigma);
        machine.write_scalar(k.eps, 1e-12);
        let run = machine.run(&k.program).unwrap();
        assert!(run.loop_trips <= 2, "{} trips", run.loop_trips);

        // Reference: the x block of the full KKT system solved by LDLᵀ.
        let mut rhs: Vec<f64> = (0..n).map(|j| sigma * xv[j] - qv[j]).collect();
        let w: Vec<f64> = (0..m).map(|i| rho[i] * zv[i] - yv[i]).collect();
        am.transpose().spmv_acc(1.0, &w, &mut rhs).unwrap();
        rhs.resize(n + m, 0.0);
        let kkt = rsqp_linsys::KktMatrix::assemble(pm, am, sigma, &rho).unwrap();
        rsqp_linsys::Ldlt::factor(kkt.matrix()).unwrap().solve_in_place(&mut rhs).unwrap();
        for (got, want) in machine.read_vec(k.xtilde).iter().zip(&rhs[..n]) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn dense_column_elimination_solves_from_zero_at_once() {
        // K_RR is block-diagonal on an SVM (1×1 blocks: G is the `minv`
        // register) and on a Huber fit (3×3 blocks: G is resident), so the
        // elimination is K⁻¹ itself.
        for (domain, size) in [(rsqp_problems::Domain::Svm, 21), (rsqp_problems::Domain::Huber, 19)]
        {
            let qp = rsqp_problems::generate(domain, size, 1);
            let (pm, am, sigma) = (qp.p(), qp.a(), 1e-6);
            let (n, m) = (pm.nrows(), am.nrows());
            let rho: Vec<f64> =
                qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
            let pre = rsqp_linsys::DenseColPrecond::new(pm, am, sigma, &rho).unwrap();
            assert_eq!(pre.failed_pivot(), None);
            let k = pre.rank();
            let mut sinv = vec![0.0; k * k];
            pre.write_s_inverse(&mut sinv);
            let sinv = CsrMatrix::from_raw_parts(
                k,
                k,
                (0..=k).map(|i| i * k).collect(),
                (0..k * k).map(|e| e % k).collect(),
                sinv,
            )
            .unwrap();
            let mut machine = Machine::new(ArchConfig::baseline(8));
            let (p, a, at) = (
                machine.add_matrix(pm),
                machine.add_matrix(am),
                machine.add_matrix(&am.transpose()),
            );
            let correction = Correction::Cols(DenseColCorrection {
                g: pre.g().map(|g| machine.add_matrix(g)),
                h: machine.add_matrix(&pre.ht().transpose()),
                sinv: machine.add_matrix(&sinv),
                ht: machine.add_matrix(pre.ht()),
            });
            assert_eq!(pre.g().is_some(), domain == rsqp_problems::Domain::Huber);
            let k = build_pcg(&mut machine, p, a, at, n, m, 500, Some(correction));
            let wave = |len: usize, phase: f64| -> Vec<f64> {
                (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
            };
            let (xv, zv, yv, qv) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
            machine.write_vec(k.x, &xv);
            machine.write_vec(k.z, &zv);
            machine.write_vec(k.y, &yv);
            machine.write_vec(k.q, &qv);
            machine.write_vec(k.rho_vec, &rho);
            machine.write_vec(k.minv, pre.inv_diag());
            machine.write_scalar(k.sigma, sigma);
            // The program is the loop-free direct solve: it reads no warm
            // start and takes no loop trip.
            machine.write_vec(k.xtilde, &vec![f64::NAN; n]);
            assert!(k.program.loop_bounds().is_none(), "{domain}: no PCG loop");
            assert_eq!(machine.run(&k.program).unwrap().loop_trips, 0);
            let x = machine.read_vec(k.xtilde).to_vec();
            let mut ax = vec![0.0; m];
            am.spmv(&x, &mut ax).unwrap();
            assert_eq!(machine.read_vec(k.ztilde), &ax[..], "{domain}: z̃ = A x̃");

            // The residual of K x = b, evaluated on the CPU.
            let mut b: Vec<f64> = (0..n).map(|j| sigma * xv[j] - qv[j]).collect();
            let w: Vec<f64> = (0..m).map(|i| rho[i] * zv[i] - yv[i]).collect();
            am.transpose().spmv_acc(1.0, &w, &mut b).unwrap();
            let norm = |v: &[f64]| v.iter().map(|e| e * e).sum::<f64>().sqrt();
            ax.iter_mut().zip(&rho).for_each(|(v, r)| *v *= r);
            let mut kx: Vec<f64> = x.iter().map(|v| sigma * v).collect();
            pm.spmv_acc(1.0, &x, &mut kx).unwrap();
            am.transpose().spmv_acc(1.0, &ax, &mut kx).unwrap();
            let r: Vec<f64> = kx.iter().zip(&b).map(|(a, c)| a - c).collect();
            let rel = norm(&r) / norm(&b);
            assert!(rel <= 1e-12, "{domain}: residual {rel:e}");
            // LDLᵀ of the full KKT system agrees to its own accuracy (its
            // relative residual on the Huber fit is about 1e-6).
            let mut rhs = b.clone();
            rhs.resize(n + m, 0.0);
            let kkt = rsqp_linsys::KktMatrix::assemble(pm, am, sigma, &rho).unwrap();
            rsqp_linsys::Ldlt::factor(kkt.matrix()).unwrap().solve_in_place(&mut rhs).unwrap();
            for (got, want) in x.iter().zip(&rhs[..n]) {
                assert!((got - want).abs() < 1e-5, "{domain}: {got} vs {want}");
            }
        }
    }

    /// The augmented dense-row kernel of `qp` on a `c`-wide machine, its
    /// inputs `(x, z, y, q)` written and `x̃` set to NaN, with the CPU's
    /// operator and ρ (0.1, and 100 on equality rows).
    fn augmented_kernel(
        qp: &rsqp_solver::QpProblem,
        c: usize,
    ) -> (Machine, PcgKernel, rsqp_linsys::ReducedKktOp, Vec<f64>, [Vec<f64>; 4]) {
        let (pm, am, sigma) = (qp.p(), qp.a(), 1e-6);
        let (n, m) = (pm.nrows(), am.nrows());
        let rho: Vec<f64> =
            qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
        let op = rsqp_linsys::ReducedKktOp::new(pm, am, sigma, &rho).unwrap();
        let rsqp_linsys::KktPrecond::Rows(pre) = op.preconditioner() else {
            panic!("{} has dense rows", qp.name());
        };
        assert!(pre.is_exact(), "{}: K_R is diagonal", qp.name());
        let rows = pre.dense_rows();
        let k = rows.len();
        let e_s = CsrMatrix::from_raw_parts(k, m, (0..=k).collect(), rows.to_vec(), vec![1.0; k])
            .unwrap();
        let mut b = e_s.transpose();
        b.data_mut().copy_from_slice(pre.rho_s_inv());
        let mut machine = Machine::new(ArchConfig::baseline(c));
        let (p, a, at) =
            (machine.add_matrix(pm), machine.add_matrix(am), machine.add_matrix(&am.transpose()));
        let (mask, rho_inv) = (machine.alloc_vec(m), machine.alloc_vec(m));
        machine.write_vec(mask, pre.mask());
        machine.write_vec(rho_inv, &rho.iter().map(|r| 1.0 / r).collect::<Vec<_>>());
        let correction = Correction::Rows(DenseRowCorrection {
            a_s: machine.add_matrix(pre.a_s()),
            cinv: machine.add_matrix(pre.cinv()),
            a_st: machine.add_matrix(&pre.a_s().transpose()),
            augmented: Some(AugmentedRows {
                e_s: machine.add_matrix(&e_s),
                b: machine.add_matrix(&b),
                mask,
                rho_inv,
            }),
        });
        let kernel = build_pcg(&mut machine, p, a, at, n, m, 500, Some(correction));
        let wave = |len: usize, phase: f64| -> Vec<f64> {
            (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
        };
        let inputs = [wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0)];
        for (reg, v) in [kernel.x, kernel.z, kernel.y, kernel.q].into_iter().zip(&inputs) {
            machine.write_vec(reg, v);
        }
        machine.write_vec(kernel.xtilde, &vec![f64::NAN; n]);
        machine.write_vec(kernel.rho_vec, &rho);
        machine.write_vec(kernel.minv, pre.inv_diag());
        machine.write_scalar(kernel.sigma, sigma);
        (machine, kernel, op, rho, inputs)
    }

    #[test]
    fn the_augmented_dense_row_solve_has_no_loop() {
        // Straight through: 32 instructions, 7 SpMVs (Aᵀ, A_S, E_S, C⁻¹,
        // A_Sᵀ, A, B), no loop trip, and the warm start is not read.
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, 5, 1);
        let (mut machine, k, ..) = augmented_kernel(&qp, 8);
        assert!(k.program.loop_bounds().is_none(), "no PCG loop");
        assert_eq!(k.program.len(), 32);
        let spmvs = k.program.instrs().iter().filter(|i| matches!(i, Instr::Spmv { .. })).count();
        assert_eq!(spmvs, 7);
        let run = machine.run(&k.program).unwrap();
        assert_eq!((run.loop_trips, run.instructions), (0, 32));
        assert!(machine.read_vec(k.xtilde).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn the_augmented_dense_row_solve_returns_the_cpu_bits() {
        // The program against rsqp_linsys's exact_solve, on two portfolios
        // at two widths, over 16 inputs each: a change of association
        // moves a last bit in a few percent of the entries, and y of the
        // size of ρ∘z keeps ρ⁻¹∘y as large as z.
        for (size, c) in [(5, 8), (20, 32)] {
            let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, size, 1);
            let (mut machine, k, mut op, rho, [x, _, _, q]) = augmented_kernel(&qp, c);
            let (n, m) = (x.len(), rho.len());
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            for round in 0..16 {
                let phase = 0.7 * f64::from(round);
                let z: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37 + phase).sin()).collect();
                let y: Vec<f64> =
                    (0..m).map(|i| rho[i] * (i as f64 * 0.53 + 2.0 * phase).cos()).collect();
                machine.write_vec(k.z, &z);
                machine.write_vec(k.y, &y);
                machine.run(&k.program).unwrap();
                let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
                op.exact_solve(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
                let name = qp.name();
                assert_eq!(bits(machine.read_vec(k.xtilde)), bits(&xt), "{name} {round}: x̃");
                assert_eq!(bits(machine.read_vec(k.ztilde)), bits(&zt), "{name} {round}: z̃");
            }
        }
    }

    /// control_0008's reduced KKT operator at ρ = 0.1 (100 on equality
    /// rows), factored, with its ρ vector.
    fn factored_control() -> (rsqp_solver::QpProblem, rsqp_linsys::ReducedKktOp, Vec<f64>) {
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Control, 8, 1);
        let rho: Vec<f64> =
            qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
        let mut op = rsqp_linsys::ReducedKktOp::new(qp.p(), qp.a(), 1e-6, &rho).unwrap();
        op.prepare().unwrap();
        (qp, op, rho)
    }

    /// The factor of `op` as the machine takes it.
    fn factor_of(op: &rsqp_linsys::ReducedKktOp) -> crate::FactorRef<'_> {
        let rsqp_linsys::KktPrecond::Factor(f) = op.preconditioner() else {
            panic!("control takes the factor of K");
        };
        let ldlt = f.ldlt().unwrap();
        let (l_colptr, l_rowidx, l_data) = ldlt.l();
        crate::FactorRef {
            perm: f.perm().unwrap(),
            l_colptr,
            l_rowidx,
            l_data,
            dinv: ldlt.dinv(),
            etree_height: ldlt.etree_height(),
        }
    }

    #[test]
    fn factor_solve_costs_two_sweeps_of_levels_and_one_vector_pass() {
        let (qp, op, _) = factored_control();
        let n = qp.num_vars();
        let f = factor_of(&op);
        for c in [8, 32] {
            let config = ArchConfig::baseline(c);
            let mut machine = Machine::new(config.clone());
            let id = machine.add_factor(n);
            machine.load_factor(id, f);
            let v = machine.alloc_vec(n);
            let mut pb = ProgramBuilder::new();
            pb.push(Instr::FactorSolve { factor: id, vec: v });
            let run = machine.run(&pb.build().unwrap()).unwrap();
            let (h, l_nnz) = (f.etree_height as u64, f.l_data.len() as u64);
            let cycles = 2 * (h * config.cost().spmv_latency + l_nnz.div_ceil(c as u64))
                + config.vector_cycles(n);
            assert_eq!((run.cycles, run.breakdown.spmv), (cycles, cycles), "C = {c}");
            assert_eq!(run.hbm_bytes, 2 * l_nnz * crate::hbm::BYTES_PER_NNZ as u64, "C = {c}");
        }
    }

    #[test]
    fn factor_solve_returns_the_cpu_exact_solve_bits() {
        // The direct program against the CPU's x̃ = K⁻¹b and z̃ = A x̃.
        let (qp, mut op, rho) = factored_control();
        let (pm, am) = (qp.p(), qp.a());
        let (n, m) = (pm.nrows(), am.nrows());
        let mut machine = Machine::new(ArchConfig::baseline(8));
        let (p, a, at) =
            (machine.add_matrix(pm), machine.add_matrix(am), machine.add_matrix(&am.transpose()));
        let id = machine.add_factor(n);
        machine.load_factor(id, factor_of(&op));
        let k = build_pcg(&mut machine, p, a, at, n, m, 500, Some(Correction::Factor(id)));
        assert!(k.program.loop_bounds().is_none(), "no PCG loop");
        let wave = |len: usize, phase: f64| -> Vec<f64> {
            (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
        };
        let (xv, zv, yv, qv) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
        machine.write_vec(k.x, &xv);
        machine.write_vec(k.xtilde, &vec![f64::NAN; n]);
        machine.write_vec(k.z, &zv);
        machine.write_vec(k.y, &yv);
        machine.write_vec(k.q, &qv);
        machine.write_vec(k.rho_vec, &rho);
        machine.write_scalar(k.sigma, 1e-6);
        assert_eq!(machine.run(&k.program).unwrap().loop_trips, 0);

        let (mut x, mut z) = (vec![0.0; n], vec![0.0; m]);
        op.exact_solve(&xv, &zv, &yv, &qv, &mut x, &mut z).unwrap();
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(machine.read_vec(k.xtilde)), bits(&x));
        assert_eq!(bits(machine.read_vec(k.ztilde)), bits(&z));
    }

    #[test]
    fn outer_cycles_scale_with_dims_and_width() {
        let c16 = ArchConfig::baseline(16);
        let c64 = ArchConfig::baseline(64);
        assert!(admm_outer_cycles(&c16, 1000, 2000) > admm_outer_cycles(&c64, 1000, 2000));
        assert!(admm_outer_cycles(&c16, 1000, 2000) > admm_outer_cycles(&c16, 100, 200));
    }
}

/// Register map and program of the on-accelerator ADMM outer update
/// (Algorithm 1, lines 5–7): given `x̃`, `z̃` from the PCG kernel and the
/// current iterates, computes
///
/// ```text
/// x ← α·x̃ + (1−α)·x
/// w ← α·z̃ + (1−α)·z + ρ⁻¹∘y          (the projection candidate)
/// z ← min(max(w, l), u)                (Π, via EwMax/EwMin)
/// y ← ρ∘(w − z)
/// ```
///
/// The instruction mix matches Table 1's usage column for A1-4,5,6,7.
#[derive(Debug, Clone)]
pub struct AdmmUpdateKernel {
    /// The compiled program.
    pub program: Program,
    /// In/out: primal iterate `x` (length n).
    pub x: VecId,
    /// Input: `x̃` from the KKT solve (length n).
    pub xtilde: VecId,
    /// In/out: slack iterate `z` (length m).
    pub z: VecId,
    /// Input: `z̃` from the KKT solve (length m).
    pub ztilde: VecId,
    /// In/out: dual iterate `y` (length m).
    pub y: VecId,
    /// Input: per-constraint ρ (length m).
    pub rho_vec: VecId,
    /// Input: per-constraint `1/ρ` (length m).
    pub rho_inv_vec: VecId,
    /// Input: lower bounds (length m).
    pub l: VecId,
    /// Input: upper bounds (length m).
    pub u: VecId,
    /// Host-set scalar: relaxation α.
    pub alpha: SReg,
}

/// Builds the ADMM outer-update kernel.
pub fn build_admm_update(machine: &mut Machine, n: usize, m: usize) -> AdmmUpdateKernel {
    let x = machine.alloc_vec(n);
    let xtilde = machine.alloc_vec(n);
    let z = machine.alloc_vec(m);
    let ztilde = machine.alloc_vec(m);
    let y = machine.alloc_vec(m);
    let rho_vec = machine.alloc_vec(m);
    let rho_inv_vec = machine.alloc_vec(m);
    let l = machine.alloc_vec(m);
    let u = machine.alloc_vec(m);
    let w = machine.alloc_vec(m);
    let alpha = machine.alloc_scalar();
    let one = machine.alloc_scalar();
    let one_minus_alpha = machine.alloc_scalar();
    let neg_one = machine.alloc_scalar();

    let mut pb = ProgramBuilder::new();
    pb.push(Instr::SetScalar { dst: one, value: 1.0 });
    pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
    pb.push(Instr::Scalar { op: ScalarOp::Sub, dst: one_minus_alpha, a: one, b: alpha });
    // x = alpha*xtilde + (1-alpha)*x
    pb.push(Instr::Lincomb { dst: x, alpha, a: xtilde, beta: one_minus_alpha, b: x });
    // w = alpha*ztilde + (1-alpha)*z
    pb.push(Instr::Lincomb { dst: w, alpha, a: ztilde, beta: one_minus_alpha, b: z });
    // w += rho_inv .* y   (EwMul into z-slot? need temp: reuse ztilde? ztilde
    // is an input we may not clobber mid-iteration on hardware either; use z
    // as scratch *after* reading it: z = rho_inv .* y; w = w + z.)
    pb.push(Instr::EwMul { dst: z, a: rho_inv_vec, b: y });
    pb.push(Instr::Lincomb { dst: w, alpha: one, a: w, beta: one, b: z });
    // z = clamp(w, l, u)
    pb.push(Instr::EwMax { dst: z, a: w, b: l });
    pb.push(Instr::EwMin { dst: z, a: z, b: u });
    // y = rho .* (w - z)
    pb.push(Instr::Lincomb { dst: w, alpha: one, a: w, beta: neg_one, b: z });
    pb.push(Instr::EwMul { dst: y, a: rho_vec, b: w });

    let program = pb.build().expect("straight-line program");
    AdmmUpdateKernel { program, x, xtilde, z, ztilde, y, rho_vec, rho_inv_vec, l, u, alpha }
}

#[cfg(test)]
mod admm_kernel_tests {
    use super::*;
    use crate::ArchConfig;

    #[test]
    fn admm_update_matches_reference_formulas() {
        let (n, m) = (3, 4);
        let mut machine = Machine::new(ArchConfig::baseline(4));
        let k = build_admm_update(&mut machine, n, m);
        let alpha = 1.6;
        let xv = vec![0.1, -0.2, 0.3];
        let xt = vec![1.0, 2.0, -1.0];
        let zv = vec![0.5, -0.5, 2.0, 0.0];
        let zt = vec![1.5, -2.0, 0.5, 3.0];
        let yv = vec![0.2, -0.1, 0.0, 0.4];
        let rho = vec![0.5, 1.0, 2.0, 4.0];
        let rho_inv: Vec<f64> = rho.iter().map(|r| 1.0 / r).collect();
        let lv = vec![-1.0, -1.0, -1.0, -1.0];
        let uv = vec![1.0, 1.0, 1.0, 1.0];

        machine.write_vec(k.x, &xv);
        machine.write_vec(k.xtilde, &xt);
        machine.write_vec(k.z, &zv);
        machine.write_vec(k.ztilde, &zt);
        machine.write_vec(k.y, &yv);
        machine.write_vec(k.rho_vec, &rho);
        machine.write_vec(k.rho_inv_vec, &rho_inv);
        machine.write_vec(k.l, &lv);
        machine.write_vec(k.u, &uv);
        machine.write_scalar(k.alpha, alpha);
        machine.run(&k.program).unwrap();

        for i in 0..n {
            let want = alpha * xt[i] + (1.0 - alpha) * xv[i];
            assert!((machine.read_vec(k.x)[i] - want).abs() < 1e-12);
        }
        for i in 0..m {
            let w = alpha * zt[i] + (1.0 - alpha) * zv[i] + rho_inv[i] * yv[i];
            let z_new = w.max(lv[i]).min(uv[i]);
            let y_new = rho[i] * (w - z_new);
            assert!((machine.read_vec(k.z)[i] - z_new).abs() < 1e-12, "z[{i}]");
            assert!((machine.read_vec(k.y)[i] - y_new).abs() < 1e-12, "y[{i}]");
        }
    }

    #[test]
    fn admm_update_cycles_match_analytic_model() {
        let (n, m) = (64, 128);
        let config = ArchConfig::baseline(16);
        let mut machine = Machine::new(config.clone());
        let k = build_admm_update(&mut machine, n, m);
        machine.write_scalar(k.alpha, 1.6);
        machine.run(&k.program).unwrap();
        let measured = machine.stats().cycles;
        // The analytic estimate counts 1 n-op + 7 m-ops; the kernel runs
        // exactly that many vector instructions plus 1 scalar op.
        let analytic = admm_outer_cycles(&config, n, m) + config.cost().scalar_latency;
        assert_eq!(measured, analytic, "analytic model must match the kernel");
    }
}
