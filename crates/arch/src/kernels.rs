//! Canned instruction sequences: the KKT solve the backends run, the PCG
//! solve of Algorithm 2 and the cycle cost of Algorithm 1's outer vector
//! updates.
//!
//! The KKT solve ([`build_kkt_solve`]) is the program the simulated
//! accelerator runs at every ADMM iteration. The host factors the KKT
//! matrix of Eq. (2) (`rsqp_linsys::KktLdlt`: OSQP's quasi-definite
//! `PᵀKP = L·D·Lᵀ` under AMD) and uploads `L`, `D⁻¹` and the permutation
//! after each refactorization ([`Machine::load_factor`]); the program is
//! loop-free, vector operations around one [`Instr::FactorSolve`]:
//!
//! ```text
//! x̃ = σx − q ;  ν = z − ρ⁻¹∘y
//! (x̃, ν) = KKT⁻¹ (x̃, ν)                  (permute, L⁻¹, D⁻¹, L⁻ᵀ, permute back)
//! z̃ = z + ρ⁻¹∘(ν − y)
//! ```
//!
//! Every expression, and its order, is the CPU's
//! (`rsqp_linsys::KktLdlt::solve`), and the instruction runs the CPU's own
//! sweeps (`rsqp_sparse::ldl_solve_in_place`), so both return the same
//! bits.
//!
//! The PCG kernel ([`build_pcg`]) is the paper's Algorithm 2 with the
//! Jacobi preconditioner, which the paper's tables and the η model measure
//! and no backend runs. It computes, entirely on the machine,
//!
//! ```text
//! b  = (σx − q) + Aᵀ(ρ∘z − y)          (right-hand side of Eq. 3)
//! x̃ = PCG(K, b, x₀ = x̃)                (Algorithm 2)
//! z̃ = A x̃
//! ```
//!
//! with `K·v` evaluated incrementally as `(P·v + σ·v) + Aᵀ(ρ∘(A·v))`, never
//! forming `AᵀA` (§2.2), and `d = M⁻¹r` as `minv∘r`. It is built from the
//! instructions of Table 1 alone. The loop is the specification of
//! `rsqp_linsys::pcg_with`, operation for operation. It starts from
//! whatever the `xtilde` register holds, while `x` only enters the
//! right-hand side. An exact warm start (`r₀ = 0`) takes one step with
//! `λ = 0` that leaves `x̃` as it is; `res0` holds `r₀·r₀` to tell it
//! apart. Degenerate denominators (that step's `δ = pᵀKp = 0`) are guarded
//! with a `max(·, tiny)` — the hardware equivalent of a saturating divider.

use rsqp_sparse::vec_ops::PCG_EPS_ABS;

use crate::{FactorId, Instr, Machine, MatrixId, Program, ProgramBuilder, SReg, ScalarOp, VecId};

/// Register map and program of the on-accelerator KKT solve through a
/// resident factor of the KKT matrix.
#[derive(Debug, Clone)]
pub struct KktSolveKernel {
    /// The compiled, loop-free program.
    pub program: Program,
    /// Input: current primal iterate `x` (length n).
    pub x: VecId,
    /// Input: current slack iterate `z` (length m).
    pub z: VecId,
    /// Input: current dual iterate `y` (length m).
    pub y: VecId,
    /// Input: linear cost `q` (length n).
    pub q: VecId,
    /// Input: `ρ⁻¹` (length m), as the factored KKT matrix holds it.
    pub rho_inv: VecId,
    /// Output: `x̃` (length n).
    pub xtilde: VecId,
    /// Output: the multipliers `ν` (length m).
    pub nu: VecId,
    /// Output: `z̃` (length m).
    pub ztilde: VecId,
    /// Host-set scalar: σ.
    pub sigma: SReg,
}

/// Builds the KKT-solve kernel on `machine` for `n` variables and `m`
/// constraints over `factor`, a slot of dimension `n + m`.
///
/// # Panics
///
/// Panics if the builder produces a malformed program (a bug, not a user
/// error).
pub fn build_kkt_solve(
    machine: &mut Machine,
    n: usize,
    m: usize,
    factor: FactorId,
) -> KktSolveKernel {
    let x = machine.alloc_vec(n);
    let z = machine.alloc_vec(m);
    let y = machine.alloc_vec(m);
    let q = machine.alloc_vec(n);
    let rho_inv = machine.alloc_vec(m);
    let xtilde = machine.alloc_vec(n);
    let nu = machine.alloc_vec(m);
    let ztilde = machine.alloc_vec(m);
    let sigma = machine.alloc_scalar();
    let one = machine.alloc_scalar();
    let neg_one = machine.alloc_scalar();

    let mut pb = ProgramBuilder::new();
    pb.push(Instr::SetScalar { dst: one, value: 1.0 });
    pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
    // x̃ = σx − q ; ν = z − ρ⁻¹∘y
    pb.push(Instr::Lincomb { dst: xtilde, alpha: sigma, a: x, beta: neg_one, b: q });
    pb.push(Instr::EwMul { dst: nu, a: rho_inv, b: y });
    pb.push(Instr::Lincomb { dst: nu, alpha: one, a: z, beta: neg_one, b: nu });
    pb.push(Instr::FactorSolve { factor, head: xtilde, tail: nu });
    // z̃ = z + ρ⁻¹∘(ν − y)
    pb.push(Instr::Lincomb { dst: ztilde, alpha: one, a: nu, beta: neg_one, b: y });
    pb.push(Instr::EwMul { dst: ztilde, a: rho_inv, b: ztilde });
    pb.push(Instr::Lincomb { dst: ztilde, alpha: one, a: z, beta: one, b: ztilde });
    let program = pb.build().expect("a straight-line program");
    KktSolveKernel { program, x, z, y, q, rho_inv, xtilde, nu, ztilde, sigma }
}

/// Register map and program of the on-accelerator PCG solve.
#[derive(Debug, Clone)]
pub struct PcgKernel {
    /// The compiled program.
    pub program: Program,
    /// Input: current primal iterate `x`, read only for `σ·x` in the
    /// right-hand side (length n).
    pub x: VecId,
    /// In/out: PCG warm start on entry, solution `x̃` on exit (length n).
    pub xtilde: VecId,
    /// Input: current slack iterate `z` (length m).
    pub z: VecId,
    /// Input: current dual iterate `y` (length m).
    pub y: VecId,
    /// Input: linear cost `q` (length n).
    pub q: VecId,
    /// Input: per-constraint ρ vector (length m).
    pub rho_vec: VecId,
    /// Input: the inverse Jacobi diagonal `1/diag(K)` (length n).
    pub minv: VecId,
    /// Output: `z̃ = A·x̃` (length m).
    pub ztilde: VecId,
    /// Host-set scalar: σ.
    pub sigma: SReg,
    /// Host-set scalar: relative CG tolerance ε.
    pub eps: SReg,
    /// Output: `r₀·r₀`, zero when the warm start solves the system exactly
    /// (the one step then taken has `λ = 0`).
    pub res0: SReg,
}

/// Builds the Jacobi-preconditioned PCG kernel on `machine` for matrices
/// `p` (n×n), `a` (m×n) and `at` (n×m) already registered with the
/// machine.
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

    let mut pb = ProgramBuilder::new();
    pb.max_trips(max_iter.max(1));
    // Constants.
    pb.push(Instr::SetScalar { dst: one, value: 1.0 });
    pb.push(Instr::SetScalar { dst: neg_one, value: -1.0 });
    pb.push(Instr::SetScalar { dst: zero, value: 0.0 });
    pb.push(Instr::SetScalar { dst: tiny, value: 1e-300 });

    // b = (σx − q) + Aᵀ(ρ∘z − y).
    pb.push(Instr::EwMul { dst: am, a: rho_vec, b: z });
    pb.push(Instr::Lincomb { dst: am, alpha: one, a: am, beta: neg_one, b: y });
    pb.push(Instr::Lincomb { dst: px, alpha: sigma, a: x, beta: neg_one, b: q });
    pb.push(Instr::Duplicate { vec: am, matrix: at });
    pb.push(Instr::Spmv { matrix: at, input: am, output: b });
    pb.push(Instr::Lincomb { dst: b, alpha: one, a: px, beta: one, b });

    // K·x̃ -> kp  (initial residual).
    emit_kapply(&mut pb, p, a, at, xtilde, kp, px, am, rho_vec, sigma, one);
    // r = kp − b ; d = M⁻¹∘r ; p = −d
    pb.push(Instr::Lincomb { dst: r, alpha: one, a: kp, beta: neg_one, b });
    pb.push(Instr::EwMul { dst: d, a: minv, b: r });
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
    pb.push(Instr::EwMul { dst: d, a: minv, b: r });
    pb.push(Instr::Dot { dst: delta_new, a: r, b: d });
    pb.push(Instr::Scalar { op: ScalarOp::Max, dst: guard, a: delta, b: tiny });
    pb.push(Instr::Scalar { op: ScalarOp::Div, dst: mu, a: delta_new, b: guard });
    pb.push(Instr::Scalar { op: ScalarOp::Mul, dst: delta, a: delta_new, b: one });
    pb.push(Instr::Lincomb { dst: pv, alpha: mu, a: pv, beta: neg_one, b: d });
    pb.loop_end_if_less(res2, thr);
    // z̃ = A·x̃.
    pb.push(Instr::Duplicate { vec: xtilde, matrix: a });
    pb.push(Instr::Spmv { matrix: a, input: xtilde, output: ztilde });
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
        let k = build_pcg(&mut machine, p, a, at, 2, 2, 500);
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

    /// control_0008's KKT factor under AMD at ρ = 0.1 (100 on equality
    /// rows), factored, with its problem.
    fn factored_control() -> (rsqp_solver::QpProblem, rsqp_linsys::KktLdlt) {
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Control, 8, 1);
        let rho: Vec<f64> =
            qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
        let mut f = rsqp_linsys::KktLdlt::with_amd(qp.p(), qp.a(), 1e-6, &rho).unwrap();
        f.refactor().unwrap();
        (qp, f)
    }

    /// The factor of `f` as the machine takes it.
    fn factor_of(f: &rsqp_linsys::KktLdlt) -> crate::FactorRef<'_> {
        let ldlt = f.ldlt();
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
        let (qp, f) = factored_control();
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let factor = factor_of(&f);
        for c in [8, 32] {
            let config = ArchConfig::baseline(c);
            let mut machine = Machine::new(config.clone());
            let id = machine.add_factor(n + m);
            machine.load_factor(id, factor);
            let (head, tail) = (machine.alloc_vec(n), machine.alloc_vec(m));
            let mut pb = ProgramBuilder::new();
            pb.push(Instr::FactorSolve { factor: id, head, tail });
            let run = machine.run(&pb.build().unwrap()).unwrap();
            let (h, l_nnz) = (factor.etree_height as u64, factor.l_data.len() as u64);
            let cycles = 2 * (h * config.cost().spmv_latency + l_nnz.div_ceil(c as u64))
                + config.vector_cycles(n + m);
            assert_eq!((run.cycles, run.breakdown.spmv), (cycles, cycles), "C = {c}");
            assert_eq!(run.hbm_bytes, 2 * l_nnz * crate::hbm::BYTES_PER_NNZ as u64, "C = {c}");
            // The pair must make up the factor's dimension.
            let short = machine.alloc_vec(m - 1);
            let mut pb = ProgramBuilder::new();
            pb.push(Instr::FactorSolve { factor: id, head, tail: short });
            assert!(machine.run(&pb.build().unwrap()).is_err(), "C = {c}");
        }
    }

    #[test]
    fn the_kkt_solve_returns_the_cpu_bits() {
        // The loop-free program against the CPU's solve of the same
        // factor, at two widths, from four inputs each.
        let (qp, mut f) = factored_control();
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        for c in [8, 32] {
            let mut machine = Machine::new(ArchConfig::baseline(c));
            let id = machine.add_factor(n + m);
            machine.load_factor(id, factor_of(&f));
            let k = build_kkt_solve(&mut machine, n, m, id);
            assert!(k.program.loop_bounds().is_none(), "no loop");
            assert_eq!(k.program.len(), 9);
            machine.write_vec(k.rho_inv, f.kkt().rho_inv());
            machine.write_scalar(k.sigma, 1e-6);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            for round in 0..4 {
                let phase = 0.7 * f64::from(round);
                let wave = |len: usize, shift: f64| -> Vec<f64> {
                    (0..len).map(|i| ((i as f64) * 0.37 + phase + shift).sin()).collect()
                };
                let (x, z, y, q) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
                for (reg, v) in [(k.x, &x), (k.z, &z), (k.y, &y), (k.q, &q)] {
                    machine.write_vec(reg, v);
                }
                let run = machine.run(&k.program).unwrap();
                assert_eq!((run.loop_trips, run.instructions), (0, 9));
                let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
                f.solve(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
                assert_eq!(bits(machine.read_vec(k.xtilde)), bits(&xt), "C = {c} {round}: x̃");
                assert_eq!(bits(machine.read_vec(k.ztilde)), bits(&zt), "C = {c} {round}: z̃");
            }
        }
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
