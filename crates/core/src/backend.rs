//! The simulated-FPGA KKT backend.
//!
//! Implements [`rsqp_solver::KktBackend`] by executing the KKT-solve kernel
//! of Algorithm 2 on the cycle-level machine of `rsqp-arch`. The numerical
//! results flowing back into the ADMM loop are the machine's — so the
//! solver genuinely converges on simulated-accelerator arithmetic — and
//! every solve advances the machine's cycle counters, which the performance
//! model later converts to seconds via the f_max estimate. Each solve loads
//! the solver's warm start into the kernel's `xtilde` register and reads the
//! solution back from it, so the machine and the CPU PCG start alike.
//!
//! `M⁻¹` is the CPU PCG's own [`KktPrecond`]: the host computes `D'⁻¹`,
//! `A_S` and `C⁻¹` (dense rows), `G`, `Hᵀ` and the factor of `S` (dense
//! columns), or the LDLᵀ factor of `K` itself (neither), uploads them —
//! with the explicit `S⁻¹`, and for the augmented dense-row solve `E_S`,
//! `B = E_Sᵀ diag(ρ_S⁻¹)`, `mask_R` and `ρ⁻¹`, which only the machine
//! needs — and the kernel applies the same operator on the machine. The
//! factor of `K` is formed and refactored on the host at the first solve
//! after construction and after each ρ or matrix update, and `L`, `D⁻¹`
//! and the permutation are uploaded then, as `C⁻¹`, `B`, `ρ⁻¹` and `S⁻¹`
//! are on each update. The backend runs one program, fixed at
//! construction: PCG, or where the CPU backend solves directly (dense rows
//! over a diagonal `K_R`, dense columns, the factor of `K`) the loop-free
//! direct solve, and takes the CPU's steps bit for bit. While a pivot of
//! `M⁻¹` is not positive and finite, a solve returns PCG's breakdown
//! without running the machine.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rsqp_arch::kernels::{
    admm_outer_cycles, build_pcg, AugmentedRows, Correction, DenseColCorrection,
    DenseRowCorrection, PcgKernel,
};
use rsqp_arch::{ArchConfig, FactorId, FactorRef, Instr, Machine, MatrixId, Program, RunStats};
use rsqp_linsys::KktPrecond;
use rsqp_solver::{BackendStats, KktBackend, QpProblem, Settings, Solver, SolverError};
use rsqp_sparse::{CsrMatrix, TransposeCache};

/// The correction of `M⁻¹` as the machine holds it: the ids of its
/// resident matrices, with the host-side copies only the machine needs —
/// the transposed `A_Sᵀ`, and for the augmented solve `B` and `ρ⁻¹` (dense
/// rows), or `H` and the explicit `S⁻¹` (dense columns) — or the slot of
/// the factor of `K`.
#[derive(Debug, Clone)]
pub(crate) enum DeviceCorrection {
    /// `A_S`, `C⁻¹` and `A_Sᵀ`, with `A_Sᵀ` refreshed from `A_S`, and with
    /// a diagonal `K_R` the host copies of `B` (values `ρ_S⁻¹`) and `ρ⁻¹`
    /// (length m).
    Rows { ids: DenseRowCorrection, a_st: TransposeCache, augmented: Option<(CsrMatrix, Vec<f64>)> },
    /// `G` (unless diagonal), `H`, `S⁻¹` and `Hᵀ`, with `H` refreshed from
    /// `Hᵀ` and `S⁻¹` from the factor of `S`.
    Cols { ids: DenseColCorrection, h: TransposeCache, sinv: CsrMatrix },
    /// The factor of `K`, loaded at the first solve after each update
    /// (`pending` until then).
    Factor { id: FactorId, pending: bool },
}

impl DeviceCorrection {
    /// Registers the matrices of `precond`'s correction on `machine` —
    /// with a diagonal `K_R` also `E_S`, `B` and the vectors `mask_R`
    /// (written here) and `ρ⁻¹` — or an empty slot for the factor of `K`
    /// (`n × n`).
    fn load(machine: &mut Machine, precond: &KktPrecond, n: usize) -> Self {
        match precond {
            KktPrecond::Rows(pre) => {
                let a_st = TransposeCache::new(pre.a_s());
                let mut ids = DenseRowCorrection {
                    a_s: machine.add_matrix(pre.a_s()),
                    cinv: machine.add_matrix(pre.cinv()),
                    a_st: machine.add_matrix(a_st.matrix()),
                    augmented: None,
                };
                let augmented = pre.is_exact().then(|| {
                    let (m, rows) = (pre.mask().len(), pre.dense_rows());
                    let k = rows.len();
                    let e_s = CsrMatrix::from_raw_parts(
                        k,
                        m,
                        (0..=k).collect(),
                        rows.to_vec(),
                        vec![1.0; k],
                    )
                    .expect("one entry per dense row is a valid CSR matrix");
                    let mut b = e_s.transpose();
                    b.data_mut().copy_from_slice(pre.rho_s_inv());
                    let mask = machine.alloc_vec(m);
                    machine.write_vec(mask, pre.mask());
                    ids.augmented = Some(AugmentedRows {
                        e_s: machine.add_matrix(&e_s),
                        b: machine.add_matrix(&b),
                        mask,
                        rho_inv: machine.alloc_vec(m),
                    });
                    (b, vec![0.0; m])
                });
                DeviceCorrection::Rows { ids, a_st, augmented }
            }
            KktPrecond::Cols(pre) => {
                let k = pre.rank();
                let mut sinv = CsrMatrix::from_raw_parts(
                    k,
                    k,
                    (0..=k).map(|i| i * k).collect(),
                    (0..k * k).map(|e| e % k).collect(),
                    vec![0.0; k * k],
                )
                .expect("a full pattern is a valid CSR matrix");
                pre.write_s_inverse(sinv.data_mut());
                let h = TransposeCache::new(pre.ht());
                let ids = DenseColCorrection {
                    g: pre.g().map(|g| machine.add_matrix(g)),
                    h: machine.add_matrix(h.matrix()),
                    sinv: machine.add_matrix(&sinv),
                    ht: machine.add_matrix(pre.ht()),
                };
                DeviceCorrection::Cols { ids, h, sinv }
            }
            KktPrecond::Factor(_) => {
                DeviceCorrection::Factor { id: machine.add_factor(n), pending: true }
            }
        }
    }

    /// The ids the kernel addresses the correction's matrices by.
    fn ids(&self) -> Correction {
        match self {
            DeviceCorrection::Rows { ids, .. } => Correction::Rows(*ids),
            DeviceCorrection::Cols { ids, .. } => Correction::Cols(*ids),
            DeviceCorrection::Factor { id, .. } => Correction::Factor(*id),
        }
    }

    /// Refreshes the host-side copies from `precond`'s current values and
    /// ρ and uploads every matrix and vector of the correction in place;
    /// the factor of `K` is only marked for upload at the next solve,
    /// which factors it.
    fn upload(&mut self, machine: &mut Machine, precond: &KktPrecond, rho: &[f64]) {
        match (self, precond) {
            (DeviceCorrection::Rows { ids, a_st, augmented }, KktPrecond::Rows(pre)) => {
                a_st.refresh_values(pre.a_s()).expect("A_S keeps its shape");
                machine.update_matrix_values(ids.a_s, pre.a_s());
                machine.update_matrix_values(ids.cinv, pre.cinv());
                machine.update_matrix_values(ids.a_st, a_st.matrix());
                if let (Some(aug), Some((b, rho_inv))) = (ids.augmented, augmented) {
                    b.data_mut().copy_from_slice(pre.rho_s_inv());
                    machine.update_matrix_values(aug.b, b);
                    for (inv, &r) in rho_inv.iter_mut().zip(rho) {
                        *inv = 1.0 / r;
                    }
                    machine.write_vec(aug.rho_inv, rho_inv);
                }
            }
            (DeviceCorrection::Cols { ids, h, sinv }, KktPrecond::Cols(pre)) => {
                h.refresh_values(pre.ht()).expect("Hᵀ keeps its shape");
                pre.write_s_inverse(sinv.data_mut());
                if let (Some(id), Some(g)) = (ids.g, pre.g()) {
                    machine.update_matrix_values(id, g);
                }
                machine.update_matrix_values(ids.h, h.matrix());
                machine.update_matrix_values(ids.sinv, sinv);
                machine.update_matrix_values(ids.ht, pre.ht());
            }
            (DeviceCorrection::Factor { pending, .. }, KktPrecond::Factor(_)) => *pending = true,
            _ => unreachable!("the correction kind is fixed at construction"),
        }
    }

    /// Uploads the factor of `K` if it was refactored since the last
    /// upload; `precond` must be prepared.
    pub(crate) fn upload_factor(&mut self, machine: &mut Machine, precond: &KktPrecond) {
        let (DeviceCorrection::Factor { id, pending }, KktPrecond::Factor(f)) = (self, precond)
        else {
            return;
        };
        if !std::mem::take(pending) {
            return;
        }
        let (ldlt, perm) = f.ldlt().zip(f.perm()).expect("a prepared factor");
        let (l_colptr, l_rowidx, l_data) = ldlt.l();
        machine.load_factor(
            *id,
            FactorRef {
                perm,
                l_colptr,
                l_rowidx,
                l_data,
                dinv: ldlt.dinv(),
                etree_height: ldlt.etree_height(),
            },
        );
    }
}

/// Registers `P`, `A`, `Aᵀ` and the matrices of `precond`'s correction (or
/// the slot of its factor of `K`) on `machine`, and builds the KKT-solve
/// kernel over them — the program [`FpgaPcgBackend`] runs and the bundle
/// writer emits.
pub(crate) fn load_pcg(
    machine: &mut Machine,
    p: &CsrMatrix,
    a: &CsrMatrix,
    at: &CsrMatrix,
    precond: &KktPrecond,
    max_iter: usize,
) -> (PcgKernel, [MatrixId; 3], DeviceCorrection) {
    let ids = [machine.add_matrix(p), machine.add_matrix(a), machine.add_matrix(at)];
    let correction = DeviceCorrection::load(machine, precond, p.nrows());
    let [pid, aid, atid] = ids;
    let kernel =
        build_pcg(machine, pid, aid, atid, p.nrows(), a.nrows(), max_iter, Some(correction.ids()));
    (kernel, ids, correction)
}

/// SpMVs a KKT solve of `program` runs outside and inside its loop: for a
/// direct solve the CPU's count, `precond.products() + 2` (`Aᵀ`, `M⁻¹`'s
/// products and `A`; the augmented dense-row solve's selections `E_S` and
/// `B` are not counted), and for PCG the program's `Spmv` instructions.
fn spmv_split(program: &Program, precond: &KktPrecond) -> (usize, usize) {
    if precond.is_exact() {
        return (precond.products() + 2, 0);
    }
    let spmvs =
        |instrs: &[Instr]| instrs.iter().filter(|i| matches!(i, Instr::Spmv { .. })).count();
    let instrs = program.instrs();
    let body = program.loop_bounds().map_or(0, |(s, e)| spmvs(&instrs[s..=e]));
    (spmvs(instrs) - body, body)
}

/// A [`KktBackend`] backed by the simulated RSQP accelerator.
pub struct FpgaPcgBackend {
    machine: Rc<RefCell<Machine>>,
    kernel: PcgKernel,
    /// `P`, `A` and `Aᵀ` on the machine.
    matrix_ids: [MatrixId; 3],
    /// The correction of `M⁻¹` on the machine.
    correction: DeviceCorrection,
    /// `Aᵀ` as uploaded, refreshed from `A`'s values on every update.
    at: TransposeCache,
    /// Host-side `M⁻¹`, refreshed and re-uploaded on every update.
    precond: KktPrecond,
    rho: Vec<f64>,
    sigma: f64,
    eps: f64,
    stats: BackendStats,
    /// SpMVs in the kernel outside and inside its loop. PCG: `Aᵀ` for the
    /// right-hand side, K·v (`P`, `A`, `Aᵀ`) and the dense-row correction
    /// (`A_S`, `C⁻¹`, `A_Sᵀ`) before the loop and in it, and `A` for z̃.
    /// The direct solve: `Aᵀ`, `A_S`, `C⁻¹` and `A_Sᵀ` (or `H`, `S⁻¹`,
    /// `Hᵀ` and a non-diagonal `G`, or the two sweeps of the factor of
    /// `K`), and `A`, with no loop.
    spmvs: (usize, usize),
    outer_cycles_per_iter: u64,
}

impl std::fmt::Debug for FpgaPcgBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpgaPcgBackend")
            .field("c", &self.machine.borrow().config().c())
            .finish_non_exhaustive()
    }
}

impl FpgaPcgBackend {
    /// Builds the backend for the (scaled) problem matrices under the given
    /// architecture configuration.
    ///
    /// Returns the backend plus a shared handle to the machine so harnesses
    /// can read cycle statistics after the solve.
    pub fn new(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        config: ArchConfig,
        cg_eps: f64,
        cg_max_iter: usize,
    ) -> (Self, Rc<RefCell<Machine>>) {
        let n = p.nrows();
        let m = a.nrows();
        let at = TransposeCache::new(a);
        let precond = KktPrecond::new(p, a, at.matrix(), sigma, rho);
        let outer_cycles_per_iter = admm_outer_cycles(&config, n, m);
        let mut machine = Machine::new(config);
        let (kernel, matrix_ids, correction) =
            load_pcg(&mut machine, p, a, at.matrix(), &precond, cg_max_iter.max(1));
        let spmvs = spmv_split(&kernel.program, &precond);
        let mut backend = FpgaPcgBackend {
            machine: Rc::new(RefCell::new(machine)),
            kernel,
            matrix_ids,
            correction,
            at,
            precond,
            rho: rho.to_vec(),
            sigma,
            eps: cg_eps,
            stats: BackendStats::default(),
            spmvs,
            outer_cycles_per_iter,
        };
        backend.upload_device_constants();
        let handle = Rc::clone(&backend.machine);
        (backend, handle)
    }

    /// Analytic cycles per ADMM iteration spent in the outer vector updates
    /// (Algorithm 1, lines 4–7) — added to the measured PCG cycles by the
    /// performance model.
    pub fn outer_cycles_per_iteration(&self) -> u64 {
        self.outer_cycles_per_iter
    }

    /// Cumulative machine statistics.
    pub fn machine_stats(&self) -> RunStats {
        self.machine.borrow().stats()
    }

    /// Recomputes `M⁻¹` in place from the `P`, `A` and `Aᵀ` resident on
    /// the device and ρ, then uploads it.
    fn refresh_device_constants(&mut self) {
        {
            let machine = self.machine.borrow();
            let [pid, aid, atid] = self.matrix_ids;
            let (p, a, at) = (machine.matrix(pid), machine.matrix(aid), machine.matrix(atid));
            self.precond.refresh(p, a, at, &self.rho);
        }
        self.upload_device_constants();
    }

    /// Writes `M⁻¹` (the factor of `K` at the next solve), ρ and the
    /// scalar settings to the device.
    fn upload_device_constants(&mut self) {
        let mut machine = self.machine.borrow_mut();
        if let Some(inv_diag) = self.precond.inv_diag() {
            machine.write_vec(self.kernel.minv, inv_diag);
        }
        self.correction.upload(&mut machine, &self.precond, &self.rho);
        machine.write_vec(self.kernel.rho_vec, &self.rho);
        machine.write_scalar(self.kernel.sigma, self.sigma);
        machine.write_scalar(self.kernel.eps, self.eps);
    }
}

/// A [`Solver`] whose KKT systems run on the simulated machine, built by
/// [`fpga_solver`], with the handles a performance model reads.
pub struct FpgaSolver {
    /// The solver.
    pub solver: Solver,
    /// The machine; its [`Machine::stats`] accumulate over every solve.
    pub machine: Rc<RefCell<Machine>>,
    /// [`FpgaPcgBackend::outer_cycles_per_iteration`] of the backend.
    pub outer_cycles_per_iteration: u64,
}

/// Builds a [`Solver`] on the simulated machine under `config`. The backend
/// starts PCG at [`rsqp_solver::CgTolerance::initial`] of
/// `settings.cg_tolerance` and caps it at `settings.cg_max_iter`; `problem`
/// is taken as in [`Solver::new`].
///
/// # Errors
///
/// Returns an error for invalid settings.
pub fn fpga_solver(
    problem: impl Into<Arc<QpProblem>>,
    settings: Settings,
    config: ArchConfig,
) -> Result<FpgaSolver, SolverError> {
    let mut built = None;
    let solver = Solver::with_backend(problem, settings, &mut |p, a, sigma, rho, s| {
        let (backend, machine) = FpgaPcgBackend::new(
            p,
            a,
            sigma,
            rho,
            config.clone(),
            s.cg_tolerance.initial(),
            s.cg_max_iter,
        );
        built = Some((machine, backend.outer_cycles_per_iteration()));
        Ok(Box::new(backend))
    })?;
    let (machine, outer_cycles_per_iteration) = built.expect("the factory ran");
    Ok(FpgaSolver { solver, machine, outer_cycles_per_iteration })
}

impl KktBackend for FpgaPcgBackend {
    fn name(&self) -> &str {
        "fpga-pcg"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        if rho.len() != self.rho.len() {
            return Err(SolverError::Backend("rho length changed".into()));
        }
        self.rho.copy_from_slice(rho);
        // Rebuild the device preconditioner and the device ρ vector from
        // the resident P and A (no structural work — the indirect method's
        // cheap ρ update, §2.2).
        self.refresh_device_constants();
        Ok(())
    }

    fn set_cg_tolerance(&mut self, eps: f64) {
        self.eps = eps;
        self.machine.borrow_mut().write_scalar(self.kernel.eps, eps);
    }

    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
        let mut machine = self.machine.borrow_mut();
        {
            let [pid, aid, atid] = self.matrix_ids;
            let (p, a, at) = (machine.matrix(pid), machine.matrix(aid), machine.matrix(atid));
            self.precond.prepare(p, a, at, &self.rho)?;
        }
        self.correction.upload_factor(&mut machine, &self.precond);
        machine.write_vec(self.kernel.x, x);
        machine.write_vec(self.kernel.xtilde, xtilde);
        machine.write_vec(self.kernel.z, z);
        machine.write_vec(self.kernel.y, y);
        machine.write_vec(self.kernel.q, q);
        // `run` reports this solve's stats alone (cumulative counters live
        // on the machine for the perf model).
        let run = machine
            .run(&self.kernel.program)
            .map_err(|e| SolverError::Backend(format!("machine error: {e}")))?;
        xtilde.copy_from_slice(machine.read_vec(self.kernel.xtilde));
        ztilde.copy_from_slice(machine.read_vec(self.kernel.ztilde));
        self.stats.kkt_solves += 1;
        // The loop body runs once more than its trips (back-edges taken),
        // one PCG step per pass, but an exact warm start (`r₀ = 0`) counts
        // none, as on the CPU; the direct solve takes none.
        let passes = run.loop_trips as usize + 1;
        let (straight, body) = self.spmvs;
        self.stats.spmv_evals += straight + body * passes;
        if body > 0 && machine.read_scalar(self.kernel.res0) != 0.0 {
            self.stats.cg_iterations += passes;
        }
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        {
            // Values only: the machine panics on a structural change, and
            // A's check comes before the transpose refresh relies on it.
            let mut machine = self.machine.borrow_mut();
            let [pid, aid, atid] = self.matrix_ids;
            machine.update_matrix_values(pid, p);
            machine.update_matrix_values(aid, a);
            self.at.refresh_values(a).expect("A's structure was checked above");
            machine.update_matrix_values(atid, self.at.matrix());
        }
        self.rho.copy_from_slice(rho);
        self.refresh_device_constants();
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        BackendStats { factorizations: self.precond.factorizations(), ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_problems::random::generate_budget;
    use rsqp_problems::{generate, Domain};

    fn backend(p: &CsrMatrix, a: &CsrMatrix) -> FpgaPcgBackend {
        backend_at(p, a, 0.1)
    }

    fn backend_at(p: &CsrMatrix, a: &CsrMatrix, rho: f64) -> FpgaPcgBackend {
        let config = ArchConfig::baseline(8);
        FpgaPcgBackend::new(p, a, 1e-6, &vec![rho; a.nrows()], config, 1e-7, 200).0
    }

    fn solve(b: &mut FpgaPcgBackend, n: usize, m: usize) -> (Vec<f64>, Vec<f64>) {
        let wave = |len: usize, phase: f64| -> Vec<f64> {
            (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
        };
        let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
        b.solve_kkt(&wave(n, 0.0), &wave(m, 1.0), &wave(m, 2.0), &wave(n, 3.0), &mut xt, &mut zt)
            .unwrap();
        (xt, zt)
    }

    #[test]
    fn updated_backend_solves_like_a_fresh_one() {
        // The portfolio carries the augmented dense-row solve (B and ρ⁻¹
        // follow ρ), the Huber fit the dense-column elimination with a
        // resident G, the control problem the factor of K.
        for (domain, size) in [(Domain::Portfolio, 1), (Domain::Huber, 19), (Domain::Control, 4)] {
            let (q1, q2) = (generate(domain, size, 1), generate(domain, size, 2));
            let (n, m) = (q1.num_vars(), q1.num_constraints());
            assert_ne!(q1.a().data(), q2.a().data());
            let mut updated = backend(q1.p(), q1.a());
            let _ = solve(&mut updated, n, m);
            updated.update_matrices(q2.p(), q2.a(), &vec![0.1; m]).unwrap();
            let mut fresh = backend(q2.p(), q2.a());
            assert_eq!(solve(&mut updated, n, m), solve(&mut fresh, n, m), "{domain}");
            // A ρ update re-uploads the diagonal and the correction, or
            // refactors K at the next solve.
            updated.update_rho(&vec![0.7; m]).unwrap();
            let mut fresh = backend_at(q2.p(), q2.a(), 0.7);
            assert_eq!(solve(&mut updated, n, m), solve(&mut fresh, n, m), "{domain}");
        }
    }

    #[test]
    fn cpu_and_machine_kkt_solves_are_bit_identical() {
        // One KKT solve specification: the same x̃ and z̃ bits and the
        // same CG count per solve — from an exact zero warm start (r₀ = 0:
        // no PCG step on either), from zero, and warm-started with a new
        // q. Control and eqqp solve through the factor of K, the portfolio
        // in the augmented dense-row form (no CG step), the budget QP by
        // PCG, with vectors long enough at n = 9 000 that the two must sum
        // long dot products the same way.
        let problems = [
            generate(Domain::Control, 2, 1),
            generate(Domain::Eqqp, 10, 1),
            generate(Domain::Portfolio, 1, 1),
            generate_budget(40),
            generate_budget(9000),
        ];
        for qp in problems {
            let name = qp.name();
            let (n, m) = (qp.num_vars(), qp.num_constraints());
            let rho = vec![0.1; m];
            let mut cpu = rsqp_solver::CpuPcgBackend::new(qp.p(), qp.a(), 1e-6, &rho, 1e-7, 200);
            let mut fpga = backend(qp.p(), qp.a());
            let wave = |len: usize, phase: f64| -> Vec<f64> {
                (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
            };
            let (x, z, y) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0));
            let zero = (vec![0.0; n], vec![0.0; m]);
            let mut warm = [vec![0.0; n], vec![0.0; n]];
            for (step, (x, z, y, q)) in [
                (&zero.0, &zero.1, &zero.1, zero.0.clone()),
                (&x, &z, &y, wave(n, 3.0)),
                (&x, &z, &y, wave(n, 4.0)),
            ]
            .into_iter()
            .enumerate()
            {
                let mut out = Vec::new();
                for (b, xt) in
                    [&mut cpu as &mut dyn KktBackend, &mut fpga].into_iter().zip(&mut warm)
                {
                    let mut zt = vec![0.0; m];
                    let before = b.stats().cg_iterations;
                    b.solve_kkt(x, z, y, &q, xt, &mut zt).unwrap();
                    let bits: Vec<u64> = xt.iter().chain(&zt).map(|v| v.to_bits()).collect();
                    out.push((bits, b.stats().cg_iterations - before));
                }
                assert_eq!(out[0], out[1], "{name}, solve {step}");
                let pcg = name.starts_with("budget");
                assert_eq!(out[0].1 == 0, step == 0 || !pcg, "{name}, solve {step}: CG steps");
            }
        }
    }

    #[test]
    fn spmv_evals_count_every_kernel_spmv() {
        // PCG: K·v and the preconditioner's correction (A_S, C⁻¹ and A_Sᵀ
        // with dense rows) run before the loop and on each of its passes,
        // one per CG step; Aᵀ for the right-hand side and A for z̃ run once.
        let qp = generate_budget(40);
        let mut b = backend(qp.p(), qp.a());
        let _ = solve(&mut b, qp.num_vars(), qp.num_constraints());
        let stats = b.stats();
        assert!(stats.cg_iterations > 1, "{} CG steps", stats.cg_iterations);
        assert_eq!(stats.spmv_evals, 6 * (stats.cg_iterations + 1) + 2);
        // The direct solve: Aᵀ, then A_S, C⁻¹ and A_Sᵀ (the augmented
        // dense-row solve, whose selections E_S and B are not counted), or
        // H, S⁻¹, Hᵀ and a non-diagonal G, or the two sweeps of the factor
        // of K, once, and A; no CG iteration.
        for (domain, size, products) in [
            (Domain::Portfolio, 1, 3),
            (Domain::Svm, 21, 3),
            (Domain::Huber, 19, 4),
            (Domain::Control, 2, 2),
        ] {
            let qp = generate(domain, size, 1);
            let mut b = backend(qp.p(), qp.a());
            assert_eq!(b.precond.products(), products, "{domain}");
            let _ = solve(&mut b, qp.num_vars(), qp.num_constraints());
            let stats = b.stats();
            assert_eq!(stats.cg_iterations, 0, "{domain}");
            assert_eq!(stats.spmv_evals, products + 2, "{domain}");
        }
    }

    #[test]
    fn cpu_spmv_evals_count_the_preconditioner_products() {
        // CPU PCG converging after `it` iterations runs K·v it + 1 times
        // and the preconditioner it times, plus Aᵀ for the right-hand side
        // and A for z̃; the direct solve runs the preconditioner once
        // between those two and no CG iteration.
        for (qp, products, direct) in [
            (generate(Domain::Control, 2, 1), 2, true),
            (generate(Domain::Portfolio, 1, 1), 3, true),
            (generate_budget(40), 3, false),
            (generate(Domain::Svm, 21, 1), 3, true),
            (generate(Domain::Huber, 19, 1), 4, true),
        ] {
            let domain = qp.name();
            let (n, m) = (qp.num_vars(), qp.num_constraints());
            let mut b =
                rsqp_solver::CpuPcgBackend::new(qp.p(), qp.a(), 1e-6, &vec![0.1; m], 1e-7, 200);
            let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
            let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            b.solve_kkt(&vec![0.0; n], &vec![0.0; m], &vec![0.0; m], &q, &mut xt, &mut zt).unwrap();
            let stats = b.stats();
            let it = stats.cg_iterations;
            if direct {
                assert_eq!(it, 0, "{domain}");
                assert_eq!(stats.spmv_evals, products + 2, "{domain}");
            } else {
                assert!(it > 0, "{domain}");
                assert_eq!(stats.spmv_evals, 3 * (it + 1) + products * it + 2, "{domain}");
            }
        }
    }

    #[test]
    fn a_non_finite_direct_solve_fails_as_pcg_would() {
        // The guard ladder sees PCG's error for a NaN right-hand side.
        let qp = generate(Domain::Svm, 21, 1);
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let mut b = rsqp_solver::CpuPcgBackend::new(qp.p(), qp.a(), 1e-6, &vec![0.1; m], 1e-7, 200);
        let mut q = vec![0.0; n];
        q[3] = f64::NAN;
        let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
        let err = b.solve_kkt(&vec![0.0; n], &vec![0.0; m], &vec![0.0; m], &q, &mut xt, &mut zt);
        assert!(
            matches!(
                err,
                Err(SolverError::Pcg(rsqp_linsys::PcgError::NonFinite {
                    iteration: 0,
                    quantity: "rhs norm"
                }))
            ),
            "{err:?}"
        );
        assert_eq!(b.stats().kkt_solves, 0);
    }

    #[test]
    #[should_panic(expected = "changed the sparsity structure")]
    fn update_matrices_rejects_a_structure_change() {
        let p = CsrMatrix::identity(2);
        let a = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![1.0, 1.0]]);
        // Same shape and nonzero count, one entry moved.
        let moved = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![1.0, 1.0]]);
        let mut b = backend(&p, &a);
        let _ = b.update_matrices(&p, &moved, &[0.1, 0.1]);
    }
}
