//! The simulated-FPGA KKT backend.
//!
//! Implements [`rsqp_solver::KktBackend`] by executing the KKT-solve kernel
//! ([`build_kkt_solve`]) on the cycle-level machine of `rsqp-arch`. The
//! numerical results flowing back into the ADMM loop are the machine's —
//! so the solver genuinely converges on simulated-accelerator arithmetic —
//! and every solve advances the machine's cycle counters, which the
//! performance model later converts to seconds via the f_max estimate.
//!
//! The host holds the CPU backends' own factor, OSQP's quasi-definite LDLᵀ
//! of the KKT matrix under AMD ([`KktLdlt`]): assembled, ordered and
//! analysed at construction, factored at the first solve and refactored at
//! the first solve after each ρ or matrix update. After each
//! factorization the host uploads `L`, `D⁻¹`, the permutation and `ρ⁻¹`,
//! and the machine runs one loop-free program — the right-hand side by
//! vector operations, one factor solve over the `(x̃, ν)` register pair, and
//! `z̃` from `ν` — whose expressions and their order are the CPU's, so it
//! takes the CPU's steps bit for bit. A factorization that fails (a zero
//! pivot, or `rsqp_linsys::LinsysError::NonConvex`) is the error of that
//! solve and of every later one until an update, without running the
//! machine.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rsqp_arch::kernels::{admm_outer_cycles, build_kkt_solve, KktSolveKernel};
use rsqp_arch::{ArchConfig, FactorId, FactorRef, Machine, RunStats};
use rsqp_linsys::KktLdlt;
use rsqp_solver::{BackendStats, KktBackend, QpProblem, Settings, Solver, SolverError};
use rsqp_sparse::CsrMatrix;

/// Registers a factor slot for `factor`'s KKT matrix on `machine` and
/// builds the KKT-solve kernel over it, with σ written — the program
/// [`FpgaPcgBackend`] runs and the bundle writer emits.
pub(crate) fn load_kkt_solve(
    machine: &mut Machine,
    factor: &KktLdlt,
) -> (KktSolveKernel, FactorId) {
    let kkt = factor.kkt();
    let (n, m) = (kkt.num_vars(), kkt.num_constraints());
    let id = machine.add_factor(n + m);
    let kernel = build_kkt_solve(machine, n, m, id);
    machine.write_scalar(kernel.sigma, kkt.sigma());
    (kernel, id)
}

/// Uploads the factored `factor` into slot `id`, and its `ρ⁻¹` into the
/// kernel's register.
pub(crate) fn upload_factor(
    machine: &mut Machine,
    kernel: &KktSolveKernel,
    id: FactorId,
    factor: &KktLdlt,
) {
    let ldlt = factor.ldlt();
    let (l_colptr, l_rowidx, l_data) = ldlt.l();
    machine.load_factor(
        id,
        FactorRef {
            perm: factor.perm().expect("the backends factor under AMD"),
            l_colptr,
            l_rowidx,
            l_data,
            dinv: ldlt.dinv(),
            etree_height: ldlt.etree_height(),
        },
    );
    machine.write_vec(kernel.rho_inv, factor.kkt().rho_inv());
}

/// A [`KktBackend`] backed by the simulated RSQP accelerator.
pub struct FpgaPcgBackend {
    machine: Rc<RefCell<Machine>>,
    kernel: KktSolveKernel,
    /// The factor slot on the machine.
    factor_id: FactorId,
    /// The host's factor, uploaded after each factorization.
    factor: KktLdlt,
    stats: BackendStats,
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
    /// architecture configuration; the inner tolerance and iteration cap
    /// are ignored (the KKT solve is direct).
    ///
    /// Returns the backend plus a shared handle to the machine so harnesses
    /// can read cycle statistics after the solve.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes and ρ length are inconsistent.
    pub fn new(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        config: ArchConfig,
        _cg_eps: f64,
        _cg_max_iter: usize,
    ) -> (Self, Rc<RefCell<Machine>>) {
        let outer_cycles_per_iter = admm_outer_cycles(&config, p.nrows(), a.nrows());
        let factor = KktLdlt::with_amd(p, a, sigma, rho).expect("consistent problem shapes");
        let mut machine = Machine::new(config);
        let (kernel, factor_id) = load_kkt_solve(&mut machine, &factor);
        let backend = FpgaPcgBackend {
            machine: Rc::new(RefCell::new(machine)),
            kernel,
            factor_id,
            factor,
            stats: BackendStats::default(),
            outer_cycles_per_iter,
        };
        let handle = Rc::clone(&backend.machine);
        (backend, handle)
    }

    /// Analytic cycles per ADMM iteration spent in the outer vector updates
    /// (Algorithm 1, lines 4–7) — added to the measured KKT-solve cycles by
    /// the performance model.
    pub fn outer_cycles_per_iteration(&self) -> u64 {
        self.outer_cycles_per_iter
    }

    /// Cumulative machine statistics.
    pub fn machine_stats(&self) -> RunStats {
        self.machine.borrow().stats()
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

/// Builds a [`Solver`] on the simulated machine under `config`; `problem`
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
        Ok(self.factor.update_rho(rho)?)
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
        if self.factor.refactor()? {
            upload_factor(&mut machine, &self.kernel, self.factor_id, &self.factor);
        }
        machine.write_vec(self.kernel.x, x);
        machine.write_vec(self.kernel.z, z);
        machine.write_vec(self.kernel.y, y);
        machine.write_vec(self.kernel.q, q);
        machine
            .run(&self.kernel.program)
            .map_err(|e| SolverError::Backend(format!("machine error: {e}")))?;
        xtilde.copy_from_slice(machine.read_vec(self.kernel.xtilde));
        ztilde.copy_from_slice(machine.read_vec(self.kernel.ztilde));
        self.stats.kkt_solves += 1;
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        Ok(self.factor.update_values(p, a, rho)?)
    }

    fn stats(&self) -> BackendStats {
        BackendStats { factorizations: self.factor.factorizations(), ..self.stats }
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

    fn wave(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
    }

    fn solve(b: &mut dyn KktBackend, n: usize, m: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
        b.solve_kkt(&wave(n, 0.0), &wave(m, 1.0), &wave(m, 2.0), &wave(n, 3.0), &mut xt, &mut zt)
            .unwrap();
        (xt, zt)
    }

    #[test]
    fn updated_backend_solves_like_a_fresh_one() {
        for (domain, size) in [(Domain::Portfolio, 1), (Domain::Huber, 19), (Domain::Control, 4)] {
            let (q1, q2) = (generate(domain, size, 1), generate(domain, size, 2));
            let (n, m) = (q1.num_vars(), q1.num_constraints());
            assert_ne!(q1.a().data(), q2.a().data());
            let mut updated = backend(q1.p(), q1.a());
            let _ = solve(&mut updated, n, m);
            updated.update_matrices(q2.p(), q2.a(), &vec![0.1; m]).unwrap();
            let mut fresh = backend(q2.p(), q2.a());
            assert_eq!(solve(&mut updated, n, m), solve(&mut fresh, n, m), "{domain}");
            // A ρ update refactors and re-uploads at the next solve.
            updated.update_rho(&vec![0.7; m]).unwrap();
            let mut fresh = backend_at(q2.p(), q2.a(), 0.7);
            assert_eq!(solve(&mut updated, n, m), solve(&mut fresh, n, m), "{domain}");
            assert_eq!(updated.stats().factorizations, 3, "{domain}");
        }
    }

    #[test]
    fn cpu_and_machine_kkt_solves_are_bit_identical() {
        // One KKT solve specification: the same x̃ and z̃ bits per solve,
        // from zero inputs and from two right-hand sides, on every kind of
        // pattern the suite has, the budget QP included.
        let problems = [
            generate(Domain::Control, 2, 1),
            generate(Domain::Eqqp, 10, 1),
            generate(Domain::Portfolio, 1, 1),
            generate(Domain::Svm, 21, 1),
            generate_budget(40),
        ];
        for qp in problems {
            let name = qp.name();
            let (n, m) = (qp.num_vars(), qp.num_constraints());
            let rho = vec![0.1; m];
            let mut cpu = rsqp_solver::CpuPcgBackend::new(qp.p(), qp.a(), 1e-6, &rho);
            let mut fpga = backend(qp.p(), qp.a());
            let (x, z, y) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0));
            let zero = (vec![0.0; n], vec![0.0; m]);
            for (step, (x, z, y, q)) in [
                (&zero.0, &zero.1, &zero.1, zero.0.clone()),
                (&x, &z, &y, wave(n, 3.0)),
                (&x, &z, &y, wave(n, 4.0)),
            ]
            .into_iter()
            .enumerate()
            {
                let mut out = Vec::new();
                for b in [&mut cpu as &mut dyn KktBackend, &mut fpga] {
                    let (mut xt, mut zt) = (vec![f64::NAN; n], vec![0.0; m]);
                    b.solve_kkt(x, z, y, &q, &mut xt, &mut zt).unwrap();
                    out.push(xt.iter().chain(&zt).map(|v| v.to_bits()).collect::<Vec<_>>());
                }
                assert_eq!(out[0], out[1], "{name}, solve {step}");
            }
            assert_eq!(cpu.stats(), fpga.stats(), "{name}");
        }
    }

    #[test]
    fn one_kkt_solve_runs_the_loop_free_program() {
        let qp = generate(Domain::Portfolio, 1, 1);
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let mut b = backend(qp.p(), qp.a());
        let _ = solve(&mut b, n, m);
        let run = b.machine_stats();
        assert_eq!((run.instructions, run.loop_trips), (9, 0));
        assert_eq!(run.breakdown.duplication, 0, "no SpMV, so no CVB load");
        assert_eq!(b.stats().cg_iterations, 0);
    }

    #[test]
    fn update_matrices_rejects_a_structure_change() {
        let p = CsrMatrix::identity(2);
        let a = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![1.0, 1.0]]);
        // Same shape and nonzero count, one entry moved.
        let moved = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![1.0, 1.0]]);
        let mut b = backend(&p, &a);
        assert!(b.update_matrices(&p, &moved, &[0.1, 0.1]).is_err());
    }
}
