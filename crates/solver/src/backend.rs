//! Pluggable KKT-system backends.
//!
//! One ADMM iteration needs the solution `(x̃, z̃)` of Eq. (2). How that
//! system is solved is the entire difference between the CPU, GPU, and FPGA
//! incarnations of OSQP, so it is abstracted behind [`KktBackend`]:
//!
//! * [`DirectLdltBackend`] factors the quasi-definite KKT matrix once and
//!   reuses the numeric factorization until ρ changes;
//! * [`CpuPcgBackend`] solves the reduced system (Eq. 3) with the
//!   `M⁻¹` its problem's patterns fix ([`rsqp_linsys::KktPrecond`]):
//!   directly where `M⁻¹` is exact — the dense rows of `A` in OSQP's
//!   augmented form when `K_R` is diagonal, else `x̃ = M⁻¹b` through the
//!   block elimination of `A`'s dense columns or the sparse LDLᵀ of the
//!   reduced `K` itself, factored at the first solve after each ρ or
//!   matrix update — and otherwise (dense rows over a non-diagonal `K_R`)
//!   iteratively by PCG warm-started from the previous solution `x̃`, the
//!   computation RSQP maps onto the FPGA;
//! * `rsqp-core` provides a third implementation that runs the same KKT
//!   solve as an instruction stream on the cycle-level architecture
//!   simulator.

use rsqp_linsys::{
    amd_ordering, inverse_permutation, pcg_with, rcm_ordering, KktMatrix, Ldlt, PcgSettings,
    PcgWorkspace, ReducedKktOp, SymmetricPermutation,
};
use rsqp_sparse::{CscMatrix, CsrMatrix};

use crate::settings::KktOrdering;
use crate::SolverError;

/// Cumulative work counters reported by a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Number of KKT solves (one per ADMM iteration).
    pub kkt_solves: usize,
    /// Numeric factorizations performed: of the KKT matrix (LDLᵀ) or of the
    /// reduced `K` (PCG backends whose `M⁻¹` is its factor).
    pub factorizations: usize,
    /// Total inner PCG iterations (indirect methods only).
    pub cg_iterations: usize,
    /// Total sparse matrix-vector products evaluated.
    pub spmv_evals: usize,
}

impl BackendStats {
    /// Field-wise sum, used to combine counters across a backend retired by
    /// the recovery ladder and its replacement.
    pub fn merged(self, other: BackendStats) -> BackendStats {
        BackendStats {
            kkt_solves: self.kkt_solves + other.kkt_solves,
            factorizations: self.factorizations + other.factorizations,
            cg_iterations: self.cg_iterations + other.cg_iterations,
            spmv_evals: self.spmv_evals + other.spmv_evals,
        }
    }
}

/// A solver for the ADMM KKT system of Eq. (2).
///
/// Implementations receive the **scaled** problem data at construction and
/// the current scaled iterates at every call.
pub trait KktBackend {
    /// Short identifier used in reports (e.g. `"ldlt"`, `"cpu-pcg"`).
    fn name(&self) -> &str;

    /// Informs the backend that the ρ vector changed. Direct methods must
    /// refactorize; indirect methods just swap the diagonal.
    ///
    /// # Errors
    ///
    /// Returns an error if the refactorization fails.
    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError>;

    /// Sets the inner-solver relative tolerance (no-op for direct methods).
    fn set_cg_tolerance(&mut self, _eps: f64) {}

    /// Solves Eq. (2) for the current iterates, writing `x̃^{k+1}` and
    /// `z̃^{k+1}`.
    ///
    /// `xtilde` is in/out. On entry it holds the warm start — the solver
    /// passes the previous solution `x̃^k`, or `x^k` at the start of a
    /// solve and after a recovery. Iterative backends start PCG from it;
    /// direct backends ignore it. On `Err` its contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns an error on numerical failure.
    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError>;

    /// Replaces the matrix *values* (same structure) after a
    /// [`crate::QpProblem::update_matrices`]-style parametric update.
    ///
    /// # Errors
    ///
    /// Returns an error if the backend cannot apply the update (structure
    /// changed, refactorization failed) — the caller should then rebuild
    /// the backend from scratch.
    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError>;

    /// Cumulative work counters.
    fn stats(&self) -> BackendStats;
}

/// Computes the fill-reducing ordering [`DirectLdltBackend`] would use for
/// the KKT pattern of `(P, A)` under `ordering`, without factorizing.
/// Returns `None` for [`KktOrdering::Natural`] (no permutation).
///
/// The result depends only on the sparsity structure — the KKT values are
/// assembled with placeholder σ/ρ — so it can be computed once per pattern,
/// cached, and replayed through [`DirectLdltBackend::with_permutation`] for
/// every value instance of the structure (this is the symbolic half of the
/// factorization that `rsqp-core`'s customization cache amortizes).
///
/// # Errors
///
/// Returns [`SolverError::Linsys`] if the KKT assembly or the ordering
/// computation fails (inconsistent shapes).
pub fn kkt_ordering(
    p: &CsrMatrix,
    a: &CsrMatrix,
    ordering: KktOrdering,
) -> Result<Option<Vec<usize>>, SolverError> {
    let rho = vec![1.0; a.nrows()];
    let kkt = KktMatrix::assemble(p, a, 1.0, &rho)?;
    order(kkt.matrix(), ordering)
}

/// The permutation `ordering` gives the assembled KKT matrix `kkt`
/// (`None` for [`KktOrdering::Natural`]).
fn order(kkt: &CscMatrix, ordering: KktOrdering) -> Result<Option<Vec<usize>>, SolverError> {
    Ok(match ordering {
        KktOrdering::Natural => None,
        KktOrdering::Rcm => Some(rcm_ordering(kkt)?),
        KktOrdering::Amd => Some(amd_ordering(kkt)?),
    })
}

/// Direct LDLᵀ backend (OSQP's CPU default).
#[derive(Debug)]
pub struct DirectLdltBackend {
    n: usize,
    sigma: f64,
    kkt: KktMatrix,
    factor: Ldlt,
    permutation: Option<SymmetricPermutation>,
    /// Where each KKT unknown sits in the factor's order (`x` first, then
    /// `ν`): the inverse of the permutation, or the identity without one.
    new_of: Vec<usize>,
    rho_inv: Vec<f64>,
    /// The right-hand side and then the solution, in the factor's order.
    rhs: Vec<f64>,
    stats: BackendStats,
}

impl DirectLdltBackend {
    /// Assembles and factorizes the KKT matrix with the default
    /// (AMD) fill-reducing ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] if the assembly or factorization
    /// fails (e.g. `P` not PSD enough for quasi-definiteness).
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Result<Self, SolverError> {
        Self::with_ordering(p, a, sigma, rho, KktOrdering::Amd)
    }

    /// Assembles and factorizes the KKT matrix under a chosen ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] on assembly/factorization failure.
    pub fn with_ordering(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        ordering: KktOrdering,
    ) -> Result<Self, SolverError> {
        let kkt = KktMatrix::assemble(p, a, sigma, rho)?;
        let permutation = order(kkt.matrix(), ordering)?
            .map(|perm| SymmetricPermutation::new(kkt.matrix(), perm))
            .transpose()?;
        Self::from_parts(p, a, sigma, rho, kkt, permutation)
    }

    /// Assembles and factorizes under a caller-provided fill-reducing
    /// permutation, skipping the symbolic ordering search. The ordering of
    /// the KKT pattern depends only on the *structure* of `P` and `A`, so a
    /// permutation computed once (see [`kkt_ordering`]) transfers to every
    /// problem with the same sparsity pattern — including the re-equilibrated
    /// matrices a parametric session produces.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] if `perm` is not a permutation of the
    /// KKT dimension `n + m` or the factorization fails.
    pub fn with_permutation(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        perm: Vec<usize>,
    ) -> Result<Self, SolverError> {
        let kkt = KktMatrix::assemble(p, a, sigma, rho)?;
        let permutation = Some(SymmetricPermutation::new(kkt.matrix(), perm)?);
        Self::from_parts(p, a, sigma, rho, kkt, permutation)
    }

    fn from_parts(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        kkt: KktMatrix,
        permutation: Option<SymmetricPermutation>,
    ) -> Result<Self, SolverError> {
        let factor = match &permutation {
            Some(sp) => Ldlt::factor(sp.matrix())?,
            None => Ldlt::factor(kkt.matrix())?,
        };
        let dim = p.nrows() + a.nrows();
        let new_of = match &permutation {
            Some(sp) => inverse_permutation(sp.perm())?,
            None => (0..dim).collect(),
        };
        Ok(DirectLdltBackend {
            n: p.nrows(),
            sigma,
            kkt,
            factor,
            permutation,
            new_of,
            rho_inv: rho.iter().map(|&r| 1.0 / r).collect(),
            rhs: vec![0.0; dim],
            stats: BackendStats { factorizations: 1, ..Default::default() },
        })
    }

    /// Number of stored entries in the `L` factor — a proxy for the
    /// fill-in / memory cost of the direct method.
    pub fn l_nnz(&self) -> usize {
        self.factor.l_nnz()
    }
}

impl KktBackend for DirectLdltBackend {
    fn name(&self) -> &str {
        "ldlt"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.kkt.update_rho(rho)?;
        match &mut self.permutation {
            Some(sp) => {
                sp.refresh_values(self.kkt.matrix())?;
                self.factor.refactor(sp.matrix())?;
            }
            None => self.factor.refactor(self.kkt.matrix())?,
        }
        for (ri, &r) in self.rho_inv.iter_mut().zip(rho) {
            *ri = 1.0 / r;
        }
        self.stats.factorizations += 1;
        Ok(())
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
        // rhs = [σx − q; z − ρ⁻¹y], written straight into the factor's
        // order, and x̃ and ν read straight out of it.
        let (x_at, nu_at) = self.new_of.split_at(self.n);
        let rhs = &mut self.rhs;
        for ((&at, &xj), &qj) in x_at.iter().zip(x).zip(q) {
            rhs[at] = self.sigma * xj - qj;
        }
        for (((&at, &zi), &ri), &yi) in nu_at.iter().zip(z).zip(&self.rho_inv).zip(y) {
            rhs[at] = zi - ri * yi;
        }
        self.factor.solve_in_place(rhs)?;
        for (xt, &at) in xtilde.iter_mut().zip(x_at) {
            *xt = rhs[at];
        }
        // z̃ = z + ρ⁻¹(ν − y)
        for ((((zt, &at), &zi), &ri), &yi) in
            ztilde.iter_mut().zip(nu_at).zip(z).zip(&self.rho_inv).zip(y)
        {
            *zt = zi + ri * (rhs[at] - yi);
        }
        self.stats.kkt_solves += 1;
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        // Reassemble (same structure by contract) and refactor.
        self.kkt = KktMatrix::assemble(p, a, self.sigma, rho)?;
        match &mut self.permutation {
            Some(sp) => {
                sp.refresh_values(self.kkt.matrix())?;
                self.factor.refactor(sp.matrix())?;
            }
            None => self.factor.refactor(self.kkt.matrix())?,
        }
        self.rho_inv = rho.iter().map(|&r| 1.0 / r).collect();
        self.stats.factorizations += 1;
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

/// Matrix-free PCG backend on the reduced KKT system (Eq. 3).
///
/// With an exact `M⁻¹` ([`rsqp_linsys::KktPrecond::is_exact`]: the
/// dense-row correction over a diagonal `K_R`, the dense-column
/// elimination or the factor of `K`), a solve is direct, with no CG
/// iteration ([`ReducedKktOp::exact_solve`]); with dense rows over a
/// non-diagonal `K_R` it is PCG. Each solve first readies `M⁻¹`
/// ([`ReducedKktOp::prepare`]), which factors `K` after construction and
/// after each update; while a pivot of `M⁻¹` is not positive and finite, a
/// solve returns PCG's breakdown without solving, for the guard ladder.
///
/// The backend owns its [`ReducedKktOp`] (with the cached gather transpose
/// `Aᵀ`), a [`PcgWorkspace`], and the right-hand-side buffers for the whole
/// solver lifetime, so steady-state ADMM iterations perform **zero heap
/// allocations**.
#[derive(Debug)]
pub struct CpuPcgBackend {
    op: ReducedKktOp,
    eps: f64,
    max_iter: usize,
    rhs: Vec<f64>,
    ws: PcgWorkspace,
    stats: BackendStats,
}

impl CpuPcgBackend {
    /// Creates the backend, cloning the (scaled) problem matrices — the
    /// indirect method stores `P`, `A`, and `Aᵀ` separately, exactly as the
    /// paper's accelerator does (§2.2).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes and ρ length are inconsistent (callers
    /// construct it from an already-validated [`crate::QpProblem`]).
    pub fn new(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        eps: f64,
        max_iter: usize,
    ) -> Self {
        let op = ReducedKktOp::new(p, a, sigma, rho).expect("consistent problem shapes");
        CpuPcgBackend {
            op,
            eps,
            max_iter,
            rhs: vec![0.0; p.nrows()],
            ws: PcgWorkspace::new(p.nrows()),
            stats: BackendStats::default(),
        }
    }

    /// [`CpuPcgBackend::new`]; `threads` is ignored. Kept only because the
    /// `benchmark/` package calls it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes and ρ length are inconsistent.
    pub fn with_threads(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        eps: f64,
        max_iter: usize,
        _threads: usize,
    ) -> Self {
        Self::new(p, a, sigma, rho, eps, max_iter)
    }

    /// Current inner tolerance.
    pub fn cg_tolerance(&self) -> f64 {
        self.eps
    }
}

impl KktBackend for CpuPcgBackend {
    fn name(&self) -> &str {
        "cpu-pcg"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        if rho.len() != self.op.rho().len() {
            return Err(SolverError::Backend("rho length changed".into()));
        }
        self.op.update_rho(rho).map_err(SolverError::Linsys)
    }

    fn set_cg_tolerance(&mut self, eps: f64) {
        self.eps = eps;
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
        self.op.prepare()?;
        let count0 = self.op.spmv_count();
        // With an exact M⁻¹ the KKT solve is direct; otherwise PCG on
        // rhs = σx − q + Aᵀ(ρ∘z − y) starts from the caller's warm start in
        // `xtilde`, and z̃ = A x̃.
        let iterations = if self.op.preconditioner().is_exact() {
            self.op.exact_solve(x, z, y, q, xtilde, ztilde).map(|()| 0)
        } else {
            let settings = PcgSettings { eps: self.eps, max_iter: self.max_iter };
            self.op.rhs(x, z, y, q, &mut self.rhs).map_err(Into::into).and_then(|()| {
                let summary = pcg_with(&mut self.op, &self.rhs, xtilde, &settings, &mut self.ws)?;
                self.op.a_spmv(xtilde, ztilde)?;
                Ok(summary.iterations)
            })
        };
        match iterations {
            Ok(iterations) => {
                self.stats.cg_iterations += iterations;
                self.stats.spmv_evals += self.op.spmv_count() - count0;
                self.stats.kkt_solves += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.spmv_evals += self.op.spmv_count() - count0;
                Err(e.into())
            }
        }
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.op.update_values(p, a, rho).map_err(SolverError::Linsys)
    }

    fn stats(&self) -> BackendStats {
        BackendStats { factorizations: self.op.preconditioner().factorizations(), ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (CsrMatrix, CsrMatrix, Vec<f64>) {
        let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0]]);
        (p, a, vec![0.5, 0.25])
    }

    #[test]
    fn direct_and_pcg_backends_agree() {
        let (p, a, rho) = data();
        let sigma = 1e-6;
        let mut direct = DirectLdltBackend::new(&p, &a, sigma, &rho).unwrap();
        let mut iterative = CpuPcgBackend::new(&p, &a, sigma, &rho, 1e-12, 1000);
        let x = vec![0.1, -0.2];
        let z = vec![0.3, 0.4];
        let y = vec![-0.1, 0.2];
        let q = vec![1.0, -1.0];
        let (mut xt1, mut zt1) = (vec![0.0; 2], vec![0.0; 2]);
        let (mut xt2, mut zt2) = (vec![0.0; 2], vec![0.0; 2]);
        direct.solve_kkt(&x, &z, &y, &q, &mut xt1, &mut zt1).unwrap();
        iterative.solve_kkt(&x, &z, &y, &q, &mut xt2, &mut zt2).unwrap();
        for i in 0..2 {
            assert!((xt1[i] - xt2[i]).abs() < 1e-7, "x {} vs {}", xt1[i], xt2[i]);
            assert!((zt1[i] - zt2[i]).abs() < 1e-6, "z {} vs {}", zt1[i], zt2[i]);
        }
    }

    #[test]
    fn cached_permutation_matches_fresh_ordering() {
        let (p, a, rho) = data();
        let sigma = 1e-6;
        let perm = kkt_ordering(&p, &a, KktOrdering::Amd).unwrap().expect("permutation");
        let mut fresh =
            DirectLdltBackend::with_ordering(&p, &a, sigma, &rho, KktOrdering::Amd).unwrap();
        let mut cached = DirectLdltBackend::with_permutation(&p, &a, sigma, &rho, perm).unwrap();
        let x = vec![0.1, -0.2];
        let z = vec![0.3, 0.4];
        let y = vec![-0.1, 0.2];
        let q = vec![1.0, -1.0];
        let (mut xt1, mut zt1) = (vec![0.0; 2], vec![0.0; 2]);
        let (mut xt2, mut zt2) = (vec![0.0; 2], vec![0.0; 2]);
        fresh.solve_kkt(&x, &z, &y, &q, &mut xt1, &mut zt1).unwrap();
        cached.solve_kkt(&x, &z, &y, &q, &mut xt2, &mut zt2).unwrap();
        assert_eq!(xt1, xt2, "replayed ordering must reproduce the fresh factorization");
        assert_eq!(zt1, zt2);
    }

    #[test]
    fn with_permutation_rejects_invalid_perm() {
        let (p, a, rho) = data();
        assert!(DirectLdltBackend::with_permutation(&p, &a, 1e-6, &rho, vec![0, 0, 1, 2]).is_err());
        assert!(DirectLdltBackend::with_permutation(&p, &a, 1e-6, &rho, vec![0, 1]).is_err());
    }

    #[test]
    fn natural_ordering_has_no_permutation() {
        let (p, a, _) = data();
        assert!(kkt_ordering(&p, &a, KktOrdering::Natural).unwrap().is_none());
    }

    #[test]
    fn direct_backend_counts_factorizations() {
        let (p, a, rho) = data();
        let mut b = DirectLdltBackend::new(&p, &a, 1e-6, &rho).unwrap();
        assert_eq!(b.stats().factorizations, 1);
        b.update_rho(&[1.0, 1.0]).unwrap();
        assert_eq!(b.stats().factorizations, 2);
        assert!(b.l_nnz() > 0);
    }

    #[test]
    fn pcg_backend_tracks_its_work() {
        // Without dense rows or columns the KKT solve is the factor of K:
        // formed at the first solve, refactored after a ρ update, with the
        // two sweeps through L between Aᵀ and A and no CG iteration.
        let (p, a, rho) = data();
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-10, 1000);
        assert_eq!(b.stats().factorizations, 0, "nothing is factored at construction");
        let (mut xt, mut zt) = (vec![0.0; 2], vec![0.0; 2]);
        for _ in 0..2 {
            b.solve_kkt(&[0.0; 2], &[0.0; 2], &[0.0; 2], &[1.0, 1.0], &mut xt, &mut zt).unwrap();
        }
        b.update_rho(&[1.0, 1.0]).unwrap();
        b.solve_kkt(&[0.0; 2], &[0.0; 2], &[0.0; 2], &[1.0, 1.0], &mut xt, &mut zt).unwrap();
        let stats = b.stats();
        assert_eq!((stats.kkt_solves, stats.factorizations, stats.cg_iterations), (3, 2, 0));
        assert_eq!(stats.spmv_evals, 3 * 4);
    }

    #[test]
    fn pcg_update_rho_validates_length() {
        let (p, a, rho) = data();
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-8, 100);
        assert!(b.update_rho(&[1.0]).is_err());
        assert!(b.update_rho(&[1.0, 1.0]).is_ok());
    }

    #[test]
    fn backend_names_are_distinct() {
        let (p, a, rho) = data();
        let d = DirectLdltBackend::new(&p, &a, 1e-6, &rho).unwrap();
        let c = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-8, 100);
        assert_ne!(d.name(), c.name());
    }

    #[test]
    fn set_cg_tolerance_applies_to_pcg() {
        let (p, a, rho) = data();
        let mut c = CpuPcgBackend::new(&p, &a, 1e-6, &rho, 1e-8, 100);
        c.set_cg_tolerance(1e-3);
        assert_eq!(c.cg_tolerance(), 1e-3);
    }
}
