//! Pluggable KKT-system backends.
//!
//! One ADMM iteration needs the solution `(x̃, z̃)` of Eq. (2). How that
//! system is solved is the entire difference between the CPU, GPU, and FPGA
//! incarnations of OSQP, so it is abstracted behind [`KktBackend`]. Every
//! backend here solves it one way, through OSQP's quasi-definite LDLᵀ of
//! the KKT matrix ([`rsqp_linsys::KktLdlt`]), and they differ only in when
//! the factor forms and where the solve runs:
//!
//! * [`DirectLdltBackend`] forms the factor at construction, under the
//!   ordering [`crate::Settings::ordering`] picks or a cached permutation,
//!   and refactors it at each ρ or matrix update;
//! * [`CpuPcgBackend`] (the [`crate::LinSysKind::CpuPcg`] kind, named for
//!   the reduced-system PCG of RSQP and cuOSQP) keeps only clones of `P`
//!   and `A` until its first solve, which forms the factor under AMD, and
//!   refactors at the first solve after each update; under AMD it returns
//!   the bits of a [`DirectLdltBackend`];
//! * `rsqp-core` provides a third implementation that runs the same KKT
//!   solve as an instruction stream on the cycle-level architecture
//!   simulator.

use rsqp_linsys::{amd_ordering, rcm_ordering, KktLdlt, KktMatrix};
use rsqp_sparse::{CscMatrix, CsrMatrix};

use crate::settings::KktOrdering;
use crate::SolverError;

/// Cumulative work counters reported by a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Number of KKT solves (one per ADMM iteration).
    pub kkt_solves: usize,
    /// Numeric factorizations of the KKT matrix performed.
    pub factorizations: usize,
    /// Total inner PCG iterations: none, since every backend solves the
    /// KKT system directly.
    pub cg_iterations: usize,
}

impl BackendStats {
    /// Field-wise sum, used to combine counters across a backend retired by
    /// the recovery ladder and its replacement.
    pub fn merged(self, other: BackendStats) -> BackendStats {
        BackendStats {
            kkt_solves: self.kkt_solves + other.kkt_solves,
            factorizations: self.factorizations + other.factorizations,
            cg_iterations: self.cg_iterations + other.cg_iterations,
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

    /// Informs the backend that the ρ vector changed; the KKT matrix is
    /// refactored now or at the next solve.
    ///
    /// # Errors
    ///
    /// Returns an error if ρ's length changed or the refactorization fails.
    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError>;

    /// Sets an inner-solver relative tolerance. Never called by the solver;
    /// kept for `benchmark/`, whose tracing wrapper forwards it.
    fn set_cg_tolerance(&mut self, _eps: f64) {}

    /// Solves Eq. (2) for the current iterates, writing `x̃^{k+1}` and
    /// `z̃^{k+1}`.
    ///
    /// `xtilde` and `ztilde` are output-only: their contents on entry are
    /// not a warm start, and every backend here overwrites them. On `Err`
    /// their contents are unspecified.
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

/// Direct LDLᵀ backend (OSQP's CPU default): the KKT factor formed at
/// construction and refactored at each update.
#[derive(Debug)]
pub struct DirectLdltBackend {
    factor: KktLdlt,
    stats: BackendStats,
}

impl DirectLdltBackend {
    /// Assembles and factorizes the KKT matrix with the default
    /// (AMD) fill-reducing ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Linsys`] if the assembly or factorization
    /// fails, or [`rsqp_linsys::LinsysError::NonConvex`] if `P` is not positive
    /// semidefinite.
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
        let perm = order(kkt.matrix(), ordering)?;
        Self::from_parts(kkt, perm)
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
        Self::from_parts(KktMatrix::assemble(p, a, sigma, rho)?, Some(perm))
    }

    fn from_parts(kkt: KktMatrix, perm: Option<Vec<usize>>) -> Result<Self, SolverError> {
        let mut factor = KktLdlt::new(kkt, perm)?;
        factor.refactor()?;
        Ok(DirectLdltBackend { factor, stats: BackendStats::default() })
    }

    /// Number of stored entries in the `L` factor — a proxy for the
    /// fill-in / memory cost of the direct method.
    pub fn l_nnz(&self) -> usize {
        self.factor.ldlt().l_nnz()
    }
}

impl KktBackend for DirectLdltBackend {
    fn name(&self) -> &str {
        "ldlt"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.factor.update_rho(rho)?;
        self.factor.refactor()?;
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
        self.factor.solve(x, z, y, q, xtilde, ztilde)?;
        self.stats.kkt_solves += 1;
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.factor.update_values(p, a, rho)?;
        self.factor.refactor()?;
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        BackendStats { factorizations: self.factor.factorizations(), ..self.stats }
    }
}

/// The [`crate::LinSysKind::CpuPcg`] backend: the KKT factor under AMD,
/// formed at the first solve.
///
/// Construction only clones `P` and `A`; the first KKT solve assembles the
/// KKT matrix, orders it and factors it, and the first solve after each ρ
/// or matrix update refactors it in place. A factorization that fails
/// (a zero pivot, or [`rsqp_linsys::LinsysError::NonConvex`]) is an error of
/// that solve and of every later one until an update, for the solver's guard
/// ladder.
/// Steady-state ADMM iterations and updates perform **zero heap
/// allocations**.
#[derive(Debug)]
pub struct CpuPcgBackend {
    state: Lazy,
    stats: BackendStats,
}

/// What a [`CpuPcgBackend`] holds before and after its first solve.
#[derive(Debug)]
enum Lazy {
    /// Clones of the (scaled) `P` and `A`, σ and the current ρ.
    Pending { p: CsrMatrix, a: CsrMatrix, sigma: f64, rho: Vec<f64> },
    /// The factor.
    Formed(Box<KktLdlt>),
}

impl CpuPcgBackend {
    /// Creates the backend, cloning the (scaled) problem matrices; nothing
    /// is assembled or factored until the first solve.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Self {
        CpuPcgBackend {
            state: Lazy::Pending { p: p.clone(), a: a.clone(), sigma, rho: rho.to_vec() },
            stats: BackendStats::default(),
        }
    }

    /// [`CpuPcgBackend::new`]; the inner tolerance, iteration cap and
    /// thread count are ignored. Kept only because the `benchmark/`
    /// package calls it.
    pub fn with_threads(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        _eps: f64,
        _max_iter: usize,
        _threads: usize,
    ) -> Self {
        Self::new(p, a, sigma, rho)
    }

    /// The factor, formed now if this is the first solve.
    fn factor(&mut self) -> Result<&mut KktLdlt, SolverError> {
        if let Lazy::Pending { p, a, sigma, rho } = &self.state {
            self.state = Lazy::Formed(Box::new(KktLdlt::with_amd(p, a, *sigma, rho)?));
        }
        match &mut self.state {
            Lazy::Formed(f) => Ok(f),
            Lazy::Pending { .. } => unreachable!("formed above"),
        }
    }
}

impl KktBackend for CpuPcgBackend {
    fn name(&self) -> &str {
        "cpu-pcg"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        match &mut self.state {
            Lazy::Pending { rho: current, .. } if current.len() == rho.len() => {
                current.copy_from_slice(rho);
                Ok(())
            }
            Lazy::Pending { .. } => Err(SolverError::Backend("rho length changed".into())),
            Lazy::Formed(f) => Ok(f.update_rho(rho)?),
        }
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
        self.factor()?.solve(x, z, y, q, xtilde, ztilde)?;
        self.stats.kkt_solves += 1;
        Ok(())
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        match &mut self.state {
            Lazy::Pending { p: p0, a: a0, rho: rho0, .. } => {
                let same = |x: &CsrMatrix, y: &CsrMatrix| {
                    x.indptr() == y.indptr() && x.indices() == y.indices()
                };
                if !same(p0, p) || !same(a0, a) || rho0.len() != rho.len() {
                    return Err(SolverError::Backend("matrix pattern changed".into()));
                }
                p0.data_mut().copy_from_slice(p.data());
                a0.data_mut().copy_from_slice(a.data());
                rho0.copy_from_slice(rho);
                Ok(())
            }
            Lazy::Formed(f) => Ok(f.update_values(p, a, rho)?),
        }
    }

    fn stats(&self) -> BackendStats {
        let factorizations = match &self.state {
            Lazy::Pending { .. } => 0,
            Lazy::Formed(f) => f.factorizations(),
        };
        BackendStats { factorizations, ..self.stats }
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
        let mut iterative = CpuPcgBackend::new(&p, &a, sigma, &rho);
        let x = vec![0.1, -0.2];
        let z = vec![0.3, 0.4];
        let y = vec![-0.1, 0.2];
        let q = vec![1.0, -1.0];
        let (mut xt1, mut zt1) = (vec![0.0; 2], vec![0.0; 2]);
        let (mut xt2, mut zt2) = (vec![0.0; 2], vec![0.0; 2]);
        direct.solve_kkt(&x, &z, &y, &q, &mut xt1, &mut zt1).unwrap();
        iterative.solve_kkt(&x, &z, &y, &q, &mut xt2, &mut zt2).unwrap();
        // One factor under AMD: the same bits.
        assert_eq!((xt1, zt1), (xt2, zt2));
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
        // The factor forms at the first solve and refactors at the first
        // solve after a ρ update.
        let (p, a, rho) = data();
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho);
        assert_eq!(b.stats().factorizations, 0, "nothing is factored at construction");
        let (mut xt, mut zt) = (vec![0.0; 2], vec![0.0; 2]);
        for _ in 0..2 {
            b.solve_kkt(&[0.0; 2], &[0.0; 2], &[0.0; 2], &[1.0, 1.0], &mut xt, &mut zt).unwrap();
        }
        b.update_rho(&[1.0, 1.0]).unwrap();
        assert_eq!(b.stats().factorizations, 1, "refactored at the next solve");
        b.solve_kkt(&[0.0; 2], &[0.0; 2], &[0.0; 2], &[1.0, 1.0], &mut xt, &mut zt).unwrap();
        let stats = b.stats();
        assert_eq!((stats.kkt_solves, stats.factorizations, stats.cg_iterations), (3, 2, 0));
    }

    #[test]
    fn pcg_update_rho_validates_length() {
        let (p, a, rho) = data();
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho);
        assert!(b.update_rho(&[1.0]).is_err());
        assert!(b.update_rho(&[1.0, 1.0]).is_ok());
    }

    #[test]
    fn backend_names_are_distinct() {
        let (p, a, rho) = data();
        let d = DirectLdltBackend::new(&p, &a, 1e-6, &rho).unwrap();
        let c = CpuPcgBackend::new(&p, &a, 1e-6, &rho);
        assert_ne!(d.name(), c.name());
    }

    #[test]
    fn a_non_convex_p_fails_at_construction_or_at_the_first_solve() {
        let (_, a, rho) = data();
        let p = CsrMatrix::from_dense(&[vec![-4.0, 1.0], vec![1.0, 2.0]]);
        let err = SolverError::Linsys(rsqp_linsys::LinsysError::NonConvex { positive: 1, n: 2 });
        assert_eq!(DirectLdltBackend::new(&p, &a, 1e-6, &rho).unwrap_err(), err);
        let mut b = CpuPcgBackend::new(&p, &a, 1e-6, &rho);
        let (mut xt, mut zt) = (vec![0.0; 2], vec![0.0; 2]);
        let solved = b.solve_kkt(&[0.0; 2], &[0.0; 2], &[0.0; 2], &[1.0; 2], &mut xt, &mut zt);
        assert_eq!(solved, Err(err));
    }
}
