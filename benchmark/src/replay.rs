//! Standalone replays of single public calls on a workload's scaled data,
//! for the per-layer times the backend wrapper cannot see.

use std::hint::black_box;
use std::time::Instant;

use rsqp_core::customize;
use rsqp_linsys::{KktMatrix, Ldlt, LinearOperator, ReducedKktOp, SymmetricPermutation};
use rsqp_runtime::CacheParams;
use rsqp_solver::{kkt_ordering, QpProblem, RhoManager, Scaling, Settings};
use rsqp_sparse::TransposeCache;

/// Wall-clock budget per replayed call and instance.
const BUDGET_S: f64 = 0.05;
/// Repeats per replayed call, whatever the budget.
const MIN_REPS: usize = 3;

/// Best seconds per call of `f`, repeated for [`BUDGET_S`] and at least
/// [`MIN_REPS`] times.
fn time_call(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_REPS || start.elapsed().as_secs_f64() < BUDGET_S {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::report::best(&samples)
}

/// Per-layer replay times, each summed over a workload's instances (one
/// call per instance), plus the factor size they produce.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replays {
    /// `QpProblem::clone` (`Solver::new` copies its problem).
    pub copy_s: f64,
    /// `Scaling::ruiz`.
    pub scaling_s: f64,
    /// `KktMatrix::assemble` plus `SymmetricPermutation::new`.
    pub assembly_s: f64,
    /// `TransposeCache::new` of the scaled `A`.
    pub at_build_s: f64,
    /// `kkt_ordering` (the default fill-reducing ordering).
    pub ordering_s: f64,
    /// `Ldlt::factor` of the permuted KKT matrix.
    pub factor_s: f64,
    /// `Ldlt::refactor` of the same matrix.
    pub refactor_s: f64,
    /// `Ldlt::solve_in_place`.
    pub ldlt_solve_s: f64,
    /// `CsrMatrix::spmv` with the scaled `A`.
    pub spmv_s: f64,
    /// `TransposeCache::spmv` with the scaled `Aᵀ`.
    pub at_spmv_s: f64,
    /// `ReducedKktOp::apply`.
    pub kkt_apply_s: f64,
    /// `customize` at the cache's default parameters.
    pub customize_s: f64,
    /// Stored entries of `L`.
    pub l_nnz: u64,
}

impl Replays {
    /// Field-wise best of two rounds; a traced run replays after each of
    /// its traced units, so the replays see the same host as the units.
    pub fn best(self, o: Replays) -> Replays {
        Replays {
            copy_s: self.copy_s.min(o.copy_s),
            scaling_s: self.scaling_s.min(o.scaling_s),
            assembly_s: self.assembly_s.min(o.assembly_s),
            at_build_s: self.at_build_s.min(o.at_build_s),
            ordering_s: self.ordering_s.min(o.ordering_s),
            factor_s: self.factor_s.min(o.factor_s),
            refactor_s: self.refactor_s.min(o.refactor_s),
            ldlt_solve_s: self.ldlt_solve_s.min(o.ldlt_solve_s),
            spmv_s: self.spmv_s.min(o.spmv_s),
            at_spmv_s: self.at_spmv_s.min(o.at_spmv_s),
            kkt_apply_s: self.kkt_apply_s.min(o.kkt_apply_s),
            customize_s: self.customize_s.min(o.customize_s),
            l_nnz: self.l_nnz,
        }
    }
}

/// Replays every call on each of `problems`. `with_customize` adds the
/// customization pipeline (only sessions run it).
pub fn replay(problems: &[&QpProblem], settings: &Settings, with_customize: bool) -> Replays {
    let mut r = Replays::default();
    for qp in problems {
        r.copy_s += time_call(|| {
            black_box((*qp).clone());
        });
        r.scaling_s += time_call(|| {
            black_box(Scaling::ruiz(qp.p(), qp.q(), qp.a(), settings.scaling_iters));
        });
        let (scaling, data) = Scaling::ruiz(qp.p(), qp.q(), qp.a(), settings.scaling_iters);
        let (p, a) = (&data.p, &data.a);
        let (l, u) = scaling.scale_bounds(qp.l(), qp.u());
        let rho = RhoManager::new(settings.rho, &l, &u).rho_vec().to_vec();

        r.ordering_s += time_call(|| {
            black_box(kkt_ordering(p, a, settings.ordering).expect("valid shapes"));
        });
        let kkt = KktMatrix::assemble(p, a, settings.sigma, &rho).expect("valid shapes");
        let perm = kkt_ordering(p, a, settings.ordering)
            .expect("valid shapes")
            .unwrap_or_else(|| (0..kkt.matrix().nrows()).collect());
        r.assembly_s += time_call(|| {
            let kkt = KktMatrix::assemble(p, a, settings.sigma, &rho).expect("valid shapes");
            black_box(
                SymmetricPermutation::new(kkt.matrix(), perm.clone()).expect("a permutation"),
            );
        });
        let permuted = SymmetricPermutation::new(kkt.matrix(), perm).expect("a permutation");
        let mut factor = Ldlt::factor(permuted.matrix()).expect("quasi-definite KKT");
        r.l_nnz += factor.l_nnz() as u64;
        r.factor_s += time_call(|| {
            black_box(Ldlt::factor(permuted.matrix()).expect("quasi-definite KKT"));
        });
        r.refactor_s += time_call(|| factor.refactor(permuted.matrix()).expect("same pattern"));
        let mut rhs = vec![1.0; factor.dim()];
        r.ldlt_solve_s += time_call(|| {
            rhs.fill(1.0);
            factor.solve_in_place(&mut rhs).expect("dimension");
        });

        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let (x, y) = (vec![1.0; n], vec![1.0; m]);
        let (mut ax, mut aty, mut kx) = (vec![0.0; m], vec![0.0; n], vec![0.0; n]);
        r.spmv_s += time_call(|| a.spmv(&x, &mut ax).expect("dimension"));
        r.at_build_s += time_call(|| {
            black_box(TransposeCache::new(a));
        });
        let at = TransposeCache::new(a);
        r.at_spmv_s += time_call(|| at.spmv(&y, &mut aty).expect("dimension"));
        let mut op = ReducedKktOp::new(p, a, settings.sigma, &rho).expect("valid shapes");
        r.kkt_apply_s += time_call(|| op.apply(&x, &mut kx).expect("dimension"));

        if with_customize {
            let params = CacheParams::default();
            r.customize_s += time_call(|| {
                black_box(customize(qp, params.c, params.s_target));
            });
        }
    }
    r
}
