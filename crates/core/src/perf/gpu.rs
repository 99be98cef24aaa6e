//! Analytic cuOSQP-on-RTX-3070 cost model.
//!
//! cuOSQP (Schubiger et al. 2020) executes the same indirect ADMM as RSQP:
//! per CG iteration a handful of cuSparse/cuBLAS kernels, per ADMM iteration
//! a dozen element-wise kernels. On a discrete GPU each kernel launch costs
//! microseconds, and the kernels themselves are memory-bound. The model
//! reproduces cuOSQP's published behaviour: launch overhead makes the GPU
//! *slower* than the CPU on small problems, while bandwidth wins at
//! ≳10⁵ non-zeros.

use std::time::Duration;

/// Per-kernel launch overhead (seconds). Typical for CUDA on PCIe cards.
const LAUNCH_S: f64 = 5.0e-6;
/// Effective device bandwidth: 448 GB/s peak × ~55 % achievable on sparse
/// streams.
const BW_EFF: f64 = 246.0e9;
/// Host↔device PCIe bandwidth for the per-solve vector traffic.
const PCIE_BW: f64 = 12.0e9;
/// Kernels per CG iteration (3 SpMV + axpy/dot chain).
const KERNELS_PER_CG: f64 = 8.0;
/// Kernels per ADMM outer update.
const KERNELS_PER_ADMM: f64 = 12.0;

/// The GPU cost model (single-precision cuOSQP on an RTX 3070).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPerfModel {
    launch_s: f64,
    bw_eff: f64,
}

impl GpuPerfModel {
    /// The RTX 3070 instance used throughout the evaluation.
    pub fn rtx3070() -> Self {
        GpuPerfModel { launch_s: LAUNCH_S, bw_eff: BW_EFF }
    }

    /// Estimated end-to-end solve time given the iteration counts observed
    /// on the reference solver run.
    ///
    /// * `admm_iterations` / `cg_iterations` — totals for the solve,
    /// * `n`, `m`, `nnz` — problem dimensions (`nnz = nnz(P)+nnz(A)`).
    pub fn solve_time(
        &self,
        admm_iterations: usize,
        cg_iterations: usize,
        n: usize,
        m: usize,
        nnz: usize,
    ) -> Duration {
        // Bytes per CG iteration: the three SpMVs stream P, A, Aᵀ once
        // (value f32 + column index u32 = 8 B per stored entry; A counted
        // twice for A and Aᵀ) plus ~10 n-length vector touches.
        let spmv_bytes = (nnz + nnz) as f64 * 8.0;
        let vec_bytes = 10.0 * (n as f64) * 4.0;
        let cg_time = cg_iterations as f64
            * (KERNELS_PER_CG * self.launch_s + (spmv_bytes + vec_bytes) / self.bw_eff);
        // ADMM outer update: ~12 kernels over m- and n-length vectors.
        let admm_bytes = (8.0 * m as f64 + 4.0 * n as f64) * 4.0 * 3.0;
        let admm_time =
            admm_iterations as f64 * (KERNELS_PER_ADMM * self.launch_s + admm_bytes / self.bw_eff);
        // Per-solve host↔device traffic (q, bounds, iterates, results).
        let transfer = ((n + m) as f64 * 6.0 * 4.0) / PCIE_BW + 30.0e-6;
        Duration::from_secs_f64(cg_time + admm_time + transfer)
    }

    /// Modeled board power while solving a problem of the given size,
    /// spanning the 44–126 W range the paper measured with `nvidia-smi`.
    pub fn power_w(&self, nnz: usize) -> f64 {
        let util = ((nnz as f64) / 3.0e5).powf(0.7).min(1.0);
        44.0 + 82.0 * util
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_overhead_dominates_small_problems() {
        let g = GpuPerfModel::rtx3070();
        // 100 ADMM iters, 300 CG iters on a tiny problem.
        let t = g.solve_time(100, 300, 50, 100, 500).as_secs_f64();
        let launch_only = 300.0 * KERNELS_PER_CG * LAUNCH_S + 100.0 * KERNELS_PER_ADMM * LAUNCH_S;
        assert!(t > launch_only);
        assert!(t < launch_only * 1.5, "t {t} vs launches {launch_only}");
    }

    #[test]
    fn bandwidth_dominates_large_problems() {
        let g = GpuPerfModel::rtx3070();
        let small = g.solve_time(100, 300, 1_000, 2_000, 10_000).as_secs_f64();
        let large = g.solve_time(100, 300, 100_000, 200_000, 2_000_000).as_secs_f64();
        assert!(large > 3.0 * small);
    }

    #[test]
    fn power_spans_papers_range() {
        let g = GpuPerfModel::rtx3070();
        assert!(g.power_w(100) < 50.0);
        assert!((g.power_w(10_000_000) - 126.0).abs() < 1.0);
        assert!(g.power_w(100_000) > g.power_w(1_000));
    }
}
