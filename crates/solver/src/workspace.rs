//! Pre-sized iterate and scratch buffers for the ADMM loop.
//!
//! The solver used to allocate ~10 vectors at the top of every `solve` call
//! and several more inside each infeasibility check. Holding them here —
//! sized once at setup — makes the steady-state iteration allocation-free,
//! which the `zero_alloc` integration test asserts with a counting
//! allocator.

/// All per-iteration scratch the ADMM loop needs, owned by the solver so
/// repeated `solve` calls (warm starts, parametric re-solves, retries)
/// never re-allocate.
#[derive(Debug, Clone)]
pub(crate) struct IterateWorkspace {
    /// KKT solution x̃ (length n); on entry to a KKT solve, the PCG warm
    /// start.
    pub xtilde: Vec<f64>,
    /// KKT solution z̃ (length m).
    pub ztilde: Vec<f64>,
    /// Pre-projection z candidate (length m).
    pub zcand: Vec<f64>,
    /// x from the previous iteration (dual-infeasibility delta).
    pub prev_x: Vec<f64>,
    /// y from the previous iteration (primal-infeasibility delta).
    pub prev_y: Vec<f64>,
    /// Residual buffer `A x` (length m).
    pub ax: Vec<f64>,
    /// Residual buffer `P x` (length n).
    pub px: Vec<f64>,
    /// Residual buffer `Aᵀ y` (length n).
    pub aty: Vec<f64>,
    /// Scaled dual delta δȳ (length m).
    pub dy_scaled: Vec<f64>,
    /// Unscaled dual delta δy (length m).
    pub dy: Vec<f64>,
    /// `Aᵀ δy` (length n).
    pub at_dy: Vec<f64>,
    /// Scaled primal delta δx̄ (length n).
    pub dx_scaled: Vec<f64>,
    /// Unscaled primal delta δx (length n).
    pub dx: Vec<f64>,
    /// `P δx` (length n).
    pub p_dx: Vec<f64>,
    /// `A δx` (length m).
    pub a_dx: Vec<f64>,
}

impl IterateWorkspace {
    /// Allocates every buffer for an `n`-variable, `m`-constraint problem.
    pub fn new(n: usize, m: usize) -> Self {
        IterateWorkspace {
            xtilde: vec![0.0; n],
            ztilde: vec![0.0; m],
            zcand: vec![0.0; m],
            prev_x: vec![0.0; n],
            prev_y: vec![0.0; m],
            ax: vec![0.0; m],
            px: vec![0.0; n],
            aty: vec![0.0; n],
            dy_scaled: vec![0.0; m],
            dy: vec![0.0; m],
            at_dy: vec![0.0; n],
            dx_scaled: vec![0.0; n],
            dx: vec![0.0; n],
            p_dx: vec![0.0; n],
            a_dx: vec![0.0; m],
        }
    }
}
