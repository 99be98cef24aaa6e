//! Per-constraint step-size (ρ) management with adaptive updates.
//!
//! OSQP uses a *vector* ρ: equality constraints get a stiffer value
//! (`1e3·ρ̄`), loose (unbounded) constraints a minimal one. The scalar base
//! ρ̄ adapts to the ratio of primal and dual residuals; the KKT backend is
//! informed whenever the vector actually changes (which is what forces the
//! numeric refactorization in the direct method — §2.2 of the paper).

/// Lower clamp for ρ values.
pub const RHO_MIN: f64 = 1e-6;
/// Upper clamp for ρ values.
pub const RHO_MAX: f64 = 1e6;
/// Multiplier applied to equality constraints.
const RHO_EQ_FACTOR: f64 = 1e3;
/// Bound gap below which a constraint is treated as an equality.
const RHO_EQ_TOL: f64 = 1e-10;

/// Classification of each constraint row, derived from its bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `l = u` (within tolerance).
    Equality,
    /// Finite bound on at least one side.
    Inequality,
    /// `l = -∞` and `u = +∞`.
    Loose,
}

/// Manages the scalar base ρ̄ and the derived per-constraint vector.
#[derive(Debug, Clone, PartialEq)]
pub struct RhoManager {
    rho_bar: f64,
    kinds: Vec<ConstraintKind>,
    rho_vec: Vec<f64>,
    rho_inv_vec: Vec<f64>,
    updates: usize,
}

impl RhoManager {
    /// Builds the manager from the initial ρ̄ and the (scaled) bounds.
    pub fn new(rho_bar: f64, l: &[f64], u: &[f64]) -> Self {
        let mut mgr = RhoManager {
            rho_bar: rho_bar.clamp(RHO_MIN, RHO_MAX),
            kinds: l.iter().zip(u).map(|(&li, &ui)| kind(li, ui)).collect(),
            rho_vec: Vec::new(),
            rho_inv_vec: Vec::new(),
            updates: 0,
        };
        mgr.rebuild();
        mgr
    }

    /// Re-derives the ρ and 1/ρ vectors from the current ρ̄ and kinds,
    /// reusing the existing buffers (adaptive updates run mid-solve on the
    /// allocation-free hot path; only a bounds update may resize).
    fn rebuild(&mut self) -> bool {
        self.rho_vec.resize(self.kinds.len(), 0.0);
        self.rho_inv_vec.resize(self.kinds.len(), 0.0);
        let mut changed = false;
        for ((r, ri), k) in self.rho_vec.iter_mut().zip(&mut self.rho_inv_vec).zip(&self.kinds) {
            let rho = match k {
                ConstraintKind::Equality => (RHO_EQ_FACTOR * self.rho_bar).clamp(RHO_MIN, RHO_MAX),
                ConstraintKind::Inequality => self.rho_bar,
                ConstraintKind::Loose => RHO_MIN,
            };
            changed |= *r != rho;
            *r = rho;
            *ri = 1.0 / rho;
        }
        changed
    }

    /// Re-derives constraint kinds after a bounds update, in place: no
    /// allocation while the constraint count is unchanged. Returns whether
    /// the ρ vector changed.
    pub fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> bool {
        self.kinds.clear();
        self.kinds.extend(l.iter().zip(u).map(|(&li, &ui)| kind(li, ui)));
        self.rebuild()
    }

    /// Replaces the scalar base ρ̄ in place (OSQP's manual `update_rho`),
    /// rebuilding the per-constraint vectors into the existing buffers — the
    /// classification and the adaptive-update counter are preserved, and no
    /// allocation happens when the constraint count is unchanged.
    pub fn set_rho_bar(&mut self, rho_bar: f64) {
        self.rho_bar = rho_bar.clamp(RHO_MIN, RHO_MAX);
        self.rebuild();
    }

    /// Current scalar base ρ̄.
    pub fn rho_bar(&self) -> f64 {
        self.rho_bar
    }

    /// Per-constraint ρ vector.
    pub fn rho_vec(&self) -> &[f64] {
        &self.rho_vec
    }

    /// Per-constraint `1/ρ` vector.
    pub fn rho_inv_vec(&self) -> &[f64] {
        &self.rho_inv_vec
    }

    /// Constraint classification.
    pub fn kinds(&self) -> &[ConstraintKind] {
        &self.kinds
    }

    /// Number of accepted adaptive updates so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Computes the candidate ρ̄ from normalized residuals:
    /// `ρ̄·√((r_prim/s_prim)/(r_dual/s_dual))`.
    ///
    /// Returns `None` when the inputs are degenerate (zero scales or
    /// residuals), in which case no update should happen.
    pub fn candidate(&self, r_prim: f64, s_prim: f64, r_dual: f64, s_dual: f64) -> Option<f64> {
        if s_prim <= 0.0 || s_dual <= 0.0 || r_prim <= 0.0 || r_dual <= 0.0 {
            return None;
        }
        let ratio = (r_prim / s_prim) / (r_dual / s_dual);
        if !ratio.is_finite() || ratio <= 0.0 {
            return None;
        }
        Some((self.rho_bar * ratio.sqrt()).clamp(RHO_MIN, RHO_MAX))
    }

    /// Applies an adaptive update if the candidate differs from the current
    /// ρ̄ by more than `tolerance` (multiplicatively). Returns `true` when
    /// the vector changed (so the backend must be refreshed).
    pub fn maybe_update(
        &mut self,
        r_prim: f64,
        s_prim: f64,
        r_dual: f64,
        s_dual: f64,
        tolerance: f64,
    ) -> bool {
        let Some(new_rho) = self.candidate(r_prim, s_prim, r_dual, s_dual) else {
            return false;
        };
        if new_rho > self.rho_bar * tolerance || new_rho < self.rho_bar / tolerance {
            self.rho_bar = new_rho;
            self.rebuild();
            self.updates += 1;
            true
        } else {
            false
        }
    }
}

/// The kind of a constraint with bounds `li ≤ · ≤ ui`.
fn kind(li: f64, ui: f64) -> ConstraintKind {
    if li.is_infinite() && li < 0.0 && ui.is_infinite() && ui > 0.0 {
        ConstraintKind::Loose
    } else if (ui - li).abs() <= RHO_EQ_TOL {
        ConstraintKind::Equality
    } else {
        ConstraintKind::Inequality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn classification_covers_all_kinds() {
        let mgr = RhoManager::new(0.1, &[1.0, 0.0, -INF, -INF], &[1.0, 2.0, INF, 3.0]);
        assert_eq!(
            mgr.kinds(),
            &[
                ConstraintKind::Equality,
                ConstraintKind::Inequality,
                ConstraintKind::Loose,
                ConstraintKind::Inequality
            ]
        );
        assert!((mgr.rho_vec()[0] - 100.0).abs() < 1e-12); // 1e3 * 0.1
        assert!((mgr.rho_vec()[1] - 0.1).abs() < 1e-12);
        assert!((mgr.rho_vec()[2] - RHO_MIN).abs() < 1e-18);
    }

    #[test]
    fn rho_inv_is_reciprocal() {
        let mgr = RhoManager::new(0.2, &[0.0], &[1.0]);
        assert!((mgr.rho_vec()[0] * mgr.rho_inv_vec()[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn candidate_scales_with_residual_ratio() {
        let mgr = RhoManager::new(1.0, &[0.0], &[1.0]);
        // primal residual dominates -> rho grows
        let c = mgr.candidate(1.0, 1.0, 0.01, 1.0).unwrap();
        assert!((c - 10.0).abs() < 1e-12);
        // dual dominates -> rho shrinks
        let c = mgr.candidate(0.01, 1.0, 1.0, 1.0).unwrap();
        assert!((c - 0.1).abs() < 1e-12);
    }

    #[test]
    fn candidate_rejects_degenerate_inputs() {
        let mgr = RhoManager::new(1.0, &[0.0], &[1.0]);
        assert!(mgr.candidate(0.0, 1.0, 1.0, 1.0).is_none());
        assert!(mgr.candidate(1.0, 0.0, 1.0, 1.0).is_none());
    }

    #[test]
    fn update_respects_tolerance_band() {
        let mut mgr = RhoManager::new(1.0, &[0.0], &[1.0]);
        // ratio sqrt = 2 < 5 -> no update
        assert!(!mgr.maybe_update(4.0, 1.0, 1.0, 1.0, 5.0));
        assert_eq!(mgr.updates(), 0);
        // ratio sqrt = 10 > 5 -> update
        assert!(mgr.maybe_update(100.0, 1.0, 1.0, 1.0, 5.0));
        assert!((mgr.rho_bar() - 10.0).abs() < 1e-12);
        assert_eq!(mgr.updates(), 1);
    }

    #[test]
    fn update_clamps_to_bounds() {
        let mut mgr = RhoManager::new(1.0, &[0.0], &[1.0]);
        assert!(mgr.maybe_update(1e30, 1.0, 1e-30, 1.0, 5.0));
        assert!(mgr.rho_bar() <= RHO_MAX);
    }

    #[test]
    fn set_rho_bar_preserves_kinds_and_counter() {
        let mut mgr = RhoManager::new(1.0, &[1.0, 0.0, -INF], &[1.0, 2.0, INF]);
        assert!(mgr.maybe_update(100.0, 1.0, 1.0, 1.0, 5.0));
        assert_eq!(mgr.updates(), 1);
        mgr.set_rho_bar(0.5);
        assert_eq!(mgr.updates(), 1, "manual update must not reset the adaptive counter");
        assert!((mgr.rho_bar() - 0.5).abs() < 1e-15);
        assert!((mgr.rho_vec()[0] - 500.0).abs() < 1e-12); // equality: 1e3 * 0.5
        assert!((mgr.rho_vec()[1] - 0.5).abs() < 1e-15);
        assert!((mgr.rho_vec()[2] - RHO_MIN).abs() < 1e-18);
        mgr.set_rho_bar(1e30);
        assert!(mgr.rho_bar() <= RHO_MAX);
    }

    #[test]
    fn bounds_update_reclassifies() {
        let mut mgr = RhoManager::new(0.1, &[0.0], &[1.0]);
        assert_eq!(mgr.kinds()[0], ConstraintKind::Inequality);
        assert!(mgr.update_bounds(&[1.0], &[1.0]), "ρ changes with the kind");
        assert_eq!(mgr.kinds()[0], ConstraintKind::Equality);
        assert!(!mgr.update_bounds(&[2.0], &[2.0]), "an equality stays one");
    }
}
