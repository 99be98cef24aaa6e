//! Numerical guards and the bounded recovery ladder.
//!
//! Every backend solves the KKT system exactly, but an accelerator datapath
//! or a wrapped backend can still fail: a returned error, or silent NaN/Inf
//! propagation from corrupted memory. The guard layer watches the ADMM
//! iterates at every termination check and every failed KKT solve and, on
//! an anomaly of any kind, walks one **bounded recovery ladder**:
//!
//! 1. reset to the last known-good iterate,
//! 2. reset and replace the backend with the host's direct LDLᵀ — offered
//!    only to a backend that is not already a host factor (the solver
//!    withholds it from both CPU kinds),
//! 3. abort with [`crate::Status::NumericalError`].
//!
//! The ladder never revisits a rung, so a solve gets at most two
//! recoveries and a persistently faulty backend cannot loop forever. The
//! guard runs when [`crate::Settings::guard`] is `true` (the default). Every
//! event is counted in [`GuardReport`], surfaced in
//! [`crate::SolveResult::guard`].

/// Infinity-norm bound on the scaled iterates; exceeding it counts as
/// divergence even while every entry is still finite.
const DIVERGENCE_THRESHOLD: f64 = 1e12;

/// The action the ladder prescribes for an anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restore `x`, `z`, `y` from the last known-good snapshot.
    ResetIterates,
    /// Restore the snapshot and replace the backend with direct LDLᵀ.
    FallbackToDirect,
    /// Give up: report [`crate::Status::NumericalError`].
    Abort,
}

/// Counters for every guard intervention during one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardReport {
    /// Anomalies detected (including the one that may have aborted).
    pub faults_detected: usize,
    /// Times the iterates were reset to the last good snapshot.
    pub iterate_resets: usize,
    /// Times the backend was degraded to direct LDLᵀ.
    pub backend_fallbacks: usize,
}

impl GuardReport {
    /// Whether the guard intervened at all.
    pub fn intervened(&self) -> bool {
        self.faults_detected > 0
    }
}

/// Watches iterates and drives the recovery ladder for one solve.
#[derive(Debug)]
pub struct Guard {
    good_x: Vec<f64>,
    good_z: Vec<f64>,
    good_y: Vec<f64>,
    stage: usize,
    report: GuardReport,
}

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()))
}

impl Guard {
    /// Creates a guard whose initial known-good snapshot is the current
    /// (scaled) iterate triple.
    pub fn new(x: &[f64], z: &[f64], y: &[f64]) -> Self {
        Guard {
            good_x: x.to_vec(),
            good_z: z.to_vec(),
            good_y: y.to_vec(),
            stage: 0,
            report: GuardReport::default(),
        }
    }

    /// Inspects the iterate triple and the residual pair; returns `true` on
    /// an anomaly: a NaN or ±Inf anywhere, or an infinity norm of `x` or `y`
    /// past 10¹² (divergence while still finite).
    pub fn inspect(&self, x: &[f64], z: &[f64], y: &[f64], prim_res: f64, dual_res: f64) -> bool {
        let finite = all_finite(x)
            && all_finite(z)
            && all_finite(y)
            && prim_res.is_finite()
            && dual_res.is_finite();
        !finite || inf_norm(x).max(inf_norm(y)) > DIVERGENCE_THRESHOLD
    }

    /// Records the current iterates as the known-good snapshot. Call after
    /// [`Self::inspect`] returns `false`.
    pub fn record_good(&mut self, x: &[f64], z: &[f64], y: &[f64]) {
        self.good_x.copy_from_slice(x);
        self.good_z.copy_from_slice(z);
        self.good_y.copy_from_slice(y);
    }

    /// Restores the known-good snapshot into the iterate buffers.
    pub fn restore(&self, x: &mut [f64], z: &mut [f64], y: &mut [f64]) {
        x.copy_from_slice(&self.good_x);
        z.copy_from_slice(&self.good_z);
        y.copy_from_slice(&self.good_y);
    }

    /// Advances the ladder by one rung, for an anomaly of any kind or a
    /// recoverable backend error, and returns the action to apply.
    /// `can_fallback` is `false` when the active backend is already a host
    /// LDLᵀ factor (that rung then aborts).
    ///
    /// Each rung is used at most once; past the last one the action is
    /// [`RecoveryAction::Abort`].
    pub fn recover(&mut self, can_fallback: bool) -> RecoveryAction {
        self.report.faults_detected += 1;
        let action = match self.stage {
            0 => RecoveryAction::ResetIterates,
            1 if can_fallback => RecoveryAction::FallbackToDirect,
            _ => RecoveryAction::Abort,
        };
        self.stage += 1;
        if action != RecoveryAction::Abort {
            self.report.iterate_resets += 1;
        }
        if action == RecoveryAction::FallbackToDirect {
            self.report.backend_fallbacks += 1;
        }
        action
    }

    /// The intervention counters accumulated so far.
    pub fn report(&self) -> GuardReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_guard() -> Guard {
        Guard::new(&[1.0, 2.0], &[0.5], &[0.0])
    }

    #[test]
    fn healthy_state_passes_inspection() {
        let g = mk_guard();
        assert!(!g.inspect(&[1.0, 2.0], &[0.5], &[0.0], 1e-3, 1e-4));
    }

    #[test]
    fn detects_non_finite_iterates_and_residuals() {
        let g = mk_guard();
        assert!(g.inspect(&[f64::NAN, 0.0], &[0.0], &[0.0], 0.0, 0.0));
        assert!(g.inspect(&[0.0, 0.0], &[f64::INFINITY], &[0.0], 0.0, 0.0));
        assert!(g.inspect(&[0.0, 0.0], &[0.0], &[0.0], f64::NAN, 0.0));
    }

    #[test]
    fn detects_divergence_past_threshold() {
        let g = Guard::new(&[0.0], &[0.0], &[0.0]);
        let past = 1.01 * DIVERGENCE_THRESHOLD;
        assert!(g.inspect(&[past], &[0.0], &[0.0], 0.0, 0.0));
        assert!(g.inspect(&[0.0], &[0.0], &[-past], 0.0, 0.0));
        assert!(!g.inspect(&[0.99 * DIVERGENCE_THRESHOLD], &[0.0], &[0.0], 0.0, 0.0));
    }

    #[test]
    fn ladder_escalates_and_never_revisits_a_rung() {
        let mut g = mk_guard();
        assert_eq!(g.recover(true), RecoveryAction::ResetIterates);
        assert_eq!(g.recover(true), RecoveryAction::FallbackToDirect);
        assert_eq!(g.recover(true), RecoveryAction::Abort);
        assert_eq!(g.recover(true), RecoveryAction::Abort);
        let r = g.report();
        assert_eq!(r.faults_detected, 4);
        assert_eq!(r.iterate_resets, 2);
        assert_eq!(r.backend_fallbacks, 1);
    }

    #[test]
    fn every_fault_climbs_the_same_ladder() {
        // A non-finite or a divergent iterate reaches the ladder through
        // `inspect`, a recoverable backend error (`None`) directly; the rungs
        // depend only on whether the fallback is offered.
        use RecoveryAction::{Abort, FallbackToDirect, ResetIterates};
        let past = 1.01 * DIVERGENCE_THRESHOLD;
        for (can_fallback, ladder) in [
            (true, vec![ResetIterates, FallbackToDirect, Abort]),
            (false, vec![ResetIterates, Abort]),
        ] {
            for iterate in [Some([f64::NAN, 0.0]), Some([past, 0.0]), None] {
                let mut g = mk_guard();
                if let Some(x) = iterate {
                    assert!(g.inspect(&x, &[0.0], &[0.0], 0.0, 0.0));
                }
                let taken: Vec<_> = ladder.iter().map(|_| g.recover(can_fallback)).collect();
                assert_eq!(taken, ladder, "{iterate:?}, can_fallback = {can_fallback}");
            }
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut g = mk_guard();
        g.record_good(&[3.0, 4.0], &[5.0], &[6.0]);
        let (mut x, mut z, mut y) = (vec![0.0; 2], vec![0.0], vec![0.0]);
        g.restore(&mut x, &mut z, &mut y);
        assert_eq!(x, vec![3.0, 4.0]);
        assert_eq!(z, vec![5.0]);
        assert_eq!(y, vec![6.0]);
    }
}
