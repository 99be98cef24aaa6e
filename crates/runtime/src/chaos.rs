//! Chaos injection at the runtime layer.
//!
//! PR 1's `FaultConfig` flips bits *inside* the simulated accelerator; this
//! module attacks the layer above it: [`ChaosPlan`] wraps any
//! [`KktBackend`] in a deterministic gremlin that, per KKT solve, may
//! inject a delay (creating deadline pressure), a recoverable backend
//! error (exercising the guard and retry ladders), or a panic (exercising
//! worker panic isolation). Composed with bit-level faults and many
//! concurrent jobs, this is the chaos harness the `chaos_smoke` binary
//! runs.
//!
//! All randomness comes from a SplitMix64 stream seeded by the plan, so a
//! given (plan, job) pair replays the exact same fault schedule.

use std::time::Duration;

use rsqp_solver::{BackendStats, KktBackend, SolverError};
use rsqp_sparse::CsrMatrix;

/// Per-KKT-solve fault probabilities and a master seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a KKT solve is delayed by up to [`ChaosPlan::max_delay`].
    pub delay_prob: f64,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
    /// Probability a KKT solve returns a (recoverable)
    /// [`SolverError::Backend`] instead of running.
    pub error_prob: f64,
    /// Probability a KKT solve panics.
    pub panic_prob: f64,
}

impl ChaosPlan {
    /// A quiet plan: all probabilities zero.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            error_prob: 0.0,
            panic_prob: 0.0,
        }
    }

    /// Arms delay injection.
    #[must_use]
    pub fn with_delays(mut self, prob: f64, max_delay: Duration) -> Self {
        self.delay_prob = prob;
        self.max_delay = max_delay;
        self
    }

    /// Arms recoverable backend-error injection.
    #[must_use]
    pub fn with_errors(mut self, prob: f64) -> Self {
        self.error_prob = prob;
        self
    }

    /// Arms panic injection.
    #[must_use]
    pub fn with_panics(mut self, prob: f64) -> Self {
        self.panic_prob = prob;
        self
    }

    /// Derives an independent sub-stream for job `stream` (same mixing as
    /// `rsqp_arch::FaultConfig::derive`): one master seed fans out into
    /// decorrelated but individually reproducible per-job schedules.
    #[must_use]
    pub fn derive(&self, stream: u64) -> Self {
        ChaosPlan { seed: mix(self.seed, stream), ..*self }
    }

    /// Wraps a backend in this plan's fault injector.
    pub fn wrap(&self, inner: Box<dyn KktBackend>) -> Box<dyn KktBackend> {
        Box::new(ChaosBackend {
            name: format!("chaos({})", inner.name()),
            inner,
            rng: SplitMix64 { state: self.seed },
            plan: *self,
            calls: 0,
        })
    }
}

/// SplitMix64 finalizer over (seed ⊕ golden-ratio·stream).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state, 0)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A [`KktBackend`] decorator injecting scheduled faults before delegating.
struct ChaosBackend {
    name: String,
    inner: Box<dyn KktBackend>,
    rng: SplitMix64,
    plan: ChaosPlan,
    calls: u64,
}

impl KktBackend for ChaosBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.inner.update_rho(rho)
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
        self.calls += 1;
        // Draw all three verdicts unconditionally so the schedule for call
        // k does not depend on which probabilities are armed.
        let delay_roll = self.rng.next_f64();
        let error_roll = self.rng.next_f64();
        let panic_roll = self.rng.next_f64();
        if delay_roll < self.plan.delay_prob && !self.plan.max_delay.is_zero() {
            let frac = self.rng.next_f64();
            std::thread::sleep(self.plan.max_delay.mul_f64(frac));
        }
        if panic_roll < self.plan.panic_prob {
            panic!("chaos: injected panic at KKT solve #{}", self.calls);
        }
        if error_roll < self.plan.error_prob {
            return Err(SolverError::Backend(format!(
                "chaos: injected fault at KKT solve #{}",
                self.calls
            )));
        }
        self.inner.solve_kkt(x, z, y, q, xtilde, ztilde)
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.inner.update_matrices(p, a, rho)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_solver::DirectLdltBackend;

    fn tiny_backend() -> Box<dyn KktBackend> {
        let p = CsrMatrix::identity(1);
        let a = CsrMatrix::identity(1);
        Box::new(DirectLdltBackend::new(&p, &a, 1e-6, &[0.1]).unwrap())
    }

    fn solve_once(backend: &mut dyn KktBackend) -> Result<(), SolverError> {
        let mut xt = [0.0];
        let mut zt = [0.0];
        backend.solve_kkt(&[0.0], &[0.0], &[0.0], &[1.0], &mut xt, &mut zt)
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut b = ChaosPlan::new(1).wrap(tiny_backend());
        assert!(b.name().starts_with("chaos("));
        for _ in 0..50 {
            solve_once(b.as_mut()).unwrap();
        }
        assert_eq!(b.stats().kkt_solves, 50);
    }

    #[test]
    fn error_injection_is_deterministic_and_recoverable() {
        let run = || {
            let mut b = ChaosPlan::new(7).with_errors(0.3).wrap(tiny_backend());
            (0..40).map(|_| solve_once(b.as_mut()).is_err()).collect::<Vec<_>>()
        };
        let pattern = run();
        assert_eq!(pattern, run(), "same seed, same schedule");
        assert!(pattern.iter().any(|&e| e), "some calls fail");
        assert!(pattern.iter().any(|&e| !e), "some calls succeed");
        // The injected error must be one the guard may recover from.
        let mut b = ChaosPlan::new(7).with_errors(1.0).wrap(tiny_backend());
        let err = solve_once(b.as_mut()).unwrap_err();
        assert!(err.is_recoverable());
    }

    #[test]
    fn panic_injection_panics() {
        let mut b = ChaosPlan::new(3).with_panics(1.0).wrap(tiny_backend());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = solve_once(b.as_mut());
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn derive_decorrelates_jobs() {
        let plan = ChaosPlan::new(42).with_errors(0.5);
        assert_ne!(plan.derive(0).seed, plan.derive(1).seed);
        assert_eq!(plan.derive(5), plan.derive(5));
        assert_eq!(plan.derive(1).error_prob, 0.5);
    }
}
