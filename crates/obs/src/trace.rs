//! The machine-readable record of one solve.

use crate::json::JsonWriter;
use crate::span::SpanRecord;

/// Everything observed about a single ADMM iteration.
///
/// Residual fields are `NaN` on iterations where the solver did not run a
/// termination check (they are only computed every
/// `Settings::check_termination` iterations); JSON export turns those
/// into `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTrace {
    /// 1-based ADMM iteration number.
    pub iter: u64,
    /// Wall-clock nanoseconds inside the KKT backend this iteration.
    pub kkt_ns: u64,
    /// Base step size ρ̄ in effect after this iteration.
    pub rho_bar: f64,
    /// Unscaled primal residual (NaN when no check ran this iteration).
    pub prim_res: f64,
    /// Unscaled dual residual (NaN when no check ran this iteration).
    pub dual_res: f64,
}

/// A discrete solver event (ρ update, guard recovery, backend fallback,
/// polish outcome) anchored to the iteration it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// ADMM iteration the event occurred at (0 for pre-loop events).
    pub iter: u64,
    /// Event class, e.g. `"rho_update"`, `"guard_recovery"`,
    /// `"backend_fallback"`, `"polish"`.
    pub kind: String,
    /// Human- and machine-readable detail string.
    pub detail: String,
}

/// The full telemetry record of one [`Solver::solve`] call: identity,
/// timed phase spans, per-iteration records, and discrete events.
///
/// Produced by the solver when `Settings::trace` is enabled and carried
/// on `SolveResult::trace`; when tracing is disabled none of this is
/// allocated (the hot path stays allocation-free).
///
/// [`Solver::solve`]: ../rsqp_solver/struct.Solver.html#method.solve
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTrace {
    /// Problem name (from `QpProblem::name`).
    pub problem: String,
    /// Number of decision variables.
    pub n: usize,
    /// Number of constraints.
    pub m: usize,
    /// Name of the KKT backend that finished the solve (the guard ladder
    /// may have replaced the one the solve started with).
    pub backend: String,
    /// Terminal status, as its display string.
    pub status: String,
    /// ADMM iterations performed.
    pub iterations: u64,
    /// Timed phase spans (setup → scaling → solve → polish; per-iteration
    /// KKT timing lives in [`IterationTrace::kkt_ns`], which is cheaper
    /// than one span object per iteration).
    pub spans: Vec<SpanRecord>,
    /// One record per ADMM iteration, in order.
    pub records: Vec<IterationTrace>,
    /// Discrete events, in occurrence order.
    pub events: Vec<TraceEvent>,
}

impl SolveTrace {
    /// The records where a termination check ran (finite residuals).
    pub fn checked_records(&self) -> impl Iterator<Item = &IterationTrace> {
        self.records.iter().filter(|r| r.prim_res.is_finite())
    }

    /// Full JSON export, including wall-clock spans and per-iteration
    /// KKT timings.
    pub fn to_json(&self) -> String {
        self.write_json(true)
    }

    /// Deterministic JSON subset for golden-file tests: identical runs
    /// produce byte-identical output. Excludes every wall-clock quantity.
    pub fn golden_json(&self) -> String {
        self.write_json(false)
    }

    fn write_json(&self, with_timings: bool) -> String {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.string("problem", &self.problem);
        w.u64("n", self.n as u64);
        w.u64("m", self.m as u64);
        w.string("backend", &self.backend);
        w.string("status", &self.status);
        w.u64("iterations", self.iterations);
        if with_timings {
            w.begin_array(Some("spans"));
            for span in &self.spans {
                span.write_json(&mut w);
            }
            w.end_array();
        }
        w.begin_array(Some("records"));
        for r in &self.records {
            w.begin_object(None);
            w.u64("iter", r.iter);
            if with_timings {
                w.u64("kkt_ns", r.kkt_ns);
            }
            w.f64("rho_bar", r.rho_bar);
            w.f64("prim_res", r.prim_res);
            w.f64("dual_res", r.dual_res);
            w.end_object();
        }
        w.end_array();
        w.begin_array(Some("events"));
        for e in &self.events {
            w.begin_object(None);
            w.u64("iter", e.iter);
            w.string("kind", &e.kind);
            w.string("detail", &e.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut doc = w.finish();
        doc.push('\n');
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolveTrace {
        SolveTrace {
            problem: "control_2".into(),
            n: 4,
            m: 6,
            backend: "cpu-pcg".into(),
            status: "solved".into(),
            iterations: 2,
            spans: vec![SpanRecord { name: "solve".into(), depth: 0, start_ns: 0, end_ns: 10 }],
            records: vec![
                IterationTrace {
                    iter: 1,
                    kkt_ns: 5,
                    rho_bar: 0.1,
                    prim_res: f64::NAN,
                    dual_res: f64::NAN,
                },
                IterationTrace { iter: 2, kkt_ns: 4, rho_bar: 0.1, prim_res: 1e-5, dual_res: 2e-5 },
            ],
            events: vec![TraceEvent { iter: 2, kind: "rho_update".into(), detail: "0.2".into() }],
        }
    }

    #[test]
    fn golden_json_excludes_timings() {
        let t = sample();
        let golden = t.golden_json();
        assert!(!golden.contains("kkt_ns"));
        assert!(!golden.contains("spans"));
        assert!(golden.contains("\"prim_res\":null"), "NaN must serialize as null: {golden}");
        assert!(golden.contains("\"rho_update\""));
        let full = t.to_json();
        assert!(full.contains("kkt_ns"));
        assert!(full.contains("\"spans\""));
    }

    #[test]
    fn derived_summaries() {
        let t = sample();
        assert_eq!(t.checked_records().count(), 1);
    }

    #[test]
    fn identical_traces_serialize_identically() {
        assert_eq!(sample().golden_json(), sample().golden_json());
    }
}
