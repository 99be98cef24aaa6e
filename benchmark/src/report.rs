//! Run outcome: counts, metrics, exactness ledger and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Solves or session steps attempted.
    pub attempted: u64,
    /// Attempts that were not `Solved` or failed an answer check.
    pub failed: u64,
    /// Why each failure or exactness violation happened.
    pub faults: Vec<String>,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Set when a deterministic count differed between repeats.
    pub self_check_failed: bool,
    /// Ratios that left their band: reported, but the run stays correct,
    /// because host slow phases move them without any output changing.
    pub warnings: Vec<String>,
}

impl Outcome {
    /// Counts one failed attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.faults.push(why);
    }

    /// Records a failed self-check; the run is then not correct.
    pub fn check_failed(&mut self, why: String) {
        self.self_check_failed = true;
        self.faults.push(why);
    }

    /// Adds a ratio metric that should lie in `band`, with a warning if not.
    pub fn banded(&mut self, name: &'static str, value: f64, band: (f64, f64)) {
        if !(band.0..=band.1).contains(&value) {
            self.warnings.push(format!("{name} {value:.3} outside [{}, {}]", band.0, band.1));
        }
        self.metric(name, value, "ratio");
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when nothing failed and every count repeated exactly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.self_check_failed && self.attempted > 0
    }

    /// The final JSON line.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() { metric.value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Deterministic counts keyed by a label (instance or step), which every
/// repeat of one seed must reproduce bit for bit.
#[derive(Debug, Default)]
pub struct Exactness {
    first: Vec<(String, Vec<(&'static str, u64)>)>,
}

impl Exactness {
    /// Records `counts` for `label`, or compares them with the first record.
    pub fn check(&mut self, label: &str, counts: Vec<(&'static str, u64)>, out: &mut Outcome) {
        match self.first.iter().find(|(l, _)| l == label) {
            None => self.first.push((label.to_string(), counts)),
            Some((_, first)) if *first == counts => {}
            Some((_, first)) => {
                out.check_failed(format!("{label}: counts {counts:?} differ from {first:?}"));
            }
        }
    }
}

/// Best (smallest) of repeated timings of the same work; 0 for none.
/// Interference on a shared host only ever adds time, and it comes and
/// goes within seconds, so the best repeat is the steadiest estimate of
/// what the work itself costs.
pub fn best(v: &[f64]) -> f64 {
    v.iter().copied().filter(|x| !x.is_nan()).reduce(f64::min).unwrap_or(0.0)
}

/// Median (mean of the middle pair for even lengths); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile; 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(best(&[3.0, f64::NAN, 2.0]), 2.0);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn exactness_flags_a_changed_count() {
        let mut out = Outcome { attempted: 1, ..Default::default() };
        let mut ex = Exactness::default();
        ex.check("a", vec![("iters", 3)], &mut out);
        ex.check("a", vec![("iters", 3)], &mut out);
        assert!(out.correct());
        ex.check("a", vec![("iters", 4)], &mut out);
        assert!(!out.correct());
    }

    #[test]
    fn a_ratio_outside_its_band_warns() {
        let mut out = Outcome { attempted: 1, ..Default::default() };
        out.banded("closure.setup", 0.95, (0.8, 1.25));
        assert!(out.warnings.is_empty());
        out.banded("closure.setup", 0.5, (0.8, 1.25));
        assert_eq!(out.warnings.len(), 1);
        assert!(out.correct(), "timing ratios never fail a run");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome { attempted: 2, ..Default::default() };
        out.metric("setup_s", 0.25, "s");
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
