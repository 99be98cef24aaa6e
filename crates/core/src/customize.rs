//! The problem-specific customization pipeline (§4, Figure 6).
//!
//! ```text
//! problem structure ──► sparsity string encoding (P, A, Aᵀ)
//!                   ──► E_p optimization: LZW search for S  (Eq. 4)
//!                   ──► E_c optimization: First-Fit CVB compression (Eq. 5)
//!                   ──► ArchConfig + η report (+ HLS snippets via rsqp-arch)
//! ```

use rsqp_arch::{ArchConfig, DatapathMap, ResourceEstimate, ResourceModel};
use rsqp_encode::{greedy_schedule, search_structures, SparsityString};
use rsqp_solver::QpProblem;
use rsqp_sparse::CsrMatrix;

use crate::eta::{eta, EtaParts};

/// Customization outcome for one matrix of the SpMV workload.
#[derive(Debug, Clone)]
pub struct MatrixCustomization {
    /// Which matrix (`"P"`, `"A"`, `"At"`).
    pub name: &'static str,
    /// Non-zeros.
    pub nnz: usize,
    /// Input-vector length.
    pub l: usize,
    /// Scheduled SpMV cycles under the baseline set.
    pub cycles_baseline: usize,
    /// Scheduled SpMV cycles under the customized set.
    pub cycles_custom: usize,
    /// `E_p` under baseline / custom.
    pub ep: (usize, usize),
    /// `E_c` under baseline / custom.
    pub ec: (f64, f64),
    /// CVB addresses under the customized layout.
    pub cvb_addresses: usize,
}

/// Result of the customization pipeline for one problem.
#[derive(Debug, Clone)]
pub struct CustomizationResult {
    /// The customized architecture configuration.
    pub config: ArchConfig,
    /// The baseline configuration at the same width.
    pub baseline: ArchConfig,
    /// Aggregate match score of the baseline architecture.
    pub eta_baseline: f64,
    /// Aggregate match score after customization.
    pub eta_custom: f64,
    /// Per-matrix details.
    pub matrices: Vec<MatrixCustomization>,
    /// Resource estimate of the customized design.
    pub resources: ResourceEstimate,
    /// Resource estimate of the baseline design.
    pub baseline_resources: ResourceEstimate,
}

impl CustomizationResult {
    /// Improvement of the match score, `Δη` (the y-axis of Figure 9).
    pub fn eta_improvement(&self) -> f64 {
        self.eta_custom - self.eta_baseline
    }

    /// The notation string of the chosen structure set (e.g. `64{8d4e1g}`).
    pub fn notation(&self) -> String {
        self.config.set().to_string()
    }
}

/// Runs the full pipeline: string encoding of `P`, `A`, `Aᵀ`, structure
/// search with `|S| ≤ s_target`, CVB compression, η scoring.
pub fn customize(problem: &QpProblem, c: usize, s_target: usize) -> CustomizationResult {
    let at = problem.a().transpose();
    // Mine the structure set over the concatenated workload string.
    let sp = SparsityString::encode(problem.p(), c);
    let sa = SparsityString::encode(problem.a(), c);
    let sat = SparsityString::encode(&at, c);
    let combined = SparsityString::concat(&[&sp, &sa, &sat]);
    let set = search_structures(&combined, s_target);
    score(problem, &at, ArchConfig::new(set))
}

/// Scores a *given* architecture configuration against a problem (used by
/// the Table 3 harness to evaluate hand-picked design points).
pub fn customize_with_config(problem: &QpProblem, config: ArchConfig) -> CustomizationResult {
    score(problem, &problem.a().transpose(), config)
}

/// Maps `P`, `A` and `at = Aᵀ` onto `config` and its baseline and scores
/// both.
fn score(problem: &QpProblem, at: &CsrMatrix, config: ArchConfig) -> CustomizationResult {
    let base_cfg = ArchConfig::baseline(config.c());
    let mut matrices = Vec::new();
    let mut base_parts = Vec::new();
    let mut custom_parts = Vec::new();
    for (name, m) in [("P", problem.p()), ("A", problem.a()), ("At", at)] {
        let (mc, bp, cp) = analyze_matrix(name, m, &base_cfg, &config);
        base_parts.push(bp);
        custom_parts.push(cp);
        matrices.push(mc);
    }

    let model = ResourceModel;
    CustomizationResult {
        eta_baseline: eta(&base_parts),
        eta_custom: eta(&custom_parts),
        resources: model.estimate(config.set()),
        baseline_resources: model.estimate(base_cfg.set()),
        baseline: base_cfg,
        config,
        matrices,
    }
}

fn analyze_matrix(
    name: &'static str,
    m: &CsrMatrix,
    base_cfg: &ArchConfig,
    config: &ArchConfig,
) -> (MatrixCustomization, EtaParts, EtaParts) {
    let l = m.ncols();
    // The customized column is the machine's own map of `m`.
    let map = DatapathMap::new(m, config);
    let (custom_sched, layout) = (map.schedule(), map.layout());
    // The baseline CVB holds C full copies (E_c = C), so only its schedule
    // is needed.
    let base_sched = greedy_schedule(map.string(), base_cfg.set());
    let ec_base = base_cfg.c() as f64;
    let ec_custom = layout.ec();

    let bp = EtaParts { nnz: m.nnz(), l, ep: base_sched.ep(), ec: ec_base };
    let cp = EtaParts { nnz: m.nnz(), l, ep: custom_sched.ep(), ec: ec_custom };
    let mc = MatrixCustomization {
        name,
        nnz: m.nnz(),
        l,
        cycles_baseline: base_sched.cycles(),
        cycles_custom: custom_sched.cycles(),
        ep: (base_sched.ep(), custom_sched.ep()),
        ec: (ec_base, ec_custom),
        cvb_addresses: layout.num_addresses(),
    };
    (mc, bp, cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_problems::{generate, Domain};

    #[test]
    fn customization_improves_eta_on_structured_problems() {
        for domain in [Domain::Control, Domain::Svm, Domain::Lasso, Domain::Portfolio] {
            let qp = generate(domain, 3, 1);
            let r = customize(&qp, 16, 4);
            assert!(
                r.eta_custom > r.eta_baseline,
                "{domain}: {} vs {}",
                r.eta_custom,
                r.eta_baseline
            );
            assert!(r.eta_custom <= 1.0 + 1e-12);
            assert!(r.eta_baseline > 0.0);
        }
    }

    #[test]
    fn eqqp_improves_least() {
        // Figure 9: the eqqp class benefits least from customization.
        let structured = customize(&generate(Domain::Svm, 4, 1), 16, 4);
        let eqqp = customize(&generate(Domain::Eqqp, 40, 1), 16, 4);
        assert!(structured.eta_improvement() > eqqp.eta_improvement());
    }

    #[test]
    fn result_reports_per_matrix_details() {
        let qp = generate(Domain::Svm, 3, 1);
        let r = customize(&qp, 16, 4);
        assert_eq!(r.matrices.len(), 3);
        let names: Vec<_> = r.matrices.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["P", "A", "At"]);
        for m in &r.matrices {
            assert!(m.cycles_custom <= m.cycles_baseline);
            assert!(m.ec.1 <= m.ec.0);
        }
        assert!(r.notation().starts_with("16{"));
    }

    #[test]
    fn custom_design_uses_more_area() {
        let qp = generate(Domain::Svm, 3, 1);
        let r = customize(&qp, 16, 4);
        assert!(r.resources.ff >= r.baseline_resources.ff);
        assert!(r.resources.lut >= r.baseline_resources.lut);
        assert_eq!(r.resources.dsp, r.baseline_resources.dsp);
    }

    #[test]
    fn scoring_a_given_config_works() {
        use rsqp_encode::{Alphabet, StructureSet};
        let qp = generate(Domain::Svm, 3, 1);
        let cfg = ArchConfig::new(StructureSet::parse("16a1e", Alphabet::new(16)));
        let r = customize_with_config(&qp, cfg);
        assert!(r.eta_custom >= r.eta_baseline);
    }
}
