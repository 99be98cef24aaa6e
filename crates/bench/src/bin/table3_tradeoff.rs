//! Table 3: trade-off between performance and resources across
//! microarchitectural design points, on the svm instance with ≈20 616
//! non-zeros (the paper's case study).
//!
//! For every candidate architecture the harness reports the modeled f_max,
//! the match-score improvement Δη, the achieved SpMV throughput (one full
//! reduced-KKT operator evaluation: P, A, and Aᵀ streamed once), and the
//! DSP/FF/LUT estimates. An extra column shows the cycle count under the
//! optimal DP scheduler — the ablation `DESIGN.md` calls out.

use rsqp_arch::{ArchConfig, ResourceModel};
use rsqp_bench::{results_path, HarnessOptions};
use rsqp_core::report::{fmt_f, Table};
use rsqp_core::{customize, customize_with_config};
use rsqp_encode::{dp_schedule, Alphabet, SparsityString, StructureSet};
use rsqp_problems::{generate, Domain};

/// The paper's 11 design points (Table 3), as `(C, notation)`.
const DESIGN_POINTS: &[(usize, &str)] = &[
    (16, "1e"),
    (16, "16a1e"),
    (32, "32a4d1f"),
    (16, "16a2d1e"),
    (64, "64a4e1g"),
    (32, "4d1f"),
    (32, "32a4d2e1f"),
    (32, "4d2e1f"),
    (32, "16b4d1f"),
    (64, "4e1g"),
    (64, "8d4e1g"),
];

fn main() {
    let opts = HarnessOptions::from_args();
    // svm with ~20.6k nnz: feature count 110 lands closest.
    let qp = generate(Domain::Svm, 110, opts.seed);
    println!("Table 3: design points on {} (nnz(P)+nnz(A) = {})\n", qp.name(), qp.total_nnz());

    let model = ResourceModel;
    let at = qp.a().transpose();
    let mut t = Table::new([
        "architecture",
        "fmax_mhz",
        "delta_eta",
        "spmv_per_us",
        "dp_cycles_saved_pct",
        "dsp",
        "ff",
        "lut",
    ]);
    for &(c, notation) in DESIGN_POINTS {
        let set = StructureSet::parse(notation, Alphabet::new(c));
        let est = model.estimate(&set);
        // One reduced-KKT operator evaluation streams P, A, Aᵀ once.
        let dp_cycles: usize = [qp.p(), qp.a(), &at]
            .into_iter()
            .map(|m| dp_schedule(&SparsityString::encode(m, c), &set).cycles())
            .sum();
        let r = customize_with_config(&qp, ArchConfig::new(set));
        let greedy_cycles: usize = r.matrices.iter().map(|m| m.cycles_custom).sum();
        let spmv_per_us = est.fmax_mhz / greedy_cycles as f64;
        let dp_saving = 100.0 * (greedy_cycles - dp_cycles) as f64 / greedy_cycles as f64;
        t.push([
            format!("{c}{{{notation}}}"),
            format!("{:.0}", est.fmax_mhz),
            fmt_f(r.eta_custom - r.eta_baseline),
            fmt_f(spmv_per_us),
            format!("{dp_saving:.1}"),
            est.dsp.to_string(),
            est.ff.to_string(),
            est.lut.to_string(),
        ]);
    }
    println!("{}", t.to_text());

    // What does our own search pick for this problem at each width?
    println!("structure sets chosen by the LZW search:");
    for c in [16, 32, 64] {
        let r = customize(&qp, c, opts.s_target);
        println!("  C = {c}: {} (delta eta {:.3})", r.notation(), r.eta_improvement());
    }
    let path = results_path("table3_tradeoff.csv");
    t.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
