//! The match score η of §3.6 and the machine's cycle count are one
//! quantity: the customization report's per-matrix cycles and CVB addresses
//! are the schedule and layout the machine charges, and the PCG kernel's
//! per-trip SpMV and duplication cycles are their sum plus fixed latencies.

use rsqp_arch::kernels::build_pcg;
use rsqp_arch::{ArchConfig, Machine, MatrixId};
use rsqp_core::customize;
use rsqp_problems::{small_suite, BenchmarkProblem, Domain};
use rsqp_solver::QpProblem;
use rsqp_sparse::CsrMatrix;

/// The first small-suite instance of every domain.
fn one_per_domain() -> Vec<BenchmarkProblem> {
    small_suite(1).into_iter().filter(|b| b.index == 0).collect()
}

/// Registers `P`, `A` and `Aᵀ` on a machine under `config`.
fn load(qp: &QpProblem, at: &CsrMatrix, config: &ArchConfig) -> (Machine, [MatrixId; 3]) {
    let mut machine = Machine::new(config.clone());
    let ids = [qp.p(), qp.a(), at].map(|m| machine.add_matrix(m));
    (machine, ids)
}

#[test]
fn eta_columns_are_the_machines_schedules_and_layouts() {
    let suite = one_per_domain();
    assert_eq!(suite.len(), Domain::all().len());
    for bp in &suite {
        let qp = &bp.problem;
        let at = qp.a().transpose();
        for c in [8, 16, 32] {
            let r = customize(qp, c, 4);
            let (custom, ids) = load(qp, &at, &r.config);
            let (baseline, base_ids) = load(qp, &at, &r.baseline);
            for (k, mc) in r.matrices.iter().enumerate() {
                let what = format!("{} {} at C = {c}", qp.name(), mc.name);
                assert_eq!(mc.cycles_custom, custom.schedule_of(ids[k]).cycles(), "{what}");
                assert_eq!(mc.cvb_addresses, custom.layout_of(ids[k]).num_addresses(), "{what}");
                assert_eq!(
                    mc.cycles_baseline,
                    baseline.schedule_of(base_ids[k]).cycles(),
                    "{what}"
                );
                // C·(SpMV + duplication cycles) is η's realized work.
                let real_work = mc.nnz as f64 + mc.ep.1 as f64 + mc.ec.1 * mc.l as f64;
                assert_eq!((c * (mc.cycles_custom + mc.cvb_addresses)) as f64, real_work, "{what}");
            }
        }
    }
}

/// Runs the PCG kernel once at tolerance `eps` from zero and returns its
/// loop trips and SpMV and duplication cycles.
fn pcg_run(qp: &QpProblem, at: &CsrMatrix, config: &ArchConfig, eps: f64) -> [u64; 3] {
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let (mut machine, [p, a, at]) = load(qp, at, config);
    let k = build_pcg(&mut machine, p, a, at, n, m, 5000);
    machine.write_vec(k.minv, &vec![1.0; n]);
    machine.write_vec(k.rho_vec, &vec![0.1; m]);
    machine.write_vec(k.z, &vec![0.2; m]);
    machine.write_vec(k.y, &vec![-0.1; m]);
    machine.write_vec(k.q, &(0..n).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>());
    machine.write_scalar(k.sigma, 1e-6);
    machine.write_scalar(k.eps, eps);
    let run = machine.run(&k.program).unwrap();
    [run.loop_trips, run.breakdown.spmv, run.breakdown.duplication]
}

#[test]
fn pcg_trip_cycles_are_the_sum_of_the_maps() {
    for domain in [Domain::Control, Domain::Svm, Domain::Huber] {
        let bp = one_per_domain().into_iter().find(|b| b.domain == domain).unwrap();
        let qp = &bp.problem;
        let at = qp.a().transpose();
        let r = customize(qp, 16, 4);
        let cost = r.config.cost();
        let spmv: u64 = r.matrices.iter().map(|m| cost.spmv_latency + m.cycles_custom as u64).sum();
        let dup: u64 = r.matrices.iter().map(|m| cost.dup_latency + m.cvb_addresses as u64).sum();

        let [t1, s1, d1] = pcg_run(qp, &at, &r.config, 1e-2);
        let [t2, s2, d2] = pcg_run(qp, &at, &r.config, 1e-8);
        assert!(t2 > t1, "{domain}: the tighter solve must take more trips ({t1} vs {t2})");
        let trips = t2 - t1;
        assert_eq!(s2 - s1, trips * spmv, "{domain}: SpMV cycles per trip");
        assert_eq!(d2 - d1, trips * dup, "{domain}: duplication cycles per trip");
    }
}
