//! Ablation: fill-in and factorization cost of the direct KKT solver under
//! natural, RCM, and approximate-minimum-degree (AMD) orderings — the
//! design choice behind the CPU baseline's LDLT performance (DESIGN.md
//! substitution table).

use rsqp_bench::{results_path, HarnessOptions};
use rsqp_core::report::Table;
use rsqp_linsys::{amd_ordering, rcm_ordering, KktMatrix, Ldlt, SymmetricPermutation};
use rsqp_problems::{generate, Domain};
use std::time::Instant;

fn main() {
    let opts = HarnessOptions::from_args();
    let mut t = Table::new([
        "app",
        "kkt_dim",
        "kkt_nnz",
        "lnnz_natural",
        "lnnz_rcm",
        "lnnz_amd",
        "factor_ms_amd",
    ]);
    println!("Ablation: LDLT fill-in by ordering\n");
    for domain in Domain::all() {
        let size = domain.size_schedule(20)[opts.points.min(10)];
        let qp = generate(domain, size, opts.seed);
        let rho = vec![0.1; qp.num_constraints()];
        let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).expect("valid");
        let dim = qp.num_vars() + qp.num_constraints();

        let natural = Ldlt::factor(kkt.matrix()).expect("quasi-definite").l_nnz();
        let rcm = {
            let sp = SymmetricPermutation::new(kkt.matrix(), rcm_ordering(kkt.matrix()).unwrap())
                .unwrap();
            Ldlt::factor(sp.matrix()).expect("quasi-definite").l_nnz()
        };
        let (amd, ms) = {
            let sp = SymmetricPermutation::new(kkt.matrix(), amd_ordering(kkt.matrix()).unwrap())
                .unwrap();
            let t0 = Instant::now();
            let f = Ldlt::factor(sp.matrix()).expect("quasi-definite");
            (f.l_nnz(), t0.elapsed().as_secs_f64() * 1e3)
        };
        t.push([
            domain.name().to_string(),
            dim.to_string(),
            kkt.matrix().nnz().to_string(),
            natural.to_string(),
            rcm.to_string(),
            amd.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    println!("{}", t.to_text());
    let path = results_path("ablation_ordering.csv");
    t.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
