//! Ablation: fill-in and factorization cost of the direct KKT solver under
//! natural, RCM, and approximate-minimum-degree (AMD) orderings — the
//! design choice behind the CPU baseline's LDLT performance (DESIGN.md
//! substitution table). AMD's own time sits next to the factorization time
//! it buys, each the best of 5 runs.
//!
//! The instances are the end-to-end benchmark's one-shot ones: the largest
//! suite instance of each domain, portfolio capped at 30 factors. `--seed`
//! picks the generator seed.

use rsqp_bench::{results_path, HarnessOptions};
use rsqp_core::report::Table;
use rsqp_linsys::{amd_ordering, rcm_ordering, KktMatrix, Ldlt, SymmetricPermutation};
use rsqp_problems::{generate, Domain};
use std::time::Instant;

/// Size of the one-shot instance of `domain`.
fn oneshot_size(domain: Domain) -> usize {
    match domain {
        Domain::Portfolio => 30,
        _ => *domain.size_schedule(20).last().expect("a non-empty schedule"),
    }
}

/// Best wall time of 5 runs of `f`, in milliseconds, and its last result.
fn best_of_5<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("ran at least once"))
}

fn main() {
    let opts = HarnessOptions::from_args();
    let mut t = Table::new([
        "app",
        "kkt_dim",
        "kkt_nnz",
        "lnnz_natural",
        "lnnz_rcm",
        "lnnz_amd",
        "order_ms_amd",
        "factor_ms_amd",
    ]);
    println!("Ablation: LDLT fill-in by ordering\n");
    for domain in Domain::all() {
        let size = oneshot_size(domain);
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
        let (order_ms, perm) = best_of_5(|| amd_ordering(kkt.matrix()).unwrap());
        let sp = SymmetricPermutation::new(kkt.matrix(), perm).unwrap();
        let (factor_ms, f) = best_of_5(|| Ldlt::factor(sp.matrix()).expect("quasi-definite"));
        t.push([
            domain.name().to_string(),
            dim.to_string(),
            kkt.matrix().nnz().to_string(),
            natural.to_string(),
            rcm.to_string(),
            f.l_nnz().to_string(),
            format!("{order_ms:.2}"),
            format!("{factor_ms:.2}"),
        ]);
    }
    println!("{}", t.to_text());
    let path = results_path("ablation_ordering.csv");
    t.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
