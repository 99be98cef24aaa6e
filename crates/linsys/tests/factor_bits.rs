//! The bits of `L`, `D` and one solve after a factor and a refactor of the
//! KKT matrix under AMD, on three suite instances, and the same bits from
//! [`KktLdlt`], the factor every backend solves through, after a ρ update
//! and after a value update. A change of summation order in the assembly,
//! the factorization, the refactor or the sweeps moves them.

use rsqp_linsys::{amd_ordering, KktLdlt, KktMatrix, Ldlt, SymmetricPermutation};
use rsqp_problems::{generate, Domain};
use rsqp_sparse::CsrMatrix;

/// FNV-1a over the bits of every value, in order.
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// `L`'s values, `D` and the solve of a fixed right-hand side, digested.
fn factor_digest(f: &Ldlt) -> [u64; 3] {
    let b: Vec<f64> = (0..f.dim()).map(|i| (i as f64 * 0.61).sin()).collect();
    let x = f.solve(&b).unwrap();
    [digest(f.l().2), digest(f.d()), digest(&x)]
}

/// OSQP's ρ: `100ρ̄` on equality rows, `ρ̄` elsewhere.
fn rho_of(l: &[f64], u: &[f64], rho_bar: f64) -> Vec<f64> {
    l.iter().zip(u).map(|(l, u)| if l == u { 100.0 * rho_bar } else { rho_bar }).collect()
}

/// Factor, digest, refactor for a new ρ, digest: the KKT matrix under AMD.
fn kkt_digests(p: &CsrMatrix, a: &CsrMatrix, l: &[f64], u: &[f64]) -> [[u64; 3]; 2] {
    let mut kkt = KktMatrix::assemble(p, a, 1e-6, &rho_of(l, u, 0.1)).unwrap();
    let perm = amd_ordering(kkt.matrix()).unwrap();
    let mut permuted = SymmetricPermutation::new(kkt.matrix(), perm).unwrap();
    let mut f = Ldlt::factor(permuted.matrix()).unwrap();
    let first = factor_digest(&f);
    kkt.update_rho(&rho_of(l, u, 1.7)).unwrap();
    permuted.refresh_values(kkt.matrix()).unwrap();
    f.refactor(permuted.matrix()).unwrap();
    [first, factor_digest(&f)]
}

/// The same through [`KktLdlt`]: formed at ρ̄ = 0.1, refactored for ρ̄ =
/// 1.7.
fn kkt_ldlt_digests(p: &CsrMatrix, a: &CsrMatrix, l: &[f64], u: &[f64]) -> [[u64; 3]; 2] {
    let mut f = KktLdlt::with_amd(p, a, 1e-6, &rho_of(l, u, 0.1)).unwrap();
    f.refactor().unwrap();
    let first = factor_digest(f.ldlt());
    f.update_rho(&rho_of(l, u, 1.7)).unwrap();
    f.refactor().unwrap();
    [first, factor_digest(f.ldlt())]
}

#[test]
fn factor_and_refactor_keep_their_bits() {
    // Per instance: [factor, refactor] × [L, D, x].
    #[rustfmt::skip]
    let want: [[[u64; 3]; 2]; 3] = [
        [[0xa3af416b057188d2, 0xfb4a59a4d521ed41, 0x5ac122910c9159b7],
         [0x5b5d7f3b1f29b64c, 0xbab238f83631f635, 0xf96a1a2c3c61843f]],
        [[0x81992d6407938209, 0x2ef6838c0f9eead7, 0xc11b7a6b114cb90e],
         [0xf99343328caac78a, 0x633d1d645442c612, 0xf6845f0bf36804b6]],
        [[0xc089e30217d842c4, 0xcd6d9317799daac1, 0xc3fbb06eb4b1a8de],
         [0x1d646e7291c3c6c3, 0x241b500cdf475a0b, 0x2542b33a2c186dbb]],
    ];
    let instances = [(Domain::Control, 20), (Domain::Eqqp, 100), (Domain::Svm, 20)];
    for ((domain, size), want) in instances.into_iter().zip(&want) {
        let qp = generate(domain, size, 1);
        let (p, a, l, u) = (qp.p(), qp.a(), qp.l(), qp.u());
        assert_eq!(&kkt_digests(p, a, l, u), want, "{}", qp.name());
        assert_eq!(&kkt_ldlt_digests(p, a, l, u), want, "{}: KktLdlt", qp.name());
    }
}

#[test]
fn a_value_update_refactors_to_the_bits_of_a_fresh_factor() {
    for (domain, size) in [(Domain::Control, 20), (Domain::Portfolio, 5), (Domain::Huber, 19)] {
        let qp = generate(domain, size, 1);
        let (l, u) = (qp.l(), qp.u());
        let rho = rho_of(l, u, 0.1);
        let (p2, a2) = (qp.p().map_values(|v| 2.0 * v), qp.a().map_values(|v| 0.5 * v));
        let factor = |p: &CsrMatrix, a: &CsrMatrix| {
            let mut f = KktLdlt::with_amd(p, a, 1e-6, &rho).unwrap();
            f.refactor().unwrap();
            f
        };
        let mut updated = factor(qp.p(), qp.a());
        updated.update_values(&p2, &a2, &rho).unwrap();
        updated.refactor().unwrap();
        let fresh = factor(&p2, &a2);
        assert_eq!(factor_digest(updated.ldlt()), factor_digest(fresh.ldlt()), "{}", qp.name());
    }
}
