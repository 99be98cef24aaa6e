//! The bits of `L`, `D` and one solve after a factor and a refactor, on
//! three suite instances: the KKT matrix under AMD (the direct backend's
//! factor) and the reduced `K` (the factor PCG's exact solve applies). A
//! change of summation order in the factorization, the refactor, the
//! forming of `K` or the sweeps moves them.

use rsqp_linsys::{amd_ordering, KktFactor, KktMatrix, Ldlt, SymmetricPermutation};
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

/// The same for the reduced `K = P + σI + Aᵀ diag(ρ) A`.
fn reduced_digests(p: &CsrMatrix, a: &CsrMatrix, l: &[f64], u: &[f64]) -> [[u64; 3]; 2] {
    let at = a.transpose();
    let mut f = KktFactor::new(p.nrows(), 1e-6);
    f.prepare(p, a, &at, &rho_of(l, u, 0.1)).unwrap();
    let first = factor_digest(f.ldlt().unwrap());
    f.refresh();
    f.prepare(p, a, &at, &rho_of(l, u, 1.7)).unwrap();
    [first, factor_digest(f.ldlt().unwrap())]
}

#[test]
fn factor_and_refactor_keep_their_bits() {
    // Per instance: [KKT, reduced K] × [factor, refactor] × [L, D, x].
    #[rustfmt::skip]
    let want: [[[[u64; 3]; 2]; 2]; 3] = [
        [[[0xa3af416b057188d2, 0xfb4a59a4d521ed41, 0x5ac122910c9159b7],
          [0x5b5d7f3b1f29b64c, 0xbab238f83631f635, 0xf96a1a2c3c61843f]],
         [[0xe9cd32fafb3a699c, 0x57535d91f15b2461, 0x0f803c9121d6f519],
          [0xfb713e64f52cf358, 0x49f49124d18f0751, 0x6b7f3890031e080f]]],
        [[[0x81992d6407938209, 0x2ef6838c0f9eead7, 0xc11b7a6b114cb90e],
          [0xf99343328caac78a, 0x633d1d645442c612, 0xf6845f0bf36804b6]],
         [[0x0c9f9be788d90208, 0x4c20638410853685, 0x31082a02c8def4a3],
          [0xee5e6edf15f66677, 0x493000c595a150fd, 0x869160561863077f]]],
        [[[0xc089e30217d842c4, 0xcd6d9317799daac1, 0xc3fbb06eb4b1a8de],
          [0x1d646e7291c3c6c3, 0x241b500cdf475a0b, 0x2542b33a2c186dbb]],
         [[0x62e7dbe40e378a5d, 0x20ee5467fa198532, 0x1c068ecbac300ef9],
          [0x56f911704453e3c4, 0x9c2334df6d10ba6a, 0x17a5957b51cec596]]],
    ];
    let instances = [(Domain::Control, 20), (Domain::Eqqp, 100), (Domain::Svm, 20)];
    for ((domain, size), want) in instances.into_iter().zip(&want) {
        let qp = generate(domain, size, 1);
        let (p, a, l, u) = (qp.p(), qp.a(), qp.l(), qp.u());
        let got = [kkt_digests(p, a, l, u), reduced_digests(p, a, l, u)];
        assert_eq!(&got, want, "{}", qp.name());
    }
}
