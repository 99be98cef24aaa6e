//! Pins the machine's functional results and cycle accounting bit for bit.
//!
//! Runs the PCG kernel of Algorithm 2 on small fixed problems, the direct
//! solve through a resident factor of `K` on a small control problem, and
//! the augmented dense-row solve on a small portfolio, under four
//! architecture configurations — the baseline, a
//! customized (First-Fit) design, single-precision emulation, and an armed
//! fault injector with both HBM-read and MAC-output flips — and compares
//! an FNV-1a digest of the returned `x̃`/`z̃` bits and of every
//! [`RunStats`] field against recorded values. Any change to the order of
//! floating-point operations, to the cycle model or to the fault stream
//! changes a digest.

use rsqp_arch::kernels::{build_pcg, AugmentedRows, Correction, DenseRowCorrection};
use rsqp_arch::{
    ArchConfig, FactorRef, FaultConfig, Instr, Machine, ProgramBuilder, RunStats, VecId,
};
use rsqp_encode::{search_structures, SparsityString};
use rsqp_linsys::{KktPrecond, ReducedKktOp};
use rsqp_problems::{generate, Domain};
use rsqp_sparse::CsrMatrix;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    fn stats(&mut self, s: &RunStats) {
        let b = &s.breakdown;
        for w in [
            s.cycles,
            b.spmv,
            b.vector,
            b.duplication,
            b.scalar,
            b.transfer,
            b.control,
            s.instructions,
            s.loop_trips,
            s.hbm_bytes,
            s.faults,
        ] {
            self.word(w);
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Variant {
    Baseline,
    Customized,
    SinglePrecision,
    Faulty,
}

fn config(variant: Variant, p: &CsrMatrix, a: &CsrMatrix, at: &CsrMatrix) -> ArchConfig {
    let c = 8;
    match variant {
        Variant::Baseline => ArchConfig::baseline(c),
        Variant::Customized => {
            let strings = [p, a, at].map(|m| SparsityString::encode(m, c));
            let combined = SparsityString::concat(&[&strings[0], &strings[1], &strings[2]]);
            ArchConfig::new(search_structures(&combined, 4))
        }
        Variant::SinglePrecision => ArchConfig::baseline(c).with_single_precision(true),
        Variant::Faulty => ArchConfig::baseline(c).with_fault_injection(Some(
            FaultConfig::new(11).with_hbm_read_flips(0.3).with_mac_output_flips(0.05),
        )),
    }
}

fn wave(len: usize, phase: f64, amp: f64) -> Vec<f64> {
    (0..len).map(|i| amp * ((i as f64) * 0.61 + phase).sin()).collect()
}

/// The KKT-solve kernel a digest runs.
#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    /// The Jacobi PCG loop.
    Jacobi,
    /// The direct solve through the factor of `K` that `rsqp_linsys` forms
    /// on the host.
    Factored,
    /// The augmented dense-row solve over `rsqp_linsys`'s dense-row
    /// correction.
    Augmented,
}

/// Runs an HBM round trip of the kernel inputs followed by the KKT-solve
/// kernel, twice (the second solve warm-started from the first with a new
/// `q`), and digests everything the machine produced.
fn digest(domain: Domain, size: usize, variant: Variant, kernel: Kernel) -> u64 {
    let qp = generate(domain, size, 3);
    let (p, a) = (qp.p().clone(), qp.a().clone());
    let at = a.transpose();
    let (n, m) = (p.nrows(), a.nrows());
    let mut machine = Machine::new(config(variant, &p, &a, &at));
    let pid = machine.add_matrix(&p);
    let aid = machine.add_matrix(&a);
    let atid = machine.add_matrix(&at);

    let sigma = 1e-6;
    let rho: Vec<f64> = (0..m).map(|i| 0.1 * (1 + i % 3) as f64).collect();
    let mut op = ReducedKktOp::new(&p, &a, sigma, &rho).unwrap();
    let mut dense_row_minv = None;
    let correction = match kernel {
        Kernel::Jacobi => None,
        Kernel::Augmented => {
            let KktPrecond::Rows(pre) = op.preconditioner() else {
                panic!("{domain:?}_{size} has dense rows");
            };
            assert!(pre.is_exact(), "{domain:?}_{size}: K_R is diagonal");
            let rows = pre.dense_rows();
            let k = rows.len();
            let e_s =
                CsrMatrix::from_raw_parts(k, m, (0..=k).collect(), rows.to_vec(), vec![1.0; k])
                    .unwrap();
            let mut b = e_s.transpose();
            b.data_mut().copy_from_slice(pre.rho_s_inv());
            let (mask, rho_inv) = (machine.alloc_vec(m), machine.alloc_vec(m));
            machine.write_vec(mask, pre.mask());
            machine.write_vec(rho_inv, &rho.iter().map(|r| 1.0 / r).collect::<Vec<_>>());
            dense_row_minv = Some(pre.inv_diag().to_vec());
            Some(Correction::Rows(DenseRowCorrection {
                a_s: machine.add_matrix(pre.a_s()),
                cinv: machine.add_matrix(pre.cinv()),
                a_st: machine.add_matrix(&pre.a_s().transpose()),
                augmented: Some(AugmentedRows {
                    e_s: machine.add_matrix(&e_s),
                    b: machine.add_matrix(&b),
                    mask,
                    rho_inv,
                }),
            }))
        }
        Kernel::Factored => {
            op.prepare().unwrap();
            let KktPrecond::Factor(f) = op.preconditioner() else {
                panic!("{domain:?}_{size} takes the factor of K");
            };
            let ldlt = f.ldlt().unwrap();
            let (l_colptr, l_rowidx, l_data) = ldlt.l();
            let id = machine.add_factor(n);
            machine.load_factor(
                id,
                FactorRef {
                    perm: f.perm().unwrap(),
                    l_colptr,
                    l_rowidx,
                    l_data,
                    dinv: ldlt.dinv(),
                    etree_height: ldlt.etree_height(),
                },
            );
            Some(Correction::Factor(id))
        }
    };
    let k = build_pcg(&mut machine, pid, aid, atid, n, m, 400, correction);
    let mut diag = p.diagonal();
    for d in &mut diag {
        *d += sigma;
    }
    for i in 0..m {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            diag[j] += rho[i] * v * v;
        }
    }
    let minv = dense_row_minv
        .unwrap_or_else(|| diag.iter().map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 }).collect());
    machine.write_vec(k.rho_vec, &rho);
    machine.write_vec(k.minv, &minv);
    machine.write_vec(k.x, &wave(n, 0.0, 0.5));
    machine.write_vec(k.z, &wave(m, 1.0, 0.3));
    machine.write_vec(k.y, &wave(m, 2.0, 0.2));
    machine.write_scalar(k.sigma, sigma);
    machine.write_scalar(k.eps, 1e-7);

    let inputs: [VecId; 6] = [k.x, k.z, k.y, k.q, k.rho_vec, k.minv];
    let mut pb = ProgramBuilder::new();
    for vec in inputs {
        pb.push(Instr::LoadHbm { vec });
        pb.push(Instr::StoreHbm { vec });
    }
    let transfer = pb.build().unwrap();

    let mut h = Fnv::new();
    for (round, phase) in [(0u64, 3.0), (1, 4.0)] {
        machine.write_vec(k.q, &wave(n, phase, 1.0));
        h.word(round);
        h.stats(&machine.run(&transfer).unwrap());
        // PCG starts from the transferred iterate.
        let x0 = machine.read_vec(k.x).to_vec();
        machine.write_vec(k.xtilde, &x0);
        h.stats(&machine.run(&k.program).unwrap());
        let solution = machine.read_vec(k.xtilde).to_vec();
        h.floats(&solution);
        h.floats(machine.read_vec(k.ztilde));
        // The next round's iterate is this solution.
        machine.write_vec(k.x, &solution);
    }
    h.stats(&machine.stats());
    if let Variant::Faulty = variant {
        // The pin covers the fault stream only if faults fire.
        assert!(machine.stats().faults > 0, "{domain:?}: no fault fired");
    }
    h.0
}

/// `(domain, size, [baseline, customized, single precision, faulty])`.
const PINNED: [(Domain, usize, [u64; 4]); 3] = [
    (
        Domain::Control,
        2,
        [
            0x8125_20a4_b2d9_7603,
            0x04fa_f641_15d4_2fbe,
            0x60d5_e2e4_7956_233d,
            0xaf03_4b0e_75ad_a530,
        ],
    ),
    (
        Domain::Portfolio,
        1,
        [
            0x087a_fe92_795d_d9dc,
            0xa5f0_88d7_4616_12b4,
            0xd138_3501_207c_9185,
            0xb5e6_ad57_2cc7_844e,
        ],
    ),
    (
        Domain::Svm,
        2,
        [
            0x3300_c3e8_7a49_8cd6,
            0x690f_7dfd_464d_39da,
            0x55cb_bf80_a70b_dd2f,
            0x23e0_98a3_0303_c7d5,
        ],
    ),
];

/// The factored direct solve on control_0002:
/// `[baseline, customized, single precision, faulty]`.
const FACTORED: [u64; 4] =
    [0xd1f8_0a12_c389_73b9, 0x659f_2c14_8b85_42b2, 0xcdb3_15f3_4f2d_fbfb, 0x18cc_be1a_6c9b_d3d0];

/// The augmented dense-row solve on portfolio_0002:
/// `[baseline, customized, single precision, faulty]`.
const AUGMENTED: [u64; 4] =
    [0xb481_1257_a542_f9b0, 0x8aeb_f68e_fe09_f196, 0x767c_749e_4d68_5e8e, 0x5b1b_cbb0_6147_aef4];

const VARIANTS: [Variant; 4] =
    [Variant::Baseline, Variant::Customized, Variant::SinglePrecision, Variant::Faulty];

#[test]
fn factored_direct_solve_results_and_stats_are_bit_identical() {
    let mut mismatches = Vec::new();
    for (variant, want) in VARIANTS.into_iter().zip(FACTORED) {
        let got = digest(Domain::Control, 2, variant, Kernel::Factored);
        if got != want {
            mismatches.push(format!("{variant:?}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn pcg_kernel_results_and_stats_are_bit_identical() {
    let mut mismatches = Vec::new();
    for (domain, size, want) in PINNED {
        for (variant, want) in VARIANTS.into_iter().zip(want) {
            let got = digest(domain, size, variant, Kernel::Jacobi);
            if got != want {
                mismatches.push(format!(
                    "{domain:?}_{size} {variant:?}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn augmented_dense_row_solve_results_and_stats_are_bit_identical() {
    let mut mismatches = Vec::new();
    for (variant, want) in VARIANTS.into_iter().zip(AUGMENTED) {
        let got = digest(Domain::Portfolio, 2, variant, Kernel::Augmented);
        if got != want {
            mismatches.push(format!("{variant:?}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}
