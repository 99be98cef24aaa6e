//! Pins the machine's functional results and cycle accounting bit for bit.
//!
//! Runs the PCG kernel of Algorithm 2 on small fixed problems, and the KKT
//! solve through a resident factor of the KKT matrix on a small control
//! problem and a small portfolio, under four architecture configurations — the baseline, a
//! customized (First-Fit) design, single-precision emulation, and an armed
//! fault injector with both HBM-read and MAC-output flips — and compares
//! an FNV-1a digest of the returned `x̃`/`z̃` bits and of every
//! [`RunStats`] field against recorded values. Any change to the order of
//! floating-point operations, to the cycle model or to the fault stream
//! changes a digest.

use rsqp_arch::kernels::{build_kkt_solve, build_pcg};
use rsqp_arch::{
    ArchConfig, FactorRef, FaultConfig, Instr, Machine, Program, ProgramBuilder, RunStats, VecId,
};
use rsqp_encode::{search_structures, SparsityString};
use rsqp_linsys::{KktLdlt, ReducedKktOp};
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

/// A program that loads each of `inputs` from HBM and stores it back.
fn round_trip(inputs: &[VecId]) -> Program {
    let mut pb = ProgramBuilder::new();
    for &vec in inputs {
        pb.push(Instr::LoadHbm { vec });
        pb.push(Instr::StoreHbm { vec });
    }
    pb.build().unwrap()
}

/// Runs an HBM round trip of the kernel inputs followed by the Jacobi PCG
/// kernel, twice (the second solve warm-started from the first with a new
/// `q`), and digests everything the machine produced.
fn digest(domain: Domain, size: usize, variant: Variant) -> u64 {
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
    let op = ReducedKktOp::new(&p, &a, sigma, &rho).unwrap();
    let k = build_pcg(&mut machine, pid, aid, atid, n, m, 400);
    machine.write_vec(k.rho_vec, &rho);
    machine.write_vec(k.minv, op.inv_diag());
    machine.write_vec(k.x, &wave(n, 0.0, 0.5));
    machine.write_vec(k.z, &wave(m, 1.0, 0.3));
    machine.write_vec(k.y, &wave(m, 2.0, 0.2));
    machine.write_scalar(k.sigma, sigma);
    machine.write_scalar(k.eps, 1e-7);
    let transfer = round_trip(&[k.x, k.z, k.y, k.q, k.rho_vec, k.minv]);

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

/// The same for the KKT solve through the factor of the KKT matrix under
/// AMD, formed on the host by `rsqp_linsys` and loaded into the machine.
fn kkt_digest(domain: Domain, size: usize, variant: Variant) -> u64 {
    let qp = generate(domain, size, 3);
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (p.nrows(), a.nrows());
    let mut machine = Machine::new(config(variant, p, a, &a.transpose()));
    let rho: Vec<f64> = (0..m).map(|i| 0.1 * (1 + i % 3) as f64).collect();
    let mut f = KktLdlt::with_amd(p, a, 1e-6, &rho).unwrap();
    f.refactor().unwrap();
    let ldlt = f.ldlt();
    let (l_colptr, l_rowidx, l_data) = ldlt.l();
    let id = machine.add_factor(n + m);
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
    let k = build_kkt_solve(&mut machine, n, m, id);
    machine.write_vec(k.rho_inv, f.kkt().rho_inv());
    machine.write_vec(k.x, &wave(n, 0.0, 0.5));
    machine.write_vec(k.z, &wave(m, 1.0, 0.3));
    machine.write_vec(k.y, &wave(m, 2.0, 0.2));
    machine.write_scalar(k.sigma, 1e-6);
    let transfer = round_trip(&[k.x, k.z, k.y, k.q, k.rho_inv]);

    let mut h = Fnv::new();
    for (round, phase) in [(0u64, 3.0), (1, 4.0)] {
        machine.write_vec(k.q, &wave(n, phase, 1.0));
        h.word(round);
        h.stats(&machine.run(&transfer).unwrap());
        h.stats(&machine.run(&k.program).unwrap());
        let solution = machine.read_vec(k.xtilde).to_vec();
        h.floats(&solution);
        h.floats(machine.read_vec(k.ztilde));
        machine.write_vec(k.x, &solution);
    }
    h.stats(&machine.stats());
    if let Variant::Faulty = variant {
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

/// The KKT solve through the factor on control_0002 and portfolio_0002:
/// `[baseline, customized, single precision, faulty]`. The program runs no
/// SpMV, so the customized design charges the baseline's cycles.
const KKT: [(Domain, usize, [u64; 4]); 2] = [
    (
        Domain::Control,
        2,
        [
            0x1fc0_e0b7_256d_1c8d,
            0x1fc0_e0b7_256d_1c8d,
            0x1f11_d4f1_7762_4f67,
            0x3f61_79f9_f959_cacf,
        ],
    ),
    (
        Domain::Portfolio,
        2,
        [
            0x1de4_f67b_553c_ba94,
            0x1de4_f67b_553c_ba94,
            0xee09_6178_978f_75f6,
            0xa8b1_c649_f835_dd17,
        ],
    ),
];

const VARIANTS: [Variant; 4] =
    [Variant::Baseline, Variant::Customized, Variant::SinglePrecision, Variant::Faulty];

#[test]
fn kkt_solve_results_and_stats_are_bit_identical() {
    let mut mismatches = Vec::new();
    for (domain, size, want) in KKT {
        for (variant, want) in VARIANTS.into_iter().zip(want) {
            let got = kkt_digest(domain, size, variant);
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
fn pcg_kernel_results_and_stats_are_bit_identical() {
    let mut mismatches = Vec::new();
    for (domain, size, want) in PINNED {
        for (variant, want) in VARIANTS.into_iter().zip(want) {
            let got = digest(domain, size, variant);
            if got != want {
                mismatches.push(format!(
                    "{domain:?}_{size} {variant:?}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}
