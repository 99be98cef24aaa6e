//! Pins every output of the customization pipeline bit for bit.
//!
//! Runs [`customize`] on `suite_with_sizes(1, 6)` at `C ∈ {8, 16, 32, 64}`
//! and `|S| ∈ {2, 4, 5}`, and folds into one FNV-1a digest the chosen set's
//! notation, the bits of `η_baseline` and `η_custom`, and every matrix's
//! cycles, `E_p`, `E_c` and CVB addresses. A change to the structure search,
//! the scheduler, the LZW miner or the CVB packing that moves any of them
//! changes the digest.

use rsqp_core::customize;
use rsqp_problems::suite_with_sizes;

/// 64-bit FNV-1a over a stream of words and strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[test]
fn customization_outputs_are_as_recorded() {
    // Recorded with the quadratic greedy scheduler and the HashMap LZW.
    let mut h = Fnv::new();
    let mut cases = 0;
    for bp in suite_with_sizes(1, 6) {
        for c in [8, 16, 32, 64] {
            for s_target in [2, 4, 5] {
                let r = customize(&bp.problem, c, s_target);
                h.text(&r.notation());
                h.word(r.eta_baseline.to_bits());
                h.word(r.eta_custom.to_bits());
                for m in &r.matrices {
                    h.text(m.name);
                    for w in [m.cycles_baseline, m.cycles_custom, m.ep.0, m.ep.1, m.cvb_addresses] {
                        h.word(w as u64);
                    }
                    h.word(m.ec.0.to_bits());
                    h.word(m.ec.1.to_bits());
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 432);
    assert_eq!(h.0, 0xfec5_6ecc_6bbf_3885, "digest {:#018x}", h.0);
}
