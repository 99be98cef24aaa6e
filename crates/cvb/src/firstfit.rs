//! First-Fit solution of the CVB compression problem (Eq. 5).

use crate::AccessMatrix;

/// A compressed CVB memory layout: each accessed vector element is assigned
/// an address such that elements sharing an address are read by disjoint
/// lane sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvbLayout {
    c: usize,
    l: usize,
    addr_of: Vec<Option<u32>>,
    num_addresses: usize,
}

impl CvbLayout {
    /// The uncompressed baseline: every element stored at its own address in
    /// every bank (`C` full copies, `E_c = C`).
    pub fn full_duplication(v: &AccessMatrix) -> Self {
        CvbLayout {
            c: v.c(),
            l: v.len(),
            addr_of: (0..v.len()).map(|j| Some(j as u32)).collect(),
            num_addresses: v.len(),
        }
    }

    /// Number of compressed addresses (= vector-update cycles per
    /// duplication instruction).
    pub fn num_addresses(&self) -> usize {
        self.num_addresses
    }

    /// Address of element `j` (`None` when no lane ever reads it, so it is
    /// not stored in the CVB at all — the gray entries of Figure 3).
    pub fn addr_of(&self, j: usize) -> Option<u32> {
        self.addr_of[j]
    }

    /// The extra-copy factor `E_c = num_addresses·C/L` of the match-score
    /// formula (§3.6): full duplication gives `C`, the ideal single copy
    /// gives 1.
    pub fn ec(&self) -> f64 {
        if self.l == 0 {
            1.0
        } else {
            self.num_addresses as f64 * self.c as f64 / self.l as f64
        }
    }

    /// Cycles the vector-duplication instruction needs per update.
    pub fn update_cycles(&self) -> usize {
        self.num_addresses
    }

    /// Checks the layout against the access matrix: every accessed element
    /// has an address, and no two elements sharing an address are read by a
    /// common lane.
    pub fn verify(&self, v: &AccessMatrix) -> bool {
        if v.len() != self.l || v.c() != self.c {
            return false;
        }
        let mut used: Vec<u128> = vec![0; self.num_addresses];
        for j in 0..self.l {
            match (self.addr_of[j], v.mask(j)) {
                (None, 0) => {}
                (None, _) => return false,
                (Some(a), m) => {
                    let a = a as usize;
                    if a >= self.num_addresses {
                        return false;
                    }
                    if used[a] & m != 0 {
                        return false;
                    }
                    used[a] |= m;
                }
            }
        }
        true
    }

    /// The bank contents: `banks[k][addr] = Some(j)` when bank `k` serves
    /// element `j` at `addr` — the data behind the paper's index-translation
    /// module.
    pub fn bank_contents(&self, v: &AccessMatrix) -> Vec<Vec<Option<usize>>> {
        let mut banks = vec![vec![None; self.num_addresses]; self.c];
        for j in 0..self.l {
            if let Some(a) = self.addr_of[j] {
                let mut bits = v.mask(j);
                while bits != 0 {
                    let k = bits.trailing_zeros() as usize;
                    banks[k][a as usize] = Some(j);
                    bits &= bits - 1;
                }
            }
        }
        banks
    }
}

/// First-Fit assignment: elements are processed in decreasing lane-count
/// order (heaviest first, the classic first-fit-decreasing refinement) and
/// placed at the lowest address whose accumulated lane mask is disjoint.
pub fn first_fit(v: &AccessMatrix) -> CvbLayout {
    let l = v.len();
    let mut order: Vec<usize> = (0..l).filter(|&j| v.mask(j) != 0).collect();
    order.sort_by_key(|&j| std::cmp::Reverse((v.mask(j).count_ones(), std::cmp::Reverse(j))));
    let mut addr_masks: Vec<u128> = Vec::new();
    let mut addr_of: Vec<Option<u32>> = vec![None; l];
    for j in order {
        let m = v.mask(j);
        let slot = addr_masks.iter().position(|&am| am & m == 0);
        let a = match slot {
            Some(a) => a,
            None => {
                addr_masks.push(0);
                addr_masks.len() - 1
            }
        };
        addr_masks[a] |= m;
        addr_of[j] = Some(a as u32);
    }
    CvbLayout { c: v.c(), l, addr_of, num_addresses: addr_masks.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_lanes_share_one_address() {
        let v = AccessMatrix::from_masks(4, vec![0b0001, 0b0010, 0b0100, 0b1000]);
        let layout = first_fit(&v);
        assert_eq!(layout.num_addresses(), 1);
        assert!(layout.verify(&v));
        assert_eq!(layout.ec(), 1.0);
    }

    #[test]
    fn conflicting_lanes_need_separate_addresses() {
        let v = AccessMatrix::from_masks(4, vec![0b0001, 0b0001, 0b0001]);
        let layout = first_fit(&v);
        assert_eq!(layout.num_addresses(), 3);
        assert!(layout.verify(&v));
    }

    #[test]
    fn unaccessed_elements_get_no_address() {
        let v = AccessMatrix::from_masks(4, vec![0b0001, 0, 0b0010]);
        let layout = first_fit(&v);
        assert_eq!(layout.addr_of(1), None);
        assert_eq!(layout.num_addresses(), 1);
        assert!(layout.verify(&v));
    }

    #[test]
    fn never_exceeds_full_duplication() {
        let masks: Vec<u128> = (0..40).map(|j| ((j * 37 + 11) % 16) as u128 | 1).collect();
        let v = AccessMatrix::from_masks(4, masks);
        let ff = first_fit(&v);
        let full = CvbLayout::full_duplication(&v);
        assert!(ff.num_addresses() <= full.num_addresses());
        assert!(ff.verify(&v));
        assert!((full.ec() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn respects_lower_bound() {
        let masks: Vec<u128> = vec![0b11, 0b01, 0b10, 0b11, 0b01];
        let v = AccessMatrix::from_masks(2, masks);
        let ff = first_fit(&v);
        assert!(ff.num_addresses() >= v.min_addresses_bound());
        assert!(ff.verify(&v));
    }

    #[test]
    fn bank_contents_match_translation() {
        let v = AccessMatrix::from_masks(2, vec![0b11, 0b01, 0b10]);
        let layout = first_fit(&v);
        let banks = layout.bank_contents(&v);
        assert_eq!(banks.len(), 2);
        // Every accessed (element, lane) pair must be served.
        for j in 0..3 {
            let mut bits = v.mask(j);
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                let a = layout.addr_of(j).unwrap() as usize;
                assert_eq!(banks[k][a], Some(j));
                bits &= bits - 1;
            }
        }
    }

    #[test]
    fn verify_rejects_corrupt_layouts() {
        let v = AccessMatrix::from_masks(2, vec![0b01, 0b01]);
        let mut layout = first_fit(&v);
        assert!(layout.verify(&v));
        // Force both elements to address 0: lane conflict.
        layout.addr_of = vec![Some(0), Some(0)];
        layout.num_addresses = 1;
        assert!(!layout.verify(&v));
    }

    #[test]
    fn empty_vector_is_trivial() {
        let v = AccessMatrix::from_masks(4, vec![]);
        let layout = first_fit(&v);
        assert_eq!(layout.num_addresses(), 0);
        assert_eq!(layout.ec(), 1.0);
        assert!(layout.verify(&v));
    }
}
