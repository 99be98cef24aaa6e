//! Structure-set search under a size budget (Eq. 4).
//!
//! Candidates come from two sources:
//!
//! * the LZW dictionary phrases (heterogeneous patterns like `ca`),
//! * the homogeneous full-width runs `k·letter` with `k·width = C` (the
//!   shapes appearing in the paper's Table 3, e.g. `16a`, `4d`, `2e`),
//!
//! and are greedily added to the fallback-only set while the *measured*
//! scheduled cycle count keeps improving, up to `|S|_target` structures.

use crate::schedule::Greedy;
use crate::{Alphabet, LzwDictionary, MacStructure, SparsityString, StructureSet};

/// Cap on how many characters of the string the search evaluates schedules
/// on (a prefix sample keeps the search fast on 10⁶-nnz problems; the final
/// schedule still runs on the full string).
const SEARCH_SAMPLE: usize = 60_000;
/// Cap on LZW candidates scored per search.
const LZW_CANDIDATES: usize = 24;

/// The baseline architecture's structure set: a single full-width
/// single-output MAC tree (and `C` full vector copies on the CVB side).
pub fn baseline_set(alphabet: Alphabet) -> StructureSet {
    StructureSet::baseline(alphabet)
}

/// Searches a structure set with at most `s_target` structures (fallback
/// included) for the given string, using LZW mining plus homogeneous-run
/// candidates and greedy forward selection on measured cycle counts.
pub fn search_structures(s: &SparsityString, s_target: usize) -> StructureSet {
    search_structures_with_candidates(s, s_target, LZW_CANDIDATES)
}

/// [`search_structures`] with an explicit cap on scored LZW candidates.
pub fn search_structures_with_candidates(
    s: &SparsityString,
    s_target: usize,
    lzw_limit: usize,
) -> StructureSet {
    let alphabet = s.alphabet();
    let sample = &s.chars()[..s.len().min(SEARCH_SAMPLE)];

    // Candidate pool.
    let mut pool: Vec<MacStructure> = Vec::new();
    // Homogeneous runs: k copies of each letter with k*width == C.
    for idx in 0..alphabet.num_letters() {
        let letter = b'a' + idx as u8;
        let width = alphabet.width(letter);
        let k = alphabet.c() / width;
        if k >= 2 {
            pool.push(MacStructure::new(&vec![letter; k], alphabet));
        }
    }
    // LZW phrases.
    let dict = LzwDictionary::build(sample);
    for (phrase, _savings) in dict.candidates(alphabet, lzw_limit) {
        let st = MacStructure::new(&phrase, alphabet);
        if !pool.contains(&st) {
            pool.push(st);
        }
    }

    // Greedy forward selection on measured (greedy-scheduled) cycles, the
    // sample's width masks built once for every trial.
    let mut greedy = Greedy::new(sample, alphabet);
    let mut chosen: Vec<MacStructure> = Vec::new();
    let mut best_cycles = greedy.cycles(&StructureSet::new(alphabet, chosen.clone()));
    while chosen.len() + 1 < s_target {
        let mut best: Option<(usize, usize)> = None; // (pool idx, cycles)
        for (i, cand) in pool.iter().enumerate() {
            if chosen.contains(cand) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(cand.clone());
            let cycles = greedy.cycles(&StructureSet::new(alphabet, trial));
            if cycles < best_cycles && best.is_none_or(|(_, bc)| cycles < bc) {
                best = Some((i, cycles));
            }
        }
        match best {
            Some((i, cycles)) => {
                chosen.push(pool[i].clone());
                best_cycles = cycles;
            }
            None => break,
        }
    }
    StructureSet::new(alphabet, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dp_schedule, greedy_schedule};
    use rsqp_sparse::CsrMatrix;

    fn string_of(rows: &[usize], c: usize) -> SparsityString {
        let mut t = Vec::new();
        for (i, &nnz) in rows.iter().enumerate() {
            for j in 0..nnz {
                t.push((i, j, 1.0));
            }
        }
        SparsityString::encode(&CsrMatrix::from_triplets(rows.len(), 256, t), c)
    }

    #[test]
    fn search_finds_the_obvious_structure() {
        // A string of single-nnz rows: the all-'a' structure is the winner.
        let s = string_of(&vec![1; 64], 8);
        let set = search_structures(&s, 3);
        let cycles = greedy_schedule(&s, &set).cycles();
        assert_eq!(cycles, 8, "set {set}");
    }

    #[test]
    fn search_respects_target_size() {
        let mut rows = Vec::new();
        for i in 0..200 {
            rows.push(match i % 4 {
                0 => 1,
                1 => 2,
                2 => 4,
                _ => 8,
            });
        }
        let s = string_of(&rows, 8);
        for target in [1, 2, 3, 4] {
            let set = search_structures(&s, target);
            assert!(set.len() <= target.max(1), "|S|={} target={target}", set.len());
        }
    }

    #[test]
    fn customization_improves_over_baseline() {
        let mut rows = Vec::new();
        for _ in 0..100 {
            rows.extend_from_slice(&[2, 2, 1, 1]);
        }
        let s = string_of(&rows, 16);
        let base = greedy_schedule(&s, &baseline_set(s.alphabet()));
        let set = search_structures(&s, 4);
        let custom = greedy_schedule(&s, &set);
        assert!(
            custom.cycles() * 3 < base.cycles(),
            "custom {} vs base {}",
            custom.cycles(),
            base.cycles()
        );
        assert!(custom.ep() < base.ep());
    }

    #[test]
    fn dp_schedule_validates_search_result() {
        let rows: Vec<usize> = (0..300).map(|i| 1 + (i % 3)).collect();
        let s = string_of(&rows, 8);
        let set = search_structures(&s, 4);
        let d = dp_schedule(&s, &set);
        assert!(d.is_complete());
        assert!(d.cycles() <= greedy_schedule(&s, &set).cycles());
    }

    #[test]
    fn degenerate_target_returns_baseline() {
        let s = string_of(&[1, 2, 3], 4);
        let set = search_structures(&s, 1);
        assert_eq!(set.len(), 1);
    }
}
