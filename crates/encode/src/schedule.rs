//! Scheduling row strings onto a structure set (§4.2).
//!
//! Given a sparsity string and a structure set `S`, a *schedule* assigns
//! every character (row chunk) to a slot of some structure firing, such that
//! each firing consumes a contiguous run of characters, one per slot, each
//! fitting its slot width. The number of firings is the number of clock
//! cycles the SpMV engine needs for the value stream, and
//! `E_p = C·cycles − nnz` is the zero-padding overhead of Eq. (4).
//!
//! Two schedulers are provided:
//!
//! * [`greedy_schedule`] — the paper's method: iterated string replacement,
//!   longest structure first, each structure also matching all narrower
//!   character combinations (the `ba|ab|aa` regular expression step);
//! * [`dp_schedule`] — an exact dynamic program over the same matching
//!   semantics (our ablation; never worse than greedy).

use crate::{Alphabet, SparsityString, StructureSet};

/// One firing of one structure: `len` consecutive characters starting at
/// `pos` consumed in a single cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledPack {
    /// Index of the structure in the set.
    pub structure: usize,
    /// First character position consumed.
    pub pos: usize,
    /// Number of characters consumed (= the structure's slot count).
    pub len: usize,
}

/// A complete schedule of a sparsity string onto a structure set.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    c: usize,
    nnz: usize,
    string_len: usize,
    packs: Vec<ScheduledPack>,
}

impl Schedule {
    /// Number of clock cycles (structure firings).
    pub fn cycles(&self) -> usize {
        self.packs.len()
    }

    /// The firings in string order.
    pub fn packs(&self) -> &[ScheduledPack] {
        &self.packs
    }

    /// Zero-padding overhead `E_p = C·cycles − nnz`.
    pub fn ep(&self) -> usize {
        self.c * self.cycles() - self.nnz
    }

    /// Datapath width the schedule was built for.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Total non-zeros covered.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Verifies the schedule covers every character exactly once.
    pub fn is_complete(&self) -> bool {
        let mut covered = vec![false; self.string_len];
        for p in &self.packs {
            for i in p.pos..p.pos + p.len {
                if i >= self.string_len || covered[i] {
                    return false;
                }
                covered[i] = true;
            }
        }
        covered.iter().all(|&c| c)
    }
}

/// The paper's greedy replacement scheduler.
///
/// Structures are tried longest-first; each scans left-to-right and claims
/// every contiguous, still-unclaimed run it dominates. The full-width
/// fallback guarantees completeness.
///
/// One word-parallel pass per structure finds the same claims, in time
/// linear in the string length (see the crate docs).
pub fn greedy_schedule(s: &SparsityString, set: &StructureSet) -> Schedule {
    let alphabet = s.alphabet();
    assert_eq!(alphabet, set.alphabet(), "string and structure set use different alphabets");
    let n = s.len();
    let mut greedy = Greedy::new(s.chars(), alphabet);
    let mut owner = Owners { starts: vec![0; greedy.free.len()], of: vec![0; n] };
    let cycles = greedy.run(set, Some(&mut owner));
    let mut packs = Vec::with_capacity(cycles);
    for_each_bit(&owner.starts, |pos| {
        let structure = owner.of[pos] as usize;
        packs.push(ScheduledPack { structure, pos, len: set.structures()[structure].num_slots() });
    });
    Schedule { c: alphabet.c(), nnz: s.nnz(), string_len: n, packs }
}

/// The greedy scheduler over one string, by bitsets.
///
/// Bit `i` of `fits[k]` is set when character `i` has width ≤ `2^k`, so a
/// slot of width `2^k` accepts exactly the characters of `fits[k]`. A
/// structure with slot classes `k₀ … k_{L−1}` can fire at `i` when every
/// character of `i..i + L` is unclaimed and fits its slot: bit `i` of
/// `AND_j (free ∧ fits[k_j]) >> j`. The paper's left-to-right replacement
/// claims the leftmost such start, skips past its run and repeats; runs it
/// claimed earlier in the same pass lie wholly before the scan, so the
/// claims are the leftmost non-overlapping set bits of that one mask,
/// computed once before the pass. A single-slot structure claims every
/// fitting character it meets, so its claims are the mask itself and its
/// firings are its popcount — the full-width fallback's are the popcount
/// of whatever is still free.
///
/// The masks are built once per string; [`crate::search_structures`]
/// reuses them for every trial set it measures.
#[derive(Debug, Clone)]
pub(crate) struct Greedy {
    fits: Vec<Vec<u64>>,
    /// Unclaimed characters.
    free: Vec<u64>,
    /// Starts where the current structure can fire.
    starts: Vec<u64>,
    /// Scratch for one group of equal slot classes.
    group: Vec<u64>,
}

/// Where each firing of a recorded schedule starts, and its structure.
struct Owners {
    starts: Vec<u64>,
    of: Vec<u32>,
}

impl Greedy {
    /// Builds the width-class masks of `chars`.
    ///
    /// # Panics
    ///
    /// Panics if a character lies outside `alphabet` (see
    /// [`Alphabet::width`]).
    pub(crate) fn new(chars: &[u8], alphabet: Alphabet) -> Self {
        let words = chars.len().div_ceil(64);
        let classes = alphabet.num_letters();
        let mut fits = vec![vec![0u64; words]; classes];
        for (i, &ch) in chars.iter().enumerate() {
            fits[alphabet.width(ch).trailing_zeros() as usize][i / 64] |= 1 << (i % 64);
        }
        // A character of width ≤ 2^k also fits every wider slot.
        for k in 1..classes {
            let (narrower, wider) = fits.split_at_mut(k);
            for (w, &v) in wider[0].iter_mut().zip(&narrower[k - 1]) {
                *w |= v;
            }
        }
        let all = fits[classes - 1].clone();
        Greedy { fits, free: all, starts: vec![0; words], group: vec![0; words] }
    }

    /// The number of firings (cycles) of the greedy schedule under `set`.
    pub(crate) fn cycles(&mut self, set: &StructureSet) -> usize {
        self.run(set, None)
    }

    /// Runs the greedy replacement under `set`, returns the number of
    /// firings, and records each firing's start and structure in `owners`
    /// when given.
    fn run(&mut self, set: &StructureSet, mut owners: Option<&mut Owners>) -> usize {
        let Greedy { fits, free, starts, group } = self;
        let alphabet = set.alphabet();
        let class = |letter: u8| alphabet.width(letter).trailing_zeros() as usize;
        free.copy_from_slice(&fits[fits.len() - 1]);
        let mut unclaimed: usize = free.iter().map(|w| w.count_ones() as usize).sum();
        let mut cycles = 0;
        for st in set.by_descending_length() {
            if unclaimed == 0 {
                break;
            }
            let idx = set
                .structures()
                .iter()
                .position(|x| std::ptr::eq(x, st))
                .expect("structure comes from the set");
            let len = st.num_slots();
            // starts = AND over the groups of equal slot classes of each
            // group's run mask, shifted down by the group's first slot.
            let mut offset = 0;
            for slots in st.letters().chunk_by(|&a, &b| class(a) == class(b)) {
                for ((g, &f), &m) in group.iter_mut().zip(free.iter()).zip(&fits[class(slots[0])]) {
                    *g = f & m;
                }
                run_of(group, slots.len());
                if offset == 0 {
                    starts.copy_from_slice(group);
                } else {
                    and_shifted(starts, group, offset);
                }
                offset += slots.len();
            }
            if len == 1 {
                // Every fitting free character is a firing of its own.
                for (f, &s) in free.iter_mut().zip(starts.iter()) {
                    *f &= !s;
                }
                let fired: usize = starts.iter().map(|w| w.count_ones() as usize).sum();
                if let Some(o) = owners.as_deref_mut() {
                    record(o, starts, idx);
                }
                cycles += fired;
                unclaimed -= fired;
                continue;
            }
            // The leftmost non-overlapping starts.
            let mut from = 0;
            while let Some(pos) = next_bit(starts, from) {
                clear_range(free, pos, len);
                if let Some(o) = owners.as_deref_mut() {
                    o.starts[pos / 64] |= 1 << (pos % 64);
                    o.of[pos] = owner_id(idx);
                }
                cycles += 1;
                unclaimed -= len;
                from = pos + len;
            }
        }
        debug_assert_eq!(unclaimed, 0, "fallback must cover leftovers");
        cycles
    }
}

/// Records every set bit of `fired` as a firing of structure `idx`.
fn record(owners: &mut Owners, fired: &[u64], idx: usize) {
    for (o, &f) in owners.starts.iter_mut().zip(fired) {
        *o |= f;
    }
    let id = owner_id(idx);
    for_each_bit(fired, |pos| owners.of[pos] = id);
}

fn owner_id(idx: usize) -> u32 {
    u32::try_from(idx).expect("fewer than 2³² structures")
}

/// Calls `f` with the index of every set bit of `bits`, in increasing
/// order.
fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The first set bit of `bits` at or after `from`.
fn next_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (!0u64 << (from % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// Clears bits `start..start + len`.
fn clear_range(bits: &mut [u64], start: usize, len: usize) {
    let end = start + len;
    let mut i = start;
    while i < end {
        let (w, b) = (i / 64, i % 64);
        let take = (64 - b).min(end - i);
        let mask = if take == 64 { !0 } else { ((1u64 << take) - 1) << b };
        bits[w] &= !mask;
        i += take;
    }
}

/// Word `w` of `bits` shifted down by `by` bits: bit `i` of the result is
/// bit `i + by` of `bits`, zero past the end.
fn shifted(bits: &[u64], w: usize, by: usize) -> u64 {
    let (q, r) = (w + by / 64, by % 64);
    let lo = bits.get(q).copied().unwrap_or(0);
    if r == 0 {
        return lo;
    }
    let hi = bits.get(q + 1).copied().unwrap_or(0);
    (lo >> r) | (hi << (64 - r))
}

/// `dst &= src >> by`, bitwise across words.
fn and_shifted(dst: &mut [u64], src: &[u64], by: usize) {
    for (w, d) in dst.iter_mut().enumerate() {
        *d &= shifted(src, w, by);
    }
}

/// Turns `bits` into the starts of its runs of at least `len` set bits:
/// bit `i` stays set when bits `i..i + len` are all set. Doubling spans
/// take `⌈log₂ len⌉` passes.
fn run_of(bits: &mut [u64], len: usize) {
    let mut span = 1;
    while span < len {
        let by = span.min(len - span);
        // In place: word `w` reads only words `≥ w`, not yet rewritten.
        for w in 0..bits.len() {
            bits[w] &= shifted(bits, w, by);
        }
        span += by;
    }
}

/// Exact minimum-cycle scheduler (dynamic program).
///
/// `cost[i] = 1 + min over structures matching at i of cost[i + len]`.
/// Shares the matching semantics with [`greedy_schedule`], so its cycle
/// count is a lower bound for the greedy result under the same `S`.
pub fn dp_schedule(s: &SparsityString, set: &StructureSet) -> Schedule {
    let alphabet = s.alphabet();
    assert_eq!(alphabet, set.alphabet(), "string and structure set use different alphabets");
    let chars = s.chars();
    let n = chars.len();
    let mut cost = vec![usize::MAX; n + 1];
    let mut choice = vec![usize::MAX; n];
    cost[n] = 0;
    for i in (0..n).rev() {
        for (k, st) in set.structures().iter().enumerate() {
            let len = st.num_slots();
            if i + len <= n && cost[i + len] != usize::MAX && st.matches(chars, i, alphabet) {
                let c = 1 + cost[i + len];
                if c < cost[i] {
                    cost[i] = c;
                    choice[i] = k;
                }
            }
        }
        debug_assert_ne!(cost[i], usize::MAX, "fallback guarantees feasibility");
    }
    let mut packs = Vec::with_capacity(cost[0]);
    let mut i = 0;
    while i < n {
        let k = choice[i];
        let len = set.structures()[k].num_slots();
        packs.push(ScheduledPack { structure: k, pos: i, len });
        i += len;
    }
    Schedule { c: alphabet.c(), nnz: s.nnz(), string_len: n, packs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacStructure, PackSource, DOLLAR};
    use rsqp_sparse::CsrMatrix;

    /// The quadratic scheduler [`greedy_schedule`] replaced: every start
    /// re-checks its whole window, and the packs are sorted at the end.
    /// The word-parallel one must return the same packs.
    fn reference_greedy_schedule(s: &SparsityString, set: &StructureSet) -> Schedule {
        let alphabet = s.alphabet();
        let chars = s.chars();
        let n = chars.len();
        let mut claimed = vec![false; n];
        let mut packs = Vec::new();
        for st in set.by_descending_length() {
            let idx = set.structures().iter().position(|x| x == st).unwrap();
            let len = st.num_slots();
            if len > n {
                continue;
            }
            let mut pos = 0;
            while pos + len <= n {
                if claimed[pos] {
                    pos += 1;
                    continue;
                }
                if (pos..pos + len).any(|i| claimed[i]) || !st.matches(chars, pos, alphabet) {
                    pos += 1;
                    continue;
                }
                for c in &mut claimed[pos..pos + len] {
                    *c = true;
                }
                packs.push(ScheduledPack { structure: idx, pos, len });
                pos += len;
            }
        }
        packs.sort_by_key(|p| p.pos);
        Schedule { c: alphabet.c(), nnz: s.nnz(), string_len: n, packs }
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random string over `alphabet`'s letters and `$`, in runs of one
    /// character so that structures find windows to match.
    fn random_string(rng: &mut Rng, alphabet: Alphabet, len: usize) -> SparsityString {
        let letters = alphabet.num_letters();
        let mut chars = Vec::with_capacity(len);
        while chars.len() < len {
            let k = rng.below(letters + 1);
            let ch = if k == letters { DOLLAR } else { b'a' + k as u8 };
            let longest = if rng.below(2) == 0 { 3 } else { 2 * alphabet.c() };
            let run = 1 + rng.below(longest);
            chars.extend(std::iter::repeat_n(ch, run.min(len - chars.len())));
        }
        let sources: Vec<PackSource> = chars
            .iter()
            .enumerate()
            .map(|(row, &ch)| PackSource { row, offset: 0, count: alphabet.width(ch) })
            .collect();
        let nnz = sources.iter().map(|p| p.count).sum();
        SparsityString::from_parts(alphabet, chars, sources, nnz)
    }

    /// A random structure: homogeneous (up to the full `C / width` slots)
    /// or a random letter sequence within the width budget.
    fn random_structure(rng: &mut Rng, alphabet: Alphabet) -> MacStructure {
        let letters = alphabet.num_letters();
        if rng.below(2) == 0 {
            let letter = b'a' + rng.below(letters) as u8;
            let most = alphabet.c() / alphabet.width(letter);
            let slots = if rng.below(2) == 0 { most } else { 1 + rng.below(most) };
            return MacStructure::new(&vec![letter; slots], alphabet);
        }
        let (mut out, mut width) = (Vec::new(), 0);
        loop {
            let letter = b'a' + rng.below(letters) as u8;
            if width + alphabet.width(letter) > alphabet.c() || out.len() > 1 + rng.below(8) {
                break;
            }
            width += alphabet.width(letter);
            out.push(letter);
        }
        if out.is_empty() {
            out.push(b'a');
        }
        MacStructure::new(&out, alphabet)
    }

    #[test]
    fn word_parallel_greedy_matches_the_reference() {
        let mut rng = Rng(0x5eed);
        for case in 0..3000 {
            let alphabet = Alphabet::new(1 << (1 + case % 7));
            let len = match case % 4 {
                0 => rng.below(4),
                1 => rng.below(70),
                _ => rng.below(400),
            };
            let s = random_string(&mut rng, alphabet, len);
            let mut structures: Vec<_> =
                (0..rng.below(6)).map(|_| random_structure(&mut rng, alphabet)).collect();
            if rng.below(8) == 0 {
                structures.push(MacStructure::new(&[DOLLAR], alphabet));
            }
            let set = StructureSet::new(alphabet, structures);
            let got = greedy_schedule(&s, &set);
            assert_eq!(got.packs(), reference_greedy_schedule(&s, &set).packs(), "{s} under {set}");
            assert!(got.is_complete());
            assert_eq!(Greedy::new(s.chars(), alphabet).cycles(&set), got.cycles());
        }
    }

    fn string_of(rows: &[usize], c: usize) -> SparsityString {
        let ncols = 128;
        let mut t = Vec::new();
        for (i, &nnz) in rows.iter().enumerate() {
            for j in 0..nnz {
                t.push((i, j, 1.0));
            }
        }
        SparsityString::encode(&CsrMatrix::from_triplets(rows.len(), ncols, t), c)
    }

    #[test]
    fn baseline_schedules_one_char_per_cycle() {
        let s = string_of(&[4, 2, 2, 1, 1, 1, 3, 1], 4); // "cbbaaaca"
        let set = StructureSet::baseline(Alphabet::new(4));
        let g = greedy_schedule(&s, &set);
        assert_eq!(g.cycles(), 8);
        assert_eq!(g.ep(), 4 * 8 - 15);
        assert!(g.is_complete());
    }

    #[test]
    fn paper_example_with_bb_structure() {
        // "cbbaaaca" with S = {bb, c}: greedy finds bb at pos 1, then the
        // aa|ab|ba matches at pos 3-4, leftovers c,a,c,a each 1 cycle:
        // [c][bb][aa][a][c][a] = 6 cycles (matches the paper's Figure 2(e)
        // count for its S = {bb, d}).
        let s = string_of(&[4, 2, 2, 1, 1, 1, 3, 1], 4);
        let al = Alphabet::new(4);
        let set = StructureSet::parse("2b1c", al);
        let g = greedy_schedule(&s, &set);
        assert_eq!(g.cycles(), 6, "packs {:?}", g.packs());
        assert!(g.is_complete());
        let d = dp_schedule(&s, &set);
        assert_eq!(d.cycles(), 6);
    }

    #[test]
    fn dp_never_worse_than_greedy() {
        for rows in [
            vec![1usize; 16],
            vec![2, 1, 2, 1, 2, 1, 4, 4],
            vec![3, 1, 3, 1, 3, 1],
            vec![4, 4, 2, 2, 1, 1, 1, 1],
        ] {
            let s = string_of(&rows, 4);
            let al = Alphabet::new(4);
            for notation in ["2b1c", "4a1c", "4a2b1c"] {
                let set = StructureSet::parse(notation, al);
                let g = greedy_schedule(&s, &set);
                let d = dp_schedule(&s, &set);
                assert!(d.cycles() <= g.cycles(), "{notation} on {rows:?}");
                assert!(g.is_complete() && d.is_complete());
            }
        }
    }

    #[test]
    fn dp_beats_greedy_on_adversarial_string() {
        // "abb" with S = {ab, bb, c}: greedy (longest-first, ab before bb?
        // both length 2) may take "ab" at 0 leaving "b" for the fallback
        // (2 cycles... also 2 for dp). Construct a real gap:
        // "aabb" with S = {aa+? } keep simple — verify dp optimality on
        // "baa" with S={aa, c}: greedy scans aa at pos 1 -> [b][aa] = 2,
        // dp same. Hard to force a gap with homogeneous sets; use a
        // heterogeneous set {ba} vs "aba": greedy takes ba at 1 -> [a][ba]
        // = 2 cycles; dp also 2. At minimum assert dp <= greedy here.
        let s = string_of(&[1, 2, 2], 4); // "abb"
        let al = Alphabet::new(4);
        let set = StructureSet::new(
            al,
            vec![crate::MacStructure::new(b"ab", al), crate::MacStructure::new(b"bb", al)],
        );
        let g = greedy_schedule(&s, &set);
        let d = dp_schedule(&s, &set);
        assert!(d.cycles() <= g.cycles());
        assert!(d.cycles() <= 2);
    }

    #[test]
    fn dollar_chunks_fall_back_to_full_width() {
        let s = string_of(&[10], 4); // "$$b"
        let al = Alphabet::new(4);
        let set = StructureSet::parse("2b1c", al);
        let g = greedy_schedule(&s, &set);
        assert_eq!(g.cycles(), 3);
        assert!(g.is_complete());
    }

    #[test]
    fn empty_string_schedules_to_zero_cycles() {
        let s = SparsityString::encode(&CsrMatrix::zeros(3, 3), 4);
        let set = StructureSet::baseline(Alphabet::new(4));
        let g = greedy_schedule(&s, &set);
        assert_eq!(g.cycles(), 0);
        assert_eq!(g.ep(), 0);
        assert!(g.is_complete());
        assert_eq!(dp_schedule(&s, &set).cycles(), 0);
    }

    #[test]
    fn ep_decreases_with_better_structures() {
        let s = string_of(&[1; 32], 8); // 32 'a' rows
        let al = Alphabet::new(8);
        let baseline = greedy_schedule(&s, &StructureSet::baseline(al));
        let custom = greedy_schedule(&s, &StructureSet::parse("8a1d", al));
        assert_eq!(baseline.cycles(), 32);
        assert_eq!(custom.cycles(), 4);
        assert!(custom.ep() < baseline.ep());
    }

    #[test]
    fn schedule_positions_are_sorted_and_disjoint() {
        let s = string_of(&[2, 2, 1, 1, 4, 2, 2, 1], 4);
        let al = Alphabet::new(4);
        let set = StructureSet::parse("2b1c", al);
        let g = greedy_schedule(&s, &set);
        let mut last_end = 0;
        for p in g.packs() {
            assert!(p.pos >= last_end);
            last_end = p.pos + p.len;
        }
    }
}
