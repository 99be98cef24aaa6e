//! MAC-tree structures and structure sets (§3.2, §4.1).

use std::fmt;

use crate::Alphabet;

/// One customized input partition of the `C`-wide MAC tree.
///
/// A structure is a sequence of letters whose widths sum to at most `C`;
/// e.g. with `C = 4` the structure `"ca"` partitions the 4 multipliers into
/// a 3-wide (padded to 4-capacity `c` slot is width 4? no: `c` has width 4 —
/// see below) — concretely, slot `i` accepts any row chunk whose letter
/// width is ≤ the slot's width, and the whole pack completes in one cycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MacStructure {
    letters: Vec<u8>,
    widths: Vec<usize>,
}

impl MacStructure {
    /// Builds a structure from its letters.
    ///
    /// # Panics
    ///
    /// Panics if the letters are outside the alphabet, the structure is
    /// empty, or the widths sum to more than `C`.
    pub fn new(letters: &[u8], alphabet: Alphabet) -> Self {
        assert!(!letters.is_empty(), "empty MAC structure");
        let widths: Vec<usize> = letters.iter().map(|&l| alphabet.width(l)).collect();
        let total: usize = widths.iter().sum();
        assert!(
            total <= alphabet.c(),
            "structure width {total} exceeds datapath width {}",
            alphabet.c()
        );
        MacStructure { letters: letters.to_vec(), widths }
    }

    /// The slot letters.
    pub fn letters(&self) -> &[u8] {
        &self.letters
    }

    /// Number of slots (= rows finished per cycle when this structure
    /// fires; also the number of dedicated adder-tree outputs it needs).
    pub fn num_slots(&self) -> usize {
        self.letters.len()
    }

    /// Sum of slot widths.
    pub fn total_width(&self) -> usize {
        self.widths.iter().sum()
    }

    /// Whether this structure can consume the next `num_slots` characters
    /// starting at `pos` of `chars` in a single cycle: every character's
    /// width must fit its slot.
    pub fn matches(&self, chars: &[u8], pos: usize, alphabet: Alphabet) -> bool {
        if pos + self.letters.len() > chars.len() {
            return false;
        }
        self.widths
            .iter()
            .zip(&chars[pos..pos + self.letters.len()])
            .all(|(&w, &ch)| alphabet.width(ch) <= w)
    }

    /// Lane offset of each slot (prefix sums of the widths).
    pub fn slot_offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.widths.len());
        let mut acc = 0;
        for &w in &self.widths {
            out.push(acc);
            acc += w;
        }
        out
    }
}

impl fmt::Display for MacStructure {
    /// Run-length notation: `"8d4e1g"` means 8 slots of `d`? No — in the
    /// paper's notation each `<count><letter>` group is one *homogeneous
    /// structure*; a single structure displays as one group when
    /// homogeneous (`"4c"` = four `c` slots) and as the raw letter string
    /// in braces otherwise (`"{ca}"`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.letters[0];
        if self.letters.iter().all(|&l| l == first) {
            write!(f, "{}{}", self.letters.len(), first as char)
        } else {
            write!(f, "{{{}}}", std::str::from_utf8(&self.letters).expect("ASCII"))
        }
    }
}

/// A set of MAC-tree structures sharing one `C`-wide datapath.
///
/// The set always contains the full-width single-output structure (the
/// baseline reduction tree) as a fallback, so every string can be
/// scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureSet {
    alphabet: Alphabet,
    structures: Vec<MacStructure>,
}

impl StructureSet {
    /// Creates a set containing only the fallback full-width structure.
    pub fn baseline(alphabet: Alphabet) -> Self {
        let fallback = MacStructure::new(&[alphabet.full_letter()], alphabet);
        StructureSet { alphabet, structures: vec![fallback] }
    }

    /// Creates a set from the given structures, appending the fallback if
    /// missing.
    ///
    /// # Panics
    ///
    /// Panics if any structure was built for a different width.
    pub fn new(alphabet: Alphabet, structures: Vec<MacStructure>) -> Self {
        // Deduplicate while keeping order (a set holds a handful).
        let mut unique: Vec<MacStructure> = Vec::with_capacity(structures.len() + 1);
        for s in structures {
            assert!(s.total_width() <= alphabet.c(), "structure too wide for this alphabet");
            if !unique.contains(&s) {
                unique.push(s);
            }
        }
        if !unique.iter().any(|s| s.letters() == [alphabet.full_letter()]) {
            unique.push(MacStructure::new(&[alphabet.full_letter()], alphabet));
        }
        StructureSet { alphabet, structures: unique }
    }

    /// Parses the paper's notation: a concatenation of `<count><letter>`
    /// groups, each group one homogeneous structure. `"8d4e1g"` with
    /// `C = 64` is `S = {dddddddd, eeee, g}`.
    ///
    /// # Panics
    ///
    /// Panics on malformed notation or over-wide groups.
    pub fn parse(notation: &str, alphabet: Alphabet) -> Self {
        let bytes = notation.as_bytes();
        let mut structures = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            assert!(i > start && i < bytes.len(), "malformed structure notation {notation:?}");
            let count: usize = notation[start..i].parse().expect("digits checked");
            let letter = bytes[i];
            i += 1;
            assert!(count > 0, "zero-count group in {notation:?}");
            structures.push(MacStructure::new(&vec![letter; count], alphabet));
        }
        StructureSet::new(alphabet, structures)
    }

    /// The alphabet (and hence `C`).
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// The structures, fallback included.
    pub fn structures(&self) -> &[MacStructure] {
        &self.structures
    }

    /// Number of structures (the `|S|` of Eq. 4).
    pub fn len(&self) -> usize {
        self.structures.len()
    }

    /// A structure set is never empty (the fallback is always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total number of dedicated adder-tree outputs across structures —
    /// the routing-complexity driver in the area/f_max models.
    pub fn total_outputs(&self) -> usize {
        self.structures.iter().map(MacStructure::num_slots).sum()
    }

    /// Structures sorted for the paper's greedy replacement: longest
    /// (most slots) first, wider total second.
    pub fn by_descending_length(&self) -> Vec<&MacStructure> {
        let mut v: Vec<&MacStructure> = self.structures.iter().collect();
        v.sort_by(|a, b| {
            b.num_slots().cmp(&a.num_slots()).then(b.total_width().cmp(&a.total_width()))
        });
        v
    }
}

impl fmt::Display for StructureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.alphabet.c())?;
        for s in &self.structures {
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a4() -> Alphabet {
        Alphabet::new(4)
    }

    #[test]
    #[should_panic(expected = "exceeds datapath width")]
    fn overwide_structure_panics() {
        MacStructure::new(b"ca", a4());
    }

    #[test]
    fn paper_example_structures() {
        // C = 4: {bb, c} — "bb" covers two 2-wide rows per cycle.
        let al = a4();
        let bb = MacStructure::new(b"bb", al);
        assert_eq!(bb.num_slots(), 2);
        assert_eq!(bb.total_width(), 4);
        assert_eq!(bb.slot_offsets(), vec![0, 2]);
        // "ba" fits in "bb" (a is narrower than b).
        assert!(bb.matches(b"ba", 0, al));
        assert!(bb.matches(b"aa", 0, al));
        assert!(!bb.matches(b"bc", 0, al));
        assert!(!bb.matches(b"b", 0, al)); // too short
    }

    #[test]
    fn dollar_only_fits_full_width_slot() {
        let al = a4();
        let full = MacStructure::new(b"c", al);
        assert!(full.matches(b"$", 0, al));
        let bb = MacStructure::new(b"bb", al);
        assert!(!bb.matches(b"$a", 0, al));
    }

    #[test]
    fn baseline_set_is_single_fallback() {
        let set = StructureSet::baseline(a4());
        assert_eq!(set.len(), 1);
        assert_eq!(set.structures()[0].letters(), b"c");
        assert_eq!(set.total_outputs(), 1);
    }

    #[test]
    fn set_appends_and_dedupes_fallback() {
        let al = a4();
        let set = StructureSet::new(al, vec![MacStructure::new(b"bb", al)]);
        assert_eq!(set.len(), 2);
        let set2 =
            StructureSet::new(al, vec![MacStructure::new(b"c", al), MacStructure::new(b"c", al)]);
        assert_eq!(set2.len(), 1);
    }

    #[test]
    fn parse_paper_notation() {
        let al = Alphabet::new(64);
        let set = StructureSet::parse("8d4e1g", al);
        // 8 d's (8*8=64), 4 e's (4*16=64), 1 g (64); fallback g merges.
        assert_eq!(set.len(), 3);
        assert_eq!(set.structures()[0].num_slots(), 8);
        assert_eq!(set.structures()[1].num_slots(), 4);
        assert_eq!(set.structures()[2].num_slots(), 1);
        assert_eq!(set.to_string(), "64{8d4e1g}");
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn parse_rejects_garbage() {
        StructureSet::parse("abc", Alphabet::new(16));
    }

    #[test]
    fn descending_length_ordering() {
        let al = Alphabet::new(16);
        let set = StructureSet::parse("16a2d1e", al);
        let order = set.by_descending_length();
        assert_eq!(order[0].num_slots(), 16);
        assert_eq!(order[1].num_slots(), 2);
        assert_eq!(order[2].num_slots(), 1);
    }

    #[test]
    fn heterogeneous_display_uses_braces() {
        let al = Alphabet::new(8);
        let s = MacStructure::new(b"ba", al);
        assert_eq!(s.to_string(), "{ba}");
        let h = MacStructure::new(b"bb", al);
        assert_eq!(h.to_string(), "2b");
    }
}
