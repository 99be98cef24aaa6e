//! The sparsity alphabet and row-string encoding (§4.1).

use rsqp_sparse::CsrMatrix;

/// The continuation character for rows longer than `C`: a full-width chunk
/// whose partial sum is accumulated into the next pack of the same row.
pub const DOLLAR: u8 = b'$';

/// The character alphabet for a datapath of width `C`.
///
/// Characters `a, b, c, …` stand for rows with at most `1, 2, 4, …, C`
/// non-zeros (log₂ buckets, as in the paper: "we use log₂(nnz_row) instead
/// of nnz_row to encode the sparsity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alphabet {
    c: usize,
}

impl Alphabet {
    /// Creates the alphabet for width `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `c` is a power of two in `[2, 128]`: the CVB stage
    /// keeps each element's lane set in a 128-bit mask.
    pub fn new(c: usize) -> Self {
        assert!(
            c.is_power_of_two() && (2..=128).contains(&c),
            "C must be a power of two in [2, 128], got {c}"
        );
        Alphabet { c }
    }

    /// The datapath width `C`.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of letters (`log₂C + 1`): `a` through the full-width letter.
    pub fn num_letters(&self) -> usize {
        self.c.trailing_zeros() as usize + 1
    }

    /// The letter for a row with `nnz` stored entries (`nnz ≤ C`).
    ///
    /// # Panics
    ///
    /// Panics if `nnz > C`.
    pub fn letter_for(&self, nnz: usize) -> u8 {
        assert!(nnz <= self.c, "row population {nnz} exceeds width {}", self.c);
        let bucket = rsqp_sparse::pattern::log2_bucket(nnz);
        b'a' + bucket as u8
    }

    /// The capacity (width in lanes) of a letter: `a → 1`, `b → 2`, `c → 4`…
    /// `$` has width `C`.
    ///
    /// # Panics
    ///
    /// Panics for letters outside the alphabet.
    pub fn width(&self, letter: u8) -> usize {
        if letter == DOLLAR {
            return self.c;
        }
        let idx = (letter as i32) - (b'a' as i32);
        assert!(
            (0..self.num_letters() as i32).contains(&idx),
            "letter {:?} outside alphabet for C={}",
            letter as char,
            self.c
        );
        1usize << idx
    }

    /// The full-width letter (`g` when `C = 64`).
    pub fn full_letter(&self) -> u8 {
        b'a' + (self.num_letters() - 1) as u8
    }
}

/// Provenance of one character: which matrix row (chunk) it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackSource {
    /// Matrix row index.
    pub row: usize,
    /// Offset of the chunk's first non-zero within the row.
    pub offset: usize,
    /// Number of actual non-zeros in this chunk.
    pub count: usize,
}

/// A matrix sparsity structure encoded as a string of bucket letters, with
/// per-character provenance back to the matrix rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityString {
    alphabet: Alphabet,
    chars: Vec<u8>,
    sources: Vec<PackSource>,
    nnz: usize,
}

impl SparsityString {
    /// Encodes a matrix for datapath width `c`.
    ///
    /// Rows with more than `c` non-zeros are emitted as `⌊nnz/c⌋` `$`
    /// characters followed by a remainder letter (if any) — the paper's
    /// "series of `$` … broken down to a series of `g`".
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a power of two in `[2, 128]`.
    pub fn encode(m: &CsrMatrix, c: usize) -> Self {
        let alphabet = Alphabet::new(c);
        let mut chars = Vec::with_capacity(m.nrows());
        let mut sources = Vec::with_capacity(m.nrows());
        for row in 0..m.nrows() {
            let nnz = m.row_nnz(row);
            if nnz == 0 {
                // Empty rows produce no work for the SpMV engine: the result
                // lane is zero-filled by the alignment logic.
                continue;
            }
            let mut off = 0;
            let mut remaining = nnz;
            while remaining > c {
                chars.push(DOLLAR);
                sources.push(PackSource { row, offset: off, count: c });
                off += c;
                remaining -= c;
            }
            chars.push(alphabet.letter_for(remaining));
            sources.push(PackSource { row, offset: off, count: remaining });
        }
        SparsityString { alphabet, chars, sources, nnz: m.nnz() }
    }

    /// Concatenates several encoded matrices (e.g. `P`, `A`, `Aᵀ`) so a
    /// single structure set can be searched for the whole SpMV workload.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets (widths) differ or `parts` is empty.
    pub fn concat(parts: &[&SparsityString]) -> Self {
        assert!(!parts.is_empty(), "concat of zero strings");
        let alphabet = parts[0].alphabet;
        assert!(
            parts.iter().all(|p| p.alphabet == alphabet),
            "concat requires identical alphabets"
        );
        let mut chars = Vec::new();
        let mut sources = Vec::new();
        let mut nnz = 0;
        for p in parts {
            chars.extend_from_slice(&p.chars);
            sources.extend_from_slice(&p.sources);
            nnz += p.nnz;
        }
        SparsityString { alphabet, chars, sources, nnz }
    }

    /// Rebuilds a string from raw parts: its characters, their provenance
    /// and the matrix's non-zero count.
    ///
    /// # Panics
    ///
    /// Panics if `chars` and `sources` lengths disagree.
    pub fn from_parts(
        alphabet: Alphabet,
        chars: Vec<u8>,
        sources: Vec<PackSource>,
        nnz: usize,
    ) -> Self {
        assert_eq!(chars.len(), sources.len(), "chars/sources length mismatch");
        SparsityString { alphabet, chars, sources, nnz }
    }

    /// The alphabet in use.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// The characters of the string.
    pub fn chars(&self) -> &[u8] {
        &self.chars
    }

    /// The per-character provenance.
    pub fn sources(&self) -> &[PackSource] {
        &self.sources
    }

    /// String length (number of row chunks).
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// True for a matrix with no stored entries.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// Total non-zeros of the encoded matrix (used in the `E_p` formula).
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

impl std::fmt::Display for SparsityString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(std::str::from_utf8(&self.chars).expect("alphabet is ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_letters_and_widths() {
        let a = Alphabet::new(64);
        assert_eq!(a.num_letters(), 7);
        assert_eq!(a.letter_for(1), b'a');
        assert_eq!(a.letter_for(2), b'b');
        assert_eq!(a.letter_for(3), b'c');
        assert_eq!(a.letter_for(4), b'c');
        assert_eq!(a.letter_for(64), b'g');
        assert_eq!(a.width(b'a'), 1);
        assert_eq!(a.width(b'g'), 64);
        assert_eq!(a.width(DOLLAR), 64);
        assert_eq!(a.full_letter(), b'g');
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn alphabet_rejects_non_power_of_two() {
        Alphabet::new(6);
    }

    #[test]
    #[should_panic(expected = "power of two in [2, 128], got 256")]
    fn alphabet_rejects_widths_the_cvb_cannot_hold() {
        Alphabet::new(256);
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn letter_for_rejects_oversized_rows() {
        Alphabet::new(4).letter_for(5);
    }

    fn row_matrix(rows: &[usize], ncols: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for (i, &nnz) in rows.iter().enumerate() {
            for j in 0..nnz {
                t.push((i, j % ncols, 1.0));
            }
        }
        CsrMatrix::from_triplets(rows.len(), ncols, t)
    }

    #[test]
    fn encodes_paper_example() {
        // Figure 2(a): rows with 4, 2, 2, 1, 1, 1, 3, 1 nnz. The figure
        // uses direct counts (a=1, b=2, c=3, d=4) for illustration; with the
        // log₂ buckets used on real problems (§4.1) both the 3- and 4-nnz
        // rows map to 'c' at C=4, giving "cbbaaaca".
        let m = row_matrix(&[4, 2, 2, 1, 1, 1, 3, 1], 8);
        let s = SparsityString::encode(&m, 4);
        assert_eq!(s.to_string(), "cbbaaaca");
        assert_eq!(s.nnz(), 15);
    }

    #[test]
    fn long_rows_become_dollar_chunks() {
        let m = row_matrix(&[10, 2], 16);
        let s = SparsityString::encode(&m, 4);
        // 10 = 4 + 4 + 2 -> "$$b", then "b".
        assert_eq!(s.to_string(), "$$bb");
        assert_eq!(s.sources()[0], PackSource { row: 0, offset: 0, count: 4 });
        assert_eq!(s.sources()[1], PackSource { row: 0, offset: 4, count: 4 });
        assert_eq!(s.sources()[2], PackSource { row: 0, offset: 8, count: 2 });
        assert_eq!(s.sources()[3], PackSource { row: 1, offset: 0, count: 2 });
    }

    #[test]
    fn exact_multiple_has_no_remainder_letter() {
        let m = row_matrix(&[8], 8);
        let s = SparsityString::encode(&m, 4);
        // 8 = 4 + 4 -> "$" then final full-width letter for the last chunk.
        assert_eq!(s.to_string(), "$c");
        assert_eq!(s.sources()[1].count, 4);
    }

    #[test]
    fn empty_rows_are_skipped() {
        let m = CsrMatrix::from_triplets(3, 4, vec![(1, 0, 1.0)]);
        let s = SparsityString::encode(&m, 4);
        assert_eq!(s.to_string(), "a");
        assert_eq!(s.sources()[0].row, 1);
    }

    #[test]
    fn concat_preserves_provenance_and_nnz() {
        let m1 = row_matrix(&[2], 4);
        let m2 = row_matrix(&[1, 1], 4);
        let s1 = SparsityString::encode(&m1, 4);
        let s2 = SparsityString::encode(&m2, 4);
        let s = SparsityString::concat(&[&s1, &s2]);
        assert_eq!(s.to_string(), "baa");
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.len(), 3);
    }
}

impl SparsityString {
    /// Character histogram over the alphabet (index 0 = `a`, …, last =
    /// `$`). The run-length structure this summarizes is what the LZW
    /// search exploits.
    pub fn histogram(&self) -> Vec<usize> {
        let letters = self.alphabet.num_letters();
        let mut hist = vec![0usize; letters + 1];
        for &ch in &self.chars {
            if ch == DOLLAR {
                hist[letters] += 1;
            } else {
                hist[(ch - b'a') as usize] += 1;
            }
        }
        hist
    }

    /// Shannon entropy of the character distribution in bits. Low entropy
    /// (long homogeneous runs, few distinct letters) predicts a large Δη
    /// from customization; the eqqp class has the highest entropy of the
    /// benchmark and the smallest gains (Figure 9).
    pub fn entropy_bits(&self) -> f64 {
        let hist = self.histogram();
        let total: usize = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &hist {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Number of maximal homogeneous runs (e.g. `aaabba` has 3 runs). Fewer
    /// runs per character means more exploitable repetition.
    pub fn run_count(&self) -> usize {
        let mut runs = 0;
        let mut prev = None;
        for &ch in &self.chars {
            if Some(ch) != prev {
                runs += 1;
                prev = Some(ch);
            }
        }
        runs
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use rsqp_sparse::CsrMatrix;

    fn string_of(rows: &[usize]) -> SparsityString {
        let mut t = Vec::new();
        for (i, &nnz) in rows.iter().enumerate() {
            for j in 0..nnz {
                t.push((i, j, 1.0));
            }
        }
        SparsityString::encode(&CsrMatrix::from_triplets(rows.len(), 64, t), 4)
    }

    #[test]
    fn histogram_counts_letters() {
        let s = string_of(&[1, 1, 2, 4]); // "aabc"
        assert_eq!(s.histogram(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn entropy_of_uniform_string_is_zero() {
        let s = string_of(&[1; 10]);
        assert_eq!(s.entropy_bits(), 0.0);
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn entropy_grows_with_variety() {
        let uniform = string_of(&[1; 12]);
        let mixed = string_of(&[1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4]);
        assert!(mixed.entropy_bits() > uniform.entropy_bits());
        assert_eq!(mixed.run_count(), 12);
        // Three letters equally likely -> log2(3) bits.
        assert!((mixed.entropy_bits() - 3f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn empty_string_stats() {
        let s = SparsityString::encode(&CsrMatrix::zeros(2, 2), 4);
        assert_eq!(s.entropy_bits(), 0.0);
        assert_eq!(s.run_count(), 0);
    }
}
