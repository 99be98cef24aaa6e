//! LZW dictionary mining over sparsity strings (§4.2).
//!
//! Problem (4) — pick at most `|S|_target` structures minimizing the
//! scheduled length — is combinatorial, so the paper "uses a method based on
//! the dictionary-based lossless compression algorithm LZW to search for a
//! candidate S". This module runs LZW over the string and reports the
//! dictionary phrases together with how often the encoder actually emitted
//! them; frequent long phrases are exactly the recurring computation
//! patterns worth dedicating MAC-tree connections to.

use crate::{Alphabet, DOLLAR};

/// The result of one LZW pass: dictionary phrases with emission counts.
///
/// The dictionary is a trie over the symbols the input uses (at most nine
/// for a sparsity string: the letters and `$`), with `u32` node ids. Node
/// 0 is the empty phrase; a phrase's node is reached from the root by its
/// symbols, and the encoder steps one edge per input character.
#[derive(Debug, Clone)]
pub struct LzwDictionary {
    /// Dense symbol of each byte, `NO_SYMBOL` for bytes the input lacks.
    symbol_of: [u16; 256],
    /// Number of distinct symbols.
    symbols: usize,
    /// `child[node * symbols + symbol]`, 0 where the phrase is unknown.
    child: Vec<u32>,
    /// Parent node and last byte of each node's phrase.
    parent: Vec<(u32, u8)>,
    /// Emission count of each node's phrase.
    count: Vec<usize>,
}

const NO_SYMBOL: u16 = u16::MAX;

impl LzwDictionary {
    /// Runs LZW over `chars` and records, for every phrase the encoder
    /// emits, how many times it was emitted.
    pub fn build(chars: &[u8]) -> Self {
        let mut symbol_of = [NO_SYMBOL; 256];
        let mut symbols = 0;
        for &ch in chars {
            if symbol_of[usize::from(ch)] == NO_SYMBOL {
                symbol_of[usize::from(ch)] = symbols;
                symbols += 1;
            }
        }
        let symbols = usize::from(symbols);
        let mut d = LzwDictionary {
            symbol_of,
            symbols,
            child: Vec::new(),
            parent: Vec::new(),
            count: Vec::new(),
        };
        d.add_node(0, 0);
        // Single characters are implicitly in the dictionary: the root's
        // children are made on first sight, every other edge on a miss.
        let mut w = 0;
        for &ch in chars {
            match d.child[d.edge(w, ch)] {
                0 if w == 0 => w = d.add_node(0, ch),
                0 => {
                    d.count[w] += 1;
                    d.add_node(w, ch);
                    w = match d.child[d.edge(0, ch)] {
                        0 => d.add_node(0, ch),
                        node => node as usize,
                    };
                }
                next => w = next as usize,
            }
        }
        if w != 0 {
            d.count[w] += 1;
        }
        d
    }

    /// Index into `child` of the edge from `node` by byte `ch`, which the
    /// input holds.
    fn edge(&self, node: usize, ch: u8) -> usize {
        node * self.symbols + usize::from(self.symbol_of[usize::from(ch)])
    }

    /// A new node for the phrase of `parent` followed by `ch`; returns its
    /// id. Node 0, the empty phrase, has no edge to it.
    fn add_node(&mut self, parent: usize, ch: u8) -> usize {
        let id = self.parent.len();
        let node = u32::try_from(id).expect("fewer than 2³² LZW phrases");
        if id > 0 {
            let edge = self.edge(parent, ch);
            self.child[edge] = node;
        }
        self.parent.push((parent as u32, ch));
        self.count.push(0);
        self.child.resize(self.child.len() + self.symbols, 0);
        id
    }

    /// The phrase of `node`.
    fn phrase(&self, mut node: usize) -> Vec<u8> {
        let mut out = Vec::new();
        while node != 0 {
            let (parent, ch) = self.parent[node];
            out.push(ch);
            node = parent as usize;
        }
        out.reverse();
        out
    }

    /// Number of distinct emitted phrases.
    pub fn len(&self) -> usize {
        self.count.iter().filter(|&&c| c > 0).count()
    }

    /// True when no phrase was emitted (empty input).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emission count of a phrase (0 if never emitted).
    pub fn count(&self, phrase: &[u8]) -> usize {
        let mut node = 0;
        for &ch in phrase {
            if self.symbol_of[usize::from(ch)] == NO_SYMBOL {
                return 0;
            }
            node = self.child[self.edge(node, ch)] as usize;
            if node == 0 {
                return 0;
            }
        }
        self.count[node]
    }

    /// Candidate MAC structures: phrases of ≥ 2 characters whose slot widths
    /// fit the datapath (`Σ width ≤ C`, no `$`), ranked by estimated cycle
    /// savings `count · (len − 1)`.
    pub fn candidates(&self, alphabet: Alphabet, limit: usize) -> Vec<(Vec<u8>, usize)> {
        // Emitted phrases of two or more characters: the parent is not the
        // root.
        let mut out: Vec<(Vec<u8>, usize)> = (1..self.count.len())
            .filter(|&node| self.count[node] > 0 && self.parent[node].0 != 0)
            .map(|node| (self.phrase(node), self.count[node]))
            .filter(|(p, _)| {
                !p.contains(&DOLLAR)
                    && p.iter().map(|&l| alphabet.width(l)).sum::<usize>() <= alphabet.c()
            })
            .map(|(p, cnt)| {
                let savings = cnt * (p.len() - 1);
                (p, savings)
            })
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// The hash-map LZW the trie replaced: every phrase a fresh `Vec<u8>`,
    /// returned with its emission count.
    fn reference_lzw(chars: &[u8]) -> HashMap<Vec<u8>, usize> {
        let mut dict: HashMap<Vec<u8>, ()> = HashMap::new();
        let mut phrases: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut w: Vec<u8> = Vec::new();
        for &ch in chars {
            let mut wc = w.clone();
            wc.push(ch);
            if wc.len() == 1 || dict.contains_key(&wc) {
                w = wc;
            } else {
                *phrases.entry(w.clone()).or_insert(0) += 1;
                dict.insert(wc, ());
                w = vec![ch];
            }
        }
        if !w.is_empty() {
            *phrases.entry(w).or_insert(0) += 1;
        }
        phrases
    }

    /// The reference's candidates: the same filter and ranking over its
    /// map.
    fn reference_candidates(
        phrases: &HashMap<Vec<u8>, usize>,
        alphabet: Alphabet,
        limit: usize,
    ) -> Vec<(Vec<u8>, usize)> {
        let mut out: Vec<(Vec<u8>, usize)> = phrases
            .iter()
            .filter(|(p, _)| {
                p.len() >= 2
                    && !p.contains(&DOLLAR)
                    && p.iter().map(|&l| alphabet.width(l)).sum::<usize>() <= alphabet.c()
            })
            .map(|(p, &cnt)| (p.clone(), cnt * (p.len() - 1)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(limit);
        out
    }

    #[test]
    fn trie_matches_the_reference() {
        // SplitMix64.
        let mut state = 0x1a2b_3c4d_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        for case in 0..2000 {
            let alphabet = Alphabet::new(1 << (1 + case % 7));
            // Runs over a random subset of the letters and `$`.
            let used = 1 + below(alphabet.num_letters() + 1);
            let len = if case % 5 == 0 { below(4) } else { below(600) };
            let mut chars = Vec::with_capacity(len);
            while chars.len() < len {
                let k = below(used);
                let ch = if k == alphabet.num_letters() { DOLLAR } else { b'a' + k as u8 };
                let run = 1 + below(if case % 2 == 0 { 2 } else { 12 });
                chars.extend(std::iter::repeat_n(ch, run.min(len - chars.len())));
            }
            let got = LzwDictionary::build(&chars);
            let want = reference_lzw(&chars);
            assert_eq!(got.len(), want.len(), "{chars:?}");
            assert_eq!(got.is_empty(), want.is_empty());
            for (phrase, &count) in &want {
                assert_eq!(got.count(phrase), count, "{phrase:?} in {chars:?}");
            }
            // Phrases never emitted, and bytes never seen, count 0.
            for probe in [&b""[..], b"$$$$$$$$$$$$$$$$$$$$$$$$$", b"z", b"az"] {
                assert_eq!(got.count(probe), want.get(probe).copied().unwrap_or(0));
            }
            for limit in [0, 3, 24, usize::MAX] {
                assert_eq!(
                    got.candidates(alphabet, limit),
                    reference_candidates(&want, alphabet, limit),
                    "{chars:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_pattern_is_discovered() {
        // "ab" repeated: LZW learns "ab", "ba", "aba", ... and emits
        // multi-character phrases often.
        let s: Vec<u8> = b"abababababababababababab".to_vec();
        let d = LzwDictionary::build(&s);
        assert!(!d.is_empty());
        let cands = d.candidates(Alphabet::new(4), 10);
        assert!(!cands.is_empty());
        // Top candidate must be a substring of the repetition.
        let top = std::str::from_utf8(&cands[0].0).unwrap().to_string();
        assert!("abababab".contains(&top), "top candidate {top}");
    }

    #[test]
    fn empty_input_yields_empty_dictionary() {
        let d = LzwDictionary::build(b"");
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn counts_reflect_repetition() {
        let many = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        let d = LzwDictionary::build(many);
        // "aa" must have been emitted at least once and 'a' phrases dominate.
        let total: usize = (0..5).map(|k| d.count(&vec![b'a'; k + 1])).sum();
        assert!(total >= 3);
    }

    #[test]
    fn candidates_respect_width_and_dollar_rules() {
        let al = Alphabet::new(4);
        // 'c' has width 4 at C=4, so "cc" (width 8) must be filtered out;
        // anything with '$' too.
        let s: Vec<u8> = b"cccccccc$c$c$c$c".to_vec();
        let d = LzwDictionary::build(&s);
        for (p, _) in d.candidates(al, 100) {
            assert!(!p.contains(&DOLLAR));
            let w: usize = p.iter().map(|&l| al.width(l)).sum();
            assert!(w <= 4);
        }
    }

    #[test]
    fn candidate_limit_is_respected() {
        let s: Vec<u8> = b"abbaabbaabbaabbaabba".to_vec();
        let d = LzwDictionary::build(&s);
        assert!(d.candidates(Alphabet::new(8), 2).len() <= 2);
    }
}
