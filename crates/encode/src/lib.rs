//! Sparsity-string encoding and MAC-tree structure customization (§4.1–4.2
//! of the RSQP paper).
//!
//! The paper describes a problem's sparsity structure as a string: each
//! matrix row becomes a character according to `⌈log₂(nnz_row)⌉` (rows with
//! ≤1 non-zero are `a`, ≤2 are `b`, ≤4 are `c`, … up to the datapath width
//! `C`; longer rows are split into full-width `$` chunks plus a remainder).
//! Frequent substrings of this string are computation patterns that a
//! customized MAC reduction tree can finish in a single clock cycle.
//!
//! This crate implements the full pipeline:
//!
//! * [`Alphabet`] / [`SparsityString`] — the encoding itself, with
//!   provenance back to matrix rows (needed downstream for the compressed
//!   vector buffers),
//! * [`MacStructure`] / [`StructureSet`] — customized MAC-tree input
//!   partitions, with the paper's `64{8d4e1g}` notation,
//! * [`greedy_schedule`] / [`dp_schedule`] — mapping the string onto a
//!   structure set by string replacement (the paper's method) or by an
//!   optimal dynamic program (our ablation),
//! * [`LzwDictionary`] / [`search_structures`] — the dictionary-based
//!   lossless-compression search for a good structure set under a size
//!   budget `|S|_target` (Eq. 4).
//!
//! # Why bitmasks give the paper's replacement
//!
//! The paper schedules by iterated string replacement: for each structure,
//! longest first, it replaces every match left to right with a separator
//! `*` that no later match may cross. [`greedy_schedule`] runs the same
//! loop on bitsets, one pass per structure, in time linear in the string:
//!
//! * A slot of width `2^k` accepts a character exactly when the character's
//!   width is at most `2^k`. So one mask per width class, built once per
//!   string, answers every slot test: bit `i` of `fits[k]` is set when
//!   character `i` fits a `2^k` slot.
//! * A structure with slots `k₀ … k_{L−1}` matches at `i` exactly when
//!   every character of `i..i + L` is still free (no `*` inside) and fits
//!   its slot. That is bit `i` of `AND_j ((free ∧ fits[k_j]) >> j)`, so
//!   one mask marks every start that matches before the pass begins.
//! * Replacement left to right takes the leftmost match, continues after
//!   its run, and takes the next match. The `*`s it writes during the pass
//!   all lie behind the scan position, so they never invalidate a start
//!   still ahead. Its matches are therefore the leftmost non-overlapping
//!   set bits of that one mask, found with `trailing_zeros` and claimed by
//!   clearing their runs from `free`.
//! * A one-slot structure matches every free character that fits it. The
//!   full-width fallback, last among the one-slot structures, fits every
//!   character, so it takes whatever is still free: its firings are the
//!   popcount of `free`.
//!
//! The quadratic replacement loop survives as a test reference in
//! `schedule.rs`, and random strings and sets must schedule to identical
//! packs under both.
//!
//! # Example
//!
//! ```
//! use rsqp_encode::{Alphabet, search_structures, dp_schedule, SparsityString};
//! use rsqp_sparse::CsrMatrix;
//!
//! let m = CsrMatrix::from_triplets(4, 8, vec![
//!     (0, 0, 1.0), (0, 1, 1.0),          // 2 nnz -> 'b'
//!     (1, 2, 1.0), (1, 3, 1.0),          // 'b'
//!     (2, 4, 1.0),                        // 'a'
//!     (3, 5, 1.0),                        // 'a'
//! ]);
//! let s = SparsityString::encode(&m, 4);
//! assert_eq!(s.to_string(), "bbaa");
//! let set = search_structures(&s, 3);
//! let schedule = dp_schedule(&s, &set);
//! assert!(schedule.cycles() <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod lzw;
pub mod permute;
mod schedule;
mod search;
mod structure;

pub use alphabet::{Alphabet, PackSource, SparsityString, DOLLAR};
pub use lzw::LzwDictionary;
pub use schedule::{dp_schedule, greedy_schedule, Schedule, ScheduledPack};
pub use search::{baseline_set, search_structures, search_structures_with_candidates};
pub use structure::{MacStructure, StructureSet};
