//! Fill-reducing orderings and symmetric permutations.
//!
//! OSQP pairs QDLDL with SuiteSparse AMD. We provide approximate minimum
//! degree on a quotient graph ([`amd_ordering`], after Amestoy, Davis and
//! Duff), Reverse-Cuthill-McKee ([`rcm_ordering`]), and the natural
//! ordering as a baseline, plus the [`SymmetricPermutation`]
//! plumbing that applies an ordering to the KKT system while preserving
//! O(nnz) numeric refresh for ρ updates.

use rsqp_sparse::CscMatrix;

use crate::ldlt::etree_and_counts;
use crate::LinsysError;

/// Computes a Reverse-Cuthill-McKee ordering of the symmetric matrix whose
/// upper triangle is `upper`.
///
/// Returns `perm` such that new index `i` corresponds to old index
/// `perm[i]`. Disconnected components are each seeded from their
/// minimum-degree vertex.
///
/// # Errors
///
/// Returns [`LinsysError::Dimension`] if `upper` is not square.
pub fn rcm_ordering(upper: &CscMatrix) -> Result<Vec<usize>, LinsysError> {
    let n = upper.ncols();
    if upper.nrows() != n {
        return Err(LinsysError::Dimension(format!(
            "rcm_ordering requires a square matrix, got {}x{}",
            upper.nrows(),
            n
        )));
    }
    // Build a full (symmetric) adjacency list from the upper triangle.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let (rows, _) = upper.col(j);
        for &i in rows {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Stable iteration over candidate seeds sorted by degree.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| degree[v]);
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        // BFS, visiting neighbours in increasing degree order.
        visited[seed] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Ok(order)
}

/// Inverts a permutation: `inv[perm[i]] == i`.
///
/// # Errors
///
/// Returns [`LinsysError::InvalidPermutation`] if `perm` is not a
/// permutation of `0..perm.len()`.
pub fn inverse_permutation(perm: &[usize]) -> Result<Vec<usize>, LinsysError> {
    let n = perm.len();
    let mut inv = vec![usize::MAX; n];
    for (i, &p) in perm.iter().enumerate() {
        if p >= n || inv[p] != usize::MAX {
            return Err(LinsysError::InvalidPermutation(format!(
                "index {p} at position {i} is out of range or repeated"
            )));
        }
        inv[p] = i;
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_sparse::CsrMatrix;

    fn upper_of(dense: &[Vec<f64>]) -> CscMatrix {
        CsrMatrix::from_dense(dense).upper_triangle().to_csc()
    }

    #[test]
    fn rcm_is_a_permutation() {
        // Path graph 0-1-2-3-4 given in scrambled labels.
        let n = 5;
        let edges = [(0usize, 3usize), (3, 1), (1, 4), (4, 2)];
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 1.0;
        }
        for &(a, b) in &edges {
            dense[a][b] = 1.0;
            dense[b][a] = 1.0;
        }
        let perm = rcm_ordering(&upper_of(&dense)).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_path() {
        // A path graph has bandwidth 1 under the RCM ordering.
        let n = 9;
        // scrambled path: vertices relabeled by i -> (4*i) % 9 (coprime)
        let label = |i: usize| (4 * i) % n;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 1.0;
        }
        for i in 0..n - 1 {
            let (a, b) = (label(i), label(i + 1));
            dense[a][b] = 1.0;
            dense[b][a] = 1.0;
        }
        let perm = rcm_ordering(&upper_of(&dense)).unwrap();
        let inv = inverse_permutation(&perm).unwrap();
        let mut bandwidth = 0usize;
        for i in 0..n - 1 {
            let (a, b) = (label(i), label(i + 1));
            bandwidth = bandwidth.max(inv[a].abs_diff(inv[b]));
        }
        assert_eq!(bandwidth, 1, "perm {perm:?} did not linearize the path");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let n = 4;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 1.0;
        }
        dense[0][1] = 1.0;
        dense[1][0] = 1.0;
        let perm = rcm_ordering(&upper_of(&dense)).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn inverse_permutation_roundtrip() {
        let perm = vec![2, 0, 3, 1];
        let inv = inverse_permutation(&perm).unwrap();
        for i in 0..perm.len() {
            assert_eq!(inv[perm[i]], i);
        }
    }

    #[test]
    fn inverse_of_non_permutation_is_an_error() {
        assert!(matches!(inverse_permutation(&[0, 0]), Err(LinsysError::InvalidPermutation(_))));
    }
}

/// Computes an approximate-minimum-degree ordering of the symmetric matrix
/// whose upper triangle is `upper` — the AMD algorithm of Amestoy, Davis
/// and Duff (1996) that OSQP pairs with QDLDL.
///
/// The elimination graph is never formed. Eliminated variables become
/// *elements* of a quotient graph whose lists share one flat workspace
/// that is compacted in place when it runs out. Each pivot step absorbs
/// the elements it covers (aggressively, whenever an element's pattern
/// falls inside the new one), merges variables with identical lists into
/// supervariables (found by hashing the lists), eliminates at once every
/// variable left adjacent to the new element only (mass elimination), and
/// bounds each touched variable's external degree from above instead of
/// computing it exactly.
///
/// Variables adjacent to more than `min(max(16, 10·√n), max(16, 10·d̄))`
/// others, where `d̄` is the mean off-diagonal degree, are dense: they are
/// left out of the graph and ordered last, by index. The mean-relative
/// bound catches the feature columns of data-matrix KKTs (lasso, svm,
/// huber), whose degree is a few hundred against a mean of 10–30 and
/// whose long lists would otherwise be rescanned at every neighbouring
/// pivot. Unlike SuiteSparse's AMD, every variable keeps counting the
/// dense neighbours it had in the original graph in its approximate
/// degree, so a constraint row tied to many dense columns is not mistaken
/// for a cheap pivot ahead of its private neighbours.
///
/// The result is bitwise deterministic. Each degree bucket is a stack, so a
/// tie goes to the variable whose degree was updated last, and variables
/// never updated leave their bucket in increasing index order. Hash keys
/// only group candidates for the exact list comparison.
///
/// The elimination order is finally postordered along the elimination
/// tree with siblings in increasing order of their `L` column count, as
/// CHOLMOD does after AMD. That leaves the fill unchanged and places
/// columns of equal length side by side, which keeps the branches of the
/// triangular solves predictable.
///
/// Returns `perm` such that new index `i` corresponds to old index
/// `perm[i]`. A supervariable comes out contiguously.
///
/// # Errors
///
/// Returns [`LinsysError::Dimension`] if `upper` is not square.
pub fn amd_ordering(upper: &CscMatrix) -> Result<Vec<usize>, LinsysError> {
    if upper.nrows() != upper.ncols() {
        return Err(LinsysError::Dimension(format!(
            "amd_ordering requires a square matrix, got {}x{}",
            upper.nrows(),
            upper.ncols()
        )));
    }
    let amd = Amd::new(upper, true);
    let dense = amd.dense_threshold();
    Ok(postorder_by_column_count(upper, amd.order(dense)))
}

/// The dense threshold `min(max(16, 10·√n), max(16, 10·d̄))`, capped at
/// `n`, where `d̄ = total / count` is a mean degree.
///
/// AMD orders a variable last when its off-diagonal degree exceeds it
/// (`count = n`, `total` = the summed degrees), and the reduced-KKT
/// preconditioner corrects a row of `A` exactly when the row's nonzero
/// count exceeds it (`n` columns, `total = nnz(A)` over `count = m` rows).
pub(crate) fn dense_threshold(n: usize, total: usize, count: usize) -> usize {
    let mean = total as f64 / (count as f64).max(1.0);
    let by_size = ((10.0 * (n as f64).sqrt()) as usize).max(16);
    let by_mean = ((10.0 * mean) as usize).max(16);
    by_size.min(by_mean).min(n)
}

/// Reorders `perm` by a postorder of the elimination tree of the matrix it
/// permutes, children and roots in increasing column count, ties kept in
/// the order `perm` gives them.
fn postorder_by_column_count(upper: &CscMatrix, perm: Vec<usize>) -> Vec<usize> {
    let n = perm.len();
    let new_of = inverse_permutation(&perm).expect("AMD returns a permutation");
    let (colptr, rowidx) = permuted_strict_upper(upper, &new_of);
    let (etree, counts) =
        etree_and_counts(&colptr, &rowidx).expect("every row lies above its column");

    let mut by_count: Vec<usize> = (0..n).collect();
    by_count.sort_unstable_by_key(|&k| (counts[k], k));
    let (mut child, mut sibling) = (vec![NONE; n], vec![NONE; n]);
    let mut roots = Vec::new();
    for &k in by_count.iter().rev() {
        match usize::try_from(etree[k]) {
            Ok(p) => {
                sibling[k] = child[p];
                child[p] = k;
            }
            Err(_) => roots.push(k),
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for &r in roots.iter().rev() {
        stack.push(r);
        while let Some(&v) = stack.last() {
            let c = child[v];
            if c == NONE {
                post.push(perm[v]);
                stack.pop();
            } else {
                child[v] = sibling[c];
                stack.push(c);
            }
        }
    }
    post
}

/// The strict upper pattern of `PᵀMP` bucketed by column in one pass:
/// `(colptr, rowidx)`, each column's rows in the order `upper` holds them.
///
/// The elimination tree and the column counts do not depend on the order
/// of the rows in a column, and a diagonal entry adds to neither, so the
/// postorder needs no sorted rows, source slots or diagonal.
fn permuted_strict_upper(upper: &CscMatrix, new_of: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = new_of.len();
    let permuted = |i: usize, j: usize| {
        let (a, b) = (new_of[i], new_of[j]);
        (a.min(b), a.max(b))
    };
    let strict = |j: usize| upper.col(j).0.iter().copied().filter(move |&i| i < j);
    let mut colptr = vec![0usize; n + 1];
    for j in 0..n {
        for i in strict(j) {
            colptr[permuted(i, j).1 + 1] += 1;
        }
    }
    for k in 0..n {
        colptr[k + 1] += colptr[k];
    }
    let mut tail = colptr[..n].to_vec();
    let mut rowidx = vec![0usize; colptr[n]];
    for j in 0..n {
        for i in strict(j) {
            let (row, col) = permuted(i, j);
            rowidx[tail[col]] = row;
            tail[col] += 1;
        }
    }
    (colptr, rowidx)
}

/// "No index" in the AMD bookkeeping arrays.
const NONE: usize = usize::MAX;

/// Quotient-graph state of one AMD run. Every index names a *variable*
/// (not yet eliminated) or an *element* (a pivot already eliminated); the
/// two share the index space `0..n`.
struct Amd {
    n: usize,
    /// All adjacency lists, back to back, followed by free space. A
    /// variable's list holds its `elen` elements first, then variables; an
    /// element's list holds the variables of its pattern.
    iw: Vec<usize>,
    /// Start of each live list in `iw`, `NONE` once the list is dead.
    pe: Vec<usize>,
    /// Length of each list.
    len: Vec<usize>,
    /// Number of elements at the front of a variable's list.
    elen: Vec<usize>,
    /// Variables a supervariable stands for (0 for absorbed and dense
    /// variables), or an element's pivot count. Negated while the variable
    /// is in the pattern of the element being built.
    nv: Vec<isize>,
    /// Upper bound on a variable's external degree; the pattern size of an
    /// element.
    degree: Vec<usize>,
    /// Element marks: 0 for absorbed elements, `w[e] − wflg = |Le \ Lme|`
    /// during a degree update.
    w: Vec<isize>,
    /// Degree buckets (doubly linked stacks through `next`/`last`).
    head: Vec<usize>,
    next: Vec<usize>,
    last: Vec<usize>,
    /// Hash buckets of supervariable candidates (linked through `next`).
    hhead: Vec<usize>,
    /// Absorbed variables in absorption order, each with where it went:
    /// the pivot that mass-eliminated it or the supervariable that took it
    /// in.
    absorbed: Vec<(usize, usize)>,
    /// First free slot of `iw`.
    pfree: usize,
}

impl Amd {
    /// Loads the pattern of `M + Mᵀ` without its diagonal. `iw` keeps `n`
    /// free slots, the least AMD needs, plus a fifth of the pattern and
    /// another `n` when `roomy`, so compaction stays rare.
    fn new(upper: &CscMatrix, roomy: bool) -> Self {
        let n = upper.ncols();
        let mut len = vec![0usize; n];
        for j in 0..n {
            for &i in upper.col(j).0.iter().filter(|&&i| i < j) {
                len[i] += 1;
                len[j] += 1;
            }
        }
        let nz: usize = len.iter().sum();
        let room = if roomy { n + nz / 5 + n } else { n };
        let mut iw = vec![0usize; nz + room];
        let mut pe = Vec::with_capacity(n);
        let mut start = 0;
        for &l in &len {
            pe.push(start);
            start += l;
        }
        let mut tail = pe.clone();
        for j in 0..n {
            for &i in upper.col(j).0.iter().filter(|&&i| i < j) {
                iw[tail[i]] = j;
                tail[i] += 1;
                iw[tail[j]] = i;
                tail[j] += 1;
            }
        }
        Amd {
            n,
            iw,
            pe,
            degree: len.clone(),
            len,
            elen: vec![0; n],
            nv: vec![1; n],
            w: vec![1; n],
            head: vec![NONE; n],
            next: vec![NONE; n],
            last: vec![NONE; n],
            hhead: vec![NONE; n],
            absorbed: Vec::new(),
            pfree: nz,
        }
    }

    /// The dense-variable threshold of [`dense_threshold`] for this graph:
    /// `d̄` is the mean off-diagonal degree.
    fn dense_threshold(&self) -> usize {
        dense_threshold(self.n, self.len.iter().sum::<usize>(), self.n)
    }

    fn push_degree(&mut self, i: usize) {
        let first = self.head[self.degree[i]];
        if first != NONE {
            self.last[first] = i;
        }
        self.next[i] = first;
        self.last[i] = NONE;
        self.head[self.degree[i]] = i;
    }

    fn unlink_degree(&mut self, i: usize) {
        let (prev, next) = (self.last[i], self.next[i]);
        if next != NONE {
            self.last[next] = prev;
        }
        if prev == NONE {
            self.head[self.degree[i]] = next;
        } else {
            self.next[prev] = next;
        }
    }

    /// Resets the marks when `wflg` could overflow (never on 64-bit in
    /// practice) and returns the flag to use.
    fn clear_flag(&mut self, wflg: isize) -> isize {
        if wflg >= isize::MAX - self.n as isize {
            for x in self.w.iter_mut().filter(|x| **x != 0) {
                *x = 1;
            }
            2
        } else {
            wflg
        }
    }

    /// Packs every live list to the front of `iw`, then moves the element
    /// under construction (`iw[pme1..pfree]`) behind them. Returns its new
    /// start. Each live list's head is tagged `n + owner` (list entries are
    /// all `< n`), its first entry parked in `pe` meanwhile.
    fn compact(&mut self, pme1: usize) -> usize {
        let n = self.n;
        for j in 0..n {
            let p = self.pe[j];
            if p != NONE {
                self.pe[j] = self.iw[p];
                self.iw[p] = n + j;
            }
        }
        let (mut src, mut dst) = (0, 0);
        while src < pme1 {
            let tag = self.iw[src];
            src += 1;
            if tag >= n {
                let j = tag - n;
                self.iw[dst] = self.pe[j];
                self.pe[j] = dst;
                dst += 1;
                let rest = self.len[j] - 1;
                self.iw.copy_within(src..src + rest, dst);
                src += rest;
                dst += rest;
            }
        }
        self.iw.copy_within(pme1..self.pfree, dst);
        self.pfree = dst + (self.pfree - pme1);
        dst
    }

    /// Runs the elimination, with variables of more than `dense` neighbours
    /// left out as dense, and returns the ordering.
    fn order(mut self, dense: usize) -> Vec<usize> {
        let n = self.n;
        // Pivots in elimination order; isolated variables go first.
        let mut pivots = Vec::new();
        let mut dense_vars = Vec::new();
        let mut nel = 0;
        for i in 0..n {
            if self.len[i] == 0 {
                pivots.push(i);
                self.pe[i] = NONE;
                self.w[i] = 0;
                nel += 1;
            } else if self.len[i] > dense {
                self.nv[i] = 0;
                self.pe[i] = NONE;
                dense_vars.push(i);
                nel += 1;
            }
        }
        // Dense neighbours in the original graph, added to every degree
        // bound below (the initial degree, the full list length, has them).
        let mut ndense = vec![0usize; n];
        for (i, nd) in ndense.iter_mut().enumerate() {
            if self.pe[i] != NONE {
                let list = &self.iw[self.pe[i]..self.pe[i] + self.len[i]];
                *nd = list.iter().filter(|&&j| self.len[j] > dense).count();
            }
        }
        for i in (0..n).rev() {
            if self.pe[i] != NONE {
                self.push_degree(i);
            }
        }

        let mut mindeg = 0;
        let mut lemax = 0;
        let mut wflg = 2;
        while nel < n {
            // Pivot: a variable of least approximate degree.
            let mut deg = mindeg;
            while self.head[deg] == NONE {
                deg += 1;
            }
            mindeg = deg;
            let me = self.head[deg];
            self.unlink_degree(me);
            pivots.push(me);
            let elenme = self.elen[me];
            let mut nvpiv = self.nv[me];
            nel += nvpiv as usize;

            // Build Lme, the new element's pattern: the variables adjacent
            // to me and to the elements me absorbs. Each enters the pattern
            // once, flagged by a negative weight, and leaves its bucket.
            self.nv[me] = -nvpiv;
            let mut degme = 0usize;
            let mut pme1 = self.pe[me];
            let pme_end;
            if elenme == 0 {
                // No elements: Lme overwrites me's own list in place.
                let mut out = pme1;
                for p in pme1..pme1 + self.len[me] {
                    let i = self.iw[p];
                    let nvi = self.nv[i];
                    if nvi > 0 {
                        degme += nvi as usize;
                        self.nv[i] = -nvi;
                        self.iw[out] = i;
                        out += 1;
                        self.unlink_degree(i);
                    }
                }
                pme_end = out;
            } else {
                // Lme goes to the free space; the elements of me and, last,
                // me's variables are scanned.
                let mut p = self.pe[me];
                pme1 = self.pfree;
                let slenme = self.len[me] - elenme;
                for knt1 in 1..=elenme + 1 {
                    let (e, mut pj, ln) = if knt1 > elenme {
                        (me, p, slenme)
                    } else {
                        let e = self.iw[p];
                        p += 1;
                        (e, self.pe[e], self.len[e])
                    };
                    for knt2 in 1..=ln {
                        let i = self.iw[pj];
                        pj += 1;
                        let nvi = self.nv[i];
                        if nvi <= 0 {
                            continue;
                        }
                        if self.pfree == self.iw.len() {
                            // Out of room: shrink the two lists being read
                            // to their unread tails, then compact.
                            // (When e is me, the second pair wins.)
                            self.len[me] = elenme + slenme - knt1;
                            self.pe[me] = if self.len[me] == 0 { NONE } else { p };
                            self.len[e] = ln - knt2;
                            self.pe[e] = if self.len[e] == 0 { NONE } else { pj };
                            pme1 = self.compact(pme1);
                            pj = self.pe[e];
                            p = self.pe[me];
                        }
                        degme += nvi as usize;
                        self.nv[i] = -nvi;
                        self.iw[self.pfree] = i;
                        self.pfree += 1;
                        self.unlink_degree(i);
                    }
                    if e != me {
                        // Element absorption: e's pattern is inside Lme.
                        self.pe[e] = NONE;
                        self.w[e] = 0;
                    }
                }
                pme_end = self.pfree;
            }
            self.degree[me] = degme;
            self.pe[me] = pme1;
            self.len[me] = pme_end - pme1;
            wflg = self.clear_flag(wflg);

            // w[e] − wflg = |Le \ Lme| for every element e next to Lme.
            for pme in pme1..pme_end {
                let i = self.iw[pme];
                let eln = self.elen[i];
                if eln == 0 {
                    continue;
                }
                let nvi = -self.nv[i];
                let (w, degree) = (&mut self.w, &self.degree);
                for &e in &self.iw[self.pe[i]..self.pe[i] + eln] {
                    let we = w[e];
                    if we >= wflg {
                        w[e] = we - nvi;
                    } else if we != 0 {
                        w[e] = degree[e] as isize + wflg - nvi;
                    }
                }
            }

            // Degree update. Each variable of Lme drops absorbed elements
            // and eliminated variables from its list, absorbs every element
            // whose pattern Lme covers (aggressive absorption), and gets an
            // approximate degree and a hash of its list. A variable left
            // adjacent to me only is eliminated together with me.
            for pme in pme1..pme_end {
                let i = self.iw[pme];
                let p1 = self.pe[i];
                let p2 = p1 + self.elen[i];
                let mut pn = p1;
                let mut hash = 0usize;
                let mut deg = ndense[i];
                for p in p1..p2 {
                    let e = self.iw[p];
                    let we = self.w[e];
                    if we == 0 {
                        continue;
                    }
                    let dext = we - wflg;
                    if dext > 0 {
                        deg += dext as usize;
                        self.iw[pn] = e;
                        pn += 1;
                        hash = hash.wrapping_add(e);
                    } else {
                        self.pe[e] = NONE;
                        self.w[e] = 0;
                    }
                }
                self.elen[i] = pn - p1 + 1;
                let p3 = pn;
                for p in p2..p1 + self.len[i] {
                    let j = self.iw[p];
                    let nvj = self.nv[j];
                    if nvj > 0 {
                        deg += nvj as usize;
                        self.iw[pn] = j;
                        pn += 1;
                        hash = hash.wrapping_add(j);
                    }
                }
                if self.elen[i] == 1 && p3 == pn {
                    // Mass elimination.
                    let nvi = -self.nv[i];
                    self.absorbed.push((i, me));
                    self.pe[i] = NONE;
                    self.nv[i] = 0;
                    degme -= nvi as usize;
                    nvpiv += nvi;
                    nel += nvi as usize;
                } else {
                    // The list lost at least one entry (me itself, or an
                    // element me absorbed), so me fits at its front.
                    self.degree[i] = self.degree[i].min(deg);
                    self.iw[pn] = self.iw[p3];
                    self.iw[p3] = self.iw[p1];
                    self.iw[p1] = me;
                    self.len[i] = pn - p1 + 1;
                    let h = hash % n;
                    self.next[i] = self.hhead[h];
                    self.hhead[h] = i;
                    self.last[i] = h;
                }
            }
            self.degree[me] = degme;
            lemax = lemax.max(degme);
            wflg = self.clear_flag(wflg + lemax as isize);

            // Supervariable detection: within each hash bucket, a variable
            // whose list equals an earlier one's is absorbed into it.
            for pme in pme1..pme_end {
                let first = self.iw[pme];
                if self.nv[first] >= 0 {
                    continue;
                }
                let h = self.last[first];
                let mut i = self.hhead[h];
                self.hhead[h] = NONE;
                while i != NONE && self.next[i] != NONE {
                    let (pi, ln, eln) = (self.pe[i], self.len[i], self.elen[i]);
                    // Every list starts with me, so compare from the second.
                    for p in pi + 1..pi + ln {
                        self.w[self.iw[p]] = wflg;
                    }
                    let mut jlast = i;
                    let mut j = self.next[i];
                    while j != NONE {
                        let pj = self.pe[j];
                        let same = self.len[j] == ln
                            && self.elen[j] == eln
                            && (pj + 1..pj + ln).all(|p| self.w[self.iw[p]] == wflg);
                        if same {
                            self.absorbed.push((j, i));
                            self.pe[j] = NONE;
                            self.nv[i] += self.nv[j];
                            self.nv[j] = 0;
                            j = self.next[j];
                            self.next[jlast] = j;
                        } else {
                            jlast = j;
                            j = self.next[j];
                        }
                    }
                    wflg += 1;
                    i = self.next[i];
                }
            }

            // Back into the buckets with the finished degree bound; the
            // surviving principal variables form me's final pattern.
            let nleft = n - nel;
            let mut p = pme1;
            for pme in pme1..pme_end {
                let i = self.iw[pme];
                let nvi = -self.nv[i];
                if nvi <= 0 {
                    continue;
                }
                self.nv[i] = nvi;
                let nvi = nvi as usize;
                self.degree[i] = (self.degree[i] + degme - nvi).min(nleft - nvi + ndense[i]);
                self.push_degree(i);
                mindeg = mindeg.min(self.degree[i]);
                self.iw[p] = i;
                p += 1;
            }
            self.nv[me] = nvpiv;
            self.len[me] = p - pme1;
            if self.len[me] == 0 {
                self.pe[me] = NONE;
                self.w[me] = 0;
            }
            if elenme != 0 {
                self.pfree = p;
            }
        }

        // Each pivot is emitted before the variables it absorbed, and each
        // of those before its own absorbed variables, in absorption order
        // (a preorder of the absorption forest). A supervariable's members
        // joined it before it became a pivot or was mass-eliminated, so
        // they stay contiguous. The pivot goes first because the variables
        // mass-eliminated with it may still be adjacent to dense variables,
        // which the quotient graph does not see. Dense variables follow in
        // index order.
        let (mut child, mut sibling) = (vec![NONE; n], vec![NONE; n]);
        for &(i, p) in self.absorbed.iter().rev() {
            sibling[i] = child[p];
            child[p] = i;
        }
        let mut perm = Vec::with_capacity(n);
        let mut stack = Vec::new();
        for &e in &pivots {
            perm.push(e);
            stack.push(e);
            while let Some(&v) = stack.last() {
                let c = child[v];
                if c == NONE {
                    stack.pop();
                } else {
                    child[v] = sibling[c];
                    perm.push(c);
                    stack.push(c);
                }
            }
        }
        perm.extend(dense_vars);
        perm
    }
}

/// A symmetric permutation of an upper-triangular matrix, with the data-slot
/// mapping needed to refresh numeric values in place (for ρ updates that
/// change values but not structure).
#[derive(Debug, Clone)]
pub struct SymmetricPermutation {
    perm: Vec<usize>,
    mat: CscMatrix,
    /// `src[k]` = index into the *original* data array whose value belongs
    /// at permuted data slot `k`.
    src: Vec<usize>,
}

impl SymmetricPermutation {
    /// Builds `Pᵀ·M·P` (upper triangle) for the symmetric matrix whose
    /// upper triangle is `upper`, where new index `i` = old `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `upper` is not square or its
    /// size differs from `perm.len()`, and
    /// [`LinsysError::InvalidPermutation`] if `perm` is not a permutation.
    pub fn new(upper: &CscMatrix, perm: Vec<usize>) -> Result<Self, LinsysError> {
        let new_of = inverse_permutation(&perm)?;
        Self::with_inverse(upper, perm, &new_of)
    }

    /// [`Self::new`] for a caller that holds the inverse of `perm` already
    /// (`new_of[perm[i]] == i`).
    ///
    /// Each column of the result lists its rows in increasing order. The
    /// factor reaches the entries in that order, so its bits depend on it.
    pub(crate) fn with_inverse(
        upper: &CscMatrix,
        perm: Vec<usize>,
        new_of: &[usize],
    ) -> Result<Self, LinsysError> {
        let n = upper.ncols();
        if upper.nrows() != n {
            return Err(LinsysError::Dimension(format!(
                "symmetric permutation requires square input, got {}x{}",
                upper.nrows(),
                n
            )));
        }
        if perm.len() != n {
            return Err(LinsysError::Dimension(format!(
                "permutation length {} does not match matrix dimension {n}",
                perm.len()
            )));
        }
        let (colptr, rowidx, src) = permuted_upper(upper, new_of);
        let data: Vec<f64> = src.iter().map(|&d| upper.data()[d]).collect();
        let mat = CscMatrix::from_raw_parts(n, n, colptr, rowidx, data)?;
        Ok(SymmetricPermutation { perm, mat, src })
    }

    /// The permuted upper-triangular matrix.
    pub fn matrix(&self) -> &CscMatrix {
        &self.mat
    }

    /// The permutation (new → old).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Copies fresh numeric values from the (structurally identical)
    /// original matrix into the permuted one.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `upper` has a different nnz
    /// count than the original (the structure changed).
    pub fn refresh_values(&mut self, upper: &CscMatrix) -> Result<(), LinsysError> {
        if upper.nnz() != self.src.len() {
            return Err(LinsysError::Dimension(format!(
                "refresh_values structure changed: {} nnz vs original {}",
                upper.nnz(),
                self.src.len()
            )));
        }
        let data = self.mat.data_mut();
        for (k, &d) in self.src.iter().enumerate() {
            data[k] = upper.data()[d];
        }
        Ok(())
    }

    /// Permutes a vector into the reordered space (`out[i] = v[perm[i]]`).
    pub fn permute_into(&self, v: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(&self.perm) {
            *o = v[p];
        }
    }

    /// Maps a reordered-space vector back (`out[perm[i]] = v[i]`).
    pub fn unpermute_into(&self, v: &[f64], out: &mut [f64]) {
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = v[i];
        }
    }
}

/// The pattern of the upper triangle of `PᵀMP`, for the symmetric `M` whose
/// upper triangle is `upper` and the inverse permutation `new_of` (old
/// index → new): `(colptr, rowidx, src)`, where `src[k]` is the slot of
/// `upper`'s data that permuted slot `k` holds.
///
/// A two-pass counting sort in O(nnz + n), as OSQP's `csc_symperm` runs
/// it: the entries are bucketed by permuted row, then the rows are walked
/// in increasing order into their columns, so each column's rows come out
/// in increasing order.
fn permuted_upper(upper: &CscMatrix, new_of: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = new_of.len();
    let permuted = |i: usize, j: usize| {
        let (a, b) = (new_of[i], new_of[j]);
        (a.min(b), a.max(b))
    };
    // Counts by row and by column, summed into each bucket's start.
    let (mut rowptr, mut colptr) = (vec![0usize; n + 1], vec![0usize; n + 1]);
    for j in 0..n {
        for &i in upper.col(j).0 {
            let (row, col) = permuted(i, j);
            rowptr[row + 1] += 1;
            colptr[col + 1] += 1;
        }
    }
    for k in 0..n {
        rowptr[k + 1] += rowptr[k];
        colptr[k + 1] += colptr[k];
    }
    // Pass 1: each entry's column and source slot into its row's bucket,
    // `rowptr[r]` advancing to the start of row `r + 1`.
    let mut by_row = vec![(0usize, 0usize); upper.nnz()];
    let mut slot = 0;
    for j in 0..n {
        for &i in upper.col(j).0 {
            let (row, col) = permuted(i, j);
            by_row[rowptr[row]] = (col, slot);
            rowptr[row] += 1;
            slot += 1;
        }
    }
    // Pass 2: the rows in increasing order into their columns, `tail[c]`
    // the next free slot of column `c`.
    let mut tail = colptr[..n].to_vec();
    let (mut rowidx, mut src) = (vec![0usize; slot], vec![0usize; slot]);
    let mut start = 0;
    for (row, &end) in rowptr[..n].iter().enumerate() {
        for &(col, s) in &by_row[start..end] {
            rowidx[tail[col]] = row;
            src[tail[col]] = s;
            tail[col] += 1;
        }
        start = end;
    }
    (colptr, rowidx, src)
}

#[cfg(test)]
mod amd_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rsqp_sparse::CsrMatrix;

    fn upper_of(dense: &[Vec<f64>]) -> CscMatrix {
        CsrMatrix::from_dense(dense).upper_triangle().to_csc()
    }

    /// Upper triangle of the `n × n` pattern with the given symmetric edges
    /// and a diagonal that makes it diagonally dominant.
    fn graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> CscMatrix {
        let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, n as f64)).collect();
        for (a, b) in edges {
            t.push((a.min(b), a.max(b), 1.0));
        }
        CsrMatrix::from_triplets(n, n, t).to_csc()
    }

    /// A random pattern with about `per_row` off-diagonal entries per row
    /// and a few much denser rows.
    fn random_graph(n: usize, per_row: usize, seed: u64) -> CscMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            let k = if rng.gen_range(0..20) == 0 { 4 * per_row } else { per_row };
            for _ in 0..k {
                let j = rng.gen_range(0..n);
                if j != i {
                    edges.push((i, j));
                }
            }
        }
        graph(n, edges)
    }

    /// Arrow matrix with the dense row/column FIRST: natural ordering fills
    /// in completely, AMD eliminates the hub at the end and gets zero fill.
    fn bad_arrow(n: usize) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 4.0;
            if i > 0 {
                dense[0][i] = 1.0;
                dense[i][0] = 1.0;
            }
        }
        dense
    }

    fn fill_of(upper: &CscMatrix, perm: Option<Vec<usize>>) -> usize {
        let mat = match perm {
            Some(p) => SymmetricPermutation::new(upper, p).unwrap().matrix().clone(),
            None => upper.clone(),
        };
        crate::Ldlt::factor(&mat).expect("SPD input factors").l_nnz()
    }

    fn assert_permutation(perm: &[usize], n: usize) {
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn amd_is_a_permutation() {
        let u = upper_of(&bad_arrow(12));
        assert_permutation(&amd_ordering(&u).unwrap(), 12);
        for seed in 0..8 {
            let u = random_graph(300, 3, seed);
            assert_permutation(&amd_ordering(&u).unwrap(), 300);
        }
    }

    #[test]
    fn amd_rejects_non_square_input() {
        let u = CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).to_csc();
        assert!(matches!(amd_ordering(&u), Err(LinsysError::Dimension(_))));
    }

    #[test]
    fn trivial_inputs_keep_the_natural_order() {
        let empty = CscMatrix::from_raw_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(amd_ordering(&empty).unwrap(), Vec::<usize>::new());
        assert_eq!(amd_ordering(&graph(1, [])).unwrap(), vec![0]);
        // Diagonal only: every variable is isolated and taken in index order.
        assert_eq!(amd_ordering(&graph(7, [])).unwrap(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn amd_eliminates_arrow_fill() {
        let n = 24;
        let u = upper_of(&bad_arrow(n));
        let natural = fill_of(&u, None);
        let amd = fill_of(&u, Some(amd_ordering(&u).unwrap()));
        // Natural: eliminating the hub first fills the whole matrix.
        assert_eq!(natural, (n * (n - 1)) / 2);
        // AMD: hub eliminated at the end -> only the arrow edges remain.
        assert_eq!(amd, n - 1, "AMD should avoid all fill");
    }

    #[test]
    fn amd_never_worse_than_natural_on_benchmarks() {
        // Tridiagonal plus random long-range edges.
        let n = 30;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 6.0;
            if i + 1 < n {
                dense[i][i + 1] = 1.0;
                dense[i + 1][i] = 1.0;
            }
            let far = (i * 7 + 3) % n;
            if far != i {
                dense[i][far] = 0.5;
                dense[far][i] = 0.5;
            }
        }
        let u = upper_of(&dense);
        let natural = fill_of(&u, None);
        let amd = fill_of(&u, Some(amd_ordering(&u).unwrap()));
        assert!(amd <= natural, "amd {amd} vs natural {natural}");
    }

    #[test]
    fn disconnected_components_are_each_ordered_without_fill() {
        // Two arrows with their hubs first plus an isolated vertex: each
        // hub must go to the end of its own component's elimination.
        let n = 21;
        let edges = (1..10).map(|i| (0, i)).chain((11..20).map(|i| (10, i)));
        let u = graph(n, edges);
        let perm = amd_ordering(&u).unwrap();
        assert_permutation(&perm, n);
        assert_eq!(perm[0], 20, "the isolated vertex is taken first");
        assert_eq!(fill_of(&u, Some(perm)), 18);
    }

    #[test]
    fn star_hub_is_eliminated_near_the_end() {
        // Star graph: the hub always has the largest degree, so minimum
        // degree eliminates it together with the last leaf.
        let n = 60;
        let u = graph(n, (1..n).map(|i| (0, i)));
        let perm = amd_ordering(&u).unwrap();
        let hub_pos = perm.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= n - 2, "hub at position {hub_pos} of {n}");
    }

    #[test]
    fn dense_vertices_are_deferred() {
        // A path on 400 vertices plus two hubs adjacent to everything: the
        // hubs' degree 399 exceeds max(16, 10·√400) = 200, so they are
        // ordered last, by index, and the path is ordered without fill.
        let n = 400;
        let hubs = [7usize, 3];
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        for h in hubs {
            edges.extend((0..n).filter(|&v| v != h).map(|v| (h, v)));
        }
        let perm = amd_ordering(&graph(n, edges)).unwrap();
        assert_permutation(&perm, n);
        assert_eq!(perm[n - 2..], [3, 7]);
        // A complete graph above the threshold: every vertex is dense.
        let n = 200;
        let edges = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        assert_eq!(amd_ordering(&graph(n, edges)).unwrap(), (0..n).collect::<Vec<_>>());
    }

    /// A huber-like KKT pattern: 16 hub (feature) columns and 200
    /// constraint rows. Row `c` meets eight distinct hubs and its private
    /// `u`, `r` and `s`; `r` and `s` each meet a bound row of their own.
    /// Hubs are scattered through the labels. Returns the pattern and the
    /// hubs.
    fn hub_pattern() -> (CscMatrix, Vec<usize>) {
        let (k, m) = (16, 200);
        let n = k + 6 * m;
        let hubs: Vec<usize> = (0..k).map(|h| h * n / k + 3).collect();
        let mut rest = (0..n).filter(|v| !hubs.contains(v));
        let mut edges = Vec::new();
        for i in 0..m {
            let [c, u, r, s, br, bs] = [(); 6].map(|()| rest.next().unwrap());
            edges.extend((0..8).map(|t| (c, hubs[(i + 3 * t) % k])));
            edges.extend([(c, u), (c, r), (c, s), (r, br), (s, bs)]);
        }
        (graph(n, edges), hubs)
    }

    /// AMD of the pattern with `hubs` deleted, followed by the hubs: the
    /// ordering a dense rule that forgets the hubs gives.
    fn hubs_last_blind(u: &CscMatrix, hubs: &[usize]) -> Vec<usize> {
        let n = u.ncols();
        let kept: Vec<usize> = (0..n).filter(|v| !hubs.contains(v)).collect();
        let mut new_of = vec![NONE; n];
        for (k, &v) in kept.iter().enumerate() {
            new_of[v] = k;
        }
        let mut edges = Vec::new();
        for j in 0..n {
            for &i in u.col(j).0.iter().filter(|&&i| i < j) {
                if new_of[i] != NONE && new_of[j] != NONE {
                    edges.push((new_of[i], new_of[j]));
                }
            }
        }
        let sub = amd_ordering(&graph(kept.len(), edges)).unwrap();
        sub.iter().map(|&k| kept[k]).chain(hubs.iter().copied()).collect()
    }

    #[test]
    fn mean_relative_threshold_flags_exactly_the_hubs() {
        // n = 1216: the hubs' degree of about 100 is far below 10·√n ≈ 348
        // but above 10·d̄ ≈ 42, while a constraint row has degree 11.
        let (u, hubs) = hub_pattern();
        let n = u.ncols();
        let amd = Amd::new(&u, true);
        let dense = amd.dense_threshold();
        assert_eq!(dense, 42);
        let flagged: Vec<usize> = (0..n).filter(|&v| amd.len[v] > dense).collect();
        assert_eq!(flagged, hubs);
        let order = amd.order(dense);
        assert_permutation(&order, n);
        assert_eq!(order[n - hubs.len()..], hubs, "the hubs are eliminated last");
    }

    #[test]
    fn dense_neighbour_counts_keep_hub_patterns_near_full_graph_fill() {
        // Without the hubs in its degree, a constraint row looks like a
        // degree-3 pivot and is eliminated before its private neighbours,
        // which then fill in against every hub it meets.
        let (u, hubs) = hub_pattern();
        let n = u.ncols();
        let full = fill_of(&u, Some(Amd::new(&u, true).order(n)));
        let blind = fill_of(&u, Some(hubs_last_blind(&u, &hubs)));
        let amd = fill_of(&u, Some(amd_ordering(&u).unwrap()));
        assert!(blind >= 2 * full, "hubs-last blind fill {blind} vs full-graph {full}");
        assert!(amd as f64 <= 1.10 * full as f64, "AMD fill {amd} vs full-graph {full}");
    }

    #[test]
    fn indistinguishable_columns_come_out_contiguous() {
        // A clique on scattered labels whose members share four neighbours
        // on a cycle through the other vertices. A member has a higher
        // degree than a shared neighbour, so a neighbour is eliminated
        // first; the members are then left with identical lists and merge
        // into a supervariable, which is eliminated as one block.
        let n = 40;
        let block = [2usize, 9, 17, 23, 31, 38];
        let ring: Vec<usize> = (0..n).filter(|v| !block.contains(v)).collect();
        let mut edges: Vec<(usize, usize)> =
            ring.iter().zip(ring.iter().cycle().skip(1)).map(|(&a, &b)| (a, b)).collect();
        for (k, &a) in block.iter().enumerate() {
            edges.extend(block[k + 1..].iter().map(|&b| (a, b)));
            edges.extend([5, 12, 20, 27].map(|h| (a, h)));
        }
        let perm = amd_ordering(&graph(n, edges)).unwrap();
        assert_permutation(&perm, n);
        let mut pos: Vec<usize> =
            block.iter().map(|b| perm.iter().position(|v| v == b).unwrap()).collect();
        pos.sort_unstable();
        assert_eq!(pos[block.len() - 1] - pos[0], block.len() - 1, "block at {pos:?}");
    }

    #[test]
    fn amd_is_deterministic() {
        for seed in 0..4 {
            let u = random_graph(500, 4, seed);
            assert_eq!(amd_ordering(&u).unwrap(), amd_ordering(&u).unwrap());
        }
        let (u, _) = hub_pattern();
        assert_eq!(amd_ordering(&u).unwrap(), amd_ordering(&u).unwrap());
    }

    #[test]
    fn workspace_compaction_leaves_the_ordering_unchanged() {
        // With only the n spare slots AMD needs, the workspace is compacted
        // many times; the lists keep their order, so the result is equal.
        for seed in 0..6 {
            let u = random_graph(400, 5, seed);
            let (tight, roomy) = (Amd::new(&u, false), Amd::new(&u, true));
            let dense = roomy.dense_threshold();
            assert_eq!(tight.order(dense), roomy.order(dense));
        }
    }

    #[test]
    fn symmetric_permutation_preserves_solutions() {
        let n = 10;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 5.0 + i as f64;
            if i + 2 < n {
                dense[i][i + 2] = -1.0;
                dense[i + 2][i] = -1.0;
            }
        }
        let u = upper_of(&dense);
        let perm = amd_ordering(&u).unwrap();
        let sp = SymmetricPermutation::new(&u, perm).unwrap();
        let f = crate::Ldlt::factor(sp.matrix()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let mut pb = vec![0.0; n];
        sp.permute_into(&b, &mut pb);
        let px = f.solve(&pb).unwrap();
        let mut x = vec![0.0; n];
        sp.unpermute_into(&px, &mut x);
        // Check A x = b against the original dense matrix.
        for i in 0..n {
            let got: f64 = (0..n).map(|j| dense[i][j] * x[j]).sum();
            assert!((got - b[i]).abs() < 1e-9, "row {i}: {got} vs {}", b[i]);
        }
    }

    #[test]
    fn refresh_values_tracks_source_matrix() {
        let u = upper_of(&bad_arrow(6));
        let perm = amd_ordering(&u).unwrap();
        let mut sp = SymmetricPermutation::new(&u, perm).unwrap();
        // Scale the original values and refresh.
        let mut u2 = u.clone();
        for v in u2.data_mut() {
            *v *= 3.0;
        }
        sp.refresh_values(&u2).unwrap();
        let rebuilt = SymmetricPermutation::new(&u2, sp.perm().to_vec()).unwrap();
        assert_eq!(sp.matrix(), rebuilt.matrix());
    }

    #[test]
    fn permute_roundtrip() {
        let u = upper_of(&bad_arrow(5));
        let sp = SymmetricPermutation::new(&u, vec![4, 2, 0, 1, 3]).unwrap();
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut buf = vec![0.0; 5];
        sp.permute_into(&v, &mut buf);
        assert_eq!(buf, vec![5.0, 3.0, 1.0, 2.0, 4.0]);
        let mut back = vec![0.0; 5];
        sp.unpermute_into(&buf, &mut back);
        assert_eq!(back, v);
    }
}
