//! The reduced-KKT preconditioner for the dense columns of `A`: block
//! elimination through their Schur complement.
//!
//! A data-fitting QP (lasso, Huber fitting, an SVM) has a few feature
//! columns of `A` that nearly every sample row touches, while each of its
//! other variables sits in the rows of one sample only. Split the
//! variables of `K = P + σI + Aᵀ W A` (`W = diag(ρ)`, Eq. 3) into the
//! dense columns `D` and the rest `R`:
//!
//! ```text
//! K = [[K_DD, K_DR], [K_RD, K_RR]]
//! ```
//!
//! `K_RR` is then block-diagonal over the connected components of its
//! pattern, each a handful of variables, and `K` is inverted exactly by
//! block elimination:
//!
//! ```text
//! K⁻¹ r = G r + Hᵀ S⁻¹ H r,   G = K_RR⁻¹ (zero on D),
//!                             H = E_D − K_DR G,
//!                             S = K_DD − K_DR G K_RD  (k × k, SPD)
//! ```
//!
//! where `E_D` selects the `D` entries of a vector. With `P_DR = 0`, `S` is
//! one weighted Gram of the rows of `A_D`,
//!
//! ```text
//! S = σI + P_DD + A_Dᵀ W̃ A_D,   W̃ = W − W A_R K_RR⁻¹ A_Rᵀ W,
//! ```
//!
//! and `W̃` is block-diagonal over the rows that touch one component (a row
//! with no entry in `R` keeps its `ρ_i`). `S` is factorized by a dense
//! Cholesky, so one application costs a product with `G`, `H` and `Hᵀ`
//! plus two triangular solves, and PCG on `K` converges in one iteration.
//!
//! The structure is fixed by the patterns alone; [`DenseColPrecond::new`]
//! declines (and the caller factors `K` itself) when there are no dense
//! columns, when `P` couples `D` to `R`, or when a component of `K_RR` has
//! more than 8 variables. A refresh whose `K_RR` blocks or `S` meet a
//! non-positive pivot leaves no factor to apply: it records the pivot
//! ([`DenseColPrecond::failed_pivot`]), and the KKT solve reports it as a
//! PCG breakdown until the next refresh succeeds.

use std::cmp::Reverse;

use rsqp_sparse::{CsrMatrix, TransposeCache};

/// The largest component of `K_RR` eliminated exactly.
const MAX_BLOCK: usize = 8;

/// Marks a variable outside `D`, or a row with no entry in `R`.
const NONE: usize = usize::MAX;

/// Block-Schur preconditioner for the dense columns of `A`, for the
/// reduced KKT operator `P + σI + Aᵀ diag(ρ) A`.
///
/// `D`, the components of `K_RR` and the patterns of `G`, `Hᵀ` and `A_D`
/// are chosen once from the patterns of `P` and `A`; [`Self::refresh`]
/// recomputes every value for new matrices or ρ into the buffers sized at
/// construction, without allocating.
#[derive(Debug, Clone)]
pub struct DenseColPrecond {
    sigma: f64,
    /// The dense columns `D`, in increasing order.
    cols: Vec<usize>,
    /// `slot[j]` is the position of column `j` in `cols`, or [`NONE`].
    slot: Vec<usize>,
    /// Components of `K_RR`: `comp_vars[comp_ptr[c]..comp_ptr[c + 1]]`,
    /// each in increasing order.
    comp_ptr: Vec<usize>,
    comp_vars: Vec<usize>,
    /// `local[l]`: the position of an `R` variable in its component, or
    /// [`NONE`] on `D`.
    local: Vec<usize>,
    /// Rows of `A` with entries in component `c`:
    /// `comp_rows[row_ptr[c]..row_ptr[c + 1]]`, increasing.
    row_ptr: Vec<usize>,
    comp_rows: Vec<usize>,
    /// The entries of each row of `A` in `R`: positions in `A`'s values at
    /// `r_pos[r_ptr[i]..r_ptr[i + 1]]` for row `i`, and their variables'
    /// positions in the row's component.
    r_ptr: Vec<usize>,
    r_pos: Vec<usize>,
    r_local: Vec<usize>,
    /// Components with two or more rows that also touch `D`: their block
    /// of `W̃` has off-diagonal entries.
    multi: Vec<usize>,
    /// `A_D` (`m × k`, column `j` renumbered `slot[j]`) and the positions
    /// of its values in `A`.
    a_d: CsrMatrix,
    a_d_src: Vec<usize>,
    /// For an entry of `A_D` in a row of component `c`: its column's
    /// position in the rows of `Hᵀ` on `c` (they share one pattern).
    ht_pos: Vec<usize>,
    /// The Gram weight of each row: `W̃_ii`.
    w: Vec<f64>,
    /// `z_i = ρ_i K_cc⁻¹ a_{i,c}` for each row `i` in both `D` and a
    /// component `c`, at `z[z_ptr[i]..z_ptr[i + 1]]`.
    z_ptr: Vec<usize>,
    z: Vec<f64>,
    /// `K_cc⁻¹` of each component, row-major, at `binv[blk_ptr[c]..]`.
    blk_ptr: Vec<usize>,
    binv: Vec<f64>,
    /// The diagonal of `G`.
    inv_diag: Vec<f64>,
    /// `G` as a matrix, when some component has more than one variable.
    g: Option<CsrMatrix>,
    /// `Hᵀ = E_Dᵀ − G K_RD` (`n × k`).
    ht: CsrMatrix,
    /// `H = (Hᵀ)ᵀ` (`k × n`) for the gather `s = H r`: built at the first
    /// [`Self::apply`], its values refreshed with `Hᵀ`'s after that.
    h: Option<TransposeCache>,
    /// `U` with `UᵀU = S`, row-major upper triangle (`k × k`).
    chol: Vec<f64>,
    /// The pivot the last refresh failed at, if it did.
    failed: Option<f64>,
    s: Vec<f64>,
}

impl DenseColPrecond {
    /// Picks the dense columns of `a` and, if the structure admits the
    /// elimination, builds the preconditioner for `P + σI + Aᵀ diag(ρ) A`.
    ///
    /// A column is dense when its nonzero count exceeds `max(16, 10·c̃)`,
    /// with `c̃` the median column count of `A`. At most `⌊√nnz(A)⌋`
    /// columns are kept, the densest (ties by index), so `S` never holds
    /// more entries than `A`. Returns `None` when no column is dense, when
    /// `P` couples a dense column to another variable, or when a component
    /// of `K_RR` has more than 8 variables.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not `n × n` for `n = a.ncols()` or `rho.len()` is
    /// not `a.nrows()`.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Option<Self> {
        let (m, n) = (a.nrows(), a.ncols());
        assert_eq!((p.nrows(), p.ncols()), (n, n), "P must be n × n");
        let counts: Vec<usize> = counts_of(a.indices().iter().copied(), n).collect();
        let median = *counts.clone().select_nth_unstable(n.checked_sub(1)? / 2).1;
        let threshold = (10 * median).max(16);
        let mut cols: Vec<usize> = (0..n).filter(|&j| counts[j] > threshold).collect();
        cols.sort_by_key(|&j| Reverse(counts[j]));
        cols.truncate(a.nnz().isqrt());
        cols.sort_unstable();
        if cols.is_empty() {
            return None;
        }
        let k = cols.len();
        let mut slot = vec![NONE; n];
        for (d, &j) in cols.iter().enumerate() {
            slot[j] = d;
        }
        let in_r = |j: usize| slot[j] == NONE;
        if (0..n).any(|i| p.row(i).0.iter().any(|&j| in_r(i) != in_r(j))) {
            return None;
        }

        // Components of K_RR's pattern: R variables that share a row of A
        // or an entry of P, numbered by their smallest variable.
        let mut parent: Vec<usize> = (0..n).collect();
        let find = |parent: &mut [usize], mut x: usize| {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        };
        let mut union = |x: usize, y: usize| {
            let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
            parent[rx.max(ry)] = rx.min(ry);
        };
        // The same pass splits each row into A_D (A restricted to D) and
        // the positions of its R entries.
        let mut indptr = Vec::with_capacity(m + 1);
        let mut indices = Vec::with_capacity(cols.iter().map(|&j| counts[j]).sum());
        let mut a_d_src = Vec::with_capacity(indices.capacity());
        let (mut r_ptr, mut r_pos) = (Vec::with_capacity(m + 1), Vec::with_capacity(m));
        indptr.push(0);
        r_ptr.push(0);
        for i in 0..m {
            let start = a.indptr()[i];
            for (e, &j) in a.row(i).0.iter().enumerate() {
                if !in_r(j) {
                    indices.push(slot[j]);
                    a_d_src.push(start + e);
                } else {
                    if r_pos.len() > r_ptr[i] {
                        union(a.indices()[r_pos[r_ptr[i]]], j);
                    }
                    r_pos.push(start + e);
                }
            }
            indptr.push(indices.len());
            r_ptr.push(r_pos.len());
        }
        let data = vec![0.0; indices.len()];
        let a_d = CsrMatrix::from_raw_parts(m, k, indptr, indices, data)
            .expect("the D entries of a valid CSR matrix form a valid CSR matrix");
        for l in (0..n).filter(|&l| in_r(l)) {
            p.row(l).0.iter().for_each(|&j| union(l, j));
        }
        let mut var_comp = vec![NONE; n];
        let mut sizes = Vec::new();
        for l in (0..n).filter(|&l| in_r(l)) {
            let root = find(&mut parent, l);
            if var_comp[root] == NONE {
                var_comp[root] = sizes.len();
                sizes.push(0);
            }
            var_comp[l] = var_comp[root];
            sizes[var_comp[l]] += 1;
        }
        if sizes.iter().any(|&s| s > MAX_BLOCK) {
            return None;
        }
        let ncomp = sizes.len();
        let comp_ptr = prefix(sizes.iter().copied());
        let blk_ptr = prefix(sizes.iter().map(|&s| s * s));
        let mut comp_vars = vec![0; comp_ptr[ncomp]];
        let mut local = vec![NONE; n];
        let mut fill = comp_ptr.clone();
        for l in (0..n).filter(|&l| in_r(l)) {
            let c = var_comp[l];
            local[l] = fill[c] - comp_ptr[c];
            comp_vars[fill[c]] = l;
            fill[c] += 1;
        }
        let row_comp: Vec<usize> = (0..m)
            .map(|i| {
                if r_ptr[i] == r_ptr[i + 1] {
                    NONE
                } else {
                    var_comp[a.indices()[r_pos[r_ptr[i]]]]
                }
            })
            .collect();
        let r_local: Vec<usize> = r_pos.iter().map(|&q| local[a.indices()[q]]).collect();
        let row_ptr = prefix(counts_of(row_comp.iter().copied().filter(|&c| c != NONE), ncomp));
        let mut comp_rows = vec![0; row_ptr[ncomp]];
        let mut fill = row_ptr.clone();
        for (i, &c) in row_comp.iter().enumerate().filter(|(_, &c)| c != NONE) {
            comp_rows[fill[c]] = i;
            fill[c] += 1;
        }

        // The rows of each component that touch D: the first one, and
        // whether there are more (then W̃ couples them).
        let mut d_row = vec![NONE; ncomp];
        let mut multi = Vec::new();
        for i in (0..m).filter(|&i| a_d.row_nnz(i) > 0) {
            match row_comp[i] {
                NONE => {}
                c if d_row[c] == NONE => d_row[c] = i,
                c if multi.last() != Some(&c) => multi.push(c),
                _ => {}
            }
        }
        multi.sort_unstable();
        multi.dedup();
        let z_ptr = prefix((0..m).map(|i| match row_comp[i] {
            c if c != NONE && a_d.row_nnz(i) > 0 => sizes[c],
            _ => 0,
        }));

        // Hᵀ: a variable of D has the one entry of E_Dᵀ; every variable of
        // component c has the columns of D its rows touch, in one shared
        // pattern — a single row's own columns, or their sorted union. An
        // entry of A_D sits at its position in its row, or in that union.
        let mut ht_pos = vec![0; a_d.nnz()];
        for i in 0..m {
            let start = a_d.indptr()[i];
            for (e, pos) in ht_pos[start..a_d.indptr()[i + 1]].iter_mut().enumerate() {
                *pos = e;
            }
        }
        let (mut union_ptr, mut unions) = (vec![0], Vec::new());
        let mut pos_of = vec![NONE; k];
        for &c in &multi {
            let start = unions.len();
            let rows =
                comp_rows[row_ptr[c]..row_ptr[c + 1]].iter().filter(|&&i| a_d.row_nnz(i) > 0);
            for &i in rows.clone() {
                unions.extend_from_slice(a_d.row(i).0);
            }
            unions[start..].sort_unstable();
            let mut kept = start;
            for e in start..unions.len() {
                if kept == start || unions[kept - 1] != unions[e] {
                    unions[kept] = unions[e];
                    kept += 1;
                }
            }
            unions.truncate(kept);
            for (e, &d) in unions[start..].iter().enumerate() {
                pos_of[d] = e;
            }
            for &i in rows {
                for q in a_d.indptr()[i]..a_d.indptr()[i + 1] {
                    ht_pos[q] = pos_of[a_d.indices()[q]];
                }
            }
            union_ptr.push(unions.len());
        }
        let row_of = |l: usize| -> &[usize] {
            match var_comp[l] {
                NONE => std::slice::from_ref(&slot[l]),
                c => match multi.binary_search(&c) {
                    Ok(u) => &unions[union_ptr[u]..union_ptr[u + 1]],
                    Err(_) if d_row[c] == NONE => &[],
                    Err(_) => a_d.row(d_row[c]).0,
                },
            }
        };
        let mut ht_ptr = Vec::with_capacity(n + 1);
        let mut ht_idx = Vec::with_capacity(n + a_d.nnz());
        ht_ptr.push(0);
        for l in 0..n {
            ht_idx.extend_from_slice(row_of(l));
            ht_ptr.push(ht_idx.len());
        }
        let ht_data = vec![0.0; ht_idx.len()];
        let ht = CsrMatrix::from_raw_parts(n, k, ht_ptr, ht_idx, ht_data)
            .expect("sorted distinct columns form a valid CSR matrix");
        // G: K_cc⁻¹ on each component, one (diagonal) entry on each of D.
        let g = sizes.iter().any(|&s| s > 1).then(|| {
            let block = |l: usize| -> &[usize] {
                match var_comp[l] {
                    NONE => std::slice::from_ref(&cols[slot[l]]),
                    c => &comp_vars[comp_ptr[c]..comp_ptr[c + 1]],
                }
            };
            let mut g_ptr = Vec::with_capacity(n + 1);
            let mut g_idx = Vec::with_capacity(n + blk_ptr[ncomp]);
            g_ptr.push(0);
            for l in 0..n {
                g_idx.extend_from_slice(block(l));
                g_ptr.push(g_idx.len());
            }
            let g_data = vec![0.0; g_idx.len()];
            CsrMatrix::from_raw_parts(n, n, g_ptr, g_idx, g_data)
                .expect("sorted blocks form a valid CSR matrix")
        });

        let mut pre = DenseColPrecond {
            sigma,
            cols,
            slot,
            comp_ptr,
            comp_vars,
            local,
            row_ptr,
            comp_rows,
            r_ptr,
            r_pos,
            r_local,
            multi,
            a_d,
            a_d_src,
            ht_pos,
            w: vec![0.0; m],
            z: vec![0.0; z_ptr[m]],
            z_ptr,
            binv: vec![0.0; blk_ptr[ncomp]],
            blk_ptr,
            inv_diag: vec![0.0; n],
            g,
            ht,
            h: None,
            chol: vec![0.0; k * k],
            failed: None,
            s: vec![0.0; k],
        };
        pre.refresh(p, a, rho);
        Some(pre)
    }

    /// Recomputes `G`, `Hᵀ` and the factor of `S` for new values of `P`,
    /// `A` or ρ, in place. The patterns must be the ones given at
    /// construction.
    ///
    /// If a block of `K_RR` or `S` is not numerically positive definite,
    /// the refresh stops at the failing pivot and records it
    /// ([`Self::failed_pivot`]); [`Self::apply`] must not be called until
    /// a later refresh succeeds.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ from the ones at construction.
    pub fn refresh(&mut self, p: &CsrMatrix, a: &CsrMatrix, rho: &[f64]) {
        assert_eq!(rho.len(), self.w.len(), "rho length mismatch");
        let src = a.data();
        for (dst, &e) in self.a_d.data_mut().iter_mut().zip(&self.a_d_src) {
            *dst = src[e];
        }
        self.failed =
            self.eliminate_blocks(p, a, rho).and_then(|()| self.factor_schur(p, a, rho)).err();
        if self.failed.is_none() {
            self.fill_ht();
            if let Some(h) = &mut self.h {
                h.refresh_values(&self.ht).expect("Hᵀ keeps its pattern");
            }
        }
    }

    /// Inverts each block `K_cc` of `K_RR` into `binv`, `G` and the
    /// diagonal, and forms `z_i` and the Gram weights `W̃_ii`. Fails with
    /// the pivot of a block that is not positive definite.
    fn eliminate_blocks(&mut self, p: &CsrMatrix, a: &CsrMatrix, rho: &[f64]) -> Result<(), f64> {
        self.w.copy_from_slice(rho);
        let mut b = [0.0; MAX_BLOCK * MAX_BLOCK];
        for c in 0..self.comp_ptr.len() - 1 {
            let vars = &self.comp_vars[self.comp_ptr[c]..self.comp_ptr[c + 1]];
            let s = vars.len();
            let b = &mut b[..s * s];
            // K_cc's upper triangle: P_cc + σI + Σ ρ_i a_{i,c} a_{i,c}ᵀ. P
            // couples an R variable only to its own component.
            b.fill(0.0);
            for (t, &l) in vars.iter().enumerate() {
                b[t * s + t] = self.sigma;
                let (idx, vals) = p.row(l);
                for (&j, &v) in idx.iter().zip(vals) {
                    if self.local[j] >= t {
                        b[t * s + self.local[j]] += v;
                    }
                }
            }
            let data = a.data();
            let rows = self.row_ptr[c]..self.row_ptr[c + 1];
            for e in rows.clone() {
                let i = self.comp_rows[e];
                let (pos, loc) = self.r_entries(i);
                for (f, (&q, &t)) in pos.iter().zip(loc).enumerate() {
                    let wv = rho[i] * data[q];
                    for (&q2, &t2) in pos[f..].iter().zip(&loc[f..]) {
                        b[t * s + t2] += wv * data[q2];
                    }
                }
            }
            cholesky_upper(b, s)?;
            // K_cc⁻¹ column by column; only the upper triangle is kept,
            // then mirrored, so the block is exactly symmetric.
            let binv = &mut self.binv[self.blk_ptr[c]..self.blk_ptr[c] + s * s];
            let mut col = [0.0; MAX_BLOCK];
            for q in 0..s {
                col[..s].fill(0.0);
                col[q] = 1.0;
                cholesky_solve(b, s, &mut col[..s]);
                for t in 0..=q {
                    binv[t * s + q] = col[t];
                    binv[q * s + t] = col[t];
                }
            }
            for (t, &l) in vars.iter().enumerate() {
                self.inv_diag[l] = binv[t * s + t];
                if let Some(g) = &mut self.g {
                    let start = g.indptr()[l];
                    g.data_mut()[start..start + s].copy_from_slice(&binv[t * s..(t + 1) * s]);
                }
            }
            // z_i = ρ_i K_cc⁻¹ a_{i,c} and W̃_ii = ρ_i − ρ_i a_{i,c}ᵀ z_i for
            // the rows that also touch D.
            for e in rows {
                let i = self.comp_rows[e];
                let zi = &mut self.z[self.z_ptr[i]..self.z_ptr[i + 1]];
                if zi.is_empty() {
                    continue;
                }
                let (pos, loc) = (
                    &self.r_pos[self.r_ptr[i]..self.r_ptr[i + 1]],
                    &self.r_local[self.r_ptr[i]..self.r_ptr[i + 1]],
                );
                zi.fill(0.0);
                for (&q, &u) in pos.iter().zip(loc) {
                    for (zt, &bt) in zi.iter_mut().zip(&binv[u * s..(u + 1) * s]) {
                        *zt += bt * data[q];
                    }
                }
                zi.iter_mut().for_each(|zt| *zt *= rho[i]);
                let dot: f64 = pos.iter().zip(loc).map(|(&q, &u)| data[q] * zi[u]).sum();
                self.w[i] = rho[i] - rho[i] * dot;
            }
        }
        Ok(())
    }

    /// Forms `S = σI + P_DD + A_Dᵀ W̃ A_D` (upper triangle) and factorizes
    /// it. Fails with the first pivot that is not positive and finite.
    fn factor_schur(&mut self, p: &CsrMatrix, a: &CsrMatrix, rho: &[f64]) -> Result<(), f64> {
        let k = self.cols.len();
        let s = &mut self.chol;
        s.fill(0.0);
        // P couples a D variable only to D.
        for (d, &j) in self.cols.iter().enumerate() {
            s[d * k + d] = self.sigma;
            let (idx, vals) = p.row(j);
            for (&j2, &v) in idx.iter().zip(vals) {
                if self.slot[j2] >= d {
                    s[d * k + self.slot[j2]] += v;
                }
            }
        }
        // The diagonal of W̃, row by row of A_D: row i adds w_i a_id a_id'
        // to row d of S for every pair d ≤ d' of its entries, two rows of S
        // at a time so each entry of A_D is read once per pair.
        for (i, &wi) in self.w.iter().enumerate() {
            let (idx, vals) = self.a_d.row(i);
            let mut e = 0;
            while e + 1 < idx.len() {
                let (d1, d2) = (idx[e], idx[e + 1]);
                let (c1, c2) = (wi * vals[e], wi * vals[e + 1]);
                let (lo, hi) = s.split_at_mut(d2 * k);
                let (r1, r2) = (&mut lo[d1 * k..(d1 + 1) * k], &mut hi[..k]);
                r1[d1] += c1 * vals[e];
                for (&d, &v) in idx[e + 1..].iter().zip(&vals[e + 1..]) {
                    r1[d] += c1 * v;
                    r2[d] += c2 * v;
                }
                e += 2;
            }
            if let (Some(&d), Some(&v)) = (idx.get(e), vals.get(e)) {
                s[d * k + d] += wi * v * v;
            }
        }
        // W̃'s off-diagonal entries, W̃_ii' = −ρ_i a_{i,c}ᵀ z_i', couple the
        // rows of one component.
        for &c in &self.multi {
            let rows = self.row_ptr[c]..self.row_ptr[c + 1];
            let touches_d = |e: &usize| self.a_d.row_nnz(self.comp_rows[*e]) > 0;
            for e in rows.clone().filter(touches_d) {
                let i = self.comp_rows[e];
                let range = self.r_ptr[i]..self.r_ptr[i + 1];
                let (pos, loc) = (&self.r_pos[range.clone()], &self.r_local[range]);
                for e2 in rows.clone().filter(|e2| *e2 != e).filter(touches_d) {
                    let i2 = self.comp_rows[e2];
                    let z2 = &self.z[self.z_ptr[i2]..self.z_ptr[i2 + 1]];
                    let dot: f64 = pos.iter().zip(loc).map(|(&q, &u)| a.data()[q] * z2[u]).sum();
                    let wt = -rho[i] * dot;
                    let (d1, v1) = self.a_d.row(i);
                    let (d2, v2) = self.a_d.row(i2);
                    for (&x, &vx) in d1.iter().zip(v1) {
                        for (&y, &vy) in d2.iter().zip(v2).filter(|(&y, _)| y >= x) {
                            self.chol[x * k + y] += wt * vx * vy;
                        }
                    }
                }
            }
        }
        cholesky_upper(&mut self.chol, k)
    }

    /// The `R` entries of row `i`: their positions in `A`'s values and in
    /// the component.
    fn r_entries(&self, i: usize) -> (&[usize], &[usize]) {
        let range = self.r_ptr[i]..self.r_ptr[i + 1];
        (&self.r_pos[range.clone()], &self.r_local[range])
    }

    /// Writes `Hᵀ = E_Dᵀ − G K_RD`: the row of variable `t` of component
    /// `c` holds `−Σ_i z_i[t] a_{i,D}` over the rows `i` of `c`.
    fn fill_ht(&mut self) {
        for &j in &self.cols {
            let q = self.ht.indptr()[j];
            self.ht.data_mut()[q] = 1.0;
        }
        for c in 0..self.comp_ptr.len() - 1 {
            let vars = &self.comp_vars[self.comp_ptr[c]..self.comp_ptr[c + 1]];
            for (t, &l) in vars.iter().enumerate() {
                let (start, end) = (self.ht.indptr()[l], self.ht.indptr()[l + 1]);
                let row = &mut self.ht.data_mut()[start..end];
                row.fill(0.0);
                for &i in &self.comp_rows[self.row_ptr[c]..self.row_ptr[c + 1]] {
                    if self.z_ptr[i] == self.z_ptr[i + 1] {
                        continue;
                    }
                    let zit = self.z[self.z_ptr[i] + t];
                    for q in self.a_d.indptr()[i]..self.a_d.indptr()[i + 1] {
                        row[self.ht_pos[q]] -= self.a_d.data()[q] * zit;
                    }
                }
            }
        }
    }

    /// `d = M⁻¹ r = G r + Hᵀ S⁻¹ H r`: `d = G r`, `s = H r` by a gather
    /// over the rows of `H` (each summed in the order of the rows of `Hᵀ`),
    /// `s ← S⁻¹ s` by two triangular solves, and `d += Hᵀ s`. The first
    /// call transposes `Hᵀ` into `H`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `d` is not of length `n`, or while a failed
    /// refresh stands ([`Self::failed_pivot`]).
    pub fn apply(&mut self, r: &[f64], d: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "preconditioner input length mismatch");
        assert_eq!(d.len(), self.inv_diag.len(), "preconditioner output length mismatch");
        assert!(self.failed.is_none(), "the last refresh left no factor to apply");
        match &self.g {
            Some(g) => g.spmv(r, d).expect("G is n × n"),
            None => {
                for ((di, &ri), &inv) in d.iter_mut().zip(r).zip(&self.inv_diag) {
                    *di = ri * inv;
                }
            }
        }
        let h = self.h.get_or_insert_with(|| TransposeCache::new(&self.ht));
        h.spmv(r, &mut self.s).expect("H is k × n");
        cholesky_solve(&self.chol, self.cols.len(), &mut self.s);
        self.ht.spmv_acc(1.0, &self.s, d).expect("Hᵀ is n × k");
    }

    /// Sparse products one [`Self::apply`] runs: `H`, `S⁻¹` and `Hᵀ`, and
    /// `G` when it is not diagonal.
    pub fn products(&self) -> usize {
        3 + usize::from(self.g.is_some())
    }

    /// Number of dense columns `k = |D|` (structural: fixed at
    /// construction).
    pub fn rank(&self) -> usize {
        self.cols.len()
    }

    /// The pivot the last refresh met that was not positive and finite, in
    /// a block of `K_RR` or in `S`, or `None` when it factored both.
    pub fn failed_pivot(&self) -> Option<f64> {
        self.failed
    }

    /// The dense columns `D`, in increasing order.
    pub fn dense_cols(&self) -> &[usize] {
        &self.cols
    }

    /// The diagonal of `G` (zero on `D`).
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// `G = K_RR⁻¹` as an `n × n` block-diagonal matrix (one entry on each
    /// variable of `D`), when some block has more than one variable.
    pub fn g(&self) -> Option<&CsrMatrix> {
        self.g.as_ref()
    }

    /// `Hᵀ = E_Dᵀ − G K_RD` (`n × k`).
    pub fn ht(&self) -> &CsrMatrix {
        &self.ht
    }

    /// Writes `S⁻¹` (`k × k`, row-major, exactly symmetric) from the
    /// Cholesky factor, one column at a time; meaningless while a failed
    /// refresh stands.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold `k²` entries.
    pub fn write_s_inverse(&self, out: &mut [f64]) {
        let k = self.cols.len();
        assert_eq!(out.len(), k * k, "S⁻¹ is k × k");
        out.fill(0.0);
        // Row j of S⁻¹ is its column j; only the upper triangle is kept,
        // then mirrored.
        for j in 0..k {
            let row = &mut out[j * k..(j + 1) * k];
            row[j] = 1.0;
            cholesky_solve(&self.chol, k, row);
        }
        for i in 0..k {
            for j in 0..i {
                out[i * k + j] = out[j * k + i];
            }
        }
    }
}

/// How often each of `0..len` occurs in `items`.
fn counts_of(items: impl Iterator<Item = usize>, len: usize) -> impl Iterator<Item = usize> {
    let mut counts = vec![0; len];
    items.for_each(|x| counts[x] += 1);
    counts.into_iter()
}

/// Offsets `[0, s₀, s₀ + s₁, …]` of consecutive runs of the given sizes.
fn prefix(sizes: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out = vec![0];
    for s in sizes {
        out.push(out[out.len() - 1] + s);
    }
    out
}

/// Factors the symmetric positive definite `k × k` matrix whose upper
/// triangle is stored row-major in `a` as `UᵀU`, overwriting the upper
/// triangle with `U`. Fails with the first pivot that is not positive and
/// finite.
fn cholesky_upper(a: &mut [f64], k: usize) -> Result<(), f64> {
    // Two pivot rows at a time: the trailing rows take both updates in
    // one pass, in the order a one-row step would apply them.
    let mut d = 0;
    while d + 1 < k {
        pivot_row(a, k, d)?;
        let (head, tail) = a.split_at_mut((d + 1) * k);
        let (r0, r1) = (&head[d * k..], &mut tail[..k]);
        let f = r0[d + 1];
        for (x, &y) in r1[d + 1..].iter_mut().zip(&r0[d + 1..]) {
            *x -= f * y;
        }
        pivot_row(a, k, d + 1)?;
        let (head, tail) = a.split_at_mut((d + 2) * k);
        let (r0, r1) = (&head[d * k..(d + 1) * k], &head[(d + 1) * k..]);
        for (q, rq) in (d + 2..).zip(tail.chunks_exact_mut(k)) {
            let (f0, f1) = (r0[q], r1[q]);
            for ((x, &y0), &y1) in rq[q..].iter_mut().zip(&r0[q..]).zip(&r1[q..]) {
                *x = *x - f0 * y0 - f1 * y1;
            }
        }
        d += 2;
    }
    if d < k {
        pivot_row(a, k, d)?;
    }
    Ok(())
}

/// Takes the square root of pivot `d` and divides the rest of row `d` by
/// it. Fails with the pivot unless it is positive and finite.
fn pivot_row(a: &mut [f64], k: usize, d: usize) -> Result<(), f64> {
    let row = &mut a[d * k..(d + 1) * k];
    let pivot = row[d];
    if !(pivot > 0.0 && pivot.is_finite()) {
        return Err(pivot);
    }
    let u = pivot.sqrt();
    row[d] = u;
    for v in &mut row[d + 1..] {
        *v /= u;
    }
    Ok(())
}

/// Solves `UᵀU x = b` in place for the factor of [`cholesky_upper`].
fn cholesky_solve(u: &[f64], k: usize, x: &mut [f64]) {
    for d in 0..k {
        let row = &u[d * k..(d + 1) * k];
        x[d] /= row[d];
        let xd = x[d];
        for (xq, &v) in x[d + 1..].iter_mut().zip(&row[d + 1..]) {
            *xq -= v * xd;
        }
    }
    for d in (0..k).rev() {
        let row = &u[d * k..(d + 1) * k];
        let acc = row[d + 1..].iter().zip(&x[d + 1..]).fold(x[d], |acc, (&v, &xq)| acc - v * xq);
        x[d] = acc / row[d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_problems::{generate, Domain};

    /// [`DenseColPrecond::apply`] with `s = H r` scattered over the rows of
    /// `Hᵀ` and `d += Hᵀ s` written out as one fold per row of `Hᵀ`: the
    /// reference its gather through `H` and its `Hᵀ` product through the
    /// CSR row kernel must match bit for bit.
    fn apply_with_row_fold(pre: &mut DenseColPrecond, r: &[f64], d: &mut [f64]) {
        match &pre.g {
            Some(g) => g.spmv(r, d).unwrap(),
            None => {
                for ((di, &ri), &inv) in d.iter_mut().zip(r).zip(&pre.inv_diag) {
                    *di = ri * inv;
                }
            }
        }
        pre.s.fill(0.0);
        for (l, &rl) in r.iter().enumerate() {
            let (idx, vals) = pre.ht.row(l);
            for (&q, &v) in idx.iter().zip(vals) {
                pre.s[q] += v * rl;
            }
        }
        cholesky_solve(&pre.chol, pre.cols.len(), &mut pre.s);
        for (l, dl) in d.iter_mut().enumerate() {
            let (idx, vals) = pre.ht.row(l);
            *dl += idx.iter().zip(vals).fold(0.0, |acc, (&q, &v)| acc + v * pre.s[q]);
        }
    }

    #[test]
    fn apply_equals_the_row_fold_bit_for_bit() {
        for (domain, size) in [(Domain::Svm, 21), (Domain::Lasso, 14), (Domain::Huber, 19)] {
            let qp = generate(domain, size, 1);
            let rho: Vec<f64> =
                qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
            let mut pre = DenseColPrecond::new(qp.p(), qp.a(), 1e-6, &rho).unwrap();
            let n = qp.p().nrows();
            // A refresh between the applies moves H's values with Hᵀ's.
            for (phase, scale) in [(0.0, 1.0), (1.3, 1.0), (0.4, 3.0)] {
                if scale != 1.0 {
                    let rho: Vec<f64> = rho.iter().map(|r| r * scale).collect();
                    pre.refresh(qp.p(), qp.a(), &rho);
                }
                let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37 + phase).sin()).collect();
                let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
                pre.apply(&r, &mut got);
                apply_with_row_fold(&mut pre, &r, &mut want);
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{}", qp.name());
            }
        }
    }
}
