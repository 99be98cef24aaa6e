//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the solver's speed swings by up to 1.7× from one
//! second to the next, and the share of slow seconds drifts over minutes.
//! A load-bound sparse matrix-vector product swings about twice as far as
//! the solver, while a latency-bound integer chain barely moves. The
//! reference runs both, the chain taking about a third of the call on an
//! idle host, which swings about as far as the solver does. It is written
//! here against no crate of the workspace, so a change to the solver never
//! changes it.
//!
//! Every end-to-end sample is paired with the reference measured just
//! before and just after it, and reported as `t · REFERENCE_S / r`: the
//! time the sample would take on a host where one reference call takes
//! [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// The reference time normalized samples are scaled to: about the fastest
/// one call runs on a 2-vCPU Xeon VM.
pub const REFERENCE_S: f64 = 4e-4;

/// Rows of the reference matrix.
const ROWS: usize = 2000;
/// Stored entries per row.
const PER_ROW: usize = 10;
/// Sparse products per call (the load-bound part).
const PRODUCTS: usize = 16;
/// Steps of the dependent integer chain per call (the latency-bound part).
const CHAIN: u64 = 75_000;

/// The reference kernel and its data: a fixed random sparse matrix whose
/// rows average their entries, so the iterate stays at one.
#[derive(Debug)]
struct Kernel {
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut indptr = vec![0];
        let mut indices = Vec::with_capacity(ROWS * PER_ROW);
        for _ in 0..ROWS {
            let mut cols: Vec<usize> = (0..PER_ROW).map(|_| next() as usize % ROWS).collect();
            cols.sort_unstable();
            indices.extend(cols);
            indptr.push(indices.len());
        }
        let data = vec![1.0 / PER_ROW as f64; indices.len()];
        Kernel { indptr, indices, data, x: vec![1.0; ROWS], y: vec![0.0; ROWS] }
    }

    /// Runs the products and the chain once; returns their wall time in
    /// seconds.
    fn measure(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PRODUCTS {
            for (i, yi) in self.y.iter_mut().enumerate() {
                let row = self.indptr[i]..self.indptr[i + 1];
                *yi = self.indices[row.clone()]
                    .iter()
                    .zip(&self.data[row])
                    .map(|(&j, v)| v * self.x[j])
                    .sum();
            }
            std::mem::swap(&mut self.x, &mut self.y);
        }
        black_box(&self.x);
        let mut h = black_box(1u64);
        for i in 0..CHAIN {
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i) ^ (h >> 29);
        }
        black_box(h);
        start.elapsed().as_secs_f64()
    }
}

/// Pairs timed samples with the reference. Each sample is normalized by
/// the reference measured just before it and the one measured just after
/// it; the latter is the next sample's "before".
#[derive(Debug)]
pub struct Probe {
    kernel: Kernel,
    before: f64,
    /// Seconds spent running the reference so far.
    pub spent: f64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe { kernel: Kernel::new(), before: REFERENCE_S, spent: 0.0 }
    }
}

impl Probe {
    /// Measures the reference ahead of the next sample. Call it before a
    /// series of samples that does not directly follow the previous one.
    pub fn start(&mut self) {
        self.before = self.kernel.measure();
        self.spent += self.before;
    }

    /// Normalizes a sample `t` that ended just now.
    pub fn sample(&mut self, t: f64) -> f64 {
        let after = self.kernel.measure();
        self.spent += after;
        let before = std::mem::replace(&mut self.before, after);
        normalize(t, before, after)
    }
}

/// `t` scaled to the reference speed, given the reference times measured
/// just before and just after it.
pub fn normalize(t: f64, before: f64, after: f64) -> f64 {
    t * REFERENCE_S / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_keeps_its_iterate() {
        let mut k = Kernel::new();
        k.measure();
        assert!(k.x.iter().all(|v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn normalizing_scales_by_the_reference() {
        assert_eq!(normalize(2.0, REFERENCE_S, REFERENCE_S), 2.0);
        assert_eq!(normalize(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 1.0);
        let mut p = Probe::default();
        p.start();
        let v = p.sample(1e-3);
        assert!(v.is_finite() && v > 0.0);
        assert!(p.spent > 0.0);
    }
}
