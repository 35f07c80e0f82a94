//! Reusable scratch-buffer pool for allocation-free hot paths.
//!
//! Training steps run the same sequence of kernel shapes every
//! iteration, so instead of allocating a fresh [`Matrix`] per op the
//! `*_into` layer APIs borrow temporaries from a [`Scratch`] pool and
//! return them when done. After one warm-up step the pool holds a
//! buffer for every temporary the step needs and steady-state
//! iterations touch the heap zero times (see
//! [`crate::BUFFER_ALLOCS`]).
//!
//! ## Contract
//!
//! * [`Scratch::take`] hands out a matrix of the requested shape whose
//!   **contents are unspecified** (stale values from a previous use) —
//!   callers must fully overwrite it. Kernels that accumulate (`+=`)
//!   start from [`Scratch::take_zeroed`] instead.
//! * Callers return buffers with [`Scratch::put`] when done; a buffer
//!   not returned is simply dropped (correct, but the next step
//!   re-allocates it).
//! * The pool is owned by whoever drives the step (a model struct or a
//!   training loop) and is implicitly "reset" by the take/put
//!   discipline — buffers are invalidated the moment they are `put`
//!   back, so no reference to scratch contents may outlive the step
//!   that took them.

use crate::matrix::Matrix;

/// Buffers handed out by [`Scratch::take`] (and `take_zeroed`) across
/// every pool in the process; compare against `tensor.buffer_allocs`
/// to read the pool's effectiveness.
static SCRATCH_TAKES: gel_obs::Counter = gel_obs::Counter::new("tensor.scratch.takes");
/// High-water mark of buffers parked in any single pool.
static POOL_PEAK: gel_obs::Gauge = gel_obs::Gauge::new("tensor.scratch.pool_peak");

/// A size-keyed pool of reusable [`Matrix`] buffers.
///
/// `take` prefers the pooled buffer with the smallest sufficient
/// capacity (best fit), so a pool warmed up on mixed shapes keeps
/// serving all of them without reallocating.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Matrix>,
    /// Local peak, so the global gauge is only touched when a pool
    /// grows past its previous high-water mark (never in steady state).
    peak: usize,
}

impl Scratch {
    /// An empty pool.
    pub const fn new() -> Self {
        Self { pool: Vec::new(), peak: 0 }
    }

    /// Number of buffers currently parked in the pool.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when no buffers are parked.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Borrows a `rows × cols` matrix with **unspecified contents**;
    /// the caller must overwrite every entry. Reuses the best-fitting
    /// pooled buffer; only an empty pool or an undersized best
    /// candidate costs a heap allocation.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        SCRATCH_TAKES.incr();
        let need = rows * cols;
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        let mut largest: Option<(usize, usize)> = None;
        for (i, m) in self.pool.iter().enumerate() {
            let cap = m.capacity();
            if cap >= need && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
            if largest.is_none_or(|(_, c)| cap > c) {
                largest = Some((i, cap));
            }
        }
        match best.or(largest) {
            Some((i, _)) => {
                let mut m = self.pool.swap_remove(i);
                m.ensure_shape(rows, cols);
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Borrows a zero-filled `rows × cols` matrix (for kernels that
    /// accumulate into it).
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.take(rows, cols);
        m.fill(0.0);
        m
    }

    /// Returns a buffer to the pool for reuse. Its contents are dead
    /// from this point on.
    pub fn put(&mut self, m: Matrix) {
        self.pool.push(m);
        if self.pool.len() > self.peak {
            self.peak = self.pool.len();
            POOL_PEAK.set_max(self.peak as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BUFFER_ALLOCS;

    #[test]
    fn take_put_cycle_reuses_buffer() {
        let mut s = Scratch::new();
        let a = s.take(4, 4); // cold: allocates
        s.put(a);
        let before = BUFFER_ALLOCS.get();
        for _ in 0..100 {
            let m = s.take(4, 4);
            s.put(m);
        }
        assert_eq!(BUFFER_ALLOCS.get() - before, 0, "warm take/put must not allocate");
    }

    #[test]
    fn smaller_shapes_reuse_larger_buffers() {
        let mut s = Scratch::new();
        let a = s.take(8, 8);
        s.put(a);
        let before = BUFFER_ALLOCS.get();
        let b = s.take(2, 3);
        assert_eq!(b.shape(), (2, 3));
        s.put(b);
        assert_eq!(BUFFER_ALLOCS.get() - before, 0, "2x3 fits in the pooled 8x8 buffer");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut s = Scratch::new();
        let big = s.take(100, 100);
        let small = s.take(4, 4);
        s.put(big);
        s.put(small);
        let m = s.take(4, 4);
        assert!(m.capacity() < 100 * 100, "best fit should pick the small buffer");
        // The big one is still available for a big request.
        let m2 = s.take(100, 100);
        assert!(m2.capacity() >= 100 * 100);
    }

    #[test]
    fn take_zeroed_is_zeroed() {
        let mut s = Scratch::new();
        let mut a = s.take(3, 3);
        a.fill(7.0);
        s.put(a);
        let b = s.take_zeroed(3, 3);
        assert!(b.data().iter().all(|&x| x == 0.0));
    }
}
