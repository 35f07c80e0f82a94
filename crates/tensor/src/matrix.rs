//! Dense row-major `f64` matrices.
//!
//! This is the numeric substrate for every neural component in the
//! workspace (GNN layers are linear-algebra programs, paper slide 13).
//! It is deliberately small: dense `f64`, row-major, no BLAS — the
//! graphs in the reproduced experiments have at most a few thousand
//! vertices and feature dimensions below a few hundred. The product
//! kernels bottom out in the register-blocked, cache-tiled cores of
//! [`crate::kernels`]; this module owns shapes, dispatch (serial vs
//! deterministic row-block parallel), and observability.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use rayon::prelude::*;

use crate::activation::Activation;
use crate::kernels;

/// Products below this many multiply-adds run serially: thread fan-out
/// costs tens of microseconds, which would dominate the small per-layer
/// matmuls in GNN training loops. The break-even sits far above naive
/// expectations: a 560×16×16 product (~2¹⁷ madds, ~35 µs on the old
/// kernels) ran ~2.7× *slower* through the fan-out at four threads —
/// the overhead that made block-diagonal batching regress below the
/// per-graph baseline — which put the old break-even at 2¹⁹ madds
/// (~120 µs serial). The packed SIMD kernels run the serial path ~4.4×
/// faster, so the same ~120 µs of absorbable work is now ~4× as many
/// madds: 2²¹.
///
/// Re-measured against the packed kernels (2026-08): the serial core
/// runs 128³ = 2²¹ madds in ~138 µs (~15 Gmadd/s), and the rayon
/// fan-out costs ~40–90 µs per dispatch — so 2²¹ sits right at the
/// point where a second thread's half-share of the serial time pays
/// for the fan-out. Below it the dispatch can only lose; well above
/// it the overhead amortises. Single-worker pools skip the question
/// entirely via [`par_enabled`].
const PAR_FLOPS_THRESHOLD: usize = 1 << 21;

/// Whether the parallel kernel path can actually help: with one worker
/// thread the fan-out machinery only adds dispatch overhead (measured
/// at 10–20% on threshold-sized products), so fall straight through to
/// the serial loops. Both paths are bit-identical by construction, so
/// this is purely a scheduling decision.
#[inline]
fn par_enabled() -> bool {
    rayon::current_num_threads() > 1
}

/// Kernel invocations that took the row-parallel path.
static DISPATCH_PARALLEL: gel_obs::Counter = gel_obs::Counter::new("tensor.dispatch.parallel");
/// Kernel invocations that stayed on the serial loop (below the FLOP
/// threshold, single row, or one configured thread).
static DISPATCH_SERIAL: gel_obs::Counter = gel_obs::Counter::new("tensor.dispatch.serial");

/// Records one kernel scheduling decision and passes the verdict
/// through. Exactly one call per kernel invocation, so
/// `parallel + serial` is thread-count-independent for a deterministic
/// workload (only the split varies).
#[inline]
fn dispatch(parallel: bool) -> bool {
    if parallel {
        DISPATCH_PARALLEL.incr();
    } else {
        DISPATCH_SERIAL.incr();
    }
    parallel
}

/// The one GEMM dispatch behind every product entry point: `out =
/// op(a)·op(b)`, where `op` transposes when `at` / `bt` is set, reshaped
/// as needed, then the optional `σ(· + bias)` epilogue over each
/// finished block. Runs the blocked core from [`kernels`] — per-cell
/// ascending-k accumulation on every path — serially or in fixed
/// [`kernels::PAR_ROWS`]-row blocks, so every cell is computed by the
/// identical instruction sequence at any thread count. `span` names the
/// caller's timing span.
fn gemm(
    span: &'static str,
    a: &Matrix,
    at: bool,
    b: &Matrix,
    bt: bool,
    out: &mut Matrix,
    epilogue: Option<(&[f64], Activation)>,
) {
    let (rows, k) = if at { (a.cols, a.rows) } else { (a.rows, a.cols) };
    let n = if bt { b.rows } else { b.cols };
    out.ensure_shape(rows, n);
    let _t = gel_obs::span(span);
    if n == 0 {
        return;
    }
    let block = |blk: usize, part: &mut [f64]| {
        let row0 = blk * kernels::PAR_ROWS;
        kernels::gemm_into(
            &a.data,
            a.cols,
            at,
            &b.data,
            b.cols,
            bt,
            k,
            row0,
            part.len() / n,
            n,
            part,
        );
        if let Some((bias, act)) = epilogue {
            for row in part.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o = act.apply(*o + bv);
                }
            }
        }
    };
    if dispatch(rows * k * n >= PAR_FLOPS_THRESHOLD && rows > 1 && par_enabled()) {
        out.data.par_chunks_mut(kernels::PAR_ROWS * n).enumerate().for_each(|(i, p)| block(i, p));
    } else {
        block(0, &mut out.data);
    }
}

/// Fresh `f64` buffer allocations made by `Matrix` (constructors,
/// clones, and capacity-growing reshapes), since the last
/// [`gel_obs::reset`].
///
/// This is the allocation counter behind the zero-allocation hot-path
/// contract: a steady-state training step that runs entirely through
/// the `*_into` kernels and a warmed-up [`crate::Scratch`] pool leaves
/// this counter unchanged. Callers take deltas of
/// `BUFFER_ALLOCS.get()` around the step.
pub static BUFFER_ALLOCS: gel_obs::Counter = gel_obs::Counter::new("tensor.buffer_allocs");

#[inline]
fn note_alloc(len: usize) {
    if len > 0 {
        BUFFER_ALLOCS.incr();
    }
}

/// A dense row-major matrix of `f64`.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (no heap allocation).
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        note_alloc(self.data.len());
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.copy_from(source);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        note_alloc(rows * cols);
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        note_alloc(rows * cols);
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        note_alloc(data.len());
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        note_alloc(data.len());
        Self { rows: r, cols: c, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        note_alloc(data.len());
        Self { rows, cols, data }
    }

    /// Interprets a slice as a `1 × n` row vector.
    pub fn row_vector(v: &[f64]) -> Self {
        note_alloc(v.len());
        Self { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Reshapes `self` to `rows × cols` without preserving contents.
    ///
    /// Reuses the existing buffer whenever its capacity suffices (no
    /// heap traffic, counter unchanged); only a capacity-growing resize
    /// counts as an allocation. Entries are unspecified afterwards —
    /// callers must fully overwrite them.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.len() != n {
            if n > self.data.capacity() {
                note_alloc(n);
            }
            self.data.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` an exact copy of `src`, reusing the buffer when
    /// capacity allows.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.ensure_shape(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Capacity of the backing buffer in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        let c = self.cols;
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Copies `src` into row `i`.
    pub fn set_row(&mut self, i: usize, src: &[f64]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(i).copy_from_slice(src);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into `out` (reshaped as
    /// needed, previous contents discarded). Bit-identical to
    /// [`Matrix::matmul`].
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        gemm("tensor.matmul", self, false, rhs, false, out, None);
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// `selfᵀ * rhs` written into `out` (reshaped as needed, previous
    /// contents discarded). Bit-identical to [`Matrix::t_matmul`].
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        gemm("tensor.t_matmul", self, true, rhs, false, out, None);
    }

    /// `self * rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// `self * rhsᵀ` written into `out` (reshaped as needed, previous
    /// contents discarded). Bit-identical to [`Matrix::matmul_t`].
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        gemm("tensor.matmul_t", self, false, rhs, true, out, None);
    }

    /// Fused affine + activation: `out = σ(self·rhs + bias)` in a
    /// single pass over `out` (bias broadcast over rows). Bit-identical
    /// to `matmul` → `add_row_broadcast` → `Activation::apply_matrix`:
    /// each output row accumulates over k from zero in the same order,
    /// then adds the bias, then applies σ entrywise. Inference-path
    /// companion of [`Matrix::add_bias_activate_into`] (which keeps the
    /// pre-activation for backprop).
    pub fn matmul_bias_act_into(
        &self,
        rhs: &Matrix,
        bias: &[f64],
        act: Activation,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(bias.len(), rhs.cols, "bias width mismatch");
        gemm("tensor.matmul_bias_act", self, false, rhs, false, out, Some((bias, act)));
    }

    /// Fused bias-add + activation for the training path: adds `bias`
    /// (broadcast over rows) into `self` in place — leaving `self` as
    /// the pre-activation that backprop needs — then writes `σ(self)`
    /// into `out`. Bit-identical to `add_row_broadcast` followed by
    /// `Activation::apply_matrix`.
    pub fn add_bias_activate_into(&mut self, bias: &[f64], act: Activation, out: &mut Matrix) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        out.ensure_shape(self.rows, self.cols);
        for i in 0..self.rows {
            let base = i * self.cols;
            let pre_row = &mut self.data[base..base + self.cols];
            let out_row = &mut out.data[base..base + self.cols];
            for ((p, o), &b) in pre_row.iter_mut().zip(out_row).zip(bias) {
                *p += b;
                *o = act.apply(*p);
            }
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        note_alloc(self.data.len());
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise map written into `out` (reshaped as needed).
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        out.ensure_shape(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        note_alloc(self.data.len());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a * b).collect(),
        }
    }

    /// Element-wise product written into `out`; bit-identical to
    /// [`Matrix::hadamard`].
    pub fn hadamard_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        out.ensure_shape(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a * b;
        }
    }

    /// Element-wise sum written into `out`; bit-identical to `&a + &b`.
    pub fn add_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        out.ensure_shape(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a + b;
        }
    }

    /// Element-wise difference written into `out`; bit-identical to
    /// `&a - &b`.
    pub fn sub_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        out.ensure_shape(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a - b;
        }
    }

    /// Scaled copy written into `out`; bit-identical to
    /// [`Matrix::scale`].
    pub fn scale_into(&self, s: f64, out: &mut Matrix) {
        self.map_into(|x| x * s, out);
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += rhs * s` (axpy).
    pub fn add_scaled(&mut self, rhs: &Matrix, s: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * s;
        }
    }

    /// Adds `row` (broadcast) to every row of `self`.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for i in 0..self.rows {
            for (a, &b) in self.row_mut(i).iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Column sums as a vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.column_sums_into(&mut out);
        out
    }

    /// Column sums written into `out` (length `cols`); bit-identical to
    /// [`Matrix::column_sums`].
    pub fn column_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "column_sums width mismatch");
        out.fill(0.0);
        for i in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-norm over entries); 0 for empty.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn hconcat(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        self.hconcat_into(rhs, &mut out);
        out
    }

    /// Horizontal concatenation written into `out` (reshaped as
    /// needed); bit-identical to [`Matrix::hconcat`].
    pub fn hconcat_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "hconcat row mismatch");
        let cols = self.cols + rhs.cols;
        out.ensure_shape(self.rows, cols);
        for i in 0..self.rows {
            out.data[i * cols..i * cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * cols + self.cols..(i + 1) * cols].copy_from_slice(rhs.row(i));
        }
    }

    /// True when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True when `self` and `rhs` agree entrywise within `tol`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(&rhs.data).all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        note_alloc(self.data.len());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a + b).collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        note_alloc(self.data.len());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a - b).collect(),
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_scaled(rhs, 1.0);
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:9.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 12 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.0], &[2.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c[(0, 0)], 7.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(4, 2, |i, j| (i * j + 1) as f64);
        assert!(a.t_matmul(&b).approx_eq(&a.transpose().matmul(&b), 1e-12));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        assert!(a.matmul_t(&b).approx_eq(&a.matmul(&b.transpose()), 1e-12));
    }

    #[test]
    fn hconcat_widths() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let c = a.hconcat(&b);
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.row(0), &[1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn broadcast_add() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -1.0]);
        assert_eq!(a.row(2), &[1.0, -1.0]);
    }

    #[test]
    fn column_sums_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn large_matmuls_bit_identical_across_thread_counts() {
        // Big enough that every kernel's flop product (160·96·160)
        // crosses PAR_FLOPS_THRESHOLD and takes the parallel path.
        const _: () = assert!(160 * 96 * 160 >= PAR_FLOPS_THRESHOLD);
        let a = Matrix::from_fn(160, 96, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
        let b = Matrix::from_fn(96, 160, |i, j| ((i * 13 + j * 7) % 19) as f64 * 0.25);
        let c = Matrix::from_fn(160, 160, |i, j| ((i + j * 3) % 29) as f64 - 14.0);
        let d = Matrix::from_fn(160, 96, |i, j| ((i * 5 + j) % 27) as f64 * 0.5 - 6.0);
        let bias: Vec<f64> = (0..160).map(|j| (j % 7) as f64 * 0.5 - 1.5).collect();
        let fused = |out: &mut Matrix| a.matmul_bias_act_into(&b, &bias, Activation::ReLU, out);
        rayon::set_num_threads(1);
        let serial = (a.matmul(&b), a.t_matmul(&c), a.matmul_t(&d));
        let mut serial_fused = Matrix::zeros(0, 0);
        fused(&mut serial_fused);
        let mut out = Matrix::zeros(0, 0);
        for threads in [2, 4, 8] {
            rayon::set_num_threads(threads);
            assert_eq!(a.matmul(&b), serial.0, "matmul differs at {threads} threads");
            assert_eq!(a.t_matmul(&c), serial.1, "t_matmul differs at {threads} threads");
            assert_eq!(a.matmul_t(&d), serial.2, "matmul_t differs at {threads} threads");
            fused(&mut out);
            assert_eq!(out, serial_fused, "matmul_bias_act differs at {threads} threads");
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 0.5]]);
        assert_eq!(a.hadamard(&b).row(0), &[3.0, 1.0]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, 4.0]);
    }
}
