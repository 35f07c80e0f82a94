//! The function set Ω and aggregation set Θ of `GEL(Ω,Θ)`.
//!
//! The paper parameterizes the language by an arbitrary set Ω of
//! functions `ℝ^{d₁+⋯+d_ℓ} → ℝ^d` (slide 44) and a set Θ of aggregate
//! functions over bags (slide 45). We provide the concrete library the
//! theorems require — "concatenation, linear combinations and
//! non-linear activation functions" (slide 52) plus the mlp-closure of
//! slide 53 — and a bit more (pointwise product for Stone–Weierstrass
//! style arguments, an injective hash for exact WL simulation).

use gel_tensor::{Activation, Matrix};

/// A function `F : ℝ^{d_in} → ℝ^{d_out}` from Ω, applied to the
/// concatenation of its argument expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Func {
    /// `x ↦ x · W + b` with `W : d_in × d_out` (row-vector convention).
    Linear {
        /// Weight matrix (`d_in × d_out`).
        weights: Matrix,
        /// Bias of length `d_out`.
        bias: Vec<f64>,
    },
    /// Pointwise non-linearity (dimension preserving).
    Act(Activation),
    /// Identity on the concatenation of the arguments (pure concat).
    Concat,
    /// Pointwise sum of `k` equal-dimension arguments.
    Add {
        /// Number of arguments (each of dimension `dim`).
        arity: usize,
        /// Common argument dimension.
        dim: usize,
    },
    /// Pointwise (Hadamard) product of `k` equal-dimension arguments —
    /// the "product" closure Stone–Weierstrass needs (slide 29).
    Mul {
        /// Number of arguments (each of dimension `dim`).
        arity: usize,
        /// Common argument dimension.
        dim: usize,
    },
    /// Scalar multiple `x ↦ s · x`.
    Scale(f64),
    /// Projection of the slice `[start, start + len)`.
    Proj {
        /// First coordinate of the slice.
        start: usize,
        /// Slice length (output dimension).
        len: usize,
    },
    /// An injective-modulo-collisions mix `ℝ^d → ℝ`: hashes the bit
    /// pattern of the input to a **36-bit** integer represented exactly
    /// in `f64`. 36 bits (not more) so that *sums* of up to 2¹⁷ hash
    /// values stay below 2⁵³ and are therefore exact in `f64` — sum
    /// aggregation of hashes is the GIN-style multiset fingerprint the
    /// WL simulations rely on (experiments E4, E9). Single-channel
    /// collisions are made harmless by always using two independent
    /// seeds side by side (see `wl_sim::hash2`); experiments are
    /// deterministic, so a collision would fail loudly, not silently.
    Hash {
        /// Seed, so independent hash layers are independent functions.
        seed: u64,
    },
}

impl Func {
    /// Output dimension for the given input (concatenated) dimension.
    ///
    /// Returns `None` when the function cannot accept `d_in`.
    pub fn out_dim(&self, d_in: usize) -> Option<usize> {
        match self {
            Func::Linear { weights, bias } => {
                (weights.rows() == d_in && weights.cols() == bias.len()).then_some(weights.cols())
            }
            Func::Act(_) => Some(d_in),
            Func::Concat => Some(d_in),
            Func::Add { arity, dim } | Func::Mul { arity, dim } => {
                (arity.checked_mul(*dim) == Some(d_in) && *arity >= 1).then_some(*dim)
            }
            Func::Scale(_) => Some(d_in),
            Func::Proj { start, len } => {
                start.checked_add(*len).is_some_and(|end| end <= d_in).then_some(*len)
            }
            Func::Hash { .. } => (d_in >= 1).then_some(1),
        }
    }

    /// Applies the function to the concatenated input `x`, writing
    /// `out_dim` values into `out`.
    pub fn apply(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        match self {
            Func::Linear { weights, bias } => {
                debug_assert_eq!(x.len(), weights.rows());
                out.extend_from_slice(bias);
                for (i, &xi) in x.iter().enumerate() {
                    if xi == 0.0 {
                        continue;
                    }
                    for (o, &w) in out.iter_mut().zip(weights.row(i)) {
                        *o += xi * w;
                    }
                }
            }
            Func::Act(a) => out.extend(x.iter().map(|&v| a.apply(v))),
            Func::Concat => out.extend_from_slice(x),
            Func::Add { arity, dim } => {
                out.resize(*dim, 0.0);
                for a in 0..*arity {
                    for j in 0..*dim {
                        out[j] += x[a * dim + j];
                    }
                }
            }
            Func::Mul { arity, dim } => {
                out.resize(*dim, 1.0);
                for a in 0..*arity {
                    for j in 0..*dim {
                        out[j] *= x[a * dim + j];
                    }
                }
            }
            Func::Scale(s) => out.extend(x.iter().map(|&v| s * v)),
            Func::Proj { start, len } => out.extend_from_slice(&x[*start..*start + *len]),
            Func::Hash { seed } => {
                // FNV-style mix over the bit patterns; fold to 36 bits so
                // sums of up to 2^17 hashes remain exact integers in f64.
                let mut h = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
                for &v in x {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x100000001b3);
                    h ^= h >> 29;
                }
                h = h.wrapping_mul(0x9e3779b97f4a7c15);
                h ^= h >> 32;
                out.push((h & ((1u64 << 36) - 1)) as f64);
            }
        }
    }

    /// Applies the function to a row of `cells ≤ ROW_CELLS` cells at
    /// once, writing `cells · out_dim` values into `out`; `args` yields
    /// the arguments in concatenation order. Every variant walks the
    /// concatenated input components in order, one component down the
    /// whole row per step, so each output value comes from exactly the
    /// operations [`Func::apply`] performs on that cell, in the same
    /// order: bit-identical, with no per-cell packing or dispatch.
    pub(crate) fn apply_row<'a>(
        &self,
        args: impl Iterator<Item = RowArg<'a>>,
        cells: usize,
        out: &mut [f64],
    ) {
        debug_assert!(cells <= ROW_CELLS);
        let d = out.len().checked_div(cells).unwrap_or(0);
        if d == 0 {
            return;
        }
        // Component `k` of the concatenated input, down the row.
        let columns = args.flat_map(|a| {
            (0..a.dim).map(move |j| move |c: usize| a.data[a.off + c * a.stride + j])
        });
        match self {
            Func::Linear { weights, bias } => {
                for o in out.chunks_exact_mut(d) {
                    o.copy_from_slice(bias);
                }
                for (i, x) in columns.enumerate() {
                    for (c, o) in out.chunks_exact_mut(d).enumerate() {
                        let xi = x(c);
                        if xi == 0.0 {
                            continue;
                        }
                        for (o, &w) in o.iter_mut().zip(weights.row(i)) {
                            *o += xi * w;
                        }
                    }
                }
            }
            Func::Add { dim, .. } => fold_columns(columns, *dim, out, d, 0.0, |o, x| o + x),
            Func::Mul { dim, .. } => fold_columns(columns, *dim, out, d, 1.0, |o, x| o * x),
            Func::Act(a) => map_columns(columns, out, d, |x| a.apply(x)),
            Func::Scale(s) => map_columns(columns, out, d, |x| s * x),
            Func::Concat => map_columns(columns, out, d, |x| x),
            Func::Proj { start, .. } => map_columns(columns.skip(*start), out, d, |x| x),
            Func::Hash { seed } => {
                let h0 = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
                let mut lanes = [h0; ROW_CELLS];
                let lanes = &mut lanes[..cells];
                for x in columns {
                    for (c, h) in lanes.iter_mut().enumerate() {
                        *h ^= x(c).to_bits();
                        *h = h.wrapping_mul(0x100000001b3);
                        *h ^= *h >> 29;
                    }
                }
                for (o, &h) in out.iter_mut().zip(lanes.iter()) {
                    let h = h.wrapping_mul(0x9e3779b97f4a7c15);
                    *o = ((h ^ (h >> 32)) & ((1u64 << 36) - 1)) as f64;
                }
            }
        }
    }

    /// Short name for pretty-printing.
    pub fn name(&self) -> String {
        match self {
            Func::Linear { .. } => "linear".into(),
            Func::Act(a) => a.name().into(),
            Func::Concat => "concat".into(),
            Func::Add { .. } => "add".into(),
            Func::Mul { .. } => "mul".into(),
            Func::Scale(s) => format!("scale[{s}]"),
            Func::Proj { start, len } => format!("proj[{start},{len}]"),
            Func::Hash { seed } => format!("hash[{seed}]"),
        }
    }
}

/// The most cells [`Func::apply_row`] takes at once: the `Hash`
/// kernel keeps one `u64` state per cell on the stack.
pub(crate) const ROW_CELLS: usize = 64;

/// One argument of a row of cells: cell `c` of the row reads the `dim`
/// values at `data[off + c · stride..]`.
#[derive(Clone, Copy)]
pub(crate) struct RowArg<'a> {
    pub data: &'a [f64],
    pub off: usize,
    pub stride: usize,
    pub dim: usize,
}

/// Output component `j` of every cell is `f` of input component `j`
/// (the first `d` columns).
fn map_columns<X: Fn(usize) -> f64>(
    columns: impl Iterator<Item = X>,
    out: &mut [f64],
    d: usize,
    f: impl Fn(f64) -> f64,
) {
    for (j, x) in columns.take(d).enumerate() {
        for (c, o) in out.chunks_exact_mut(d).enumerate() {
            o[j] = f(x(c));
        }
    }
}

/// `Add`/`Mul`: every output component starts at `init` and folds in
/// the input components `j, j + dim, j + 2·dim, …` in order.
fn fold_columns<X: Fn(usize) -> f64>(
    columns: impl Iterator<Item = X>,
    dim: usize,
    out: &mut [f64],
    d: usize,
    init: f64,
    op: impl Fn(f64, f64) -> f64,
) {
    out.fill(init);
    for (k, x) in columns.enumerate() {
        for (c, o) in out.chunks_exact_mut(d).enumerate() {
            o[k % dim] = op(o[k % dim], x(c));
        }
    }
}

/// An aggregation function θ ∈ Θ over bags of vectors (slide 45).
///
/// The empty bag maps to the zero vector for every aggregator (the
/// conventional choice in the GNN literature; documented behaviour for
/// isolated vertices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agg {
    /// Summation — the aggregator that attains WL power (slide 52).
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Coordinatewise maximum.
    Max,
    /// Coordinatewise minimum.
    Min,
}

impl Agg {
    /// Aggregation state for incremental accumulation.
    pub fn init(&self, dim: usize) -> AggState {
        AggState { agg: *self, acc: vec![0.0; dim], count: 0 }
    }

    /// Name for pretty-printing / parsing.
    pub fn name(&self) -> &'static str {
        match self {
            Agg::Sum => "sum",
            Agg::Mean => "mean",
            Agg::Max => "max",
            Agg::Min => "min",
        }
    }
}

/// Incremental aggregation accumulator.
#[derive(Debug, Clone)]
pub struct AggState {
    agg: Agg,
    acc: Vec<f64>,
    count: usize,
}

impl AggState {
    /// Feeds one bag element.
    pub fn push(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.acc.len());
        match self.agg {
            Agg::Sum | Agg::Mean => {
                for (a, &v) in self.acc.iter_mut().zip(x) {
                    *a += v;
                }
            }
            Agg::Max => {
                if self.count == 0 {
                    self.acc.copy_from_slice(x);
                } else {
                    for (a, &v) in self.acc.iter_mut().zip(x) {
                        *a = a.max(v);
                    }
                }
            }
            Agg::Min => {
                if self.count == 0 {
                    self.acc.copy_from_slice(x);
                } else {
                    for (a, &v) in self.acc.iter_mut().zip(x) {
                        *a = a.min(v);
                    }
                }
            }
        }
        self.count += 1;
    }

    /// Finalizes the aggregate (empty bag ⇒ zero vector).
    pub fn finish(mut self) -> Vec<f64> {
        if self.count == 0 {
            return self.acc; // zeros
        }
        if self.agg == Agg::Mean {
            let c = self.count as f64;
            for a in &mut self.acc {
                *a /= c;
            }
        }
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: &Func, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        f.apply(x, &mut out);
        out
    }

    #[test]
    fn linear_applies_affine_map() {
        let f = Func::Linear {
            weights: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]),
            bias: vec![10.0, 20.0],
        };
        assert_eq!(run(&f, &[3.0, 4.0]), vec![13.0, 28.0]);
        assert_eq!(f.out_dim(2), Some(2));
        assert_eq!(f.out_dim(3), None);
    }

    #[test]
    fn act_and_scale() {
        assert_eq!(run(&Func::Act(Activation::ReLU), &[-1.0, 2.0]), vec![0.0, 2.0]);
        assert_eq!(run(&Func::Scale(0.5), &[4.0]), vec![2.0]);
    }

    #[test]
    fn add_mul_arity() {
        let add = Func::Add { arity: 2, dim: 2 };
        assert_eq!(run(&add, &[1.0, 2.0, 10.0, 20.0]), vec![11.0, 22.0]);
        let mul = Func::Mul { arity: 3, dim: 1 };
        assert_eq!(run(&mul, &[2.0, 3.0, 4.0]), vec![24.0]);
        assert_eq!(add.out_dim(4), Some(2));
        assert_eq!(add.out_dim(5), None);
        // `arity · dim` wraps to `d_in` here; decoded input can say so.
        assert_eq!(Func::Add { arity: usize::MAX, dim: 2 }.out_dim(usize::MAX - 1), None);
    }

    #[test]
    fn proj_slices() {
        let p = Func::Proj { start: 1, len: 2 };
        assert_eq!(run(&p, &[1.0, 2.0, 3.0, 4.0]), vec![2.0, 3.0]);
        assert_eq!(p.out_dim(2), None);
        assert_eq!(Func::Proj { start: usize::MAX, len: 2 }.out_dim(4), None);
    }

    #[test]
    fn hash_is_deterministic_integer_and_seed_sensitive() {
        let h1 = Func::Hash { seed: 1 };
        let h2 = Func::Hash { seed: 2 };
        let a = run(&h1, &[1.0, 2.0]);
        assert_eq!(a, run(&h1, &[1.0, 2.0]));
        assert_ne!(a, run(&h2, &[1.0, 2.0]));
        assert_ne!(a, run(&h1, &[2.0, 1.0]), "order sensitive");
        assert_eq!(a[0].fract(), 0.0, "hash output must be an exact integer");
    }

    #[test]
    fn aggregations() {
        let bag = [[1.0, 5.0], [3.0, 2.0], [2.0, 2.0]];
        let run_agg = |a: Agg| {
            let mut st = a.init(2);
            for x in &bag {
                st.push(x);
            }
            st.finish()
        };
        assert_eq!(run_agg(Agg::Sum), vec![6.0, 9.0]);
        assert_eq!(run_agg(Agg::Mean), vec![2.0, 3.0]);
        assert_eq!(run_agg(Agg::Max), vec![3.0, 5.0]);
        assert_eq!(run_agg(Agg::Min), vec![1.0, 2.0]);
    }

    #[test]
    fn empty_bag_is_zero() {
        for a in [Agg::Sum, Agg::Mean, Agg::Max, Agg::Min] {
            assert_eq!(a.init(3).finish(), vec![0.0; 3]);
        }
    }
}
