//! Non-linear activation functions σ : ℝ → ℝ (paper slide 13).
//!
//! Each activation knows its own derivative so layers can run manual
//! reverse-mode backpropagation. `Sign` (and the hard `Step`) are
//! non-differentiable and only used by the *evaluation-only* language
//! interpreter, never by training code; their `derivative` is 0.

use crate::matrix::Matrix;

/// A pointwise non-linearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// The identity function (no non-linearity).
    Identity,
    /// `max(0, x)` — the activation in the paper's normal-form theorem.
    ReLU,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `sign(x) ∈ {-1, 0, 1}`; evaluation-only.
    Sign,
    /// Heaviside step `1[x > 0]`; evaluation-only.
    Step,
    /// Truncated ReLU `min(max(0, x), 1)`, used when simulating
    /// boolean logic with continuous networks (GML compilation).
    ClippedReLU,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::ReLU => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Activation::Step => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::ClippedReLU => x.clamp(0.0, 1.0),
        }
    }

    /// Derivative of the activation at pre-activation value `x`.
    ///
    /// For the non-differentiable points we use the usual subgradient
    /// conventions (`ReLU'(0) = 0`); `Sign`/`Step` report 0 everywhere.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = Activation::Sigmoid.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sign | Activation::Step => 0.0,
            Activation::ClippedReLU => {
                if x > 0.0 && x < 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the activation elementwise to a matrix.
    pub fn apply_matrix(self, m: &Matrix) -> Matrix {
        m.map(|x| self.apply(x))
    }

    /// Applies the activation elementwise into `out`; bit-identical to
    /// [`Activation::apply_matrix`].
    pub fn apply_matrix_into(self, m: &Matrix, out: &mut Matrix) {
        m.map_into(|x| self.apply(x), out);
    }

    /// Backprop delta `δ = grad_out ⊙ σ'(pre)` written into `delta`.
    /// Elementwise in row-major order — bit-identical to the
    /// `Matrix::from_fn` formulation the layers used before.
    pub fn backprop_delta_into(self, pre: &Matrix, grad_out: &Matrix, delta: &mut Matrix) {
        assert_eq!(pre.shape(), grad_out.shape(), "grad shape mismatch");
        delta.ensure_shape(pre.rows(), pre.cols());
        for ((d, &g), &p) in delta.data_mut().iter_mut().zip(grad_out.data()).zip(pre.data()) {
            *d = g * self.derivative(p);
        }
    }

    /// True when the function is usable for gradient training.
    pub fn is_differentiable(self) -> bool {
        !matches!(self, Activation::Sign | Activation::Step)
    }

    /// Short human-readable name (used by expression pretty-printers).
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "id",
            Activation::ReLU => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Sign => "sign",
            Activation::Step => "step",
            Activation::ClippedReLU => "clipped_relu",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 7] = [
        Activation::Identity,
        Activation::ReLU,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Sign,
        Activation::Step,
        Activation::ClippedReLU,
    ];

    #[test]
    fn relu_basic() {
        assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
        assert_eq!(Activation::ReLU.apply(3.5), 3.5);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        for &x in &[-5.0, -1.0, 0.3, 4.0] {
            let y = s.apply(x);
            assert!(y > 0.0 && y < 1.0);
            assert!((y + s.apply(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clipped_relu_clamps() {
        let c = Activation::ClippedReLU;
        assert_eq!(c.apply(-1.0), 0.0);
        assert_eq!(c.apply(0.25), 0.25);
        assert_eq!(c.apply(7.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ALL {
            if !act.is_differentiable() {
                continue;
            }
            // Avoid kink points of ReLU variants.
            for &x in &[-1.3, -0.4, 0.37, 0.8, 2.1] {
                if matches!(act, Activation::ClippedReLU) && !(0.0..1.0).contains(&x) {
                    continue;
                }
                if matches!(act, Activation::ReLU) && x < 0.0 {
                    // derivative 0 on the left branch
                    assert_eq!(act.derivative(x), 0.0);
                    continue;
                }
                let num = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!(
                    (num - act.derivative(x)).abs() < 1e-5,
                    "{act:?} at {x}: numeric {num} vs analytic {}",
                    act.derivative(x)
                );
            }
        }
    }

    #[test]
    fn sign_step_values() {
        assert_eq!(Activation::Sign.apply(-0.1), -1.0);
        assert_eq!(Activation::Sign.apply(0.0), 0.0);
        assert_eq!(Activation::Step.apply(0.0), 0.0);
        assert_eq!(Activation::Step.apply(0.01), 1.0);
    }
}
