//! Learnable parameters with accumulated gradients and optimizer state.

use crate::matrix::Matrix;

/// A learnable matrix parameter: value, gradient accumulator, and
/// per-parameter Adam moments (allocated lazily by the optimizer).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient of the loss w.r.t. `value`.
    pub grad: Matrix,
    /// Adam first-moment estimate (same shape), if Adam has stepped.
    pub adam_m: Option<Matrix>,
    /// Adam second-moment estimate (same shape), if Adam has stepped.
    pub adam_v: Option<Matrix>,
}

impl Param {
    /// Wraps a value as a parameter with zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad, adam_m: None, adam_v: None }
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        self.value.data().len()
    }

    /// True when the parameter is empty (degenerate 0-sized layer).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Anything holding a flat list of [`Param`]s; optimizers and the
/// training loop operate through this trait.
pub trait Parameterized {
    /// Visits every parameter mutably.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes all gradient accumulators.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of learnable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Global gradient L2 norm (diagnostics / clipping).
    fn grad_norm(&mut self) -> f64 {
        let mut s = 0.0;
        self.visit_params(&mut |p| {
            s += p.grad.data().iter().map(|x| x * x).sum::<f64>();
        });
        s.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Two {
        a: Param,
        b: Param,
    }

    impl Parameterized for Two {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    #[test]
    fn zero_grads_and_count() {
        let mut t = Two {
            a: Param::new(Matrix::filled(2, 3, 1.0)),
            b: Param::new(Matrix::filled(1, 4, 2.0)),
        };
        t.a.grad = Matrix::filled(2, 3, 5.0);
        assert_eq!(t.num_params(), 10);
        assert!(t.grad_norm() > 0.0);
        t.zero_grads();
        assert_eq!(t.grad_norm(), 0.0);
    }
}
