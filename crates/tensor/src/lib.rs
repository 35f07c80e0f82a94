//! # gel-tensor — dense linear algebra and neural building blocks
//!
//! The numeric substrate (system S1 in DESIGN.md) for reproducing
//! *A Query Language Perspective on Graph Learning* (Geerts, PODS 2023).
//!
//! The paper describes embedding methods as "implementations using
//! linear algebra and other computations on real numbers … with
//! learnable parameters" (slide 12). This crate provides exactly that
//! toolbox, written from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the product /
//!   transpose-fused kernels GNN layers need;
//! * [`Activation`] — the non-linearities σ of slide 13 (ReLU, sigmoid,
//!   sign, …) with derivatives for backprop;
//! * [`Dense`] / [`Mlp`] — fully-connected layers and multi-layer
//!   perceptrons with *manual reverse-mode backpropagation*;
//! * [`Sgd`] / [`Adam`] — the ERM optimizers of slide 20;
//! * [`Loss`] — cross-entropy and least-squares losses of slide 18.
//!
//! No external ML framework is used anywhere in the workspace.
//!
//! ```
//! use gel_tensor::{Activation, Init, Matrix, Mlp};
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&[2, 4, 1], Activation::ReLU, Activation::Identity,
//!                    Init::Xavier, &mut rng);
//! let y = mlp.infer(&Matrix::zeros(3, 2));
//! assert_eq!(y.shape(), (3, 1));
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod dense;
pub mod init;
pub mod kernels;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod scratch;

pub use activation::Activation;
pub use dense::Dense;
pub use init::Init;
pub use loss::{accuracy, softmax_rows, Loss};
pub use matrix::{Matrix, BUFFER_ALLOCS};
pub use mlp::Mlp;
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use param::{Param, Parameterized};
pub use scratch::Scratch;
