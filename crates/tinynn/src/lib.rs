//! # tinynn
//!
//! A small, dependency-light, CPU-only neural-network library implementing
//! exactly the building blocks required by the paper's 1-D ResNet classifier
//! (Figure 2): 1-D convolutions, batch normalisation, ReLU, residual blocks,
//! global average pooling, fully connected layers, softmax / cross-entropy,
//! and the Adam optimiser — together with mini-batch data loading, metrics
//! (accuracy, confusion matrices) and (de)serialisation of trained models.
//!
//! The original work trains with PyTorch on a GPU; `tch-rs`/`burn` are not
//! available in this offline environment and are immature for custom training
//! loops, so the layers are implemented from scratch with analytic backward
//! passes validated against finite differences (see the `gradcheck` tests in
//! each layer module).
//!
//! Layers hold parameters only; per-call scratch (backward caches and
//! staging buffers) lives in an explicit [`Workspace`], so inference
//! `forward` takes `&self` and one trained model can be shared across
//! threads with a cheap per-thread workspace instead of a per-thread weight
//! clone.
//!
//! Trained convolutions also serve quantised ([`qlayers`], [`quant`]):
//! `i8` weights with batch norm folded in, run as one fixed-point chain of
//! `i16` activation codes on calibrated grids, one window at a time
//! ([`qlayers::pooled_features`]). A quantised layer is not a [`Layer`]: it
//! has the serving entry point `forward_fixed` and the calibration pass
//! `forward_dynamic` that chooses the grids.
//!
//! ## Example: train a tiny classifier
//!
//! ```rust
//! use tinynn::{Linear, Relu, Sequential, Layer, Tensor, CrossEntropyLoss, Adam, Workspace};
//!
//! // Linearly separable toy problem.
//! let inputs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
//! let labels = vec![0usize, 0, 1, 1];
//! let mut model = Sequential::new(vec![
//!     Box::new(Linear::new(2, 8, 1)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, 2)),
//! ]);
//! let loss_fn = CrossEntropyLoss::new();
//! let mut optim = Adam::new(0.05);
//! let mut ws = Workspace::new();
//! for _ in 0..200 {
//!     let x = Tensor::from_rows(&inputs);
//!     let logits = model.forward(&x, &mut ws, true);
//!     let (_, grad) = loss_fn.loss_and_grad(&logits, &labels);
//!     model.zero_grad();
//!     model.backward(&grad, &mut ws);
//!     optim.step(&mut model.params_mut());
//! }
//! let logits = model.forward(&Tensor::from_rows(&inputs), &mut ws, false);
//! assert_eq!(logits.argmax_rows(), labels);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod fused;
pub mod init;
pub mod layers;
pub mod loss;
pub mod matmul;
pub mod metrics;
pub mod optim;
pub mod parallel;
pub mod param;
pub mod qlayers;
pub mod quant;
pub mod tensor;
pub mod workspace;

pub use data::{Batch, DataLoader};
pub use layers::{
    backward_consuming, forward_consuming, BatchNorm1d, Conv1d, GlobalAvgPool1d, Layer, Linear,
    Relu, ResidualBlock1d, Sequential,
};
pub use loss::CrossEntropyLoss;
pub use metrics::{accuracy, ConfusionMatrix};
pub use optim::Adam;
pub use param::Param;
pub use qlayers::{QuantizedConv1d, QuantizedResidualBlock1d};
pub use quant::{QuantActs, QuantPlan, QuantizedGemm, Requantizer};
pub use tensor::Tensor;
pub use workspace::Workspace;
