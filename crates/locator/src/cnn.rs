//! The 1-D ResNet-style CNN binary classifier (Section III-B, Figure 2).
//!
//! Architecture (exactly the block sequence of Figure 2):
//!
//! ```text
//! input [B, 1, N]
//!   └─ Conv1d(1 → f, k) ─ BatchNorm ─ ReLU          (convolutional block)
//!   └─ ResidualBlock(f → f, k)                       (residual block 1)
//!   └─ ResidualBlock(f → 2f, k)                      (residual block 2)
//!   └─ GlobalAvgPool  [B, 2f]
//!   └─ Linear(2f → 2f) ─ ReLU                        (fully connected block)
//!   └─ Linear(2f → 2)                                (class scores / logits)
//! ```
//!
//! The paper uses `f = 16` filters and kernel size 64; the scaled
//! configuration uses `f = 8`, kernel 9 (see [`CnnConfig::scaled`]).
//! The softmax is folded into the cross-entropy loss during training; at
//! inference the *linear* class-1 score (pre-softmax) is used as the sliding
//! window classification signal, as prescribed in Section III-C.
//!
//! The network holds **weights only**: `forward` takes `&self` plus an
//! explicit [`Workspace`], so one trained CNN can score windows from many
//! threads (and many traces) concurrently — each thread brings its own cheap
//! workspace instead of a clone of the weights.
//!
//! Inference (`training == false` in [`CoLocatorCnn::forward`] and
//! [`CoLocatorCnn::pooled_features`], and always in
//! [`CoLocatorCnn::class1_scores_into`] and [`CoLocatorCnn::predict_into`])
//! runs the backbone as one fused channels-last chain
//! ([`tinynn::fused::pooled_features`]): direct register-tiled
//! convolutions with bias, batch norm, ReLU and the residual add fused into
//! the tile epilogue, one window at a time. Training runs the layer chain
//! (the same convolution tile one layer at a time, then separate
//! normalisation, activation and add passes), which records the backward
//! caches. The two are bit-identical at inference, so epoch selection,
//! head alignment and every located start are the same whichever ran.

use serde::{Deserialize, Serialize};
use tinynn::{
    backward_consuming, forward_consuming, BatchNorm1d, Conv1d, GlobalAvgPool1d, Layer, Linear,
    Param, Relu, ResidualBlock1d, Tensor, Workspace,
};

/// Hyper-parameters of the CNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Number of filters of the first convolutional block and the first
    /// residual block (the second residual block doubles it).
    pub base_filters: usize,
    /// Kernel size of every convolution.
    pub kernel_size: usize,
    /// RNG seed for weight initialisation.
    pub seed: u64,
}

impl CnnConfig {
    /// The paper's configuration: 16 filters, kernel size 64.
    pub fn paper() -> Self {
        Self { base_filters: 16, kernel_size: 64, seed: 1 }
    }

    /// CPU-scaled configuration: 8 filters, kernel size 9.
    pub fn scaled() -> Self {
        Self { base_filters: 8, kernel_size: 9, seed: 1 }
    }

    /// Returns a copy with a different initialisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for CnnConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

/// A model that can score batches of trace windows with the linear class-1
/// margin (the `swc` signal of Section III-C).
///
/// Implemented by the `f32` [`CoLocatorCnn`], its quantised counterpart
/// [`crate::qcnn::QuantizedCoLocatorCnn`], and the engine's model wrapper —
/// the sliding-window classifier (and therefore the whole shard fan-out and
/// batching machinery) is generic over this trait, so every scorer shares
/// one inference path.
pub trait WindowScorer: Send + Sync {
    /// Scores a `[B, 1, N]` batch of windows into `scores` (cleared first):
    /// one linear class-1 margin per window.
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>);
}

impl WindowScorer for CoLocatorCnn {
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        self.class1_scores_into(input, ws, scores);
    }
}

/// The CO-locator CNN of Figure 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoLocatorCnn {
    config: CnnConfig,
    conv: Conv1d,
    bn: BatchNorm1d,
    relu: Relu,
    res1: ResidualBlock1d,
    res2: ResidualBlock1d,
    pool: GlobalAvgPool1d,
    fc1: Linear,
    fc_relu: Relu,
    fc2: Linear,
}

impl CoLocatorCnn {
    /// Builds the network from a configuration.
    pub fn new(config: CnnConfig) -> Self {
        let f = config.base_filters;
        let k = config.kernel_size;
        let s = config.seed;
        Self {
            config,
            conv: Conv1d::new(1, f, k, s),
            bn: BatchNorm1d::new(f),
            relu: Relu::new(),
            res1: ResidualBlock1d::new(f, f, k, s.wrapping_add(10)),
            res2: ResidualBlock1d::new(f, 2 * f, k, s.wrapping_add(20)),
            pool: GlobalAvgPool1d::new(),
            fc1: Linear::new(2 * f, 2 * f, s.wrapping_add(30)),
            fc_relu: Relu::new(),
            fc2: Linear::new(2 * f, 2, s.wrapping_add(40)),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Shared access to the network's sub-layers, in forward order:
    /// `(conv, bn, res1, res2, fc1, fc2)`. Used by the quantised network to
    /// mirror the architecture.
    pub(crate) fn parts(
        &self,
    ) -> (&Conv1d, &BatchNorm1d, &ResidualBlock1d, &ResidualBlock1d, &Linear, &Linear) {
        (&self.conv, &self.bn, &self.res1, &self.res2, &self.fc1, &self.fc2)
    }

    /// Forward pass: windows `[B, 1, N]` → class logits `[B, 2]`.
    ///
    /// Shares the weights (`&self`); every piece of per-call state lives in
    /// `ws`, so concurrent callers each pass their own workspace.
    pub fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        let x = self.pooled_features(input, ws, training);
        let x = forward_consuming(&self.fc1, x, ws, training);
        let x = forward_consuming(&self.fc_relu, x, ws, training);
        forward_consuming(&self.fc2, x, ws, training)
    }

    /// Runs the convolutional backbone and global average pool only:
    /// windows `[B, 1, N]` → pooled features `[B, F2]`, the exact input the
    /// fully connected head sees. The quantiser compares these against its
    /// own pooled features to fold the quantised backbone's systematic
    /// offset into the head bias.
    ///
    /// Inference (`training == false`) runs the fused channels-last chain
    /// of [`tinynn::fused::pooled_features`]: direct convolutions with
    /// batch norm, ReLU and the residual add in the tile epilogue,
    /// bit-identical to the layer chain. Training runs the layer chain
    /// (the same convolutions, one layer at a time), which records the
    /// backward caches.
    pub fn pooled_features(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        if !training {
            return tinynn::fused::pooled_features(
                &self.conv,
                &self.bn,
                &[&self.res1, &self.res2],
                input,
                ws,
            );
        }
        // Each dead intermediate returns to the workspace arena as soon as
        // the next layer has consumed it (`forward_consuming`).
        let x = self.conv.forward(input, ws, training);
        let x = forward_consuming(&self.bn, x, ws, training);
        let x = forward_consuming(&self.relu, x, ws, training);
        let x = forward_consuming(&self.res1, x, ws, training);
        let x = forward_consuming(&self.res2, x, ws, training);
        forward_consuming(&self.pool, x, ws, training)
    }

    /// Backward pass for a batch previously run through [`Self::forward`]
    /// with `training == true` on the same workspace: accumulates every
    /// parameter gradient. The windows themselves get no gradient, so the
    /// first convolution computes only its weight and bias gradients.
    pub fn backward(&mut self, grad_logits: &Tensor, ws: &mut Workspace) {
        // Each dead gradient returns to the workspace arena as soon as the
        // next layer has consumed it (`backward_consuming`).
        let g = self.fc2.backward(grad_logits, ws);
        let g = backward_consuming(&mut self.fc_relu, g, ws);
        let g = backward_consuming(&mut self.fc1, g, ws);
        let g = backward_consuming(&mut self.pool, g, ws);
        let g = backward_consuming(&mut self.res2, g, ws);
        let g = backward_consuming(&mut self.res1, g, ws);
        let g = backward_consuming(&mut self.relu, g, ws);
        let g = backward_consuming(&mut self.bn, g, ws);
        self.conv.backward_params(&g, ws);
        ws.recycle(g);
    }

    /// Shared access to every trainable parameter, in a fixed architecture
    /// order (matching [`Self::params_mut`] — the model persistence format
    /// relies on this order).
    pub fn params(&self) -> Vec<&Param> {
        let mut params = Vec::new();
        params.extend(self.conv.params());
        params.extend(self.bn.params());
        params.extend(self.res1.params());
        params.extend(self.res2.params());
        params.extend(self.fc1.params());
        params.extend(self.fc2.params());
        params
    }

    /// Mutable access to every trainable parameter (same order as
    /// [`Self::params`]).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.conv.params_mut());
        params.extend(self.bn.params_mut());
        params.extend(self.res1.params_mut());
        params.extend(self.res2.params_mut());
        params.extend(self.fc1.params_mut());
        params.extend(self.fc2.params_mut());
        params
    }

    /// Shared access to every non-trainable state buffer (batch-norm running
    /// statistics), in a fixed order matching [`Self::buffers_mut`].
    pub fn buffers(&self) -> Vec<&[f32]> {
        let mut buffers = Vec::new();
        buffers.extend(self.bn.buffers());
        buffers.extend(self.res1.buffers());
        buffers.extend(self.res2.buffers());
        buffers
    }

    /// Mutable access to every non-trainable state buffer (same order as
    /// [`Self::buffers`]).
    pub fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut buffers = Vec::new();
        buffers.extend(self.bn.buffers_mut());
        buffers.extend(self.res1.buffers_mut());
        buffers.extend(self.res2.buffers_mut());
        buffers
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Bytes of backbone scratch a scoring workspace holds after windows
    /// of `len` samples ([`tinynn::fused::scratch_bytes`]).
    pub fn scratch_bytes(&self, len: usize) -> usize {
        tinynn::fused::scratch_bytes(&self.conv, &[&self.res1, &self.res2], len)
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Classifies a batch of windows, returning the predicted class index per
    /// window (0 = not start, 1 = cipher start).
    pub fn predict(&self, input: &Tensor, ws: &mut Workspace) -> Vec<usize> {
        let mut preds = Vec::new();
        self.predict_into(input, ws, &mut preds);
        preds
    }

    /// Like [`Self::predict`], but writes into a caller-owned buffer so batch
    /// loops allocate nothing per call. `preds` is cleared first.
    pub fn predict_into(&self, input: &Tensor, ws: &mut Workspace, preds: &mut Vec<usize>) {
        let logits = self.forward(input, ws, false);
        preds.clear();
        preds.reserve(logits.shape()[0]);
        for row in logits.data().chunks(logits.shape()[1]) {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = i;
                }
            }
            preds.push(best);
        }
        ws.recycle(logits);
    }

    /// Scores a batch of windows with the *linear* (pre-softmax) class-1
    /// output, the signal used by the sliding-window classification stage
    /// (Section III-C).
    pub fn class1_scores(&self, input: &Tensor, ws: &mut Workspace) -> Vec<f32> {
        let mut scores = Vec::new();
        self.class1_scores_into(input, ws, &mut scores);
        scores
    }

    /// Like [`Self::class1_scores`], but writes into a caller-owned buffer so
    /// the sliding-window loop allocates nothing per batch. `scores` is
    /// cleared first.
    pub fn class1_scores_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        let logits = self.forward(input, ws, false);
        scores.clear();
        scores.reserve(logits.shape()[0]);
        for b in 0..logits.shape()[0] {
            scores.push(logits.at2(b, 1) - logits.at2(b, 0));
        }
        ws.recycle(logits);
    }

    /// Inference forward pass with every convolution and fully connected
    /// layer routed through its naive scalar reference implementation — the
    /// computational profile of the pre-GEMM seed, the oracle of the parity
    /// tests.
    #[cfg(test)]
    fn forward_reference(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self.conv.forward_reference(input);
        let x = self.bn.forward(&x, ws, false);
        let x = self.relu.forward(&x, ws, false);
        let x = self.res1.forward_reference(&x, ws);
        let x = self.res2.forward_reference(&x, ws);
        let x = self.pool.forward(&x, ws, false);
        let x = self.fc1.forward_reference(&x);
        let x = self.fc_relu.forward(&x, ws, false);
        self.fc2.forward_reference(&x)
    }

    /// [`Self::class1_scores`] on top of [`Self::forward_reference`].
    #[cfg(test)]
    pub(crate) fn class1_scores_reference(&self, input: &Tensor, ws: &mut Workspace) -> Vec<f32> {
        let logits = self.forward_reference(input, ws);
        (0..logits.shape()[0]).map(|b| logits.at2(b, 1) - logits.at2(b, 0)).collect()
    }

    /// Builds the `[B, 1, N]` input tensor from raw windows.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or the windows have different lengths.
    pub fn stack_windows(windows: &[Vec<f32>]) -> Tensor {
        assert!(!windows.is_empty(), "cannot stack zero windows");
        let n = windows[0].len();
        assert!(windows.iter().all(|w| w.len() == n), "windows must share one length");
        let flat: Vec<f32> = windows.iter().flatten().copied().collect();
        Tensor::from_vec(flat, &[windows.len(), 1, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CnnConfig {
        CnnConfig { base_filters: 2, kernel_size: 3, seed: 7 }
    }

    #[test]
    fn forward_shapes() {
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&[vec![0.1; 32], vec![-0.2; 32], vec![0.0; 32]]);
        let logits = cnn.forward(&x, &mut ws, true);
        ws.clear();
        assert_eq!(logits.shape(), &[3, 2]);
    }

    #[test]
    fn global_average_pooling_supports_different_window_lengths() {
        // The same network must accept N_train- and N_inf-sized windows
        // (Section III-B / IV-B).
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let train = CoLocatorCnn::stack_windows(&[vec![0.5; 40]]);
        let infer = CoLocatorCnn::stack_windows(&[vec![0.5; 24]]);
        assert_eq!(cnn.forward(&train, &mut ws, false).shape(), &[1, 2]);
        assert_eq!(cnn.forward(&infer, &mut ws, false).shape(), &[1, 2]);
    }

    #[test]
    fn param_count_grows_with_filters() {
        let small = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 1 });
        let big = CoLocatorCnn::new(CnnConfig { base_filters: 4, kernel_size: 3, seed: 1 });
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    fn params_and_params_mut_agree_in_order() {
        let mut cnn = CoLocatorCnn::new(tiny_config());
        let shapes: Vec<Vec<usize>> =
            cnn.params().iter().map(|p| p.value.shape().to_vec()).collect();
        let shapes_mut: Vec<Vec<usize>> =
            cnn.params_mut().iter().map(|p| p.value.shape().to_vec()).collect();
        assert_eq!(shapes, shapes_mut);
        let buf_lens: Vec<usize> = cnn.buffers().iter().map(|b| b.len()).collect();
        let buf_lens_mut: Vec<usize> = cnn.buffers_mut().iter().map(|b| b.len()).collect();
        assert_eq!(buf_lens, buf_lens_mut);
        // 3 BatchNorm layers outside projections + 1 projection BN (res2
        // changes the channel count), 2 buffers each.
        assert_eq!(buf_lens.len(), 2 * 6);
    }

    #[test]
    fn paper_config_matches_figure2() {
        let c = CnnConfig::paper();
        assert_eq!(c.base_filters, 16);
        assert_eq!(c.kernel_size, 64);
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&[vec![0.3; 16], vec![-0.3; 16]]);
        let logits = cnn.forward(&x, &mut ws, true);
        cnn.zero_grad();
        cnn.backward(&Tensor::from_vec(vec![1.0, -1.0, 0.5, -0.5], logits.shape()), &mut ws);
        assert_eq!(ws.cache_depth(), 0, "backward must consume every layer cache");
        // Some parameter gradient must be non-zero.
        let any_nonzero = cnn.params().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(any_nonzero);
    }

    #[test]
    fn class1_scores_orders_like_softmax_probability() {
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&[vec![0.9; 20], vec![-0.9; 20]]);
        let scores = cnn.class1_scores(&x, &mut ws);
        let logits = cnn.forward(&x, &mut ws, false);
        // The window with the larger class-1 margin also has the larger softmax probability.
        let p = |b: usize| {
            let row = logits.row(b);
            let m = row[1].max(row[0]);
            let e0 = (row[0] - m).exp();
            let e1 = (row[1] - m).exp();
            e1 / (e0 + e1)
        };
        if scores[0] > scores[1] {
            assert!(p(0) >= p(1));
        } else {
            assert!(p(1) >= p(0));
        }
    }

    #[test]
    #[should_panic(expected = "cannot stack zero windows")]
    fn stacking_no_windows_panics() {
        CoLocatorCnn::stack_windows(&[]);
    }

    #[test]
    fn predictions_are_binary() {
        let cnn = CoLocatorCnn::new(tiny_config());
        let mut ws = Workspace::new();
        let x = CoLocatorCnn::stack_windows(&vec![vec![0.0; 16]; 5]);
        let preds = cnn.predict(&x, &mut ws);
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn inference_forward_is_allocation_free_after_warmup() {
        // The output-activation arena contract: once the workspace has seen
        // the batch shape, repeated forwards must neither allocate (the
        // arena-miss counter freezes) nor grow any retained scratch buffer —
        // including the fused chain's weight packing, staging and
        // per-window activations, every one of which comes from the
        // workspace.
        let served = CnnConfig { base_filters: 8, kernel_size: 9, seed: 3 };
        for (config, batch, len) in [(tiny_config(), 4, 32), (served, 7, 230)] {
            let cnn = CoLocatorCnn::new(config);
            let mut ws = Workspace::new();
            let x = CoLocatorCnn::stack_windows(&vec![vec![0.25; len]; batch]);
            let mut scores = Vec::new();
            for _ in 0..2 {
                cnn.class1_scores_into(&x, &mut ws, &mut scores);
            }
            let misses = ws.arena_misses();
            let retained = ws.retained_bytes();
            // The staged input of the widest convolution alone is
            // 2f channel rows of at least len + k - 1 samples.
            let staged = 2 * config.base_filters * (len + config.kernel_size - 1) * 4;
            assert!(retained > staged, "fused buffers missing from {retained} retained bytes");
            for _ in 0..10 {
                cnn.class1_scores_into(&x, &mut ws, &mut scores);
            }
            assert_eq!(ws.arena_misses(), misses, "steady-state forward must not allocate");
            assert_eq!(ws.retained_bytes(), retained, "steady-state forward must not grow scratch");
        }
    }

    #[test]
    fn training_step_is_allocation_free_after_the_first() {
        // The trainer's step (forward, loss gradient, backward, Adam, the
        // logits back to the arena) on the served shape: once the first
        // step has filled the arena, it serves every activation, cache and
        // gradient of the later steps.
        let mut cnn = CoLocatorCnn::new(CnnConfig::scaled());
        let (batch, len) = (32, 256);
        let windows: Vec<Vec<f32>> = (0..batch)
            .map(|b| (0..len).map(|j| ((b * 7 + j) % 13) as f32 * 0.1 - 0.6).collect())
            .collect();
        let x = CoLocatorCnn::stack_windows(&windows);
        let labels: Vec<usize> = (0..batch).map(|b| b % 2).collect();
        let loss_fn = tinynn::CrossEntropyLoss::new();
        let mut optim = tinynn::Adam::new(1e-3);
        let mut ws = Workspace::new();
        let mut misses = Vec::new();
        for _ in 0..4 {
            let logits = cnn.forward(&x, &mut ws, true);
            let (_, grad) = loss_fn.loss_and_grad(&logits, &labels);
            ws.recycle(logits);
            cnn.zero_grad();
            cnn.backward(&grad, &mut ws);
            optim.step(&mut cnn.params_mut());
            misses.push(ws.arena_misses());
        }
        assert!(misses[0] > 0, "the first step fills the arena");
        assert!(misses.iter().all(|&m| m == misses[0]), "arena misses after each step: {misses:?}");
    }

    #[test]
    fn shared_cnn_scores_identically_across_threads() {
        // One CNN instance, several threads, per-thread workspaces: the
        // scores must be bit-identical to the single-threaded ones.
        let cnn = CoLocatorCnn::new(tiny_config());
        let x = CoLocatorCnn::stack_windows(&[vec![0.4; 24], vec![-0.1; 24]]);
        let mut ws = Workspace::new();
        let expected = cnn.class1_scores(&x, &mut ws);
        let cnn_ref = &cnn;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let x = x.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    let mut ws = Workspace::new();
                    assert_eq!(cnn_ref.class1_scores(&x, &mut ws), expected);
                });
            }
        });
    }
}
