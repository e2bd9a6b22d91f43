//! Neural-network layers with analytic forward/backward passes.
//!
//! Layout conventions:
//!
//! * convolutional tensors are `[batch, channels, length]`;
//! * fully-connected tensors are `[batch, features]`.
//!
//! Layers hold **parameters only** — weights, biases and (for batch
//! normalisation) running statistics. Everything a pass needs beyond that —
//! backward caches, im2col scratch — lives in an explicit [`Workspace`], so
//! `forward` takes `&self`: one trained network can be shared across threads
//! (`Layer: Send + Sync`) with a cheap per-thread workspace instead of a
//! per-thread clone of the weights.
//!
//! During a *training* `forward` every layer pushes one cache entry onto the
//! workspace stack; `backward` (which still takes `&mut self` to accumulate
//! parameter gradients into the layer's [`Param`]s) pops the entries in
//! reverse. Inference (`training == false`) records nothing, and layer
//! outputs are drawn from the workspace's output-activation arena
//! ([`Workspace::uninit_tensor`]) with containers recycling dead
//! intermediates — a warm inference pass performs **zero heap
//! allocations**.
//!
//! These `forward` methods form the **layer chain**: `Conv1d` packs its
//! weight block into `MR`-row strips once per call and lowers each item to
//! im2col → [`matmul::matmul_packed_lhs`], `Linear` packs `Wᵀ` into
//! `NR`-column panels for [`matmul::matmul_packed_rhs`], and the
//! normalisation/pooling layers operate on contiguous channel slices.
//!
//! `Conv1d::backward` fans out over the batch: each item computes its
//! weight-gradient partial with [`matmul::matmul_weight_grad`] (lanes over
//! output channels), its column gradient with [`matmul::matmul_at_b`] and a
//! col2im scatter into its own slice of the input gradient, and the caller
//! adds the partials in item order. `BatchNorm1d` forms its training sums
//! (batch statistics, `Σdy`, `Σdy·x̂`) several channels at a time. Both
//! keep every gradient element's floating-point operations and their order
//! exactly as in a plain sequential loop, so trained weights are the same
//! bits whatever the thread count.
//!
//! The layer chain serves training and is the test oracle of `f32`
//! inference: a convolutional backbone built from these layers scores
//! windows through the fused channels-last chain of [`crate::fused`]
//! (direct convolutions with batch norm, ReLU and the residual add in the
//! tile epilogue, no im2col), whose output is bit-identical to the layer
//! chain's. The original scalar implementations survive as `*_reference`
//! methods so parity tests can pin the optimised kernels against them.

use serde::{Deserialize, Serialize};

use crate::init;
use crate::matmul;
use crate::parallel;
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::{LayerCache, Workspace};

/// Work threshold (in FLOPs) below which a convolution pass stays on the
/// calling thread.
const CONV_PAR_MIN_FLOPS: usize = 1 << 21;

/// Panic for a cache entry that does not belong to the popping layer — a
/// programming error in the forward/backward traversal order, not a user
/// mistake.
fn cache_mismatch(layer: &str, found: &LayerCache) -> ! {
    panic!(
        "{layer}: workspace cache mismatch (found {} entry; \
         forward and backward must traverse layers in reverse order)",
        found.kind()
    )
}

/// A differentiable layer.
///
/// Parameters are shared state (`&self` forward); per-call scratch and
/// backward caches live in the caller-provided [`Workspace`].
pub trait Layer: Send + Sync {
    /// Computes the layer output. `training` selects batch statistics vs.
    /// running statistics in normalisation layers and controls whether a
    /// backward cache is pushed onto `ws` (inference pushes nothing).
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor;

    /// Back-propagates `grad_output`, returning the gradient with respect to
    /// the layer input and accumulating parameter gradients.
    ///
    /// Must be called after a `forward` pass with `training == true` on the
    /// same workspace (the layer pops its cache from `ws`).
    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Shared access to the layer's trainable parameters, in a fixed order
    /// matching [`Layer::params_mut`].
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's trainable parameters, in a fixed order
    /// matching [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to the layer's non-trainable state buffers (batch-norm
    /// running statistics), in a fixed order matching [`Layer::buffers_mut`].
    fn buffers(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable access to the layer's non-trainable state buffers, in a fixed
    /// order matching [`Layer::buffers`].
    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        Vec::new()
    }

    /// Zeroes every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// One consuming step of a sequential inference/training chain: runs `layer`
/// on `x` and recycles `x`'s storage into the workspace arena. Containers
/// use this for every intermediate so the "recycle exactly after the
/// consumer" invariant is structural rather than hand-maintained per layer.
pub fn forward_consuming<L: Layer + ?Sized>(
    layer: &L,
    x: Tensor,
    ws: &mut Workspace,
    training: bool,
) -> Tensor {
    let y = layer.forward(&x, ws, training);
    ws.recycle(x);
    y
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        if training {
            ws.push(LayerCache::Mask(input.data().iter().map(|&v| v > 0.0).collect()));
        }
        let mut out = ws.uninit_tensor(input.shape());
        for (dst, &v) in out.data_mut().iter_mut().zip(input.data().iter()) {
            *dst = v.max(0.0);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = match ws.pop("Relu") {
            LayerCache::Mask(mask) => mask,
            other => cache_mismatch("Relu", &other),
        };
        assert_eq!(grad_output.len(), mask.len(), "Relu: gradient/mask length mismatch");
        let data = grad_output
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_output.shape())
    }
}

// ---------------------------------------------------------------------------
// Linear (fully connected)
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x Wᵀ + b` with `x: [B, in]`, `W: [out, in]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a fully connected layer with He-uniform initialisation.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self {
            weight: Param::new(init::he_uniform(&[out_features, in_features], in_features, seed)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The `[out, in]` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The `[out]` bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Naive scalar-loop forward pass, kept as the parity reference for the
    /// GEMM implementation. Pure: touches no caches.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        for b in 0..batch {
            for o in 0..self.out_features {
                let mut acc = self.bias.value.data()[o];
                for i in 0..self.in_features {
                    acc += input.at2(b, i) * self.weight.value.at2(o, i);
                }
                out.set2(b, o, acc);
            }
        }
        out
    }

    /// Naive scalar-loop backward pass, kept as the parity reference. Pure:
    /// returns `(grad_input, grad_weight, grad_bias)` without touching the
    /// layer's accumulators.
    pub fn backward_reference(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let batch = input.shape()[0];
        let mut grad_input = Tensor::zeros(&[batch, self.in_features]);
        let mut grad_weight = Tensor::zeros(&[self.out_features, self.in_features]);
        let mut grad_bias = Tensor::zeros(&[self.out_features]);
        for b in 0..batch {
            for o in 0..self.out_features {
                let g = grad_output.at2(b, o);
                grad_bias.data_mut()[o] += g;
                for i in 0..self.in_features {
                    let w_idx = o * self.in_features + i;
                    grad_weight.data_mut()[w_idx] += g * input.at2(b, i);
                    let gi = grad_input.at2(b, i) + g * self.weight.value.data()[w_idx];
                    grad_input.set2(b, i, gi);
                }
            }
        }
        (grad_input, grad_weight, grad_bias)
    }
}

impl Layer for Linear {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear expects a 2-D input");
        assert_eq!(input.shape()[1], self.in_features, "Linear input feature mismatch");
        let batch = input.shape()[0];
        let mut out = ws.uninit_tensor(&[batch, self.out_features]);
        for row in out.data_mut().chunks_mut(self.out_features) {
            row.copy_from_slice(self.bias.value.data());
        }
        // Pack Wᵀ into NR-column panels once per call (weights may change
        // between calls during training, so the pack is rebuilt — one pass
        // over the weight block, amortised across the batch rows) and run
        // the register-tiled kernel.
        matmul::pack_rhs_t(
            &mut ws.pack,
            self.weight.value.data(),
            self.out_features,
            self.in_features,
        );
        matmul::matmul_packed_rhs(
            out.data_mut(),
            input.data(),
            &ws.pack,
            batch,
            self.in_features,
            self.out_features,
        );
        if training {
            ws.push(LayerCache::Input(input.clone()));
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let input = match ws.pop("Linear") {
            LayerCache::Input(input) => input,
            other => cache_mismatch("Linear", &other),
        };
        let batch = input.shape()[0];
        let mut grad_input = Tensor::zeros(&[batch, self.in_features]);
        // dX = dY · W
        matmul::matmul(
            grad_input.data_mut(),
            grad_output.data(),
            self.weight.value.data(),
            batch,
            self.out_features,
            self.in_features,
        );
        // dW += dYᵀ · X
        matmul::matmul_at_b(
            self.weight.grad.data_mut(),
            grad_output.data(),
            input.data(),
            batch,
            self.out_features,
            self.in_features,
        );
        // db += column sums of dY
        let grad_bias = self.bias.grad.data_mut();
        for g_row in grad_output.data().chunks(self.out_features) {
            for (bg, &g) in grad_bias.iter_mut().zip(g_row.iter()) {
                *bg += g;
            }
        }
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// Scratch of one run of a convolution's batch items
/// ([`parallel::for_each_run`]): the workspace's own on the calling thread,
/// a local of the run on every other worker.
#[derive(Debug, Default)]
pub(crate) struct ConvScratch {
    /// im2col lowering buffer, reused across items and, on the calling
    /// thread, across the layers of a pass (the backward also reuses it
    /// for the column gradient).
    col: Vec<f32>,
    /// Positions-major copy of one item's output gradient: the lanes of
    /// [`matmul::matmul_weight_grad`].
    dy_t: Vec<f32>,
}

impl ConvScratch {
    /// `f32`s of capacity the buffers hold.
    pub(crate) fn capacity(&self) -> usize {
        self.col.capacity() + self.dy_t.capacity()
    }
}

/// Writes the im2col lowering of one `[C, len]` input signal into `col`.
///
/// Row `c*kernel + t` of the `[C*kernel, len]` output is the input channel
/// `c` shifted by `t - pad`, zero-padded at the borders — every row is a
/// single contiguous `copy_from_slice` plus zero fills, and the row order
/// matches the `[out_c, in_c, kernel]` weight layout so the weight tensor is
/// usable as the GEMM left operand without repacking. (The quantised
/// convolution does not lower at all: it reads channels-last windows, see
/// [`crate::quant::QuantActs`].)
fn im2col(col: &mut Vec<f32>, x: &[f32], channels: usize, len: usize, kernel: usize, pad: usize) {
    col.resize(channels * kernel * len, 0.0);
    for c in 0..channels {
        let x_row = &x[c * len..(c + 1) * len];
        for t in 0..kernel {
            let row = &mut col[(c * kernel + t) * len..(c * kernel + t + 1) * len];
            let shift = t as isize - pad as isize;
            let j0 = (-shift).clamp(0, len as isize) as usize;
            let j1 = (len as isize - shift).clamp(0, len as isize) as usize;
            row[..j0].fill(0.0);
            row[j1..].fill(0.0);
            if j1 > j0 {
                let s0 = (j0 as isize + shift) as usize;
                row[j0..j1].copy_from_slice(&x_row[s0..s0 + (j1 - j0)]);
            }
        }
    }
}

/// Writes the `[len, rows]` transpose of a row-major `[rows, len]` block.
fn transpose_into(dst: &mut Vec<f32>, src: &[f32], rows: usize, len: usize) {
    dst.resize(rows * len, 0.0);
    for (r, src_row) in src.chunks_exact(len).enumerate() {
        for (j, &v) in src_row.iter().enumerate() {
            dst[j * rows + r] = v;
        }
    }
}

/// Scatter-adds a `[C*kernel, len]` column-gradient back onto the `[C, len]`
/// input gradient (the adjoint of [`im2col`]).
fn col2im_add(
    gx: &mut [f32],
    dcol: &[f32],
    channels: usize,
    len: usize,
    kernel: usize,
    pad: usize,
) {
    for c in 0..channels {
        let gx_row = &mut gx[c * len..(c + 1) * len];
        for t in 0..kernel {
            let row = &dcol[(c * kernel + t) * len..(c * kernel + t + 1) * len];
            let shift = t as isize - pad as isize;
            let j0 = (-shift).clamp(0, len as isize) as usize;
            let j1 = (len as isize - shift).clamp(0, len as isize) as usize;
            if j1 > j0 {
                let s0 = (j0 as isize + shift) as usize;
                for (g, &d) in gx_row[s0..s0 + (j1 - j0)].iter_mut().zip(row[j0..j1].iter()) {
                    *g += d;
                }
            }
        }
    }
}

/// 1-D convolution with stride 1 and "same" zero padding, matching the
/// convolutional layers of the paper's CNN (Figure 2).
///
/// The forward and backward passes lower to im2col → GEMM: the
/// `[out_c, in_c, kernel]` weight tensor is row-major exactly the
/// `[out_c, in_c*kernel]` GEMM operand, and the im2col matrix is built with
/// contiguous row copies, so the whole convolution is three matrix
/// products. Large batches fan out across threads in both passes, in runs
/// of whole items ([`parallel::for_each_run`]); the calling thread's run
/// uses the workspace's scratch. The backward's items each write their own
/// input gradient and weight/bias-gradient partials, which are added into
/// the gradients in item order, so the gradient bits do not depend on the
/// thread count. Inference of a whole backbone runs the direct convolution
/// of [`crate::fused`] instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1d {
    weight: Param, // [out_c, in_c, k]
    bias: Param,   // [out_c]
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
}

impl Conv1d {
    /// Creates a convolution layer with He-uniform initialisation.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_size` is zero.
    pub fn new(in_channels: usize, out_channels: usize, kernel_size: usize, seed: u64) -> Self {
        assert!(kernel_size > 0, "kernel size must be non-zero");
        let fan_in = in_channels * kernel_size;
        Self {
            weight: Param::new(init::he_uniform(
                &[out_channels, in_channels, kernel_size],
                fan_in,
                seed,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel_size,
        }
    }

    /// Kernel size.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The `[out_c, in_c, kernel]` weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The `[out_c]` bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    #[inline]
    fn w(&self, o: usize, i: usize, t: usize) -> f32 {
        self.weight.value.data()[(o * self.in_channels + i) * self.kernel_size + t]
    }

    fn pad_left(&self) -> usize {
        (self.kernel_size - 1) / 2
    }

    /// Naive 5-deep scalar-loop forward pass, kept as the parity reference
    /// for the im2col/GEMM implementation. Pure: touches no caches.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let pad = self.pad_left();
        let mut out = Tensor::zeros(&[batch, self.out_channels, len]);
        for b in 0..batch {
            for o in 0..self.out_channels {
                let bias = self.bias.value.data()[o];
                for n in 0..len {
                    let mut acc = bias;
                    for t in 0..self.kernel_size {
                        let src = n as isize + t as isize - pad as isize;
                        if src < 0 || src >= len as isize {
                            continue;
                        }
                        for i in 0..self.in_channels {
                            acc += self.w(o, i, t) * input.at3(b, i, src as usize);
                        }
                    }
                    out.set3(b, o, n, acc);
                }
            }
        }
        out
    }

    /// Naive scalar-loop backward pass, kept as the parity reference. Pure:
    /// returns `(grad_input, grad_weight, grad_bias)` without touching the
    /// layer's accumulators.
    pub fn backward_reference(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let pad = self.pad_left();
        let mut grad_input = Tensor::zeros(&[batch, self.in_channels, len]);
        let mut grad_weight =
            Tensor::zeros(&[self.out_channels, self.in_channels, self.kernel_size]);
        let mut grad_bias = Tensor::zeros(&[self.out_channels]);
        for b in 0..batch {
            for o in 0..self.out_channels {
                for n in 0..len {
                    let g = grad_output.at3(b, o, n);
                    if g == 0.0 {
                        continue;
                    }
                    grad_bias.data_mut()[o] += g;
                    for t in 0..self.kernel_size {
                        let src = n as isize + t as isize - pad as isize;
                        if src < 0 || src >= len as isize {
                            continue;
                        }
                        let src = src as usize;
                        for i in 0..self.in_channels {
                            let w_idx = (o * self.in_channels + i) * self.kernel_size + t;
                            grad_weight.data_mut()[w_idx] += g * input.at3(b, i, src);
                            grad_input.add3(b, i, src, g * self.weight.value.data()[w_idx]);
                        }
                    }
                }
            }
        }
        (grad_input, grad_weight, grad_bias)
    }
}

impl Layer for Conv1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 3, "Conv1d expects a 3-D input [B, C, N]");
        assert_eq!(input.shape()[1], self.in_channels, "Conv1d channel mismatch");
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let (in_c, out_c, k) = (self.in_channels, self.out_channels, self.kernel_size);
        let ck = in_c * k;
        let pad = self.pad_left();
        let mut out = ws.uninit_tensor(&[batch, out_c, len]);
        let x = input.data();
        let bias = self.bias.value.data();
        // Pack the `[out_c, ck]` weight block into MR-row strips once per
        // call; every batch item's GEMM then runs the register-tiled kernel
        // against the same pack (one pass over the weights, amortised to
        // noise across the batch).
        matmul::pack_lhs(&mut ws.pack, self.weight.value.data(), out_c, ck);
        let flops = 2 * batch * out_c * ck * len;
        let threads = parallel::thread_count_for(batch, flops, CONV_PAR_MIN_FLOPS);
        let pack = &ws.pack;
        parallel::for_each_run(out.data_mut(), out_c * len, threads, &mut ws.conv, |b0, run, s| {
            for (b, out_b) in (b0..).zip(run.chunks_exact_mut(out_c * len)) {
                im2col(&mut s.col, &x[b * in_c * len..(b + 1) * in_c * len], in_c, len, k, pad);
                for (oc, out_row) in out_b.chunks_mut(len).enumerate() {
                    out_row.fill(bias[oc]);
                }
                matmul::matmul_packed_lhs(out_b, pack, &s.col, out_c, ck, len);
            }
        });
        if training {
            ws.push(LayerCache::Input(input.clone()));
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let input = match ws.pop("Conv1d") {
            LayerCache::Input(input) => input,
            other => cache_mismatch("Conv1d", &other),
        };
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let (in_c, out_c, k) = (self.in_channels, self.out_channels, self.kernel_size);
        let ck = in_c * k;
        let pad = self.pad_left();
        // Each item's outputs, side by side: its weight-gradient partial
        // [out_c, ck], its bias-gradient partial [out_c] and its input
        // gradient [in_c, len].
        let (dw_len, dx_len) = (out_c * ck, in_c * len);
        let item_len = dw_len + out_c + dx_len;
        ws.grad_items.resize(batch * item_len, 0.0);
        let (x, dy, w) = (input.data(), grad_output.data(), self.weight.value.data());
        let flops = 4 * batch * out_c * ck * len;
        let threads = parallel::thread_count_for(batch, flops, CONV_PAR_MIN_FLOPS);
        parallel::for_each_run(
            &mut ws.grad_items,
            item_len,
            threads,
            &mut ws.conv,
            |b0, run, s| {
                let ConvScratch { col, dy_t: g_t } = s;
                for (b, out) in (b0..).zip(run.chunks_exact_mut(item_len)) {
                    let (dw, rest) = out.split_at_mut(dw_len);
                    let (db, dx) = rest.split_at_mut(out_c);
                    let g_b = &dy[b * out_c * len..(b + 1) * out_c * len];
                    for (d, g_row) in db.iter_mut().zip(g_b.chunks_exact(len)) {
                        *d = g_row.iter().sum::<f32>();
                    }
                    im2col(col, &x[b * in_c * len..(b + 1) * in_c * len], in_c, len, k, pad);
                    transpose_into(g_t, g_b, out_c, len);
                    // dW partial = dY · colᵀ. `-0.0` is the exact additive identity,
                    // so the kernel's single add leaves each partial equal to its sum.
                    dw.fill(-0.0);
                    matmul::matmul_weight_grad(dw, g_t, col, len, out_c, ck);
                    // dcol = Wᵀ · dY in the im2col buffer, then scatter it back onto
                    // the item's input gradient.
                    let dcol = &mut col[..ck * len];
                    dcol.fill(0.0);
                    matmul::matmul_at_b(dcol, w, g_b, out_c, ck, len);
                    dx.fill(0.0);
                    col2im_add(dx, dcol, in_c, len, k, pad);
                }
            },
        );
        // Add the partials into the gradients in item order: each gradient
        // element receives exactly the adds of a sequential batch loop.
        let mut grad_input = Tensor::zeros(&[batch, in_c, len]);
        let (grad_w, grad_b) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        for (out, gx) in
            ws.grad_items.chunks_exact(item_len).zip(grad_input.data_mut().chunks_exact_mut(dx_len))
        {
            let (dw, rest) = out.split_at(dw_len);
            let (db, dx) = rest.split_at(out_c);
            for (g, &d) in grad_w.iter_mut().zip(dw) {
                *g += d;
            }
            for (g, &d) in grad_b.iter_mut().zip(db) {
                *g += d;
            }
            gx.copy_from_slice(dx);
        }
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

// ---------------------------------------------------------------------------
// BatchNorm1d
// ---------------------------------------------------------------------------

/// Batch normalisation over `[B, C, N]` tensors (per-channel statistics over
/// the batch and temporal dimensions), as used after every convolution in the
/// paper's network.
///
/// `forward` takes `&self`, so the running statistics cannot be advanced
/// there; a training forward caches the batch mean/variance in the workspace
/// and **`backward` commits them** to the running statistics (backward is the
/// only `&mut self` phase of a training step). A training forward without a
/// matching backward therefore leaves the running statistics untouched.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
}

impl BatchNorm1d {
    /// Creates a batch-normalisation layer for `channels` channels.
    pub fn new(channels: usize) -> Self {
        let mut gamma = Tensor::zeros(&[channels]);
        gamma.fill(1.0);
        Self {
            gamma: Param::new(gamma),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The per-channel affine transform this layer applies at *inference*
    /// (`y = scale · x + shift` from the running statistics) — the fold the
    /// quantised layers absorb into a preceding convolution's per-channel
    /// scales and bias.
    pub fn inference_affine(&self) -> (Vec<f32>, Vec<f32>) {
        (0..self.channels).map(|c| self.inference_scale_shift(c)).unzip()
    }

    /// Channel `c`'s `(scale, shift)` of [`Self::inference_affine`],
    /// computed with exactly the operations of an inference `forward`.
    pub(crate) fn inference_scale_shift(&self, c: usize) -> (f32, f32) {
        let inv = 1.0 / (self.running_var[c] + self.eps).sqrt();
        let scale = self.gamma.value.data()[c] * inv;
        (scale, self.beta.value.data()[c] - self.running_mean[c] * scale)
    }
}

/// Channels whose batch-norm sums run side by side in [`channel_sums`].
const BN_LANES: usize = 4;

/// Per-channel `f64` sums of `S` terms over two `[batch, channels, len]`
/// tensors `a` and `b` (`b` may be `a`): `term(c, a_i, b_i)` gives channel
/// `c`'s terms at each element, and each channel's sums add them in
/// batch-then-position order from `0.0` — the order of a plain loop over
/// one channel at a time. [`BN_LANES`] channels are summed at once, so
/// their serial add chains overlap.
fn channel_sums<const S: usize>(
    a: &[f32],
    b: &[f32],
    (batch, channels, len): (usize, usize, usize),
    term: impl Fn(usize, f32, f32) -> [f64; S],
) -> Vec<[f64; S]> {
    let mut sums = Vec::with_capacity(channels);
    let mut c0 = 0;
    while c0 + BN_LANES <= channels {
        let lanes = sum_lanes::<BN_LANES, S>(a, b, c0, (batch, channels, len), &term);
        sums.extend((0..BN_LANES).map(|l| std::array::from_fn(|s| lanes[s][l])));
        c0 += BN_LANES;
    }
    for c in c0..channels {
        let lane = sum_lanes::<1, S>(a, b, c, (batch, channels, len), &term);
        sums.push(std::array::from_fn(|s| lane[s][0]));
    }
    sums
}

/// Channels `c0 .. c0 + L` of [`channel_sums`], as `sums[term][lane]`.
/// Positions are read four at a time from each channel row and then added
/// one position after another, so each lane's order stays sequential.
fn sum_lanes<const L: usize, const S: usize>(
    a: &[f32],
    b: &[f32],
    c0: usize,
    (batch, channels, len): (usize, usize, usize),
    term: &impl Fn(usize, f32, f32) -> [f64; S],
) -> [[f64; L]; S] {
    let mut acc = [[0.0f64; L]; S];
    let mut add = |l: usize, av: f32, bv: f32| {
        for (acc_s, t) in acc.iter_mut().zip(term(c0 + l, av, bv)) {
            acc_s[l] += t;
        }
    };
    for item in 0..batch {
        let base = (item * channels + c0) * len;
        let rows_a: [&[f32]; L] = std::array::from_fn(|l| &a[base + l * len..][..len]);
        let rows_b: [&[f32]; L] = std::array::from_fn(|l| &b[base + l * len..][..len]);
        let mut j = 0;
        while j + 4 <= len {
            let block_a: [[f32; 4]; L] =
                std::array::from_fn(|l| rows_a[l][j..j + 4].try_into().expect("4 positions"));
            let block_b: [[f32; 4]; L] =
                std::array::from_fn(|l| rows_b[l][j..j + 4].try_into().expect("4 positions"));
            for t in 0..4 {
                for l in 0..L {
                    add(l, block_a[l][t], block_b[l][t]);
                }
            }
            j += 4;
        }
        for j in j..len {
            for l in 0..L {
                add(l, rows_a[l][j], rows_b[l][j]);
            }
        }
    }
    acc
}

impl Layer for BatchNorm1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 3, "BatchNorm1d expects a 3-D input");
        assert_eq!(input.shape()[1], self.channels, "BatchNorm1d channel mismatch");
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let channels = self.channels;
        let m = (batch * len) as f32;
        let x = input.data();

        // Per-channel statistics: the mean, then the variance about it, each
        // an f64 sum over the channel's [b, c] slices in batch order.
        let (mean_c, var_c): (Vec<f32>, Vec<f32>) = if training {
            let dims = (batch, channels, len);
            let mean_c: Vec<f32> = channel_sums(x, x, dims, |_, v, _| [v as f64])
                .iter()
                .map(|[sum]| (sum / m as f64) as f32)
                .collect();
            let var_c = channel_sums(x, x, dims, |c, v, _| [((v - mean_c[c]) as f64).powi(2)])
                .iter()
                .map(|[var_sum]| (var_sum / m as f64) as f32)
                .collect();
            (mean_c, var_c)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        let std_inv: Vec<f32> = var_c.iter().map(|&var| 1.0 / (var + self.eps).sqrt()).collect();

        let mut out = ws.uninit_tensor(input.shape());
        if training {
            let mut x_hat = Tensor::zeros(input.shape());
            let rows = out
                .data_mut()
                .chunks_exact_mut(len)
                .zip(x_hat.data_mut().chunks_exact_mut(len))
                .zip(x.chunks_exact(len));
            for (row, ((out_row, hat_row), x_row)) in rows.enumerate() {
                let c = row % channels;
                let (g, be) = (self.gamma.value.data()[c], self.beta.value.data()[c]);
                let (mean, inv) = (mean_c[c], std_inv[c]);
                for ((o, h), &v) in out_row.iter_mut().zip(hat_row.iter_mut()).zip(x_row) {
                    let xh = (v - mean) * inv;
                    *h = xh;
                    *o = g * xh + be;
                }
            }
            ws.push(LayerCache::Bn { x_hat, std_inv, mean: mean_c, var: var_c });
        } else {
            // Inference: fold (mean, inv, gamma, beta) into a single affine
            // transform per channel and skip the cache.
            let out_data = out.data_mut();
            for b in 0..batch {
                for c in 0..channels {
                    let base = (b * channels + c) * len;
                    let scale = self.gamma.value.data()[c] * std_inv[c];
                    let shift = self.beta.value.data()[c] - mean_c[c] * scale;
                    for (dst, &v) in out_data[base..base + len].iter_mut().zip(&x[base..base + len])
                    {
                        *dst = v * scale + shift;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let (x_hat, std_inv, mean, var) = match ws.pop("BatchNorm1d") {
            LayerCache::Bn { x_hat, std_inv, mean, var } => (x_hat, std_inv, mean, var),
            other => cache_mismatch("BatchNorm1d", &other),
        };
        // Commit the batch statistics of the matching forward to the running
        // statistics (deferred from forward, which is `&self`).
        for c in 0..self.channels {
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
        }
        let (batch, len) = (grad_output.shape()[0], grad_output.shape()[2]);
        let channels = self.channels;
        let m = (batch * len) as f32;
        let dy = grad_output.data();
        let hat = x_hat.data();
        let mut grad_input = Tensor::zeros(grad_output.shape());
        let sums = channel_sums(dy, hat, (batch, channels, len), |_, d, h| {
            [d as f64, d as f64 * h as f64]
        });
        // Per channel: `(gamma · inv, mean of dy, mean of dy·x̂)`.
        let mut coef = Vec::with_capacity(channels);
        for (c, (&inv, &[sum_dy, sum_dy_xhat])) in std_inv.iter().zip(&sums).enumerate() {
            self.beta.grad.data_mut()[c] += sum_dy as f32;
            self.gamma.grad.data_mut()[c] += sum_dy_xhat as f32;
            coef.push((
                self.gamma.value.data()[c] * inv,
                sum_dy as f32 / m,
                sum_dy_xhat as f32 / m,
            ));
        }
        let rows = grad_input
            .data_mut()
            .chunks_exact_mut(len)
            .zip(dy.chunks_exact(len))
            .zip(hat.chunks_exact(len));
        for (row, ((gi_row, dy_row), hat_row)) in rows.enumerate() {
            let (g_inv, mean_dy, mean_dy_xhat) = coef[row % channels];
            for ((gi, &d), &h) in gi_row.iter_mut().zip(dy_row).zip(hat_row) {
                *gi = g_inv * (d - mean_dy - h * mean_dy_xhat);
            }
        }
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers(&self) -> Vec<&[f32]> {
        vec![&self.running_mean, &self.running_var]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

// ---------------------------------------------------------------------------
// Global average pooling
// ---------------------------------------------------------------------------

/// Global average pooling over the temporal dimension: `[B, C, N] → [B, C]`.
///
/// This is the layer that lets the paper use a different window length at
/// inference time (`N_inf`) than at training time (`N_train`).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GlobalAvgPool1d;

impl GlobalAvgPool1d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for GlobalAvgPool1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 3, "GlobalAvgPool1d expects a 3-D input");
        let (batch, channels, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = ws.uninit_tensor(&[batch, channels]);
        let inv_len = 1.0 / len as f32;
        for (dst, row) in out.data_mut().iter_mut().zip(input.data().chunks(len)) {
            *dst = row.iter().sum::<f32>() * inv_len;
        }
        if training {
            ws.push(LayerCache::Shape(input.shape().to_vec()));
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let shape = match ws.pop("GlobalAvgPool1d") {
            LayerCache::Shape(shape) => shape,
            other => cache_mismatch("GlobalAvgPool1d", &other),
        };
        let len = shape[2];
        let mut grad_input = Tensor::zeros(&shape);
        for (row, &g) in grad_input.data_mut().chunks_mut(len).zip(grad_output.data().iter()) {
            row.fill(g / len as f32);
        }
        grad_input
    }
}

// ---------------------------------------------------------------------------
// Residual block
// ---------------------------------------------------------------------------

/// Residual block of the paper's network: two (Conv1d → BatchNorm → ReLU)
/// stages whose output is summed element-wise with a shortcut connection,
/// followed by a final ReLU. When the channel count changes, the shortcut is
/// a 1×1 convolution followed by batch normalisation (the standard ResNet
/// projection shortcut).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualBlock1d {
    conv1: Conv1d,
    bn1: BatchNorm1d,
    relu1: Relu,
    conv2: Conv1d,
    bn2: BatchNorm1d,
    projection: Option<(Conv1d, BatchNorm1d)>,
    relu_out: Relu,
}

impl ResidualBlock1d {
    /// Creates a residual block mapping `in_channels` to `out_channels` with
    /// the given kernel size.
    pub fn new(in_channels: usize, out_channels: usize, kernel_size: usize, seed: u64) -> Self {
        let projection = if in_channels != out_channels {
            Some((
                Conv1d::new(in_channels, out_channels, 1, seed.wrapping_add(77)),
                BatchNorm1d::new(out_channels),
            ))
        } else {
            None
        };
        Self {
            conv1: Conv1d::new(in_channels, out_channels, kernel_size, seed),
            bn1: BatchNorm1d::new(out_channels),
            relu1: Relu::new(),
            conv2: Conv1d::new(out_channels, out_channels, kernel_size, seed.wrapping_add(1)),
            bn2: BatchNorm1d::new(out_channels),
            projection,
            relu_out: Relu::new(),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// Shared access to the block's sub-layers, in forward order:
    /// `(conv1, bn1, conv2, bn2, projection)`. Used by the quantised layer
    /// variants to mirror the block structure.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (&Conv1d, &BatchNorm1d, &Conv1d, &BatchNorm1d, Option<(&Conv1d, &BatchNorm1d)>) {
        (
            &self.conv1,
            &self.bn1,
            &self.conv2,
            &self.bn2,
            self.projection.as_ref().map(|(c, b)| (c, b)),
        )
    }

    /// Inference forward pass routing every convolution through
    /// [`Conv1d::forward_reference`]. The non-conv layers are elementwise in
    /// both implementations, so this reproduces the pre-GEMM baseline cost
    /// profile for throughput benchmarks and parity tests.
    pub fn forward_reference(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut main = self.conv1.forward_reference(input);
        main = self.bn1.forward(&main, ws, false);
        main = self.relu1.forward(&main, ws, false);
        main = self.conv2.forward_reference(&main);
        main = self.bn2.forward(&main, ws, false);
        let shortcut = match self.projection.as_ref() {
            Some((conv, bn)) => {
                let s = conv.forward_reference(input);
                bn.forward(&s, ws, false)
            }
            None => input.clone(),
        };
        let mut sum = main;
        sum.add_assign(&shortcut);
        self.relu_out.forward(&sum, ws, false)
    }
}

impl Layer for ResidualBlock1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        // Dead intermediates go back to the workspace arena as soon as the
        // next layer has consumed them (`forward_consuming`), so a
        // steady-state pass allocates nothing; the identity shortcut adds
        // `input` directly instead of cloning it.
        let x = self.conv1.forward(input, ws, training);
        let x = forward_consuming(&self.bn1, x, ws, training);
        let x = forward_consuming(&self.relu1, x, ws, training);
        let x = forward_consuming(&self.conv2, x, ws, training);
        let mut sum = forward_consuming(&self.bn2, x, ws, training);
        match self.projection.as_ref() {
            Some((conv, bn)) => {
                let s = conv.forward(input, ws, training);
                let s_bn = forward_consuming(bn, s, ws, training);
                sum.add_assign(&s_bn);
                ws.recycle(s_bn);
            }
            None => sum.add_assign(input),
        }
        forward_consuming(&self.relu_out, sum, ws, training)
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        // Pop order must be the exact reverse of the forward push order:
        // relu_out, [projection bn, projection conv], bn2, conv2, relu1, bn1,
        // conv1 — so the shortcut branch unwinds before the main branch.
        let grad_sum = self.relu_out.backward(grad_output, ws);
        let grad_shortcut_input = match self.projection.as_mut() {
            Some((conv, bn)) => {
                let g = bn.backward(&grad_sum, ws);
                conv.backward(&g, ws)
            }
            None => grad_sum.clone(),
        };
        let g = self.bn2.backward(&grad_sum, ws);
        let g = self.conv2.backward(&g, ws);
        let g = self.relu1.backward(&g, ws);
        let g = self.bn1.backward(&g, ws);
        let grad_main_input = self.conv1.backward(&g, ws);
        grad_main_input.add(&grad_shortcut_input)
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = Vec::new();
        params.extend(self.conv1.params());
        params.extend(self.bn1.params());
        params.extend(self.conv2.params());
        params.extend(self.bn2.params());
        if let Some((conv, bn)) = self.projection.as_ref() {
            params.extend(conv.params());
            params.extend(bn.params());
        }
        params
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.conv1.params_mut());
        params.extend(self.bn1.params_mut());
        params.extend(self.conv2.params_mut());
        params.extend(self.bn2.params_mut());
        if let Some((conv, bn)) = self.projection.as_mut() {
            params.extend(conv.params_mut());
            params.extend(bn.params_mut());
        }
        params
    }

    fn buffers(&self) -> Vec<&[f32]> {
        let mut buffers = Vec::new();
        buffers.extend(self.bn1.buffers());
        buffers.extend(self.bn2.buffers());
        if let Some((_, bn)) = self.projection.as_ref() {
            buffers.extend(bn.buffers());
        }
        buffers
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut buffers = Vec::new();
        buffers.extend(self.bn1.buffers_mut());
        buffers.extend(self.bn2.buffers_mut());
        if let Some((_, bn)) = self.projection.as_mut() {
            buffers.extend(bn.buffers_mut());
        }
        buffers
    }
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// A simple sequential container of boxed layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential model from a list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Layer for Sequential {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward(input, ws, training);
        for layer in layers {
            x = forward_consuming(layer.as_ref(), x, ws, training);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g, ws);
        }
        g
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn buffers(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.layers.iter_mut().flat_map(|l| l.buffers_mut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check of a layer's input gradient on a tiny random
    /// problem. `probe_training` selects the mode of the finite-difference
    /// probes: layers with batch statistics (BatchNorm, residual blocks) must
    /// probe in training mode because those statistics are part of the
    /// function being differentiated; stateless layers probe in inference
    /// mode so the probes push no caches.
    fn gradcheck_mode<L: Layer>(
        layer: &mut L,
        input_shape: &[usize],
        tolerance: f32,
        probe_training: bool,
    ) {
        let mut ws = Workspace::new();
        let input = init::uniform(input_shape, -1.0, 1.0, 99);
        // Scalar objective: weighted sum of outputs (weights fixed).
        let out = layer.forward(&input, &mut ws, true);
        ws.clear();
        let obj_weights = init::uniform(out.shape(), -1.0, 1.0, 123);
        let objective = |out: &Tensor| -> f32 {
            out.data().iter().zip(obj_weights.data().iter()).map(|(a, b)| a * b).sum()
        };
        // Analytic gradients.
        layer.zero_grad();
        let _ = layer.forward(&input, &mut ws, true);
        let grad_input = layer.backward(&obj_weights, &mut ws);
        assert_eq!(ws.cache_depth(), 0, "backward must consume every cache");
        // Numeric input gradient (spot-check a handful of coordinates).
        let eps = 1e-2f32;
        let check_idx: Vec<usize> =
            (0..input.len()).step_by((input.len() / 7).max(1)).take(8).collect();
        for &idx in &check_idx {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let f_plus = objective(&layer.forward(&plus, &mut ws, probe_training));
            let f_minus = objective(&layer.forward(&minus, &mut ws, probe_training));
            ws.clear();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grad_input.data()[idx];
            assert!(
                (numeric - analytic).abs() < tolerance * (1.0 + numeric.abs()),
                "input grad mismatch at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    fn gradcheck<L: Layer>(layer: &mut L, input_shape: &[usize], tolerance: f32) {
        gradcheck_mode(layer, input_shape, tolerance, false);
    }

    fn gradcheck_training_probes<L: Layer>(layer: &mut L, input_shape: &[usize], tolerance: f32) {
        gradcheck_mode(layer, input_shape, tolerance, true);
    }

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let mut ws = Workspace::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[1, 4]);
        let y = relu.forward(&x, &mut ws, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 4]), &mut ws);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn linear_known_values() {
        let mut lin = Linear::new(2, 1, 1);
        let mut ws = Workspace::new();
        // Overwrite weights for a deterministic check: y = 2*x0 - x1 + 0.5
        lin.weight.value = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]);
        lin.bias.value = Tensor::from_vec(vec![0.5], &[1]);
        let x = Tensor::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        let y = lin.forward(&x, &mut ws, true);
        assert_eq!(y.data(), &[0.5, -0.5]);
        let g = lin.backward(&Tensor::from_rows(&[vec![1.0], vec![1.0]]), &mut ws);
        // dL/dx = w for unit output grads.
        assert_eq!(g.data(), &[2.0, -1.0, 2.0, -1.0]);
        // dL/dw = sum of inputs, dL/db = 2.
        assert_eq!(lin.weight.grad.data(), &[1.0, 3.0]);
        assert_eq!(lin.bias.grad.data(), &[2.0]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut lin = Linear::new(5, 3, 3);
        gradcheck(&mut lin, &[4, 5], 1e-2);
    }

    #[test]
    fn linear_matches_reference() {
        let lin = Linear::new(7, 4, 9);
        let mut ws = Workspace::new();
        let x = init::uniform(&[5, 7], -1.0, 1.0, 21);
        let fast = lin.forward(&x, &mut ws, false);
        let slow = lin.forward_reference(&x);
        for (a, b) in fast.data().iter().zip(slow.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn conv1d_identity_kernel() {
        let mut conv = Conv1d::new(1, 1, 1, 1);
        let mut ws = Workspace::new();
        conv.weight.value = Tensor::from_vec(vec![1.0], &[1, 1, 1]);
        conv.bias.value = Tensor::from_vec(vec![0.0], &[1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = conv.forward(&x, &mut ws, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_same_padding_keeps_length() {
        let mut ws = Workspace::new();
        for k in [1usize, 3, 4, 7, 8] {
            let conv = Conv1d::new(2, 3, k, 5);
            let x = init::uniform(&[2, 2, 10], -1.0, 1.0, 7);
            let y = conv.forward(&x, &mut ws, false);
            assert_eq!(y.shape(), &[2, 3, 10], "kernel {k}");
        }
    }

    #[test]
    fn conv1d_moving_average_kernel() {
        let mut conv = Conv1d::new(1, 1, 3, 1);
        let mut ws = Workspace::new();
        conv.weight.value = Tensor::from_vec(vec![1.0 / 3.0; 3], &[1, 1, 3]);
        conv.bias.value = Tensor::from_vec(vec![0.0], &[1]);
        let x = Tensor::from_vec(vec![3.0, 3.0, 3.0, 3.0, 3.0], &[1, 1, 5]);
        let y = conv.forward(&x, &mut ws, false);
        // Interior samples see the full window, borders see 2/3 of it.
        assert!((y.at3(0, 0, 2) - 3.0).abs() < 1e-6);
        assert!((y.at3(0, 0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn conv1d_gradcheck() {
        let mut conv = Conv1d::new(2, 2, 3, 11);
        gradcheck(&mut conv, &[2, 2, 6], 2e-2);
    }

    #[test]
    fn conv1d_matches_reference() {
        let mut ws = Workspace::new();
        for &(in_c, out_c, k, len, batch) in
            &[(1usize, 2usize, 3usize, 16usize, 2usize), (2, 3, 4, 9, 3), (3, 2, 7, 32, 1)]
        {
            let conv = Conv1d::new(in_c, out_c, k, 13);
            let x = init::uniform(&[batch, in_c, len], -1.0, 1.0, 17);
            let fast = conv.forward(&x, &mut ws, false);
            let slow = conv.forward_reference(&x);
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-5, "in_c={in_c} out_c={out_c} k={k}");
            }
        }
    }

    #[test]
    fn conv1d_inference_skips_cache() {
        let conv = Conv1d::new(1, 2, 3, 3);
        let mut ws = Workspace::new();
        let x = Tensor::zeros(&[1, 1, 8]);
        let _ = conv.forward(&x, &mut ws, false);
        assert_eq!(ws.cache_depth(), 0, "inference must not record a cache");
        let _ = conv.forward(&x, &mut ws, true);
        assert_eq!(ws.cache_depth(), 1, "training must record a cache");
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv1d_backward_after_inference_panics() {
        let mut conv = Conv1d::new(1, 1, 3, 3);
        let mut ws = Workspace::new();
        let x = Tensor::zeros(&[1, 1, 8]);
        let y = conv.forward(&x, &mut ws, false);
        let _ = conv.backward(&y, &mut ws);
    }

    #[test]
    fn batchnorm_normalises_in_training() {
        let bn = BatchNorm1d::new(1);
        let mut ws = Workspace::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 1, 3]);
        let y = bn.forward(&x, &mut ws, true);
        let mean: f32 = y.data().iter().sum::<f32>() / 6.0;
        let var: f32 = y.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 6.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let mut ws = Workspace::new();
        // Run several training forward/backward pairs to populate the running
        // statistics (they are committed during backward).
        for seed in 0..20u64 {
            let x = init::uniform(&[4, 1, 8], 4.0, 6.0, seed);
            let y = bn.forward(&x, &mut ws, true);
            let _ = bn.backward(&Tensor::zeros(y.shape()), &mut ws);
        }
        // In eval mode a constant input centred on the running mean maps near zero.
        let x = Tensor::from_vec(vec![5.0; 8], &[1, 1, 8]);
        let y = bn.forward(&x, &mut ws, false);
        assert!(y.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn batchnorm_stats_commit_in_backward_not_forward() {
        let mut bn = BatchNorm1d::new(1);
        let mut ws = Workspace::new();
        let before = bn.buffers().iter().map(|b| b.to_vec()).collect::<Vec<_>>();
        let x = init::uniform(&[2, 1, 8], 4.0, 6.0, 1);
        let y = bn.forward(&x, &mut ws, true);
        assert_eq!(
            bn.buffers().iter().map(|b| b.to_vec()).collect::<Vec<_>>(),
            before,
            "a training forward alone must not advance the running statistics"
        );
        let _ = bn.backward(&Tensor::zeros(y.shape()), &mut ws);
        assert_ne!(
            bn.buffers().iter().map(|b| b.to_vec()).collect::<Vec<_>>(),
            before,
            "backward must commit the batch statistics"
        );
    }

    #[test]
    fn channel_sums_keep_the_plain_loop_order() {
        // Huge values that cancel make any change of summation order show
        // in the bits; 6 channels and 7 positions exercise both tails.
        let (batch, channels, len) = (3usize, 6usize, 7usize);
        let spiky = |seed: u64| -> Vec<f32> {
            init::uniform(&[batch * channels * len], -1.0, 1.0, seed)
                .data()
                .iter()
                .enumerate()
                .map(|(i, &v)| match i % 7 {
                    1 => 3e12,
                    5 => -3e12,
                    _ => v,
                })
                .collect()
        };
        let (a, b) = (spiky(1), spiky(2));
        let term = |c: usize, x: f32, y: f32| [x as f64 + c as f64, x as f64 * y as f64];
        let got = channel_sums(&a, &b, (batch, channels, len), term);
        for (c, sums) in got.iter().enumerate() {
            let mut want = [0.0f64; 2];
            for item in 0..batch {
                let base = (item * channels + c) * len;
                for i in base..base + len {
                    for (w, t) in want.iter_mut().zip(term(c, a[i], b[i])) {
                        *w += t;
                    }
                }
            }
            assert_eq!(sums.map(f64::to_bits), want.map(f64::to_bits), "channel {c}");
        }
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut bn = BatchNorm1d::new(2);
        gradcheck_training_probes(&mut bn, &[3, 2, 4], 3e-2);
    }

    #[test]
    fn global_avg_pool_values_and_shape() {
        let mut pool = GlobalAvgPool1d::new();
        let mut ws = Workspace::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 4]);
        let y = pool.forward(&x, &mut ws, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 2.0]);
        let g = pool.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]), &mut ws);
        assert_eq!(g.shape(), &[1, 2, 4]);
        assert_eq!(g.at3(0, 0, 0), 1.0);
        assert_eq!(g.at3(0, 1, 3), 2.0);
    }

    #[test]
    fn residual_block_shapes_and_projection() {
        let mut ws = Workspace::new();
        let same = ResidualBlock1d::new(4, 4, 3, 1);
        let x = init::uniform(&[2, 4, 6], -1.0, 1.0, 3);
        let y = same.forward(&x, &mut ws, true);
        ws.clear();
        assert_eq!(y.shape(), &[2, 4, 6]);

        let grow = ResidualBlock1d::new(4, 8, 3, 2);
        let y = grow.forward(&x, &mut ws, true);
        ws.clear();
        assert_eq!(y.shape(), &[2, 8, 6]);
        assert_eq!(grow.out_channels(), 8);
        // Projection shortcut adds parameters.
        assert!(grow.param_count() > same.param_count());
    }

    #[test]
    fn residual_block_gradcheck() {
        let mut block = ResidualBlock1d::new(2, 3, 3, 17);
        gradcheck_training_probes(&mut block, &[2, 2, 5], 5e-2);
    }

    #[test]
    fn residual_block_backward_consumes_all_caches() {
        let mut block = ResidualBlock1d::new(2, 4, 3, 9);
        let mut ws = Workspace::new();
        let x = init::uniform(&[2, 2, 8], -1.0, 1.0, 5);
        let y = block.forward(&x, &mut ws, true);
        assert!(ws.cache_depth() > 0);
        let g = block.backward(&Tensor::zeros(y.shape()), &mut ws);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(ws.cache_depth(), 0, "backward must pop exactly what forward pushed");
    }

    #[test]
    fn sequential_composes() {
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(3, 4, 1)),
            Box::new(Relu::new()),
            Box::new(Linear::new(4, 2, 2)),
        ]);
        let mut ws = Workspace::new();
        let x = init::uniform(&[5, 3], -1.0, 1.0, 9);
        let y = model.forward(&x, &mut ws, true);
        assert_eq!(y.shape(), &[5, 2]);
        model.zero_grad();
        let g = model.backward(&Tensor::zeros(&[5, 2]), &mut ws);
        assert_eq!(g.shape(), &[5, 3]);
        assert_eq!(model.params_mut().len(), 4);
        assert_eq!(model.params().len(), 4);
        assert!(!model.is_empty());
        assert_eq!(model.len(), 3);
    }

    #[test]
    fn shared_model_scores_identically_across_threads() {
        // The point of the `&self` redesign: one model instance, many
        // workspaces, no weight clones — identical outputs on every thread.
        let model = Sequential::new(vec![
            Box::new(Linear::new(4, 8, 1)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, 2)),
        ]);
        let x = init::uniform(&[3, 4], -1.0, 1.0, 11);
        let mut ws = Workspace::new();
        let expected = model.forward(&x, &mut ws, false);
        let model_ref = &model;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let x = x.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    let mut ws = Workspace::new();
                    let y = model_ref.forward(&x, &mut ws, false);
                    assert_eq!(y.data(), expected.data());
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut lin = Linear::new(2, 2, 1);
        let mut ws = Workspace::new();
        lin.backward(&Tensor::zeros(&[1, 2]), &mut ws);
    }
}
