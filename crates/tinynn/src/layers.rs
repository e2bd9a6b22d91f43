//! Neural-network layers with analytic forward/backward passes.
//!
//! Layout conventions:
//!
//! * convolutional tensors are `[batch, channels, length]`;
//! * fully-connected tensors are `[batch, features]`.
//!
//! Layers hold **parameters only** — weights, biases and (for batch
//! normalisation) running statistics. Everything a pass needs beyond that —
//! backward caches and staging scratch — lives in an explicit
//! [`Workspace`], so `forward` takes `&self`: one trained network can be
//! shared across threads (`Layer: Send + Sync`) with a cheap per-thread
//! workspace instead of a per-thread clone of the weights.
//!
//! During a *training* `forward` every layer pushes one cache entry onto the
//! workspace stack; `backward` (which still takes `&mut self` to accumulate
//! parameter gradients into the layer's [`Param`]s) pops the entries in
//! reverse. Inference (`training == false`) records nothing. Layer outputs,
//! input gradients and cached tensors (`Relu` and `Linear` cache a copy of
//! their input) are drawn from the workspace's arena
//! ([`Workspace::uninit_tensor`]), and containers recycle dead
//! intermediates in both directions ([`forward_consuming`],
//! [`backward_consuming`]) — a warm inference pass performs **zero heap
//! allocations**, and a warm training step takes its activations, caches
//! and gradients from the arena too.
//!
//! These `forward` methods form the **layer chain**: `Conv1d` packs its
//! weights into register strips once per call and convolves each item with
//! the direct tile of [`crate::fused`] (the one `f32` forward convolution),
//! `Linear` runs plain loops (each output its bias plus a dot summed from
//! zero with fused multiply-adds), and the normalisation/pooling layers
//! operate on contiguous channel slices.
//!
//! `Conv1d`'s training forward keeps each item's input as the direct tile
//! staged it (zero-padded and channel-major), and the backward computes the
//! item's gradients straight from that stage and `dY`, item by item: the
//! weight-gradient partial in register tiles with output channels in lanes
//! (a staged row read from offset `t` is row `c·k + t` of the im2col this
//! replaces, and `qsimd::transpose` puts `dY`'s channels side by side), and
//! the input gradient tap by tap in register tiles of channels by
//! positions. `BatchNorm1d` forms its training sums (batch statistics,
//! `Σdy`, `Σdy·x̂`) with `qsimd::channel_sums`, each channel in one vector
//! lane. Both keep every gradient element's floating-point operations and
//! their order exactly as in a plain sequential loop (and as the im2col
//! backward had them), so trained weights are the same bits whatever the
//! thread count and whether or not the `qsimd` kernels are compiled in.
//!
//! The layer chain serves training. A convolutional backbone built from
//! these layers scores windows through the fused channels-last chain of
//! [`crate::fused`] instead (the same tile, with batch norm, ReLU and the
//! residual add in its epilogue), whose output is bit-identical to the
//! layer chain's. The original scalar implementations survive as
//! `*_reference` methods so parity tests can pin the optimised kernels
//! against them.

use qsimd::SumTerms;
use serde::{Deserialize, Serialize};

use crate::fused;
use crate::init;
use crate::matmul::fmadd;
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::{LayerCache, Workspace};

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

/// The backward twin of [`forward_consuming`]: back-propagates `g` through
/// `layer` and recycles `g`'s storage into the workspace arena, where the
/// next layer's input gradient finds it.
pub fn backward_consuming<L: Layer + ?Sized>(
    layer: &mut L,
    g: Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let grad_input = layer.backward(&g, ws);
    ws.recycle(g);
    grad_input
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
            ws.push_input(input);
        }
        let mut out = ws.uninit_tensor(input.shape());
        for (dst, &v) in out.data_mut().iter_mut().zip(input.data().iter()) {
            *dst = v.max(0.0);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let input = match ws.pop("Relu") {
            LayerCache::Input(input) => input,
            other => cache_mismatch("Relu", &other),
        };
        assert_eq!(grad_output.len(), input.len(), "Relu: gradient/input length mismatch");
        let mut grad_input = ws.uninit_tensor(grad_output.shape());
        let pairs = grad_output.data().iter().zip(input.data());
        for (gi, (&g, &x)) in grad_input.data_mut().iter_mut().zip(pairs) {
            *gi = if x > 0.0 { g } else { 0.0 };
        }
        ws.recycle(input);
        grad_input
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

    /// Naive scalar-loop forward pass (the bias first, then separate
    /// multiplies and adds), kept as an independent parity reference for
    /// `forward`, which agrees with it to rounding. Pure: touches no caches.
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
        let (in_f, out_f) = (self.in_features, self.out_features);
        let (w, bias) = (self.weight.value.data(), self.bias.value.data());
        let mut out = ws.uninit_tensor(&[input.shape()[0], out_f]);
        // Each output is its bias plus the dot of the input row with the
        // weight row, summed from zero with fused multiply-adds.
        for (b, y_row) in out.data_mut().chunks_exact_mut(out_f).enumerate() {
            let x_row = &input.data()[b * in_f..][..in_f];
            for (o, (y, &bias)) in y_row.iter_mut().zip(bias).enumerate() {
                let w_row = &w[o * in_f..][..in_f];
                *y = bias + x_row.iter().zip(w_row).fold(0.0, |acc, (&x, &w)| fmadd(x, w, acc));
            }
        }
        if training {
            ws.push_input(input);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let input = match ws.pop("Linear") {
            LayerCache::Input(input) => input,
            other => cache_mismatch("Linear", &other),
        };
        let (in_f, out_f) = (self.in_features, self.out_features);
        let batch = input.shape()[0];
        assert_eq!(grad_output.shape(), [batch, out_f], "Linear: gradient shape mismatch");
        let mut grad_input = ws.uninit_tensor(&[batch, in_f]);
        grad_input.data_mut().fill(0.0);
        let w = self.weight.value.data();
        let (grad_w, grad_b) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        // Row by row: `db[o]` gains `dY[b,o]`; unless `dY[b,o]` is zero,
        // `dX[b]` gains the rounded products `dY[b,o]·W[o]` and `dW[o]` the
        // rounded products `dY[b,o]·X[b]`. So `dX` sums over `o` in order and
        // `dW` and `db` over `b` in order.
        for (b, dy_row) in grad_output.data().chunks_exact(out_f).enumerate() {
            let x_row = &input.data()[b * in_f..][..in_f];
            let dx_row = &mut grad_input.data_mut()[b * in_f..][..in_f];
            for (o, &dy) in dy_row.iter().enumerate() {
                grad_b[o] += dy;
                if dy == 0.0 {
                    continue;
                }
                let rows = w[o * in_f..][..in_f].iter().zip(&mut grad_w[o * in_f..][..in_f]);
                for ((dx, &xv), (&wv, dw)) in dx_row.iter_mut().zip(x_row).zip(rows) {
                    *dx += dy * wv;
                    *dw += dy * xv;
                }
            }
        }
        ws.recycle(input);
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

/// The scratch of `Conv1d`'s backward, reused across the items and layers
/// of a pass.
#[derive(Debug, Default)]
pub(crate) struct ConvScratch {
    /// Positions-major copy of one item's output gradient: the lanes of
    /// the weight-gradient tile.
    dy_t: Vec<f32>,
    /// One item's output gradient, zero-padded and channel-major: the
    /// input-gradient tiles read it.
    dy_pad: Vec<f32>,
    /// One item's input gradient as it accumulates, rows rounded up to
    /// whole input-gradient tiles.
    sums: Vec<f32>,
}

impl ConvScratch {
    /// `f32`s of capacity the buffers hold.
    pub(crate) fn capacity(&self) -> usize {
        [&self.dy_t, &self.dy_pad, &self.sums].iter().map(|v| v.capacity()).sum()
    }
}

/// Writes the `[len, rows]` transpose of a row-major `[rows, len]` block:
/// `qsimd::transpose`'s register blocks, or, where that kernel is not
/// compiled in, one strided store per element.
fn transpose_into(dst: &mut Vec<f32>, src: &[f32], rows: usize, len: usize) {
    dst.resize(rows * len, 0.0);
    if qsimd::transpose(dst, src, rows, len) {
        return;
    }
    for (r, src_row) in src.chunks_exact(len).enumerate() {
        for (j, &v) in src_row.iter().enumerate() {
            dst[j * rows + r] = v;
        }
    }
}

/// The shape of one item of a convolution backward.
#[derive(Debug, Clone, Copy)]
struct ItemShape {
    out_c: usize,
    /// `in_c · kernel`: the columns of the weight gradient.
    depth: usize,
    kernel: usize,
    len: usize,
    /// Zero samples before the signal in each staged input row ("same"
    /// padding).
    pad: usize,
    /// Length of one staged input row, at least `len + kernel - 1`.
    row: usize,
    /// Length of one staged output-gradient row ([`input_grad`]).
    dy_row: usize,
}

/// Adds one item's weight-gradient partial onto `grad_w`
/// (`[out_c, in_c·kernel]`): element `(o, c·k + t)` is
/// `Σⱼ dy[o, j] · x[c, j + t - pad]`, summed from `0.0` over positions in
/// order with each product rounded before its add, and added once. The
/// input values are read from the staged rows, `stage[c·row + t + j]`,
/// zero pads included — exactly row `c·k + t` of the item's im2col.
///
/// Register tiles hold up to 16 output channels in lanes (contiguous in
/// each position of the positions-major `dy_t`) by several columns, each
/// column broadcasting one staged sample per position, so the add chains
/// of neighbouring elements overlap instead of waiting on each other.
fn weight_grad(grad_w: &mut [f32], dy_t: &[f32], stage: &[f32], s: ItemShape) {
    let mut o0 = 0;
    while o0 + 16 <= s.out_c {
        weight_grad_strip::<16, 4>(grad_w, dy_t, stage, s, o0);
        o0 += 16;
    }
    if o0 + 8 <= s.out_c {
        weight_grad_strip::<8, 8>(grad_w, dy_t, stage, s, o0);
        o0 += 8;
    }
    while o0 < s.out_c {
        weight_grad_strip::<1, 8>(grad_w, dy_t, stage, s, o0);
        o0 += 1;
    }
}

/// Output channels `o0 .. o0 + W` of [`weight_grad`], `R` columns at a
/// time, then one.
fn weight_grad_strip<const W: usize, const R: usize>(
    grad_w: &mut [f32],
    dy_t: &[f32],
    stage: &[f32],
    s: ItemShape,
    o0: usize,
) {
    let mut d0 = 0;
    while d0 + R <= s.depth {
        weight_grad_tile::<W, R>(grad_w, dy_t, stage, s, o0, d0);
        d0 += R;
    }
    while d0 < s.depth {
        weight_grad_tile::<W, 1>(grad_w, dy_t, stage, s, o0, d0);
        d0 += 1;
    }
}

/// One tile of [`weight_grad`]: `W` output channels in lanes by the `R`
/// columns from `d0`, `W · R` independent sums held in registers over all
/// positions.
#[inline]
fn weight_grad_tile<const W: usize, const R: usize>(
    grad_w: &mut [f32],
    dy_t: &[f32],
    stage: &[f32],
    s: ItemShape,
    o0: usize,
    d0: usize,
) {
    let cols: [&[f32]; R] = std::array::from_fn(|r| {
        let (c, t) = ((d0 + r) / s.kernel, (d0 + r) % s.kernel);
        &stage[c * s.row + t..][..s.len]
    });
    let mut acc = [[0.0f32; W]; R];
    for (j, dy_j) in dy_t.chunks_exact(s.out_c).enumerate() {
        let lanes: &[f32; W] = dy_j[o0..o0 + W].try_into().expect("W lanes");
        for (acc_r, col) in acc.iter_mut().zip(&cols) {
            let xv = col[j];
            for (a, &g) in acc_r.iter_mut().zip(lanes) {
                *a += g * xv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (i, &sum) in acc_r.iter().enumerate() {
            grad_w[(o0 + i) * s.depth + d0 + r] += sum;
        }
    }
}

/// Positions of one [`input_grad`] tile: two 8-lane registers.
const STRIP: usize = 16;

/// Writes one item's input gradient into `dx` (`[in_c, len]`). Row
/// `c·k + t` of the column gradient, `Σₒ W[o, c·k + t] · dy[o, j]`, is
/// formed from `0.0` over output channels in order, each product rounded
/// before its add and zero weights skipped when `SKIP`, and `dx[c, s]`
/// adds the values of its taps `t` in order onto `0.0`, each at position
/// `j = s + pad - t` where that position exists: the column gradient and
/// col2im scatter of an im2col backward, without the column buffer.
///
/// `dy_pad` is the output gradient staged with `kernel - 1 - pad` zeros
/// before each row of `dy_row` samples and enough after it that every
/// tap of every tile reads whole registers. The sums accumulate in `sums`,
/// rows of `len` rounded up to whole tiles, taps in the outer loop. A
/// weight matrix without zeros never takes the skip, so it runs without
/// its branches.
fn input_grad<const SKIP: bool>(
    dx: &mut [f32],
    sums: &mut Vec<f32>,
    w: &[f32],
    dy_pad: &[f32],
    s: ItemShape,
) {
    let in_c = s.depth / s.kernel;
    let width = s.len.next_multiple_of(STRIP);
    sums.clear();
    sums.resize(in_c * width, 0.0);
    for t in 0..s.kernel {
        let mut c0 = 0;
        while c0 + 4 <= in_c {
            input_grad_tap::<4, SKIP>(sums, width, w, dy_pad, s, c0, t);
            c0 += 4;
        }
        while c0 < in_c {
            input_grad_tap::<1, SKIP>(sums, width, w, dy_pad, s, c0, t);
            c0 += 1;
        }
    }
    for (dst, src) in dx.chunks_exact_mut(s.len).zip(sums.chunks_exact(width)) {
        dst.copy_from_slice(&src[..s.len]);
    }
}

/// Tap `t` of input channels `c0 .. c0 + R` in [`input_grad`]: register
/// tiles of `R` channels by [`STRIP`] positions, each summed over every
/// output channel and then added onto `sums`. Lanes whose position does
/// not exist add `+0.0` instead; a sum that starts at `+0.0` never holds
/// `-0.0`, so those adds leave it unchanged.
#[inline]
fn input_grad_tap<const R: usize, const SKIP: bool>(
    sums: &mut [f32],
    width: usize,
    w: &[f32],
    dy_pad: &[f32],
    s: ItemShape,
    c0: usize,
    t: usize,
) {
    for s0 in (0..s.len).step_by(STRIP) {
        // Lane `p` reads position `s0 + p + pad - t`, staged at
        // `s0 + p + kernel - 1 - t`.
        let from = s0 + s.kernel - 1 - t;
        let mut col = [[0.0f32; STRIP]; R];
        for (dy_o, w_o) in dy_pad.chunks_exact(s.dy_row).zip(w.chunks_exact(s.depth)) {
            let g: &[f32; STRIP] = dy_o[from..from + STRIP].try_into().expect("STRIP lanes");
            let w_r: [f32; R] = std::array::from_fn(|r| w_o[(c0 + r) * s.kernel + t]);
            for (col_r, &wv) in col.iter_mut().zip(&w_r) {
                if SKIP && wv == 0.0 {
                    continue;
                }
                for (a, &gv) in col_r.iter_mut().zip(g) {
                    *a += wv * gv;
                }
            }
        }
        let exists: [u32; STRIP] = if s0 + s.pad >= t && s0 + STRIP + s.pad <= s.len + t {
            [u32::MAX; STRIP]
        } else {
            std::array::from_fn(|p| {
                let j = (s0 + p + s.pad).checked_sub(t);
                if j.is_some_and(|j| j < s.len) {
                    u32::MAX
                } else {
                    0
                }
            })
        };
        for (c, col_r) in (c0..).zip(&col) {
            let row: &mut [f32; STRIP] =
                (&mut sums[c * width + s0..][..STRIP]).try_into().expect("STRIP lanes");
            for ((a, &v), &keep) in row.iter_mut().zip(col_r).zip(&exists) {
                *a += f32::from_bits(v.to_bits() & keep);
            }
        }
    }
}

/// Adds one item's bias-gradient partial onto `grad_b`: each output
/// channel's gradient summed over positions in order, from the neutral
/// element of `f32` summation (the fold of `sum::<f32>()`), and added once.
/// The channels run side by side, in lanes of the positions-major `dy_t`.
fn bias_grad(grad_b: &mut [f32], dy_t: &[f32]) {
    let out_c = grad_b.len();
    let mut o0 = 0;
    while o0 + 8 <= out_c {
        bias_lanes::<8>(grad_b, dy_t, o0);
        o0 += 8;
    }
    while o0 < out_c {
        bias_lanes::<1>(grad_b, dy_t, o0);
        o0 += 1;
    }
}

/// Output channels `o0 .. o0 + L` of [`bias_grad`].
fn bias_lanes<const L: usize>(grad_b: &mut [f32], dy_t: &[f32], o0: usize) {
    let zero: f32 = std::iter::empty::<f32>().sum();
    let mut acc = [zero; L];
    for dy_j in dy_t.chunks_exact(grad_b.len()) {
        for (a, &g) in acc.iter_mut().zip(&dy_j[o0..o0 + L]) {
            *a += g;
        }
    }
    for (g, &a) in grad_b[o0..o0 + L].iter_mut().zip(&acc) {
        *g += a;
    }
}

/// 1-D convolution with stride 1 and "same" zero padding, matching the
/// convolutional layers of the paper's CNN (Figure 2).
///
/// The forward convolves directly with the register tile of
/// [`crate::fused`], the same tile and accumulation order as the fused
/// inference chain, and stores the bias plus the convolution. A training
/// forward keeps every item's input as the tile staged it, zero-padded and
/// channel-major, and the backward computes the item's weight-gradient
/// partial and input gradient straight from that stage and the output
/// gradient, with no im2col lowering: a staged row read from offset `t` is
/// the im2col row of tap `t`. Both passes run the batch's items in order on
/// the calling thread, and the backward adds each item's weight- and
/// bias-gradient partials onto the gradients in item order.
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
    /// of the direct tile (within a tolerance: its sums run in another
    /// order, without fused multiply-adds). Pure: touches no caches.
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

    /// Back-propagates `grad_output` into the weight and bias gradients
    /// only: [`Layer::backward`] without the input gradient, for a
    /// network's first layer, whose input has no gradient to take. Pops the
    /// layer's cache like `backward`.
    pub fn backward_params(&mut self, grad_output: &Tensor, ws: &mut Workspace) {
        self.backward_items(grad_output, ws, None);
    }

    /// The backward's item loop: each item's weight- and bias-gradient
    /// partials, and its input gradient into `grad_input` when given.
    fn backward_items(
        &mut self,
        grad_output: &Tensor,
        ws: &mut Workspace,
        mut grad_input: Option<&mut Tensor>,
    ) {
        let staged = match ws.pop("Conv1d") {
            LayerCache::Staged(staged) => staged,
            other => cache_mismatch("Conv1d", &other),
        };
        let row = staged.shape()[2];
        let (in_c, out_c, k) = (self.in_channels, self.out_channels, self.kernel_size);
        let len = grad_output.shape()[2];
        let shape = ItemShape {
            out_c,
            depth: in_c * k,
            kernel: k,
            len,
            pad: self.pad_left(),
            row,
            dy_row: len.next_multiple_of(STRIP) + k - 1,
        };
        let ConvScratch { dy_t, dy_pad, sums } = &mut ws.conv;
        let dy_pad = fused::sized(dy_pad, out_c * shape.dy_row);
        let w = self.weight.value.data();
        let skip_zeros = w.contains(&0.0);
        let (grad_w, grad_b) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        let items = staged
            .data()
            .chunks_exact(in_c * row)
            .zip(grad_output.data().chunks_exact(out_c * len));
        // Items in order: each one's weight- and bias-gradient partials are
        // summed from zero and added onto the gradients once, so every
        // gradient element receives exactly the adds of a sequential loop.
        for (item, (stage, dy)) in items.enumerate() {
            transpose_into(dy_t, dy, out_c, len);
            bias_grad(grad_b, dy_t);
            weight_grad(grad_w, dy_t, stage, shape);
            let Some(grad_input) = grad_input.as_deref_mut() else {
                continue;
            };
            let dx = &mut grad_input.data_mut()[item * in_c * len..][..in_c * len];
            fused::stage_channel_major(dy_pad, dy, (len, k - 1 - shape.pad, shape.dy_row));
            if skip_zeros {
                input_grad::<true>(dx, sums, w, dy_pad, shape);
            } else {
                input_grad::<false>(dx, sums, w, dy_pad, shape);
            }
        }
        ws.recycle(staged);
    }
}

impl Layer for Conv1d {
    fn forward(&self, input: &Tensor, ws: &mut Workspace, training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 3, "Conv1d expects a 3-D input [B, C, N]");
        assert_eq!(input.shape()[1], self.in_channels, "Conv1d channel mismatch");
        let (batch, len) = (input.shape()[0], input.shape()[2]);
        let (in_c, out_c) = (self.in_channels, self.out_channels);
        let mut out = ws.uninit_tensor(&[batch, out_c, len]);
        // Pack the weights once per call; every batch item then runs the
        // direct tile against the same plan (one pass over the weights,
        // amortised to noise across the batch). Each item is staged into
        // its own rows of `staged`, which a training pass keeps for the
        // backward.
        ws.plan.build_conv(self, len);
        let row = ws.plan.row();
        let mut staged = ws.uninit_tensor(&[batch, in_c, row]);
        let items = input
            .data()
            .chunks_exact(in_c * len)
            .zip(staged.data_mut().chunks_exact_mut(in_c * row))
            .zip(out.data_mut().chunks_exact_mut(out_c * len));
        for ((x, stage), out_b) in items {
            ws.plan.conv_item(x, stage, out_b);
        }
        if training {
            ws.push(LayerCache::Staged(staged));
        } else {
            ws.recycle(staged);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ws: &mut Workspace) -> Tensor {
        let (batch, len) = (grad_output.shape()[0], grad_output.shape()[2]);
        let mut grad_input = ws.uninit_tensor(&[batch, self.in_channels, len]);
        self.backward_items(grad_output, ws, Some(&mut grad_input));
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

/// Batch norm's per-channel `f64` sums of `terms` over a `[batch, channels,
/// len]` tensor `x` (see [`qsimd::SumTerms`]): `qsimd::channel_sums`, with
/// every channel in one vector lane, or, where that kernel is not compiled
/// in, the scalar loop of [`channel_sums`]. Both add each channel's terms
/// from `0.0` in batch-then-position order, so they agree bit for bit.
fn bn_sums(x: &[f32], terms: SumTerms, dims: (usize, usize, usize)) -> Vec<[f64; 2]> {
    let mut sums = vec![[0.0; 2]; dims.1];
    if qsimd::channel_sums(&mut sums, x, terms, dims) {
        return sums;
    }
    let one = |[sum]: [f64; 1]| [sum, 0.0];
    match terms {
        SumTerms::Value => {
            channel_sums(x, x, dims, |_, v, _| [v as f64]).into_iter().map(one).collect()
        }
        SumTerms::SquaredDeviation(mean) => {
            channel_sums(x, x, dims, |c, v, _| [((v - mean[c]) as f64).powi(2)])
                .into_iter()
                .map(one)
                .collect()
        }
        SumTerms::ValueAndProduct(w) => {
            channel_sums(x, w, dims, |_, d, h| [d as f64, d as f64 * h as f64])
        }
    }
}

/// Channels whose batch-norm sums run side by side in [`channel_sums`].
const BN_LANES: usize = 4;

/// The scalar fallback of [`bn_sums`]: per-channel `f64` sums of `S` terms
/// over two `[batch, channels, len]` tensors `a` and `b` (`b` may be `a`):
/// `term(c, a_i, b_i)` gives channel `c`'s terms at each element, and each
/// channel's sums add them in batch-then-position order from `0.0` — the
/// order of a plain loop over one channel at a time. [`BN_LANES`] channels
/// are summed at once, so their serial add chains overlap.
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
            let mean_c: Vec<f32> = bn_sums(x, SumTerms::Value, dims)
                .iter()
                .map(|[sum, _]| (sum / m as f64) as f32)
                .collect();
            let var_c = bn_sums(x, SumTerms::SquaredDeviation(&mean_c), dims)
                .iter()
                .map(|[var_sum, _]| (var_sum / m as f64) as f32)
                .collect();
            (mean_c, var_c)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        let std_inv: Vec<f32> = var_c.iter().map(|&var| 1.0 / (var + self.eps).sqrt()).collect();

        let mut out = ws.uninit_tensor(input.shape());
        if training {
            let mut x_hat = ws.uninit_tensor(input.shape());
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
        let mut grad_input = ws.uninit_tensor(grad_output.shape());
        let sums = bn_sums(dy, SumTerms::ValueAndProduct(hat), (batch, channels, len));
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
        ws.recycle(x_hat);
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
        let mut grad_input = ws.uninit_tensor(&shape);
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
        let grad_projection = self.projection.as_mut().map(|(conv, bn)| {
            let g = bn.backward(&grad_sum, ws);
            backward_consuming(conv, g, ws)
        });
        let g = self.bn2.backward(&grad_sum, ws);
        let g = backward_consuming(&mut self.conv2, g, ws);
        let g = backward_consuming(&mut self.relu1, g, ws);
        let g = backward_consuming(&mut self.bn1, g, ws);
        let mut grad_input = backward_consuming(&mut self.conv1, g, ws);
        // The shortcut's gradient: the projection's input gradient, or the
        // identity's `grad_sum` itself.
        grad_input.add_assign(grad_projection.as_ref().unwrap_or(&grad_sum));
        if let Some(g) = grad_projection {
            ws.recycle(g);
        }
        ws.recycle(grad_sum);
        grad_input
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
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output, ws);
        for layer in layers {
            g = backward_consuming(layer.as_mut(), g, ws);
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
    fn batchnorm_training_step_matches_a_scalar_oracle_bit_for_bit() {
        // One training forward and backward against the layer's expressions
        // written out one element at a time, every channel's f64 sums in
        // (batch, position) order. Spikes that nearly cancel make any other
        // order show in the bits; 13 positions leave a tail of every lane
        // width, and 5, 8 and 16 channels a tail of channels or none.
        let (batch, len) = (3usize, 13usize);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for channels in [5usize, 8, 16] {
            let n = batch * channels * len;
            let spiky = |seed: u64, spike: f32| -> Vec<f32> {
                let base = init::uniform(&[n], -1.0, 1.0, seed);
                let data = base.data().iter().enumerate();
                data.map(|(i, &v)| match i % 11 {
                    3 => spike + v,
                    7 => -spike,
                    _ => v,
                })
                .collect()
            };
            let (x, dy) = (spiky(channels as u64, 3e12), spiky(channels as u64 + 50, 3e9));
            let mut bn = BatchNorm1d::new(channels);
            for c in 0..channels {
                bn.gamma.value.data_mut()[c] = 0.5 + 0.1 * c as f32;
                bn.beta.value.data_mut()[c] = 0.05 * c as f32 - 0.2;
                bn.gamma.grad.data_mut()[c] = 0.25;
                bn.beta.grad.data_mut()[c] = -0.5;
                bn.running_mean[c] = 0.01 * c as f32;
                bn.running_var[c] = 1.0 + 0.02 * c as f32;
            }

            // The oracle.
            let m = (batch * len) as f32;
            let at = |b: usize, c: usize, j: usize| (b * channels + c) * len + j;
            let positions =
                |c: usize| (0..batch).flat_map(move |b| (0..len).map(move |j| at(b, c, j)));
            let (mut want_out, mut want_hat, mut want_gi) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut want = bn.clone();
            for c in 0..channels {
                let mut sum = 0.0f64;
                for i in positions(c) {
                    sum += x[i] as f64;
                }
                let mean = (sum / m as f64) as f32;
                let mut var_sum = 0.0f64;
                for i in positions(c) {
                    var_sum += ((x[i] - mean) as f64).powi(2);
                }
                let var = (var_sum / m as f64) as f32;
                let inv = 1.0 / (var + want.eps).sqrt();
                let (g, be) = (want.gamma.value.data()[c], want.beta.value.data()[c]);
                for i in positions(c) {
                    want_hat[i] = (x[i] - mean) * inv;
                    want_out[i] = g * want_hat[i] + be;
                }
                let mom = want.momentum;
                want.running_mean[c] = (1.0 - mom) * want.running_mean[c] + mom * mean;
                want.running_var[c] = (1.0 - mom) * want.running_var[c] + mom * var;
                let (mut sum_dy, mut sum_dy_xhat) = (0.0f64, 0.0f64);
                for i in positions(c) {
                    sum_dy += dy[i] as f64;
                    sum_dy_xhat += dy[i] as f64 * want_hat[i] as f64;
                }
                want.beta.grad.data_mut()[c] += sum_dy as f32;
                want.gamma.grad.data_mut()[c] += sum_dy_xhat as f32;
                let (g_inv, mean_dy, mean_dy_xhat) =
                    (g * inv, sum_dy as f32 / m, sum_dy_xhat as f32 / m);
                for i in positions(c) {
                    want_gi[i] = g_inv * (dy[i] - mean_dy - want_hat[i] * mean_dy_xhat);
                }
            }

            // The layer, on a workspace whose arena holds stale values.
            let mut ws = Workspace::new();
            ws.recycle(Tensor::from_vec(vec![f32::NAN; n], &[n]));
            ws.recycle(Tensor::from_vec(vec![7.0; n], &[n]));
            let shape = [batch, channels, len];
            let out = bn.forward(&Tensor::from_vec(x.clone(), &shape), &mut ws, true);
            let cache = ws.pop("test");
            let LayerCache::Bn { x_hat, .. } = &cache else {
                panic!("batch norm must cache its statistics");
            };
            let what = format!("{channels} channels");
            assert_eq!(bits(x_hat.data()), bits(&want_hat), "{what}: x_hat");
            ws.push(cache);
            let gi = bn.backward(&Tensor::from_vec(dy.clone(), &shape), &mut ws);
            assert_eq!(bits(out.data()), bits(&want_out), "{what}: out");
            assert_eq!(bits(gi.data()), bits(&want_gi), "{what}: grad_input");
            for (got, want) in bn.params().iter().zip(want.params()) {
                assert_eq!(bits(got.grad.data()), bits(want.grad.data()), "{what}: gamma, beta");
            }
            for (got, want) in bn.buffers().iter().zip(want.buffers()) {
                assert_eq!(bits(got), bits(want), "{what}: running statistics");
            }
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
