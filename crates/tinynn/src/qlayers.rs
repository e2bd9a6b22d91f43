//! Quantised convolution layers (`i8` weights, `i16` activation codes).
//!
//! * [`QuantizedConv1d`] — a convolution with per-output-channel `i8`
//!   weights;
//! * [`QuantizedResidualBlock1d`] — the residual block with both
//!   convolutions (and the projection shortcut, when present) quantised.
//!
//! Two inference-graph folds keep the quantised layers lean:
//!
//! * **Batch-norm folding** — at inference a batch-norm layer is a
//!   per-channel affine `y = s·x + t`; [`QuantizedConv1d::from_conv_folded`]
//!   absorbs it into the convolution's weights and bias *before*
//!   quantisation, so the quantised network contains no separate batch-norm
//!   passes at all (per-channel weight scales absorb the rescaling
//!   exactly).
//! * **ReLU fusing** — a following ReLU becomes the clamp of the layer's
//!   output store.
//!
//! Every layer has exactly two entry points:
//!
//! * `forward_fixed`, the serving path, on one window: once static
//!   activation scales are calibrated ([`QuantizedConv1d::set_fixed_point`]
//!   builds a [`crate::quant::QuantPlan`]), activations stay `i16` codes
//!   *between* layers ([`crate::quant::QuantActs`]), each layer is one fused
//!   requantising GEMM ([`matmul::matmul_q8_requant_sliding`]) writing
//!   position-major codes directly into the next layer's channels-last
//!   window layout, ReLU is the output clamp and the residual add is an
//!   integer add of same-grid codes. No `f32` roundtrip, scale scan or
//!   transpose exists between layers. [`pooled_features`] drives a stem and
//!   residual blocks this way one window at a time, like the fused `f32`
//!   chain ([`crate::fused`]), on one window's code buffers held in the
//!   [`Workspace`].
//! * `forward_dynamic`, the calibration pass that chooses those static
//!   scales: `f32` in and out, every window quantised on its own grid, one
//!   exact integer dot per output. It records the activation ranges the
//!   grids must cover and is deterministic in the quantised weights alone.
//!
//! Quantised layers hold no gradient or optimiser state: quantise a trained
//! `f32` network, never train a quantised one.

use crate::layers::{BatchNorm1d, Conv1d, ResidualBlock1d};
use crate::matmul;
use crate::quant::{
    quantize_activations_into, quantize_with_scale, QuantActs, QuantPlan, QuantizedGemm,
    Requantizer, ACT_QMAX,
};
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Permutes a `[out, in_c, kernel]` weight matrix's columns from the
/// canonical `c*kernel + t` order to the sample-major `t*in_c + c` order of
/// the channels-last activation windows (see [`QuantActs`]). A pure
/// per-row column permutation: the per-row quantisation scales and the
/// serialised block geometry are unaffected, and the integer dot products
/// are exact whatever the summation order, so scores are bit-identical to a
/// canonical-order evaluation.
fn permute_weights_sample_major(weights: &[f32], in_c: usize, kernel: usize) -> Vec<f32> {
    let ck = in_c * kernel;
    let mut permuted = vec![0.0f32; weights.len()];
    for (row, dst) in weights.chunks_exact(ck).zip(permuted.chunks_exact_mut(ck)) {
        for c in 0..in_c {
            for t in 0..kernel {
                dst[t * in_c + c] = row[c * kernel + t];
            }
        }
    }
    permuted
}

// ---------------------------------------------------------------------------
// QuantizedConv1d
// ---------------------------------------------------------------------------

/// Quantised 1-D convolution with stride 1 and "same" zero padding.
///
/// Weights are the per-output-channel `i8` block of a trained [`Conv1d`]
/// with the following batch-norm folded in; activations are `i16` codes,
/// so the conv lowers to an integer GEMM with exact `i32` panel
/// accumulation.
#[derive(Debug, Clone)]
pub struct QuantizedConv1d {
    gemm: QuantizedGemm,
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    fused_relu: bool,
    /// Fixed-point execution plan (set by [`Self::set_fixed_point`] once the
    /// activation scales are calibrated). `None` means only
    /// [`Self::forward_dynamic`] is available.
    plan: Option<QuantPlan>,
}

impl QuantizedConv1d {
    /// Quantises a trained convolution with the *following* batch-norm
    /// folded into the weights and bias (`w' = s_c · w`, `b' = s_c · b +
    /// t_c` from [`BatchNorm1d::inference_affine`]), optionally fusing the
    /// ReLU that follows the batch-norm. The folded network computes the
    /// same function as conv → bn (→ relu) up to float reassociation, one
    /// layer at a time.
    ///
    /// # Panics
    ///
    /// Panics if the batch-norm channel count does not match the
    /// convolution's output channels.
    pub fn from_conv_folded(conv: &Conv1d, bn: &BatchNorm1d, fused_relu: bool) -> Self {
        assert_eq!(bn.channels(), conv.out_channels(), "conv/bn channel mismatch");
        let (scale, shift) = bn.inference_affine();
        let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
        let cols = in_c * k;
        let mut folded_w = permute_weights_sample_major(conv.weight().data(), in_c, k);
        for (o, row) in folded_w.chunks_mut(cols).enumerate() {
            for w in row.iter_mut() {
                *w *= scale[o];
            }
        }
        let folded_b: Vec<f32> =
            conv.bias().data().iter().enumerate().map(|(o, &b)| b * scale[o] + shift[o]).collect();
        Self {
            gemm: QuantizedGemm::from_f32(&folded_w, &folded_b, out_c, cols),
            in_channels: in_c,
            out_channels: out_c,
            kernel_size: k,
            fused_relu,
            plan: None,
        }
    }

    /// The quantised weight block (`[out_c, in_c·kernel]`).
    pub fn gemm(&self) -> &QuantizedGemm {
        &self.gemm
    }

    /// Mutable access to the quantised weight block (model loading).
    pub fn gemm_mut(&mut self) -> &mut QuantizedGemm {
        &mut self.gemm
    }

    /// Kernel size.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// `true` if a following ReLU is fused into this layer's output.
    pub fn fused_relu(&self) -> bool {
        self.fused_relu
    }

    fn pad_left(&self) -> usize {
        (self.kernel_size - 1) / 2
    }

    /// Builds the fixed-point execution plan of this layer for calibrated
    /// input/output activation grids, enabling [`Self::forward_fixed`]. The
    /// layer's fused ReLU becomes the plan's output clamp.
    pub fn set_fixed_point(&mut self, in_scale: f32, out_scale: f32) {
        self.plan = Some(QuantPlan::new(&self.gemm, in_scale, out_scale, self.fused_relu));
    }

    /// The fixed-point plan, when one has been built.
    pub fn plan(&self) -> Option<&QuantPlan> {
        self.plan.as_ref()
    }

    /// Fixed-point forward pass of one window: `i16` activation codes in,
    /// `i16` codes out, one fused requantising GEMM and **no `f32` value
    /// anywhere** — no dynamic scale scan, no dequantise/requantise
    /// roundtrip, no transpose (the GEMM writes position-major, which *is*
    /// the channels-last body layout `out` hands the next layer).
    ///
    /// `out` must be shaped by the caller ([`QuantActs::reshape`]: same
    /// length, `out_channels` channels, pad geometry covering every
    /// consumer). Only its body rows are written, and its scale is set to
    /// the plan's output scale.
    ///
    /// # Panics
    ///
    /// Panics if no plan is set ([`Self::set_fixed_point`]), if a geometry
    /// field disagrees, or if `x`'s grid is not the plan's input grid.
    pub fn forward_fixed(&self, x: &QuantActs, out: &mut QuantActs) {
        assert_eq!(out.channels, self.out_channels, "output channel mismatch");
        assert_eq!(x.len, out.len, "length mismatch (stride-1 same conv)");
        out.scale = self.gemm_fixed(x, out.body_mut());
    }

    /// The requantising GEMM of [`Self::forward_fixed`] into a bare
    /// position-major `[len, out_c]` destination; returns the output scale.
    fn gemm_fixed(&self, x: &QuantActs, dst: &mut [i16]) -> f32 {
        let plan = self.plan.as_ref().expect("set_fixed_point before forward_fixed");
        assert_eq!(x.channels, self.in_channels, "input channel mismatch");
        assert_eq!(
            plan.in_scale.to_bits(),
            x.scale.to_bits(),
            "input codes are on a different grid than the plan was built for"
        );
        let p = self.pad_left();
        assert!(x.pad_left >= p, "input pad {} cannot serve kernel pad {p}", x.pad_left);
        let offset = x.pad_left - p;
        assert!(
            x.rows >= offset + x.len - 1 + self.kernel_size,
            "input rows {} cannot cover {} windows of kernel {}",
            x.rows,
            x.len,
            self.kernel_size
        );
        let (in_c, out_c, ck) = (self.in_channels, self.out_channels, self.gemm.cols());
        let span = (x.len - 1) * in_c + ck;
        let src = &x.codes[offset * in_c..offset * in_c + span];
        // SIMD fast path on the packed weights; scalar fallback computes the
        // same codes bit for bit.
        if !matmul::matmul_q8_requant_sliding_packed(
            dst,
            self.gemm.packed16(),
            &plan.bias_q,
            &plan.mults_i32,
            plan.shift,
            src,
            out_c,
            ck,
            x.len,
            in_c,
            plan.lo,
            plan.hi,
        ) {
            matmul::matmul_q8_requant_sliding(
                dst,
                self.gemm.data16(),
                &plan.bias_q,
                &plan.mults,
                src,
                out_c,
                ck,
                x.len,
                in_c,
                plan.lo,
                plan.hi,
            );
        }
        plan.out_scale
    }

    /// Calibration forward pass: `x` holds `[batch, in_c, len]` `f32`
    /// activations, the result is `[batch, out_c, len]`. Each window is
    /// quantised on its own grid ([`quantize_activations_into`]), every
    /// output is one exact integer dot of the weight codes with the
    /// zero-padded window, rescaled as `bias + (s_row · s_x) · dot`, and a
    /// fused ReLU clamps at zero. The result depends on the quantised
    /// weights and the window alone (not on batch composition), so the
    /// activation ranges calibration records from it are reproducible
    /// wherever the weights are.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * in_c * len`.
    pub fn forward_dynamic(&self, x: &[f32], batch: usize, len: usize) -> Vec<f32> {
        let (in_c, out_c, ck) = (self.in_channels, self.out_channels, self.gemm.cols());
        assert_eq!(x.len(), batch * in_c * len, "input must be [batch, in_c, len]");
        let (weights, scales, bias) = (self.gemm.data16(), self.gemm.scales(), self.gemm.bias());
        let pad = self.pad_left();
        let mut out = vec![0.0f32; batch * out_c * len];
        let mut codes = Vec::new();
        // Channels-last with the padding baked in (pad rows stay zero), so
        // output position `j` reads the contiguous window `xt[j·in_c..][..ck]`.
        let mut xt = vec![0i16; (len + self.kernel_size - 1) * in_c];
        for (x_b, out_b) in x.chunks_exact(in_c * len).zip(out.chunks_exact_mut(out_c * len)) {
            let s_x = quantize_activations_into(x_b, &mut codes);
            for (c, row) in codes.chunks_exact(len).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    xt[(pad + j) * in_c + c] = v;
                }
            }
            for (oc, out_row) in out_b.chunks_exact_mut(len).enumerate() {
                let w_row = &weights[oc * ck..(oc + 1) * ck];
                for (j, y) in out_row.iter_mut().enumerate() {
                    let dot = matmul::q_dot_deep(w_row, &xt[j * in_c..j * in_c + ck]);
                    *y = bias[oc] + scales[oc] * s_x * dot as f32;
                    if self.fused_relu {
                        *y = y.max(0.0);
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// QuantizedResidualBlock1d
// ---------------------------------------------------------------------------

/// Residual block with quantised convolutions. Both main-branch batch norms
/// (and the projection's, when present) are folded into their convolutions,
/// and the inner ReLU is fused, so the block is
/// `qconv1 → qconv2 (+ shortcut) → relu` — three integer GEMMs and one
/// add/clamp pass.
#[derive(Debug, Clone)]
pub struct QuantizedResidualBlock1d {
    conv1: QuantizedConv1d,
    conv2: QuantizedConv1d,
    projection: Option<QuantizedConv1d>,
    /// Identity-shortcut requantiser of the fixed-point path (block input
    /// grid → block output grid); `None` until [`Self::set_fixed_point`]
    /// runs, and always `None` when a projection carries the shortcut.
    shortcut: Option<Requantizer>,
}

impl QuantizedResidualBlock1d {
    /// Quantises a trained residual block (batch norms folded into the
    /// convolutions, inner ReLU fused).
    pub fn from_residual(block: &ResidualBlock1d) -> Self {
        let (conv1, bn1, conv2, bn2, projection) = block.parts();
        Self {
            conv1: QuantizedConv1d::from_conv_folded(conv1, bn1, true),
            conv2: QuantizedConv1d::from_conv_folded(conv2, bn2, false),
            projection: projection.map(|(c, b)| QuantizedConv1d::from_conv_folded(c, b, false)),
            shortcut: None,
        }
    }

    /// Builds the fixed-point plans of the whole block: `conv1` maps the
    /// input grid onto the mid grid, `conv2` maps mid onto the output grid,
    /// and the shortcut (projection conv, or a plain per-tensor requantiser
    /// for the identity) maps the input grid onto the output grid, so the
    /// residual add is an exact integer add of same-grid codes.
    pub fn set_fixed_point(&mut self, in_scale: f32, mid_scale: f32, out_scale: f32) {
        self.conv1.set_fixed_point(in_scale, mid_scale);
        self.conv2.set_fixed_point(mid_scale, out_scale);
        match self.projection.as_mut() {
            Some(conv) => conv.set_fixed_point(in_scale, out_scale),
            None => {
                self.shortcut = Some(Requantizer::from_ratio(in_scale as f64 / out_scale as f64));
            }
        }
    }

    /// Fixed-point forward pass of the whole block on one window: two fused
    /// requantising GEMMs (conv1 with its ReLU clamp into `mid`, conv2 onto
    /// the output grid), the shortcut rescaled onto the same grid into
    /// `short` (projection GEMM or per-tensor requantise), and the residual
    /// add + final ReLU as one integer add/clamp pass over the body codes.
    ///
    /// `mid` must be shaped like `out` ([`QuantActs::reshape`]) so conv2
    /// reads its windows in place; `short` holds at least `len ·
    /// out_channels` codes (it only feeds the add, so it needs no pads).
    ///
    /// # Panics
    ///
    /// Panics if [`Self::set_fixed_point`] has not run or a geometry field
    /// disagrees (see [`QuantizedConv1d::forward_fixed`]).
    pub fn forward_fixed(
        &self,
        x: &QuantActs,
        out: &mut QuantActs,
        mid: &mut QuantActs,
        short: &mut [i16],
    ) {
        self.conv1.forward_fixed(x, mid);
        self.conv2.forward_fixed(mid, out);
        let short = &mut short[..x.len * self.out_channels()];
        match (self.projection.as_ref(), self.shortcut) {
            (Some(conv), _) => {
                conv.gemm_fixed(x, short);
            }
            // Identity shortcut: rescale the input codes onto the output
            // grid (no clamp asymmetry — the add below applies the ReLU).
            (None, Some(r)) => {
                let qmax = ACT_QMAX as i16;
                matmul::requantize_codes_into(short, x.body(), r, -qmax, qmax);
            }
            (None, None) => panic!("set_fixed_point before forward_fixed"),
        }
        // Residual add + final ReLU: both operands are i16 codes on the
        // output grid, so the sum is exact in i32 and the ReLU is the
        // [0, 32767] clamp of the store.
        for (d, &sv) in out.body_mut().iter_mut().zip(short.iter()) {
            *d = (*d as i32 + sv as i32).clamp(0, ACT_QMAX as i32) as i16;
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// The block's quantised GEMM operands in a fixed order:
    /// `conv1, conv2, [projection conv]`.
    pub fn gemms(&self) -> Vec<&QuantizedGemm> {
        let mut gemms = vec![self.conv1.gemm(), self.conv2.gemm()];
        if let Some(conv) = self.projection.as_ref() {
            gemms.push(conv.gemm());
        }
        gemms
    }

    /// Mutable access to the quantised operands (same order as
    /// [`Self::gemms`]).
    pub fn gemms_mut(&mut self) -> Vec<&mut QuantizedGemm> {
        let mut gemms = vec![self.conv1.gemm_mut(), self.conv2.gemm_mut()];
        if let Some(conv) = self.projection.as_mut() {
            gemms.push(conv.gemm_mut());
        }
        gemms
    }

    /// Calibration forward pass of the whole block on `[batch, in_c, len]`
    /// `f32` activations (see [`QuantizedConv1d::forward_dynamic`]):
    /// returns the mid activations (conv1 with its ReLU) and the block
    /// output `(conv2 + shortcut).max(0)`, both `[batch, out_c, len]`.
    pub fn forward_dynamic(&self, x: &[f32], batch: usize, len: usize) -> (Vec<f32>, Vec<f32>) {
        let mid = self.conv1.forward_dynamic(x, batch, len);
        let mut out = self.conv2.forward_dynamic(&mid, batch, len);
        let projected = self.projection.as_ref().map(|conv| conv.forward_dynamic(x, batch, len));
        for (y, &r) in out.iter_mut().zip(projected.as_deref().unwrap_or(x)) {
            *y = (*y + r).max(0.0);
        }
        (mid, out)
    }
}

// ---------------------------------------------------------------------------
// The fixed-point chain
// ---------------------------------------------------------------------------

/// Fixed-point inference of a quantised backbone — the stem, then `blocks`
/// in order, then the integer global average pool — on windows `[B, 1, N]`,
/// returning the pooled `f32` features `[B, F]`.
///
/// Each window is quantised onto the stem's calibrated input grid and runs
/// through every layer before the next window starts, on one window's code
/// buffers held in `ws`: the scratch follows the window length, never the
/// batch, and a warm workspace serves a call without allocating. The pool
/// sums each channel's codes exactly in `i64` and dequantises each mean
/// once. A window's features depend on that window alone.
///
/// # Panics
///
/// Panics if the input is not `[B, 1, N]`, if a layer has no fixed-point
/// plan, or if the layers' channels or grids do not chain.
pub fn pooled_features(
    stem: &QuantizedConv1d,
    blocks: &[&QuantizedResidualBlock1d],
    input: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.shape().len(), 3, "expected windows [B, 1, N]");
    assert_eq!(input.shape()[1], 1, "expected single-channel windows");
    let (batch, len) = (input.shape()[0], input.shape()[2]);
    let features = blocks.last().map_or(stem.out_channels, |b| b.out_channels());
    let mut pooled = ws.uninit_tensor(&[batch, features]);
    let codes = &mut ws.qitem;
    codes.shape(stem, blocks, len);
    for (window, row) in
        input.data().chunks_exact(len).zip(pooled.data_mut().chunks_exact_mut(features))
    {
        codes.run(stem, blocks, window, row);
    }
    pooled
}

/// One window's `i16` code buffers of [`pooled_features`]: the quantised
/// input, the stem's and every block's output, every block's mid
/// activations, the shortcut operand the blocks share, and the pool's
/// `i64` channel sums. Shaped once per call, which zeroes the pads; the
/// windows of the call then overwrite body rows only.
#[derive(Debug, Default)]
pub(crate) struct ItemCodes {
    input: QuantActs,
    /// The stem's output, then each block's.
    outs: Vec<QuantActs>,
    /// Each block's conv1 output.
    mids: Vec<QuantActs>,
    short: Vec<i16>,
    acc: Vec<i64>,
}

impl ItemCodes {
    /// Shapes every buffer for windows of `len` samples, with one pad
    /// geometry that serves every kernel of the chain.
    fn shape(&mut self, stem: &QuantizedConv1d, blocks: &[&QuantizedResidualBlock1d], len: usize) {
        let k = blocks
            .iter()
            .flat_map(|b| [Some(&b.conv1), Some(&b.conv2), b.projection.as_ref()])
            .flatten()
            .fold(stem.kernel_size, |k, conv| k.max(conv.kernel_size));
        let (pad, rows) = ((k - 1) / 2, len + k - 1);
        self.input.reshape(stem.in_channels, len, pad, rows);
        self.input.scale =
            stem.plan.as_ref().expect("set_fixed_point before forward_fixed").in_scale;
        self.outs.resize_with(blocks.len() + 1, QuantActs::default);
        self.mids.resize_with(blocks.len(), QuantActs::default);
        self.outs[0].reshape(stem.out_channels, len, pad, rows);
        let mut widest = 0;
        for ((block, out), mid) in blocks.iter().zip(&mut self.outs[1..]).zip(&mut self.mids) {
            let c = block.out_channels();
            out.reshape(c, len, pad, rows);
            mid.reshape(c, len, pad, rows);
            widest = widest.max(c);
        }
        self.short.resize(len * widest, 0);
        self.acc.resize(self.outs[blocks.len()].channels, 0);
    }

    /// One window through the chain into its pooled feature row.
    fn run(
        &mut self,
        stem: &QuantizedConv1d,
        blocks: &[&QuantizedResidualBlock1d],
        window: &[f32],
        row: &mut [f32],
    ) {
        let Self { input, outs, mids, short, acc } = self;
        quantize_with_scale(window, input.scale, input.body_mut());
        stem.forward_fixed(input, &mut outs[0]);
        for (i, (block, mid)) in blocks.iter().zip(mids.iter_mut()).enumerate() {
            let (done, next) = outs.split_at_mut(i + 1);
            block.forward_fixed(&done[i], &mut next[0], mid, short);
        }
        let last = &outs[blocks.len()];
        acc.fill(0);
        for sample in last.body().chunks_exact(acc.len()) {
            for (a, &v) in acc.iter_mut().zip(sample) {
                *a += v as i64;
            }
        }
        let inv_len = 1.0 / last.len as f32;
        for (o, &a) in row.iter_mut().zip(acc.iter()) {
            *o = a as f32 * last.scale * inv_len;
        }
    }

    pub(crate) fn retained_bytes(&self) -> usize {
        let acts = std::iter::once(&self.input).chain(&self.outs).chain(&self.mids);
        acts.map(|a| a.codes.capacity() * 2).sum::<usize>()
            + (self.outs.capacity() + self.mids.capacity()) * std::mem::size_of::<QuantActs>()
            + self.short.capacity() * 2
            + self.acc.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::layers::Layer;
    use crate::tensor::Tensor;

    fn max_abs(v: &[f32]) -> f32 {
        v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    fn assert_quant_close(fast: &[f32], reference: &Tensor, tol: f32, what: &str) {
        assert_eq!(fast.len(), reference.len(), "{what}: shape mismatch");
        let scale = max_abs(reference.data()).max(1.0);
        for (i, (a, b)) in fast.iter().zip(reference.data().iter()).enumerate() {
            assert!(
                (a - b).abs() <= tol * scale,
                "{what}: mismatch at {i}: quantised {a} vs f32 {b} (scale {scale})"
            );
        }
    }

    /// A convolution quantised with a freshly initialised (near-identity)
    /// batch norm folded in and no ReLU.
    fn quantize_plain(conv: &Conv1d) -> QuantizedConv1d {
        QuantizedConv1d::from_conv_folded(conv, &BatchNorm1d::new(conv.out_channels()), false)
    }

    #[test]
    fn quantized_conv_tracks_f32_conv() {
        let mut ws = Workspace::new();
        for &(in_c, out_c, k, len, batch) in
            &[(1usize, 4usize, 3usize, 32usize, 2usize), (2, 3, 9, 40, 3), (3, 2, 4, 16, 1)]
        {
            let conv = Conv1d::new(in_c, out_c, k, 31);
            let bn = BatchNorm1d::new(out_c);
            let qconv = quantize_plain(&conv);
            let x = init::uniform(&[batch, in_c, len], -1.0, 1.0, 17);
            let fast = qconv.forward_dynamic(x.data(), batch, len);
            let slow = bn.forward(&conv.forward(&x, &mut ws, false), &mut ws, false);
            assert_quant_close(&fast, &slow, 2e-2, &format!("conv {in_c}->{out_c} k{k}"));
        }
    }

    #[test]
    fn folded_conv_tracks_conv_then_bn_then_relu() {
        let mut ws = Workspace::new();
        let conv = Conv1d::new(2, 4, 5, 13);
        let mut bn = BatchNorm1d::new(4);
        // Drive the running stats away from the identity so the fold is
        // non-trivial.
        for seed in 0..8u64 {
            let x = init::uniform(&[2, 4, 12], -2.0, 3.0, seed);
            let y = bn.forward(&x, &mut ws, true);
            let _ = bn.backward(&Tensor::zeros(y.shape()), &mut ws);
        }
        let qconv = QuantizedConv1d::from_conv_folded(&conv, &bn, true);
        assert!(qconv.fused_relu());
        let x = init::uniform(&[2, 2, 24], -1.0, 1.0, 21);
        let fast = qconv.forward_dynamic(x.data(), 2, 24);
        let conv_out = conv.forward(&x, &mut ws, false);
        let bn_out = bn.forward(&conv_out, &mut ws, false);
        let relu_out =
            Tensor::from_vec(bn_out.data().iter().map(|&v| v.max(0.0)).collect(), bn_out.shape());
        assert_quant_close(&fast, &relu_out, 2e-2, "conv+bn+relu fold");
    }

    #[test]
    fn quantized_residual_block_tracks_f32_block() {
        let mut ws = Workspace::new();
        for (in_c, out_c) in [(4usize, 4usize), (4, 8)] {
            let block = ResidualBlock1d::new(in_c, out_c, 3, 7);
            let qblock = QuantizedResidualBlock1d::from_residual(&block);
            assert_eq!(qblock.out_channels(), out_c);
            let x = init::uniform(&[2, in_c, 20], -1.0, 1.0, 9);
            let (mid, fast) = qblock.forward_dynamic(x.data(), 2, 20);
            assert_eq!(mid.len(), fast.len());
            assert!(mid.iter().all(|&v| v >= 0.0), "mid activations carry conv1's ReLU");
            let slow = block.forward(&x, &mut ws, false);
            assert_quant_close(&fast, &slow, 5e-2, &format!("res {in_c}->{out_c}"));
            let expected_gemms = if in_c == out_c { 2 } else { 3 };
            assert_eq!(qblock.gemms().len(), expected_gemms);
        }
    }

    #[test]
    fn quantized_forward_is_deterministic_and_batch_independent() {
        // Per-item activation scales make every window's calibration
        // activations independent of how the probe batch is composed.
        let qconv = quantize_plain(&Conv1d::new(1, 3, 5, 3));
        let a = init::uniform(&[1, 1, 16], -1.0, 1.0, 1);
        let b = init::uniform(&[1, 1, 16], -1.0, 1.0, 2);
        let mut stacked = a.data().to_vec();
        stacked.extend_from_slice(b.data());
        let ya = qconv.forward_dynamic(a.data(), 1, 16);
        let yb = qconv.forward_dynamic(b.data(), 1, 16);
        let y2 = qconv.forward_dynamic(&stacked, 2, 16);
        let half = y2.len() / 2;
        assert_eq!(&y2[..half], &ya[..]);
        assert_eq!(&y2[half..], &yb[..]);
    }
}
