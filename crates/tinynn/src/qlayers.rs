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
//!   *between* layers ([`crate::quant::QuantActs`], channel-pair-major),
//!   each layer is one fused requantising convolution (`qsimd`'s vector
//!   kernel, or its scalar fallback [`matmul::conv_q8_requant`]) writing
//!   codes directly into the next layer's input layout, ReLU is the output
//!   clamp and the residual add is an integer add of same-grid codes. No
//!   `f32` roundtrip, scale scan or transpose exists between layers.
//!   [`pooled_features`] drives a stem and
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
    quantize_activations_into, QuantActs, QuantPlan, QuantizedGemm, Requantizer, ACT_QMAX,
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
    /// `i16` codes out, one fused requantising convolution and **no `f32`
    /// value anywhere** — no dynamic scale scan, no dequantise/requantise
    /// roundtrip, no transpose (the kernel writes the channel-pair-major
    /// layout `out` hands the next layer).
    ///
    /// `out` must be shaped by the caller ([`QuantActs::reshape`]: same
    /// length, `out_channels` channels, pad geometry covering every
    /// consumer). Only its body rows are written (the vector kernel also
    /// stores zeros into slack rows), and its scale is set to the plan's
    /// output scale.
    ///
    /// # Panics
    ///
    /// Panics if no plan is set ([`Self::set_fixed_point`]), if a geometry
    /// field disagrees, or if `x`'s grid is not the plan's input grid.
    pub fn forward_fixed(&self, x: &QuantActs, out: &mut QuantActs) {
        let plan = self.plan.as_ref().expect("set_fixed_point before forward_fixed");
        assert_eq!(
            plan.in_scale.to_bits(),
            x.scale.to_bits(),
            "input codes are on a different grid than the plan was built for"
        );
        let g = self.conv_shape(x, out);
        let w = self.gemm.data16();
        let rq = qsimd::Requant {
            bias: &plan.bias_q,
            mults: &plan.mults_i32,
            shift: plan.shift,
            lo: plan.lo,
            hi: plan.hi,
        };
        // SIMD fast path; the scalar fallback computes the same codes bit
        // for bit.
        if !qsimd::conv_requant(&mut out.codes, &x.codes, w, &g, &rq) {
            let (bias, mults) = (&plan.bias_q, &plan.mults);
            matmul::conv_q8_requant(&mut out.codes, &x.codes, w, &g, bias, mults, plan.lo, plan.hi);
        }
        out.scale = plan.out_scale;
    }

    /// The geometry of this layer's convolution from `x` into `out`: `x`'s
    /// rows from `x.pad_left − (kernel − 1)/2` on, into `out`'s body rows.
    ///
    /// # Panics
    ///
    /// Panics if a channel count or the length disagrees, or if `x`'s left
    /// padding is shorter than the kernel's.
    pub fn conv_shape(&self, x: &QuantActs, out: &QuantActs) -> qsimd::ConvShape {
        assert_eq!(x.channels, self.in_channels, "input channel mismatch");
        assert_eq!(out.channels, self.out_channels, "output channel mismatch");
        assert_eq!(x.len, out.len, "length mismatch (stride-1 same conv)");
        let p = self.pad_left();
        assert!(x.pad_left >= p, "input pad {} cannot serve kernel pad {p}", x.pad_left);
        qsimd::ConvShape {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel_size,
            len: x.len,
            in_rows: x.rows,
            in_first: x.pad_left - p,
            out_rows: out.rows,
            out_first: out.pad_left,
        }
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
        let stride = self.gemm.cols16();
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
                let w_row = &weights[oc * stride..oc * stride + ck];
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
    /// requantising convolutions (conv1 with its ReLU clamp into `mid`,
    /// conv2 onto the output grid), then the shortcut added onto the output
    /// codes with the final ReLU as the clamp, in one integer pass. A
    /// projection shortcut first convolves onto the output grid into
    /// `short`; an identity shortcut is rescaled in that same pass (one
    /// per-tensor requantise-add) and leaves `short` alone.
    ///
    /// `mid` (and `short`, for a projection) must be shaped like `out`
    /// ([`QuantActs::reshape`]) so conv2 reads its windows in place and the
    /// add runs over whole buffers (zero pads add to zero); an identity
    /// shortcut needs `x` shaped like `out`.
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
        short: &mut QuantActs,
    ) {
        self.conv1.forward_fixed(x, mid);
        self.conv2.forward_fixed(mid, out);
        // Residual add + final ReLU: both operands are i16 codes on the
        // output grid, so the sum is exact in i32 and the ReLU is the
        // [0, 32767] clamp of the store.
        let add_relu = |d: &mut i16, sv: i16| {
            *d = (*d as i32 + sv as i32).clamp(0, ACT_QMAX as i32) as i16;
        };
        match (self.projection.as_ref(), self.shortcut) {
            (Some(conv), _) => {
                conv.forward_fixed(x, short);
                assert_eq!(
                    out.codes.len(),
                    short.codes.len(),
                    "the shortcut must be shaped like the output"
                );
                for (d, &sv) in out.codes.iter_mut().zip(&short.codes) {
                    add_relu(d, sv);
                }
            }
            // Identity shortcut: rescale the input codes onto the output
            // grid (no clamp asymmetry — the add applies the ReLU) as they
            // are added. Pads and slack are zero in both and stay zero.
            (None, Some(r)) => {
                assert_eq!(
                    (x.rows, x.pad_left),
                    (out.rows, out.pad_left),
                    "an identity shortcut needs the input shaped like the output"
                );
                let qmax = ACT_QMAX as i16;
                // The vector path computes the identical fixed-point map
                // (qsimd's parity tests pin it against the scalar map).
                if !qsimd::requantize_add(&mut out.codes, &x.codes, r.mult(), r.shift(), qmax) {
                    for (d, &s) in out.codes.iter_mut().zip(&x.codes) {
                        add_relu(d, r.requantize_i16(s as i32, -qmax, qmax));
                    }
                }
            }
            (None, None) => panic!("set_fixed_point before forward_fixed"),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// The block's quantised convolutions in a fixed order:
    /// `conv1, conv2, [projection conv]`.
    pub fn convs(&self) -> Vec<&QuantizedConv1d> {
        std::iter::once(&self.conv1)
            .chain(Some(&self.conv2))
            .chain(self.projection.as_ref())
            .collect()
    }

    /// The block's quantised GEMM operands, in the order of
    /// [`Self::convs`].
    pub fn gemms(&self) -> Vec<&QuantizedGemm> {
        self.convs().into_iter().map(QuantizedConv1d::gemm).collect()
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

/// Bytes of the per-window code buffers a workspace holds after
/// [`pooled_features`] ran on windows of `len` samples: the input's tap
/// pairs, the stem's output, each block's output and mid activations, each
/// projection block's shortcut operand (body, pads and slack rows), and
/// the pool's sums.
/// Deterministic in the layers' shapes and `len`.
pub fn scratch_bytes(
    stem: &QuantizedConv1d,
    blocks: &[&QuantizedResidualBlock1d],
    len: usize,
) -> usize {
    let rows = QuantActs::rows_for(len, chain_kernel(stem, blocks));
    let planes = |channels: usize| channels.div_ceil(2);
    let buffers = |b: &QuantizedResidualBlock1d| 2 + b.projection.is_some() as usize;
    let block_planes: usize = blocks.iter().map(|b| buffers(b) * planes(b.out_channels())).sum();
    let last = blocks.last().map_or(stem.out_channels, |b| b.out_channels());
    let codes = (planes(stem.in_channels) + planes(stem.out_channels) + block_planes) * rows * 2;
    codes * 2 + planes(last) * 2 * 8
}

/// The widest kernel of a chain: its buffers' one pad geometry serves
/// every layer.
fn chain_kernel(stem: &QuantizedConv1d, blocks: &[&QuantizedResidualBlock1d]) -> usize {
    let convs = blocks.iter().flat_map(|b| b.convs());
    convs.fold(stem.kernel_size, |k, conv| k.max(conv.kernel_size))
}

/// One window's `i16` code buffers of [`pooled_features`]: the quantised
/// input (tap pairs), the stem's and every block's output, every block's
/// mid activations, every projection block's shortcut operand, and the
/// pool's `i64` channel sums. Shaped once per call, which zeroes the pads
/// and slack rows; the windows of the call then overwrite body rows only.
#[derive(Debug, Default)]
pub(crate) struct ItemCodes {
    input: QuantActs,
    /// The stem's output, then each block's.
    outs: Vec<QuantActs>,
    /// Each block's conv1 output.
    mids: Vec<QuantActs>,
    /// Each block's shortcut operand; left empty for an identity block,
    /// which adds its input in place.
    shorts: Vec<QuantActs>,
    acc: Vec<i64>,
}

impl ItemCodes {
    /// Shapes every buffer for windows of `len` samples, with one pad
    /// geometry that serves every kernel of the chain.
    fn shape(&mut self, stem: &QuantizedConv1d, blocks: &[&QuantizedResidualBlock1d], len: usize) {
        let k = chain_kernel(stem, blocks);
        let (pad, rows) = ((k - 1) / 2, QuantActs::rows_for(len, k));
        self.input.reshape(stem.in_channels, len, pad, rows);
        self.input.scale =
            stem.plan.as_ref().expect("set_fixed_point before forward_fixed").in_scale;
        self.outs.resize_with(blocks.len() + 1, QuantActs::default);
        self.mids.resize_with(blocks.len(), QuantActs::default);
        self.shorts.resize_with(blocks.len(), QuantActs::default);
        self.outs[0].reshape(stem.out_channels, len, pad, rows);
        let buffers = self.outs[1..].iter_mut().zip(&mut self.mids).zip(&mut self.shorts);
        for (block, ((out, mid), short)) in blocks.iter().zip(buffers) {
            let channels = block.out_channels();
            out.reshape(channels, len, pad, rows);
            mid.reshape(channels, len, pad, rows);
            if block.projection.is_some() {
                short.reshape(channels, len, pad, rows);
            }
        }
        self.acc.resize(self.outs[blocks.len()].channels.div_ceil(2) * 2, 0);
    }

    /// One window through the chain into its pooled feature row.
    fn run(
        &mut self,
        stem: &QuantizedConv1d,
        blocks: &[&QuantizedResidualBlock1d],
        window: &[f32],
        row: &mut [f32],
    ) {
        let Self { input, outs, mids, shorts, acc } = self;
        input.quantize_taps(window);
        stem.forward_fixed(input, &mut outs[0]);
        for (i, (block, (mid, short))) in blocks.iter().zip(mids.iter_mut().zip(shorts)).enumerate()
        {
            let (done, next) = outs.split_at_mut(i + 1);
            block.forward_fixed(&done[i], &mut next[0], mid, short);
        }
        let last = &outs[blocks.len()];
        acc.fill(0);
        let body = 2 * last.pad_left..2 * (last.pad_left + last.len);
        for (plane, sums) in last.codes.chunks_exact(2 * last.rows).zip(acc.chunks_exact_mut(2)) {
            for pair in plane[body.clone()].chunks_exact(2) {
                sums[0] += pair[0] as i64;
                sums[1] += pair[1] as i64;
            }
        }
        let inv_len = 1.0 / last.len as f32;
        for (o, &a) in row.iter_mut().zip(acc.iter()) {
            *o = a as f32 * last.scale * inv_len;
        }
    }

    pub(crate) fn retained_bytes(&self) -> usize {
        let lists = [&self.outs, &self.mids, &self.shorts];
        let acts = std::iter::once(&self.input).chain(lists.into_iter().flatten());
        acts.map(|a| a.codes.capacity() * 2).sum::<usize>()
            + lists.iter().map(|l| l.capacity()).sum::<usize>() * std::mem::size_of::<QuantActs>()
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
