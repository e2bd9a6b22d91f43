//! Quantised variant of the CO-locator CNN (`i8` weights, per-channel
//! scales, fixed-point activation chain).
//!
//! [`QuantizedCoLocatorCnn`] mirrors the block sequence of
//! [`CoLocatorCnn`] (Figure 2) with every convolution replaced by its
//! quantised counterpart from [`tinynn::qlayers`]. Batch normalisation does
//! not survive quantisation as a separate layer: at inference it is a
//! per-channel affine transform, which
//! [`tinynn::QuantizedConv1d::from_conv_folded`] folds into the preceding
//! convolution's weights and bias before the `i8` grid is chosen (the
//! per-channel scales absorb the rescaling exactly). Inner ReLUs are fused
//! into their producing layer, so the quantised network is a chain of
//! integer GEMMs plus the pooling/shortcut glue. The tiny fully connected
//! head stays `f32` (see [`QuantizedCoLocatorCnn::from_cnn`] for why).
//!
//! ## Fixed-point activation chain
//!
//! Activations stay `i16` codes *between* layers. Each activation tensor
//! lives on a static grid calibrated once, at quantisation time
//! ([`QuantizedCoLocatorCnn::calibrate`]): the layers' calibration forward
//! (`forward_dynamic`) is driven over a set of standardized probe windows,
//! the per-tensor absolute maxima are recorded, and each grid's scale is
//! `max · margin / 32767`. With the grids pinned,
//! every layer's `i32` accumulators map to the next grid through a
//! precomputed per-output-channel fixed-point multiplier
//! ([`tinynn::Requantizer`]), so a forward pass performs **no `f32`
//! arithmetic between the input quantisation and the global average pool**
//! — no per-window scale scan, no dequantise/requantise roundtrip, and no
//! transpose (the requantising GEMM writes position-major, which is the
//! next layer's input layout).
//!
//! The chain runs one window at a time, like the fused `f32` chain: a
//! window goes through quantise → stem → res1 → res2 → integer pool before
//! the next one starts ([`tinynn::qlayers::pooled_features`]). Its code
//! buffers are one window's worth, held in the [`Workspace`] and reused by
//! every window of every call, so a scoring thread's scratch depends on the
//! window length and never on the batch.
//!
//! The network is produced by quantising a *trained* `f32` network
//! ([`QuantizedCoLocatorCnn::from_cnn`]) and is inference-only: it holds no
//! gradients and cannot be trained further.
//!
//! Like the `f32` network it implements [`WindowScorer`], so the
//! sliding-window classifier, the shard fan-out and the engine's batched
//! serving path all work on it unchanged. Scores are deterministic and
//! independent of batch composition (every window runs through the integer
//! GEMMs on its own, on the same static grids), so thread count never
//! changes a score bit.

use tinynn::{
    forward_consuming, Layer, Linear, Param, QuantizedConv1d, QuantizedGemm,
    QuantizedResidualBlock1d, Relu, Tensor, Workspace,
};

use crate::cnn::{CnnConfig, CoLocatorCnn, WindowScorer};

/// Window length used for the built-in calibration pass when no caller
/// window length is known (matches the benchmark window length).
pub const DEFAULT_CALIBRATION_LEN: usize = 128;

/// Headroom multiplier applied to the observed activation maxima when
/// choosing a grid. `i16` codes give ~15 bits of magnitude, so a 1.25×
/// margin costs a third of a bit of resolution while still absorbing
/// post-calibration saturation from inputs modestly outside the probe
/// envelope; anything further out clamps, which the score head tolerates.
const CALIBRATION_MARGIN: f32 = 1.25;

/// Number of calibrated activation grids: network input, stem output,
/// res1 mid/out, res2 mid/out.
pub const ACTIVATION_SCALE_COUNT: usize = 6;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Largest finite |v|; non-finite entries are ignored so a poisoned probe
/// cannot poison the grid.
fn finite_abs_max(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, &v| {
        let a = v.abs();
        if a.is_finite() {
            m.max(a)
        } else {
            m
        }
    })
}

/// Observed activation maximum → grid scale. Degenerate maxima (a dead
/// tensor, or all-non-finite input) fall back to the unit grid.
fn grid_scale(max: f32) -> f32 {
    if max > 0.0 && max.is_finite() {
        max * CALIBRATION_MARGIN / 32767.0
    } else {
        1.0
    }
}

/// The quantised CO-locator CNN.
#[derive(Debug, Clone)]
pub struct QuantizedCoLocatorCnn {
    config: CnnConfig,
    conv: QuantizedConv1d,
    res1: QuantizedResidualBlock1d,
    res2: QuantizedResidualBlock1d,
    fc1: Linear,
    fc_relu: Relu,
    fc2: Linear,
    /// Calibrated activation grid scales: input, stem out, res1 mid,
    /// res1 out, res2 mid, res2 out.
    act_scales: [f32; ACTIVATION_SCALE_COUNT],
}

impl QuantizedCoLocatorCnn {
    /// Quantises a trained `f32` network: per-output-channel symmetric `i8`
    /// weights for every convolution (the conv GEMMs are where essentially
    /// all inference time goes), with every batch-norm folded into its
    /// convolution and the inner ReLUs fused. Activation grids are
    /// calibrated immediately on the deterministic built-in probe set
    /// ([`Self::synthetic_calibration_windows`]); callers with
    /// representative traces can recalibrate via [`Self::calibrate`].
    ///
    /// The tiny fully connected head stays `f32` on purpose: it is ~0.05%
    /// of the per-window compute, while the class-1 margin is *most*
    /// sensitive to rounding of exactly those few weights (they multiply
    /// the pooled features straight into the output). Keeping the head full
    /// precision is what holds the end-to-end score divergence inside the
    /// 1e-2 parity envelope.
    pub fn from_cnn(cnn: &CoLocatorCnn) -> Self {
        let mut qcnn = Self::uncalibrated(cnn);
        qcnn.calibrate(&Self::synthetic_calibration_windows(DEFAULT_CALIBRATION_LEN));
        qcnn
    }

    /// Quantises the weights of `cnn` without calibrating: the activation
    /// grids stay unset, so the caller must [`Self::calibrate`] or install
    /// stored grids ([`Self::set_activation_scales`]) before scoring.
    /// Quantisation and model loading choose their grids once this way.
    pub(crate) fn uncalibrated(cnn: &CoLocatorCnn) -> Self {
        let (conv, bn, res1, res2, fc1, fc2) = cnn.parts();
        Self {
            config: *cnn.config(),
            conv: QuantizedConv1d::from_conv_folded(conv, bn, true),
            res1: QuantizedResidualBlock1d::from_residual(res1),
            res2: QuantizedResidualBlock1d::from_residual(res2),
            fc1: fc1.clone(),
            fc_relu: Relu::new(),
            fc2: fc2.clone(),
            act_scales: [1.0; ACTIVATION_SCALE_COUNT],
        }
    }

    /// Folds the quantised backbone's *systematic* feature offset into the
    /// `f32` head bias, estimated on representative sample windows.
    ///
    /// Weight rounding gives every pooled feature a small mean error under a
    /// fixed input distribution (the rounded taps interact with the inputs'
    /// autocorrelation), which surfaces as a near-constant shift of the
    /// class-1 score — on the benchmark fleet the *mean* score divergence
    /// nearly equals the *median*, i.e. the envelope is offset-dominated,
    /// not noise-dominated. Measuring the per-feature mean gap on the sample
    /// windows and absorbing `W₁ · mean(Δfeatures)` into the fc1 bias
    /// cancels that component exactly — `fc1(x + δ) = fc1(x) + W₁ δ` — at
    /// zero inference cost. The corrected bias is an ordinary head
    /// parameter, so it persists through every model format unchanged.
    ///
    /// The offset depends on the input distribution (white-noise probes can
    /// even carry the opposite sign of slowly-oscillating traces), so the
    /// correction is only applied here, where the caller vouches that
    /// `windows` mirror deployment inputs — never from the synthetic
    /// built-in probes. Re-running with a new sample set replaces the
    /// previous correction (the bias restarts from the reference head), and
    /// non-finite feature pairs are skipped per feature, so alignment can
    /// never write a non-finite bias.
    pub(crate) fn align_head(&mut self, cnn: &CoLocatorCnn, windows: &Tensor) {
        let reference_bias = cnn.parts().4.bias().data().to_vec();
        self.fc1.params_mut()[1].value.data_mut().copy_from_slice(&reference_bias);
        let mut ws = Workspace::new();
        let want = cnn.pooled_features(windows, &mut ws, false);
        let got = self.pooled_features(windows, &mut ws);
        let f2 = self.res2.out_channels();
        let batch = windows.shape()[0];
        let mut delta = vec![0f64; f2];
        let mut count = vec![0u32; f2];
        for b in 0..batch {
            let w_row = &want.data()[b * f2..(b + 1) * f2];
            let g_row = &got.data()[b * f2..(b + 1) * f2];
            for (c, (&w, &g)) in w_row.iter().zip(g_row).enumerate() {
                if w.is_finite() && g.is_finite() {
                    delta[c] += (w - g) as f64;
                    count[c] += 1;
                }
            }
        }
        for (d, &n) in delta.iter_mut().zip(&count) {
            if n > 0 {
                *d /= n as f64;
            }
        }
        let (out_f, in_f) = (self.fc1.out_features(), self.fc1.in_features());
        let weight: Vec<f64> = self.fc1.weight().data().iter().map(|&w| w as f64).collect();
        let bias = &mut self.fc1.params_mut()[1].value;
        for (o, b) in bias.data_mut().iter_mut().enumerate() {
            let adj: f64 =
                weight[o * in_f..(o + 1) * in_f].iter().zip(&delta).map(|(&w, &d)| w * d).sum();
            debug_assert!(adj.is_finite());
            *b += adj as f32;
        }
        debug_assert_eq!(out_f * in_f, weight.len());
    }

    /// The architecture configuration of the quantised network (identical to
    /// the `f32` network it was quantised from).
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// A deterministic, model-independent probe set for activation-grid
    /// calibration: seeded pseudo-Gaussian noise plus the structured
    /// extremes a standardized window can exhibit (an impulse — the largest
    /// single sample any standardized window of this length can contain — a
    /// step edge, slow and fast sines, and the Nyquist alternation). Every
    /// window is standardized exactly like the sliding classifier
    /// standardizes real trace windows.
    pub fn synthetic_calibration_windows(len: usize) -> Tensor {
        assert!(len > 0, "calibration windows must be non-empty");
        let mut windows: Vec<Vec<f32>> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..8 {
            windows.push(
                (0..len)
                    .map(|_| {
                        // Sum of four uniforms: cheap, deterministic,
                        // approximately Gaussian.
                        let mut s = 0.0f32;
                        for _ in 0..4 {
                            let u = (xorshift(&mut state) >> 11) as f32 / (1u64 << 53) as f32;
                            s += 2.0 * u - 1.0;
                        }
                        s * 0.5
                    })
                    .collect(),
            );
        }
        let mut impulse = vec![0.0f32; len];
        impulse[len / 2] = 1.0;
        windows.push(impulse);
        windows.push((0..len).map(|i| if i < len / 2 { -1.0 } else { 1.0 }).collect());
        windows.push((0..len).map(|i| (i as f32 * 0.05).sin()).collect());
        windows.push((0..len).map(|i| (i as f32 * 0.91).sin()).collect());
        windows.push((0..len).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect());
        for w in &mut windows {
            sca_trace::dsp::standardize_in_place(w);
        }
        CoLocatorCnn::stack_windows(&windows)
    }

    /// Probe windows matched to this model's stem filters: each stem kernel
    /// row (dequantised), centered in a window and standardized. These are
    /// the inputs that maximally excite each stem channel, so including
    /// them keeps the stem grid honest even when the generic probes happen
    /// to be near-orthogonal to a filter.
    fn stem_probe_windows(&self, len: usize) -> Vec<Vec<f32>> {
        let k = self.conv.kernel_size();
        let rows = self.conv.gemm().rows();
        let cols = self.conv.gemm().cols();
        let deq = self.conv.gemm().dequantize();
        let mut probes = Vec::with_capacity(rows);
        for row in deq.chunks(cols) {
            if row.iter().all(|&v| v == 0.0) {
                continue;
            }
            let copy = k.min(len);
            let start = (len - copy) / 2;
            let mut w = vec![0.0f32; len];
            w[start..start + copy].copy_from_slice(&row[..copy]);
            sca_trace::dsp::standardize_in_place(&mut w);
            probes.push(w);
        }
        probes
    }

    /// Calibrates the activation grids on `windows` (`[B, 1, N]`,
    /// standardized like inference inputs) plus this model's stem-matched
    /// probes, then rebuilds every layer's fixed-point plan.
    ///
    /// The maxima are recorded from the quantised layers' calibration
    /// forward (`forward_dynamic`: every window on its own grid, exact
    /// integer dots), which is deterministic in the quantised weights — so
    /// quantising a model and loading the same persisted model calibrate to
    /// bit-identical grids. Non-finite activations are ignored by the max
    /// fold, so a poisoned window saturates at inference instead of
    /// destroying the grid.
    pub fn calibrate(&mut self, windows: &Tensor) {
        assert_eq!(windows.shape().len(), 3, "calibration windows must be [B, 1, N]");
        assert_eq!(windows.shape()[1], 1, "calibration windows must be single-channel");
        let (count, len) = (windows.shape()[0], windows.shape()[2]);
        assert!(count > 0 && len > 0, "calibration needs at least one non-empty window");
        let probes = self.stem_probe_windows(len);
        let batch = count + probes.len();
        let mut x = windows.data().to_vec();
        x.extend(probes.into_iter().flatten());
        let stem = self.conv.forward_dynamic(&x, batch, len);
        let (r1_mid, r1) = self.res1.forward_dynamic(&stem, batch, len);
        let (r2_mid, r2) = self.res2.forward_dynamic(&r1, batch, len);
        self.act_scales =
            [&x, &stem, &r1_mid, &r1, &r2_mid, &r2].map(|t| grid_scale(finite_abs_max(t)));
        self.rebuild_plans();
    }

    /// The calibrated activation grid scales (input, stem out, res1 mid,
    /// res1 out, res2 mid, res2 out). Persisted by model format v3.
    pub fn activation_scales(&self) -> [f32; ACTIVATION_SCALE_COUNT] {
        self.act_scales
    }

    /// Installs previously calibrated activation grids (model loading) and
    /// rebuilds the fixed-point plans. Every scale must be finite and
    /// positive; a corrupt scale is rejected rather than installed.
    pub fn set_activation_scales(
        &mut self,
        scales: [f32; ACTIVATION_SCALE_COUNT],
    ) -> Result<(), String> {
        for (i, s) in scales.iter().enumerate() {
            if !s.is_finite() || *s <= 0.0 {
                return Err(format!("activation scale {i} is not positive finite: {s}"));
            }
        }
        self.act_scales = scales;
        self.rebuild_plans();
        Ok(())
    }

    /// Rebuilds every layer's fixed-point requantisation plan from the
    /// current activation grids *and current weights* — must be re-run
    /// after either changes (calibration, or a persisted payload install).
    fn rebuild_plans(&mut self) {
        let s = self.act_scales;
        self.conv.set_fixed_point(s[0], s[1]);
        self.res1.set_fixed_point(s[1], s[2], s[3]);
        self.res2.set_fixed_point(s[3], s[4], s[5]);
    }

    /// Inference forward pass: windows `[B, 1, N]` → class logits `[B, 2]`.
    ///
    /// Each window is quantised once onto the calibrated input grid and
    /// runs on `i16` codes through the stem and both residual blocks, with
    /// fused integer requantisation, then through the integer global average
    /// pool, before the next window starts
    /// ([`tinynn::qlayers::pooled_features`]); the tiny fully connected head
    /// then runs in `f32` over the batch. One window's code buffers live in
    /// the workspace, so a warm pass allocates nothing and the scratch does
    /// not grow with the batch.
    pub fn forward(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let pooled = self.pooled_features(input, ws);
        let h = forward_consuming(&self.fc1, pooled, ws, false);
        let h = forward_consuming(&self.fc_relu, h, ws, false);
        forward_consuming(&self.fc2, h, ws, false)
    }

    /// The fixed-point backbone and integer global average pool only:
    /// windows `[B, 1, N]` → pooled `f32` features `[B, F2]` (the head
    /// input).
    fn pooled_features(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        tinynn::qlayers::pooled_features(&self.conv, &[&self.res1, &self.res2], input, ws)
    }

    /// Scores a batch of windows with the linear class-1 margin, writing
    /// into a caller-owned buffer (cleared first).
    pub fn class1_scores_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        let logits = self.forward(input, ws);
        scores.clear();
        scores.reserve(logits.shape()[0]);
        for b in 0..logits.shape()[0] {
            scores.push(logits.at2(b, 1) - logits.at2(b, 0));
        }
        ws.recycle(logits);
    }

    /// Scores a batch of windows, returning a fresh score vector.
    pub fn class1_scores(&self, input: &Tensor, ws: &mut Workspace) -> Vec<f32> {
        let mut scores = Vec::new();
        self.class1_scores_into(input, ws, &mut scores);
        scores
    }

    /// Every quantised GEMM operand in a fixed architecture order (the model
    /// persistence format relies on this order): `conv`, then the
    /// residual-block convs of `res1` and `res2`.
    pub fn qgemms(&self) -> Vec<&QuantizedGemm> {
        let mut gemms = vec![self.conv.gemm()];
        gemms.extend(self.res1.gemms());
        gemms.extend(self.res2.gemms());
        gemms
    }

    /// Mutable access to the quantised operands (same order as
    /// [`Self::qgemms`]). After mutating weights, reinstall or recalibrate
    /// the activation grids so the fixed-point plans match.
    pub fn qgemms_mut(&mut self) -> Vec<&mut QuantizedGemm> {
        let mut gemms = vec![self.conv.gemm_mut()];
        gemms.extend(self.res1.gemms_mut());
        gemms.extend(self.res2.gemms_mut());
        gemms
    }

    /// The `f32` parameters of the fully connected head, in a fixed order
    /// (`fc1` weight/bias, then `fc2` weight/bias) matching
    /// [`Self::head_params_mut`] — the model persistence format relies on
    /// this order.
    pub fn head_params(&self) -> Vec<&Param> {
        let mut params = self.fc1.params();
        params.extend(self.fc2.params());
        params
    }

    /// Mutable access to the head parameters (same order as
    /// [`Self::head_params`]).
    pub fn head_params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.fc1.params_mut();
        params.extend(self.fc2.params_mut());
        params
    }

    /// Total bytes of quantised weight storage (the `i8` blocks only).
    pub fn quantized_weight_bytes(&self) -> usize {
        self.qgemms().iter().map(|g| g.quantized_bytes()).sum()
    }

    /// Total heap bytes the model keeps resident at serving time: every
    /// quantised operand's [`QuantizedGemm::resident_bytes`] (which counts
    /// the derived `i16` copy, not just the `i8` block) plus the `f32` head
    /// parameters.
    pub fn resident_weight_bytes(&self) -> usize {
        let gemms: usize = self.qgemms().iter().map(|g| g.resident_bytes()).sum();
        let head: usize = self.head_params().iter().map(|p| p.len() * 4).sum();
        gemms + head
    }
}

impl QuantizedCoLocatorCnn {
    /// Bytes of backbone scratch a scoring workspace holds after windows
    /// of `len` samples ([`tinynn::qlayers::scratch_bytes`]).
    pub fn scratch_bytes(&self, len: usize) -> usize {
        tinynn::qlayers::scratch_bytes(&self.conv, &[&self.res1, &self.res2], len)
    }
}

impl WindowScorer for QuantizedCoLocatorCnn {
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        self.class1_scores_into(input, ws, scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cnn() -> CoLocatorCnn {
        CoLocatorCnn::new(CnnConfig { base_filters: 4, kernel_size: 5, seed: 11 })
    }

    fn windows(count: usize, len: usize) -> Tensor {
        let windows: Vec<Vec<f32>> = (0..count)
            .map(|w| (0..len).map(|i| ((i + 3 * w) as f32 * 0.17).sin()).collect())
            .collect();
        CoLocatorCnn::stack_windows(&windows)
    }

    #[test]
    fn quantised_scores_track_f32_scores() {
        let cnn = tiny_cnn();
        let qcnn = QuantizedCoLocatorCnn::from_cnn(&cnn);
        let mut ws = Workspace::new();
        let x = windows(6, 48);
        let f32_scores = cnn.class1_scores(&x, &mut ws);
        let q_scores = qcnn.class1_scores(&x, &mut ws);
        assert_eq!(f32_scores.len(), q_scores.len());
        for (a, b) in q_scores.iter().zip(f32_scores.iter()) {
            assert!((a - b).abs() <= 1e-2, "quantised {a} vs f32 {b}");
        }
    }

    #[test]
    fn quantised_scores_are_independent_of_batch_composition() {
        let qcnn = QuantizedCoLocatorCnn::from_cnn(&tiny_cnn());
        let mut ws = Workspace::new();
        let all = windows(5, 32);
        let batched = qcnn.class1_scores(&all, &mut ws);
        for (w, expected) in batched.iter().enumerate() {
            let single = Tensor::from_vec(all.data()[w * 32..(w + 1) * 32].to_vec(), &[1, 1, 32]);
            let one = qcnn.class1_scores(&single, &mut ws);
            assert_eq!(one[0].to_bits(), expected.to_bits(), "window {w}");
        }
    }

    #[test]
    fn enumeration_orders_are_consistent() {
        let mut qcnn = QuantizedCoLocatorCnn::from_cnn(&tiny_cnn());
        // conv + res1 (2 convs) + res2 (2 convs + projection).
        assert_eq!(qcnn.qgemms().len(), 6);
        let geoms: Vec<(usize, usize)> =
            qcnn.qgemms().iter().map(|g| (g.rows(), g.cols())).collect();
        let geoms_mut: Vec<(usize, usize)> =
            qcnn.qgemms_mut().iter().map(|g| (g.rows(), g.cols())).collect();
        assert_eq!(geoms, geoms_mut);
        assert!(qcnn.quantized_weight_bytes() > 0);
        // The f32 head: fc1 weight/bias + fc2 weight/bias.
        let head: Vec<usize> = qcnn.head_params().iter().map(|p| p.len()).collect();
        let head_mut: Vec<usize> = qcnn.head_params_mut().iter().map(|p| p.len()).collect();
        assert_eq!(head, head_mut);
        assert_eq!(head.len(), 4);
    }

    #[test]
    fn quantised_forward_is_allocation_free_after_warmup() {
        let qcnn = QuantizedCoLocatorCnn::from_cnn(&tiny_cnn());
        let mut ws = Workspace::new();
        let x = windows(4, 32);
        let mut scores = Vec::new();
        for _ in 0..2 {
            qcnn.class1_scores_into(&x, &mut ws, &mut scores);
        }
        let misses = ws.arena_misses();
        let retained = ws.retained_bytes();
        for _ in 0..10 {
            qcnn.class1_scores_into(&x, &mut ws, &mut scores);
        }
        assert_eq!(ws.arena_misses(), misses, "steady-state forward must not allocate");
        assert_eq!(ws.retained_bytes(), retained, "steady-state forward must not grow scratch");
    }

    #[test]
    fn quantised_scratch_does_not_grow_with_the_batch() {
        // The served shape: the scaled 8×9 network on 230-sample windows.
        let cnn = CoLocatorCnn::new(CnnConfig { seed: 5, ..CnnConfig::scaled() });
        let qcnn = QuantizedCoLocatorCnn::from_cnn(&cnn);
        let warm = |count: usize| {
            let mut ws = Workspace::new();
            let mut scores = Vec::new();
            for _ in 0..3 {
                qcnn.class1_scores_into(&windows(count, 230), &mut ws, &mut scores);
            }
            ws.retained_bytes()
        };
        let (one, batch) = (warm(1), warm(64));
        // Only the batch-sized f32 tensors may differ: the pooled features,
        // the two hidden activations and the logits of 64 windows.
        let f2 = qcnn.res2.out_channels();
        let tensors = 64 * (f2 + 2 * qcnn.fc1.out_features() + 2) * 4;
        assert!(
            batch <= one + tensors,
            "64 windows retain {batch} bytes, 1 window {one} (+{tensors} allowed)"
        );
    }

    #[test]
    fn supports_different_window_lengths() {
        let qcnn = QuantizedCoLocatorCnn::from_cnn(&tiny_cnn());
        let mut ws = Workspace::new();
        assert_eq!(qcnn.forward(&windows(1, 40), &mut ws).shape(), &[1, 2]);
        assert_eq!(qcnn.forward(&windows(1, 24), &mut ws).shape(), &[1, 2]);
    }

    #[test]
    fn calibration_is_deterministic() {
        let cnn = tiny_cnn();
        let a = QuantizedCoLocatorCnn::from_cnn(&cnn);
        let b = QuantizedCoLocatorCnn::from_cnn(&cnn);
        let bits = |q: &QuantizedCoLocatorCnn| {
            q.activation_scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
        for s in a.activation_scales() {
            assert!(s.is_finite() && s > 0.0, "calibrated scale must be positive finite: {s}");
        }
    }

    #[test]
    fn calibration_survives_non_finite_probe_windows() {
        let mut qcnn = QuantizedCoLocatorCnn::from_cnn(&tiny_cnn());
        let clean = qcnn.activation_scales();
        let mut poisoned: Vec<Vec<f32>> = (0..3)
            .map(|w| (0..32).map(|i| ((i * (w + 1)) as f32 * 0.21).cos()).collect())
            .collect();
        poisoned[0][5] = f32::NAN;
        poisoned[1][9] = f32::INFINITY;
        poisoned[2][0] = f32::NEG_INFINITY;
        qcnn.calibrate(&CoLocatorCnn::stack_windows(&poisoned));
        for (i, s) in qcnn.activation_scales().iter().enumerate() {
            assert!(s.is_finite() && *s > 0.0, "scale {i} poisoned: {s}");
        }
        // Grids from poisoned probes must still score finite.
        let mut ws = Workspace::new();
        for s in qcnn.class1_scores(&windows(2, 32), &mut ws) {
            assert!(s.is_finite());
        }
        // And a fresh calibration restores the clean grids exactly.
        qcnn.calibrate(&QuantizedCoLocatorCnn::synthetic_calibration_windows(
            DEFAULT_CALIBRATION_LEN,
        ));
        assert_eq!(
            clean.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            qcnn.activation_scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn set_activation_scales_rejects_corrupt_grids() {
        let mut qcnn = QuantizedCoLocatorCnn::from_cnn(&tiny_cnn());
        let good = qcnn.activation_scales();
        for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            let mut scales = good;
            scales[3] = bad;
            assert!(qcnn.set_activation_scales(scales).is_err(), "accepted scale {bad}");
        }
        // Rejection must not clobber the installed grids.
        assert_eq!(
            good.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            qcnn.activation_scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert!(qcnn.set_activation_scales(good).is_ok());
    }
}
