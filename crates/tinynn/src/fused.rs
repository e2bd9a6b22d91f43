//! The direct `f32` convolution of the crate, and the fused
//! channels-last inference chain of a convolutional backbone built on it:
//! `Conv1d → BatchNorm1d → ReLU`, then residual blocks, then the global
//! average pool, in one pass per window.
//!
//! Every `f32` forward convolution runs the one register tile of this
//! module. `Conv1d`'s layer forward (training, and any inference through
//! the layer chain) calls it one layer and one item at a time with a
//! bias-only epilogue; [`pooled_features`] runs a whole backbone through it
//! with the rest of each stage fused into the epilogue:
//!
//! * **A direct convolution.** Each convolution first stages its input into
//!   a zero-padded channel-major window buffer (`C` rows of `len + k - 1`
//!   samples plus slack), `kernel` times smaller than im2col. The register
//!   tile then walks the depth in the canonical `c·k + t` order: one
//!   contiguous load of `P` staged samples and one packed load of the
//!   weight lanes feed `P × lanes` fused multiply-adds.
//! * **Channels-last activations.** Between the chain's layers an item's
//!   activation is a `[len, C]` matrix: one row of `C` channels per sample.
//!   A register tile's accumulators hold output-channel lanes, so an
//!   epilogue stores whole rows and reads the residual operand the same
//!   way. The layer forward's epilogue stores the layer's channel-major
//!   `[C, len]` layout instead.
//! * **Fused epilogue.** Bias, the batch-norm inference affine, the ReLU
//!   and the residual add are applied to the accumulators before the one
//!   store of each output.
//! * **Per-window pass.** A window runs through every layer before the next
//!   window starts, so its activations stay in L1/L2. Weights are packed
//!   once per call and shared read-only by every window of the batch. The
//!   windows run in order on the calling thread: a caller that wants
//!   several cores splits its windows first (the locator's sliding
//!   classifier does), so this chain never fans out.
//!
//! # One accumulation order
//!
//! Training selects epochs (`Trainer::evaluate_loss`) and the quantiser
//! aligns its head through the fused chain, while the weights are trained
//! through the layer forward, so the two must agree **bit for bit**. They
//! share the tile, so every convolution output has one operation sequence:
//! the bias, then each `KC` = 256 deep block of the depth accumulated from
//! `0` in canonical `c·k + t` order with the fused multiply-add helper
//! (zero padding included, read from the staged zeros), the block sums
//! added in turn. The epilogues then differ only in what follows that sum:
//!
//! * the layer forward stores it;
//! * batch norm is a separate multiply then add, `v · scale + shift`, with
//!   `scale` and `shift` computed exactly as `BatchNorm1d::forward` does;
//! * the residual add and ReLU are `y + r` and `y.max(0.0)`;
//! * the pool sums each channel over positions in order, starting from the
//!   neutral element of `f32` summation, then multiplies by `1 / len`.
//!
//! Each window's result depends only on that window, so the output is
//! independent of batch composition and of how a caller splits its windows
//! across threads.

use crate::layers::{BatchNorm1d, Conv1d, ResidualBlock1d};
use crate::matmul::fmadd;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Depth block of the tile: each output sums `KC` depth columns from zero
/// before adding the block onto its running value. Pinned: the blocks'
/// rounding is part of every score bit and every trained weight, so
/// changing it changes both.
const KC: usize = 256;

/// Output channels of one accumulator vector (one 256-bit register).
const LANES: usize = 8;

/// Positions per register tile of an 8-channel strip (8 accumulators).
const P_NARROW: usize = 8;

/// Positions per register tile of a 16-channel strip (12 accumulators).
const P_WIDE: usize = 6;

/// Zero columns past the end of every staged row, so a tile overhanging the
/// signal's end can still read a full `P` samples (its extra outputs are
/// never stored).
const SLACK: usize = P_NARROW;

/// One convolution with its batch norm (if any), as laid out in a [`Plan`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvStep {
    in_c: usize,
    out_c: usize,
    /// Depth `in_c · k` of one output.
    depth: usize,
    /// Output channels per register strip: 16 when they divide `out_c`,
    /// else 8 (the final strip zero-padded).
    strip: usize,
    /// Start of the packed weights in [`Plan::weights`]:
    /// `[strips][in_c · k][strip]`, depth in canonical `c·k + t` order.
    pack: usize,
    /// Start of the bias, scale and shift vectors in [`Plan::weights`]
    /// (each `strips · strip` long, zero-padded; scale and shift stay zero
    /// without a batch norm).
    affine: usize,
    /// Start of the `in_c · k` staged-column offsets in [`Plan::offsets`].
    offsets: usize,
}

impl ConvStep {
    fn strips(&self) -> usize {
        self.out_c.div_ceil(self.strip)
    }
}

/// Output channels per register strip of a convolution with `out_c`
/// outputs.
fn strip_width(out_c: usize) -> usize {
    if out_c.is_multiple_of(2 * LANES) {
        2 * LANES
    } else {
        LANES
    }
}

/// A backbone's convolutions in plan order: the stem, then each block's
/// conv1, conv2 and projection.
fn convs<'a>(
    stem: &'a Conv1d,
    blocks: &'a [&'a ResidualBlock1d],
) -> impl Iterator<Item = &'a Conv1d> + Clone + 'a {
    std::iter::once(stem).chain(blocks.iter().flat_map(|block| {
        let (conv1, _, conv2, _, projection) = block.parts();
        [conv1, conv2].into_iter().chain(projection.map(|(conv, _)| conv))
    }))
}

/// What a plan of some convolutions holds, counted once so that
/// [`Plan::layout`] sizes its vectors exactly and [`scratch_bytes`] counts
/// the same lengths.
struct Extent {
    steps: usize,
    /// Floats of packed weights and affine vectors.
    weights: usize,
    /// Staged-column offsets: the summed depths.
    offsets: usize,
    kmax: usize,
    widest_in: usize,
}

impl Extent {
    fn of<'a>(convs: impl Iterator<Item = &'a Conv1d>) -> Self {
        let mut e = Extent { steps: 0, weights: 0, offsets: 0, kmax: 1, widest_in: 0 };
        for conv in convs {
            let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
            let strip = strip_width(out_c);
            e.steps += 1;
            e.weights += out_c.div_ceil(strip) * strip * (in_c * k + 3);
            e.offsets += in_c * k;
            e.kmax = e.kmax.max(k);
            e.widest_in = e.widest_in.max(in_c);
        }
        e
    }

    /// Length of one staged channel row for windows of `len` samples.
    fn row(&self, len: usize) -> usize {
        len + self.kmax - 1 + SLACK
    }
}

/// `buf` resized to `n` floats. A buffer that must grow grows to exactly
/// `n`, so it retains the largest size it was given and no more (what
/// [`scratch_bytes`] counts).
pub(crate) fn sized(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    buf.reserve_exact(n.saturating_sub(buf.len()));
    buf.resize(n, 0.0);
    buf
}

/// The per-call packing of one or more convolutions: each one's weights in
/// register-strip order, its bias and batch-norm affine, and the staged
/// offsets of its depth columns for the call's window length. Rebuilt on
/// every call (weights change between calls during training) into buffers
/// whose capacity the workspace keeps.
#[derive(Debug, Default)]
pub(crate) struct Plan {
    steps: Vec<ConvStep>,
    weights: Vec<f32>,
    offsets: Vec<usize>,
    /// Window length the offsets were laid out for.
    len: usize,
    /// Zero samples staged before the signal (the largest left padding).
    pad: usize,
    /// Length of one staged channel row.
    row: usize,
}

impl Plan {
    fn build(&mut self, stem: (&Conv1d, &BatchNorm1d), blocks: &[&ResidualBlock1d], len: usize) {
        self.layout(&Extent::of(convs(stem.0, blocks)), len);
        self.push(stem.0, Some(stem.1));
        for block in blocks {
            let (conv1, bn1, conv2, bn2, projection) = block.parts();
            self.push(conv1, Some(bn1));
            self.push(conv2, Some(bn2));
            if let Some((conv, bn)) = projection {
                self.push(conv, Some(bn));
            }
        }
    }

    /// Lays out `conv` alone, without a batch norm, for [`Self::conv_item`].
    pub(crate) fn build_conv(&mut self, conv: &Conv1d, len: usize) {
        self.layout(&Extent::of(std::iter::once(conv)), len);
        self.push(conv, None);
    }

    /// Length of one staged channel row in this plan's layout.
    pub(crate) fn row(&self) -> usize {
        self.row
    }

    /// Empties the plan and reserves exactly what `extent` needs.
    fn layout(&mut self, extent: &Extent, len: usize) {
        self.steps.clear();
        self.weights.clear();
        self.offsets.clear();
        self.steps.reserve_exact(extent.steps);
        self.weights.reserve_exact(extent.weights);
        self.offsets.reserve_exact(extent.offsets);
        self.len = len;
        self.pad = (extent.kmax - 1) / 2;
        self.row = extent.row(len);
    }

    fn push(&mut self, conv: &Conv1d, bn: Option<&BatchNorm1d>) {
        let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
        let ck = in_c * k;
        assert!(ck > 0, "a convolution needs at least one input channel");
        let strip = strip_width(out_c);
        let strips = out_c.div_ceil(strip);
        let pack = self.weights.len();
        let affine = pack + strips * ck * strip;
        // `clear` + `resize` zero-fills, so padded lanes hold exact zeros.
        self.weights.resize(affine + 3 * strips * strip, 0.0);
        let w = conv.weight().data();
        for o in 0..out_c {
            let (s, lane) = (o / strip, o % strip);
            let dst = &mut self.weights[pack + s * ck * strip..pack + (s + 1) * ck * strip];
            for (d, &v) in w[o * ck..(o + 1) * ck].iter().enumerate() {
                dst[d * strip + lane] = v;
            }
        }
        let lanes = strips * strip;
        let (bias, rest) = self.weights[affine..].split_at_mut(lanes);
        let (scale, shift) = rest.split_at_mut(lanes);
        bias[..out_c].copy_from_slice(conv.bias().data());
        if let Some(bn) = bn {
            assert_eq!(bn.channels(), out_c, "batch norm must follow its convolution's channels");
            for o in 0..out_c {
                (scale[o], shift[o]) = bn.inference_scale_shift(o);
            }
        }
        let offsets = self.offsets.len();
        let shift_cols = self.pad - (k - 1) / 2;
        for c in 0..in_c {
            self.offsets.extend((0..k).map(|t| c * self.row + shift_cols + t));
        }
        self.steps.push(ConvStep { in_c, out_c, depth: ck, strip, pack, affine, offsets });
    }

    /// `Conv1d`'s layer forward on one item, with the plan of
    /// [`Self::build_conv`]: stages the channel-major `[in_c, len]` input
    /// `x` into `stage` (`in_c` rows of [`Self::row`] samples) and writes
    /// the bias plus the convolution into `out`, `[out_c, len]`.
    pub(crate) fn conv_item(&self, x: &[f32], stage: &mut [f32], out: &mut [f32]) {
        let step = &self.steps[0];
        stage_channel_major(stage, x, (self.len, self.pad, self.row));
        self.conv(step, stage, Epilogue::Bias, out);
    }

    /// Stages a channel-major `[C, len]` signal in the plan's layout.
    fn stage_channel_major(&self, stage: &mut Vec<f32>, x: &[f32], channels: usize) {
        let stage = sized(stage, channels * self.row);
        stage_channel_major(stage, x, (self.len, self.pad, self.row));
    }

    /// Stages a channels-last `[len, C]` activation (a transpose into the
    /// same channel-major padded layout).
    fn stage_channels_last(&self, stage: &mut Vec<f32>, x: &[f32], channels: usize) {
        let (len, pad, row) = (self.len, self.pad, self.row);
        let stage = sized(stage, channels * row);
        for (c, dst) in stage.chunks_exact_mut(row).enumerate() {
            dst[..pad].fill(0.0);
            for (d, src) in dst[pad..pad + len].iter_mut().zip(x.chunks_exact(channels)) {
                *d = src[c];
            }
            dst[pad + len..].fill(0.0);
        }
    }

    /// Runs one convolution step on a staged input, writing its `len ·
    /// out_c` outputs through `epilogue`.
    fn conv(&self, step: &ConvStep, stage: &[f32], epilogue: Epilogue, out: &mut [f32]) {
        assert_eq!(out.len(), self.len * step.out_c, "one output per position and channel");
        if step.strip == 2 * LANES {
            self.conv_tiles::<2, P_WIDE, { 2 * P_WIDE }>(step, stage, epilogue, out);
        } else {
            self.conv_tiles::<1, P_NARROW, P_NARROW>(step, stage, epilogue, out);
        }
    }

    /// The affine vectors of a step: `(bias, scale, shift)`, each
    /// zero-padded to whole strips.
    fn affine(&self, step: &ConvStep) -> (&[f32], &[f32], &[f32]) {
        let lanes = step.strips() * step.strip;
        let (bias, rest) = self.weights[step.affine..step.affine + 3 * lanes].split_at(lanes);
        let (scale, shift) = rest.split_at(lanes);
        (bias, scale, shift)
    }

    /// The tile loop of [`Self::conv`]: `P` positions × `S` lane vectors
    /// per register tile (`N = P · S` accumulators).
    fn conv_tiles<const S: usize, const P: usize, const N: usize>(
        &self,
        step: &ConvStep,
        stage: &[f32],
        epilogue: Epilogue,
        out: &mut [f32],
    ) {
        const { assert!(N == P * S, "one accumulator per position and lane vector") };
        let (len, out_c, strip) = (self.len, step.out_c, step.strip);
        debug_assert_eq!(strip, S * LANES);
        let ck = step.depth;
        let offsets = &self.offsets[step.offsets..step.offsets + ck];
        let pack = &self.weights[step.pack..step.affine];
        let (bias, scale, shift) = self.affine(step);
        for j0 in (0..len).step_by(P) {
            let positions = P.min(len - j0);
            let x = &stage[j0..];
            for s in 0..step.strips() {
                let c0 = s * strip;
                let strip_pack = &pack[s * ck * strip..(s + 1) * ck * strip];
                // The pinned order: the bias, then each depth block's sum
                // accumulated from zero, added in turn.
                let mut v = [[0.0f32; LANES]; N];
                for vp in v.chunks_exact_mut(S) {
                    vp.as_flattened_mut().copy_from_slice(&bias[c0..c0 + strip]);
                }
                for kb in (0..ck).step_by(KC) {
                    let k1 = (kb + KC).min(ck);
                    let mut acc = [[0.0f32; LANES]; N];
                    sweep::<S, P, N>(
                        &mut acc,
                        x,
                        &offsets[kb..k1],
                        &strip_pack[kb * strip..k1 * strip],
                    );
                    for (vv, av) in v.iter_mut().zip(acc.iter()) {
                        for (a, &b) in vv.iter_mut().zip(av.iter()) {
                            *a += b;
                        }
                    }
                }
                let lanes = strip.min(out_c - c0);
                let (sc, sh) = (&scale[c0..c0 + lanes], &shift[c0..c0 + lanes]);
                for (p, vp) in v.chunks_exact(S).enumerate().take(positions) {
                    let at = (j0 + p) * out_c + c0;
                    let vp = &vp.as_flattened()[..lanes];
                    let dst = &mut out[at..at + lanes];
                    match epilogue {
                        Epilogue::Relu => {
                            for (((d, &v), &a), &b) in dst.iter_mut().zip(vp).zip(sc).zip(sh) {
                                *d = (v * a + b).max(0.0);
                            }
                        }
                        Epilogue::Affine => {
                            for (((d, &v), &a), &b) in dst.iter_mut().zip(vp).zip(sc).zip(sh) {
                                *d = v * a + b;
                            }
                        }
                        Epilogue::AddRelu(residual) => {
                            let r = &residual[at..at + lanes];
                            for ((((d, &v), &a), &b), &r) in
                                dst.iter_mut().zip(vp).zip(sc).zip(sh).zip(r)
                            {
                                *d = (v * a + b + r).max(0.0);
                            }
                        }
                        Epilogue::Bias => {
                            // The layer's channel-major layout, not `dst`.
                            for (c, &v) in (c0..).zip(vp) {
                                out[c * len + j0 + p] = v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// One window through the whole backbone into its pooled feature row.
    fn run_item(
        &self,
        blocks: &[&ResidualBlock1d],
        x: &[f32],
        row: &mut [f32],
        s: &mut ItemScratch,
    ) {
        let ItemScratch { stage, cur, mid, short, next } = s;
        // The blocks swap which buffer each name refers to, never the
        // buffers themselves, so every window gives each buffer the same
        // widths (what `scratch_bytes` counts).
        let (mut cur, mut next) = (cur, next);
        let len = self.len;
        let mut steps = self.steps.iter();
        let mut step = || steps.next().expect("one plan step per convolution");
        let stem = step();
        self.stage_channel_major(stage, x, stem.in_c);
        self.conv(stem, stage, Epilogue::Relu, sized(cur, len * stem.out_c));
        let mut channels = stem.out_c;
        for block in blocks {
            let (conv1, conv2) = (step(), step());
            self.stage_channels_last(stage, cur, channels);
            self.conv(conv1, stage, Epilogue::Relu, sized(mid, len * conv1.out_c));
            // The projection reads the same staged input as conv1.
            let residual: &[f32] = match block.parts().4 {
                Some(_) => {
                    let projection = step();
                    let out = sized(short, len * projection.out_c);
                    self.conv(projection, stage, Epilogue::Affine, out);
                    short
                }
                None => cur,
            };
            self.stage_channels_last(stage, mid, conv1.out_c);
            let out = sized(next, len * conv2.out_c);
            self.conv(conv2, stage, Epilogue::AddRelu(residual), out);
            std::mem::swap(&mut cur, &mut next);
            channels = conv2.out_c;
        }
        pool_into(row, cur, self.len);
    }
}

/// Stages a channel-major `[C, len]` signal into `stage`, `C` rows of `row`
/// samples: row `c` is `pad` zeros, the channel's samples, then zeros.
/// Every `f32` convolution reads its input this way (the direct tile here,
/// and `Conv1d`'s backward its output gradient).
pub(crate) fn stage_channel_major(
    stage: &mut [f32],
    x: &[f32],
    (len, pad, row): (usize, usize, usize),
) {
    for (dst, src) in stage.chunks_exact_mut(row).zip(x.chunks_exact(len)) {
        dst[..pad].fill(0.0);
        dst[pad..pad + len].copy_from_slice(src);
        dst[pad + len..].fill(0.0);
    }
}

/// What a convolution's tile epilogue does with the bias plus the
/// convolution.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
    /// Store it in the layer's channel-major `[out_c, len]` layout —
    /// `Conv1d`'s layer forward. Every other epilogue applies the batch-norm
    /// affine and stores channels-last.
    Bias,
    /// `max(affine, 0)` — a conv → BN → ReLU stage.
    Relu,
    /// The affine alone — a projection shortcut.
    Affine,
    /// `max(affine + residual, 0)` — the end of a residual block; the
    /// residual is channels-last like the output.
    AddRelu(&'a [f32]),
}

/// The depth sweep of one register tile over one depth block: for each
/// depth column, `P` consecutive staged samples times the packed weight
/// lanes, accumulated with the fused multiply-add helper.
#[inline(always)]
fn sweep<const S: usize, const P: usize, const N: usize>(
    acc: &mut [[f32; LANES]; N],
    x: &[f32],
    offsets: &[usize],
    pack: &[f32],
) {
    for (&off, w) in offsets.iter().zip(pack.chunks_exact(S * LANES)) {
        let xs: &[f32; P] = x[off..off + P].try_into().expect("P staged samples");
        for (acc_p, &xv) in acc.chunks_exact_mut(S).zip(xs) {
            for (a, &wv) in acc_p.as_flattened_mut().iter_mut().zip(w) {
                *a = fmadd(wv, xv, *a);
            }
        }
    }
}

/// Global average pool of a channels-last `[len, C]` activation into `row`
/// (`C` long): each channel summed over positions in order, exactly like
/// `GlobalAvgPool1d`'s `sum::<f32>()` over a channel-major row.
fn pool_into(row: &mut [f32], act: &[f32], len: usize) {
    let zero: f32 = std::iter::empty::<f32>().sum();
    row.fill(zero);
    for sample in act.chunks_exact(row.len()) {
        for (sum, &v) in row.iter_mut().zip(sample) {
            *sum += v;
        }
    }
    let inv_len = 1.0 / len as f32;
    for sum in row.iter_mut() {
        *sum *= inv_len;
    }
}

/// Per-window activation buffers of the chain: the staged input of the
/// current convolution and the channels-last activations of one block.
#[derive(Debug, Default)]
pub(crate) struct ItemScratch {
    stage: Vec<f32>,
    cur: Vec<f32>,
    mid: Vec<f32>,
    short: Vec<f32>,
    next: Vec<f32>,
}

impl ItemScratch {
    pub(crate) fn capacity(&self) -> usize {
        [&self.stage, &self.cur, &self.mid, &self.short, &self.next]
            .iter()
            .map(|v| v.capacity())
            .sum()
    }
}

impl Plan {
    pub(crate) fn retained_bytes(&self) -> usize {
        self.weights.capacity() * 4
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.steps.capacity() * std::mem::size_of::<ConvStep>()
    }
}

/// Bytes of scratch a fresh workspace holds after [`pooled_features`] ran
/// on windows of `len` samples: the per-call weight packing and the
/// per-window staging and activation buffers, each at the largest size the
/// chain gives it. Exact, and deterministic in the layers' shapes and
/// `len`; a later call at the same shapes keeps the same buffers.
pub fn scratch_bytes(stem: &Conv1d, blocks: &[&ResidualBlock1d], len: usize) -> usize {
    let extent = Extent::of(convs(stem, blocks));
    // `cur` holds the stem's output and every second block's after it,
    // `next` the first block's and every second one's after it.
    let (mut cur, mut next, mut mid, mut short) = (stem.out_channels(), 0, 0, 0);
    for (i, block) in blocks.iter().enumerate() {
        let (conv1, _, conv2, _, projection) = block.parts();
        let out = if i % 2 == 0 { &mut next } else { &mut cur };
        *out = (*out).max(conv2.out_channels());
        mid = mid.max(conv1.out_channels());
        short = short.max(projection.map_or(0, |(conv, _)| conv.out_channels()));
    }
    let floats = extent.weights + extent.widest_in * extent.row(len);
    (floats + (cur + next + mid + short) * len) * 4
        + extent.offsets * std::mem::size_of::<usize>()
        + extent.steps * std::mem::size_of::<ConvStep>()
}

/// Inference forward of a backbone — `stem conv → batch norm → ReLU`, then
/// `blocks` in order, then global average pooling — on windows
/// `[B, C, N]`, returning the pooled features `[B, F]`. Bit-identical to
/// running the same layers through `Layer::forward(.., false)` (see the
/// [module documentation](self)).
///
/// The windows run in order on the calling thread, every buffer drawn from
/// `ws`, so a warm workspace serves a pass without allocating and the
/// scratch follows the window length, never the batch.
///
/// # Panics
///
/// Panics if the input is not `[B, C, N]` with the stem's `C` input
/// channels, or if the layers' channel counts do not chain.
pub fn pooled_features(
    stem: &Conv1d,
    stem_bn: &BatchNorm1d,
    blocks: &[&ResidualBlock1d],
    input: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.shape().len(), 3, "expected windows [B, C, N]");
    assert_eq!(input.shape()[1], stem.in_channels(), "input channel mismatch");
    let (batch, in_c, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let mut channels = stem.out_channels();
    for block in blocks {
        let (conv1, _, conv2, _, _) = block.parts();
        assert_eq!(conv1.in_channels(), channels, "residual block channel mismatch");
        channels = conv2.out_channels();
    }
    let mut pooled = ws.uninit_tensor(&[batch, channels]);
    ws.plan.build((stem, stem_bn), blocks, len);
    let windows = input.data().chunks_exact(in_c * len);
    for (x, row) in windows.zip(pooled.data_mut().chunks_exact_mut(channels)) {
        ws.plan.run_item(blocks, x, row, &mut ws.item);
    }
    pooled
}
