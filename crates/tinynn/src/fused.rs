//! The fused channels-last `f32` inference chain of a convolutional
//! backbone: `Conv1d → BatchNorm1d → ReLU`, then residual blocks, then the
//! global average pool, in one pass per window.
//!
//! The layer chain (`Layer::forward` on each sub-layer) lowers every
//! convolution to im2col → GEMM and then makes separate passes for batch
//! norm, ReLU and the residual add. At inference those passes cost as much
//! as the GEMM itself on the network's small shapes. This module runs the
//! same arithmetic without them:
//!
//! * **Channels-last activations.** Between layers an item's activation is
//!   a `[len, C]` matrix: one row of `C` channels per sample. A register
//!   tile's accumulators hold output-channel lanes, so an epilogue stores
//!   whole rows and reads the residual operand the same way.
//! * **A direct convolution.** Each convolution first stages its input into
//!   a zero-padded channel-major window buffer (`C` rows of `len + k - 1`
//!   samples plus slack), `kernel` times smaller than im2col. The register
//!   tile then walks the depth in the canonical `c·k + t` order: one
//!   contiguous load of `P` staged samples and one packed load of the
//!   weight lanes feed `P × lanes` fused multiply-adds.
//! * **Fused epilogue.** Bias, the batch-norm inference affine, the ReLU
//!   and the residual add are applied to the accumulators before the one
//!   store of each output.
//! * **Per-window pass.** A window runs through every layer before the next
//!   window starts, so its activations stay in L1/L2. Weights are packed
//!   once per call and shared read-only by every window of the batch (and
//!   by every thread of a fan-out).
//!
//! # Bit-identity with the layer chain
//!
//! The scores are **bit-identical** to the layer chain's, not merely close:
//! `Trainer::evaluate_loss` selects epochs and the quantiser aligns its head
//! through this path, so any drift would change trained models. Every
//! output therefore repeats the layer chain's exact operation sequence:
//!
//! * the depth is cut into the same [`crate::matmul::KC`] blocks; each
//!   block is accumulated from `0` in canonical `c·k + t` order with the
//!   same fused multiply-add helper (zero padding included, read from the
//!   staged zeros), and the block sums are added in turn onto the bias;
//! * batch norm is a separate multiply then add, `v · scale + shift`, with
//!   `scale` and `shift` computed exactly as `BatchNorm1d::forward` does;
//! * the residual add and ReLU are `y + r` and `y.max(0.0)`;
//! * the pool sums each channel over positions in order, starting from the
//!   neutral element of `f32` summation, then multiplies by `1 / len`.
//!
//! Each window's result depends only on that window, so the output is
//! independent of batch composition and thread count.

use std::cell::RefCell;

use crate::layers::{BatchNorm1d, Conv1d, ResidualBlock1d, CONV_PAR_MIN_FLOPS};
use crate::matmul::{fmadd, KC};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

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

thread_local! {
    /// Per-window scratch of a fan-out worker (workers cannot share the
    /// caller's workspace).
    static ITEM_SCRATCH: RefCell<ItemScratch> = RefCell::new(ItemScratch::default());
}

/// One convolution of the chain with its batch norm, as laid out in a
/// [`Plan`].
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
    /// (each `strips · strip` long, zero-padded).
    affine: usize,
    /// Start of the `in_c · k` staged-column offsets in [`Plan::offsets`].
    offsets: usize,
}

impl ConvStep {
    fn strips(&self) -> usize {
        self.out_c.div_ceil(self.strip)
    }
}

/// The per-call packing of a backbone: every convolution's weights in
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
        self.steps.clear();
        self.weights.clear();
        self.offsets.clear();
        let mut kmax = stem.0.kernel_size();
        for block in blocks {
            let (conv1, _, conv2, _, projection) = block.parts();
            kmax = kmax.max(conv1.kernel_size()).max(conv2.kernel_size());
            if let Some((conv, _)) = projection {
                kmax = kmax.max(conv.kernel_size());
            }
        }
        self.len = len;
        self.pad = (kmax - 1) / 2;
        self.row = len + kmax - 1 + SLACK;
        self.push(stem.0, stem.1);
        for block in blocks {
            let (conv1, bn1, conv2, bn2, projection) = block.parts();
            self.push(conv1, bn1);
            self.push(conv2, bn2);
            if let Some((conv, bn)) = projection {
                self.push(conv, bn);
            }
        }
    }

    fn push(&mut self, conv: &Conv1d, bn: &BatchNorm1d) {
        let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
        assert_eq!(bn.channels(), out_c, "batch norm must follow its convolution's channels");
        let ck = in_c * k;
        assert!(ck > 0, "a convolution needs at least one input channel");
        let strip = if out_c % (2 * LANES) == 0 { 2 * LANES } else { LANES };
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
        for o in 0..out_c {
            (scale[o], shift[o]) = bn.inference_scale_shift(o);
        }
        let offsets = self.offsets.len();
        let shift_cols = self.pad - (k - 1) / 2;
        for c in 0..in_c {
            self.offsets.extend((0..k).map(|t| c * self.row + shift_cols + t));
        }
        self.steps.push(ConvStep { in_c, out_c, depth: ck, strip, pack, affine, offsets });
    }

    /// FLOPs of one window through every convolution.
    fn flops_per_item(&self) -> usize {
        self.steps.iter().map(|s| 2 * s.out_c * s.depth * self.len).sum()
    }

    /// Stages a channel-major `[C, len]` signal: row `c` of the staged
    /// buffer is `pad` zeros, the channel's samples, then zeros.
    fn stage_channel_major(&self, stage: &mut Vec<f32>, x: &[f32], channels: usize) {
        let (len, pad, row) = (self.len, self.pad, self.row);
        stage.resize(channels * row, 0.0);
        for (dst, src) in stage.chunks_exact_mut(row).zip(x.chunks_exact(len)) {
            dst[..pad].fill(0.0);
            dst[pad..pad + len].copy_from_slice(src);
            dst[pad + len..].fill(0.0);
        }
    }

    /// Stages a channels-last `[len, C]` activation (a transpose into the
    /// same channel-major padded layout).
    fn stage_channels_last(&self, stage: &mut Vec<f32>, x: &[f32], channels: usize) {
        let (len, pad, row) = (self.len, self.pad, self.row);
        stage.resize(channels * row, 0.0);
        for (c, dst) in stage.chunks_exact_mut(row).enumerate() {
            dst[..pad].fill(0.0);
            for (d, src) in dst[pad..pad + len].iter_mut().zip(x.chunks_exact(channels)) {
                *d = src[c];
            }
            dst[pad + len..].fill(0.0);
        }
    }

    /// Runs one convolution step on a staged input, writing the
    /// channels-last `[len, out_c]` output through `epilogue`.
    fn conv(&self, step: &ConvStep, stage: &[f32], epilogue: Epilogue, out: &mut Vec<f32>) {
        out.resize(self.len * step.out_c, 0.0);
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
                // The layer chain's order: the bias, then each depth
                // block's sum accumulated from zero, added in turn.
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
        let mut steps = self.steps.iter();
        let mut step = || steps.next().expect("one plan step per convolution");
        let stem = step();
        self.stage_channel_major(stage, x, stem.in_c);
        self.conv(stem, stage, Epilogue::Relu, cur);
        let mut channels = stem.out_c;
        for block in blocks {
            let (conv1, conv2) = (step(), step());
            self.stage_channels_last(stage, cur, channels);
            self.conv(conv1, stage, Epilogue::Relu, mid);
            // The projection reads the same staged input as conv1.
            let residual: &[f32] = match block.parts().4 {
                Some(_) => {
                    self.conv(step(), stage, Epilogue::Affine, short);
                    short
                }
                None => cur,
            };
            self.stage_channels_last(stage, mid, conv1.out_c);
            self.conv(conv2, stage, Epilogue::AddRelu(residual), next);
            std::mem::swap(cur, next);
            channels = conv2.out_c;
        }
        pool_into(row, cur, self.len);
    }
}

/// What a convolution's tile epilogue applies after the batch-norm affine.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
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
/// lanes, accumulated with the GEMM kernels' fused multiply-add.
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

/// Bytes of scratch a workspace holds after [`pooled_features`] ran on
/// windows of `len` samples: the per-call weight packing and the
/// per-window staging and activation buffers, counted from the lengths the
/// chain sizes them to (a buffer's capacity may round above its length).
/// Deterministic in the layers' shapes and `len`.
pub fn scratch_bytes(stem: &Conv1d, blocks: &[&ResidualBlock1d], len: usize) -> usize {
    let mut convs = vec![stem];
    for block in blocks {
        let (conv1, _, conv2, _, projection) = block.parts();
        convs.extend([conv1, conv2].into_iter().chain(projection.map(|(conv, _)| conv)));
    }
    let kmax = convs.iter().map(|c| c.kernel_size()).max().unwrap_or(1);
    let (mut floats, mut offsets, mut widest_in, mut widest_out) = (0, 0, 0, 0);
    for conv in &convs {
        let (in_c, out_c, k) = (conv.in_channels(), conv.out_channels(), conv.kernel_size());
        let strip = if out_c % (2 * LANES) == 0 { 2 * LANES } else { LANES };
        floats += out_c.div_ceil(strip) * strip * (in_c * k + 3);
        offsets += in_c * k;
        (widest_in, widest_out) = (widest_in.max(in_c), widest_out.max(out_c));
    }
    // The staged input of the widest convolution, then `cur`, `mid`,
    // `short` and `next` at the widest output.
    floats += widest_in * (len + kmax - 1 + SLACK) + 4 * len * widest_out;
    floats * 4
        + offsets * std::mem::size_of::<usize>()
        + convs.len() * std::mem::size_of::<ConvStep>()
}

/// Inference forward of a backbone — `stem conv → batch norm → ReLU`, then
/// `blocks` in order, then global average pooling — on windows
/// `[B, C, N]`, returning the pooled features `[B, F]`. Bit-identical to
/// running the same layers through `Layer::forward(.., false)` (see the
/// [module documentation](self)).
///
/// A batch fans out across threads per window, like the layer chain's
/// convolution, unless the caller is already a parallel-region worker. The
/// sequential path draws every buffer from `ws`, so a warm workspace
/// serves a pass without allocating.
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
    let plan = &ws.plan;
    let x = input.data();
    let item_len = in_c * len;
    let threads =
        parallel::thread_count_for(batch, batch * plan.flops_per_item(), CONV_PAR_MIN_FLOPS);
    if threads <= 1 {
        let scratch = &mut ws.item;
        for (b, row) in pooled.data_mut().chunks_exact_mut(channels).enumerate() {
            plan.run_item(blocks, &x[b * item_len..(b + 1) * item_len], row, scratch);
        }
    } else {
        parallel::for_each_item_mut(pooled.data_mut(), channels, threads, |b, row| {
            ITEM_SCRATCH.with_borrow_mut(|scratch| {
                plan.run_item(blocks, &x[b * item_len..(b + 1) * item_len], row, scratch);
            });
        });
    }
    pooled
}
