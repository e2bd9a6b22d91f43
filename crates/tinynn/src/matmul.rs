//! The `f32` fused multiply-add helper and the quantised convolution's
//! scalar fallback.
//!
//! The `f32` forward paths, the direct convolution tile of
//! [`crate::fused`] and `Linear`'s dot products, share one multiply-add
//! helper, `fmadd`.
//!
//! The quantised convolution has one kernel, `qsimd::conv_requant`, whose
//! scalar fallback [`conv_q8_requant`] lives here: both map exact integer
//! dots of `i8`-range weight codes and `i16` activation windows, on the
//! channel-pair-major layout of [`crate::quant::QuantActs`], straight onto
//! the next layer's `i16` grid. The quantised layers' calibration forward
//! reuses its exact dot.

use crate::quant::Requantizer;

/// Fused multiply-add of the `f32` forward paths. On targets with hardware
/// FMA (the repo's x86-64-v3 baseline) this contracts to one `vfmadd`
/// instruction — without the explicit `mul_add`, Rust never contracts
/// floating-point expressions. On targets without FMA it falls back to
/// `mul + add` (a libm `fma` call would be orders of magnitude slower).
#[inline(always)]
pub(crate) fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

// ---------------------------------------------------------------------------
// Quantised kernels (i8-range weight codes × i16 activations, i32 panels)
// ---------------------------------------------------------------------------

/// Depth-panel height of the quantised kernels, chosen so an `i32`
/// accumulator can never overflow: every product of an i8-range code with an
/// i16 code is bounded by `127 · 32767 < 2²²`, and `QK` of them sum to below
/// `2³⁰`.
pub const QK: usize = 256;

/// Exact integer dot product of two `K`-element rows (compile-time length).
///
/// Both operands are `i16` so the reduction is the x86 `vpmaddwd` idiom
/// (pairwise i16 multiply-add); the constant trip count lets LLVM fully
/// unroll and vectorise it with no scalar epilogue (~1.5–2× the throughput
/// of the runtime-length loop).
/// Overflow-free for `K ≤ QK` when one operand holds i8-range codes
/// (|v| ≤ 127, the widened weight blocks of
/// [`crate::quant::QuantizedGemm::data16`]).
#[inline]
fn q_dot_const<const K: usize>(a: &[i16], b: &[i16]) -> i32 {
    let a = &a[..K];
    let b = &b[..K];
    let mut acc = 0i32;
    for t in 0..K {
        acc += a[t] as i32 * b[t] as i32;
    }
    acc
}

/// Runtime-length fallback of [`q_dot_const`] (still the `pmaddwd` idiom,
/// with a scalar epilogue). Overflow-free for `a.len() ≤ QK`.
#[inline]
fn q_dot_any(a: &[i16], b: &[i16]) -> i32 {
    let mut acc = 0i32;
    for (&av, &bv) in a.iter().zip(b.iter()) {
        acc += av as i32 * bv as i32;
    }
    acc
}

/// Exact dot at any depth: `i32` accumulation inside [`QK`]-element panels
/// (constant-length, overflow-free), summed in `i64` across panels. The
/// deep (`k > QK`) path of the requantising kernel, and the one dot of the
/// quantised layers' calibration forward.
#[inline]
pub(crate) fn q_dot_deep(a: &[i16], b: &[i16]) -> i64 {
    let mut total = 0i64;
    let mut ita = a.chunks_exact(QK);
    let mut itb = b.chunks_exact(QK);
    for (a_chunk, b_chunk) in (&mut ita).zip(&mut itb) {
        total += q_dot_const::<QK>(a_chunk, b_chunk) as i64;
    }
    total + q_dot_any(ita.remainder(), itb.remainder()) as i64
}

/// Expands a `match` over the per-plane window length `2·k` that routes
/// the common kernel sizes (`k` across the paper, scaled and test
/// configurations) to their monomorphised constant-length bodies, leaving
/// every other length on the runtime-length path.
macro_rules! span_dispatch {
    ($span:expr, $const_body:ident, $any_body:ident, ($($args:expr),*)) => {
        match $span {
            2 => $const_body::<2>($($args),*),
            4 => $const_body::<4>($($args),*),
            6 => $const_body::<6>($($args),*),
            8 => $const_body::<8>($($args),*),
            10 => $const_body::<10>($($args),*),
            14 => $const_body::<14>($($args),*),
            16 => $const_body::<16>($($args),*),
            18 => $const_body::<18>($($args),*),
            32 => $const_body::<32>($($args),*),
            64 => $const_body::<64>($($args),*),
            128 => $const_body::<128>($($args),*),
            256 => $const_body::<256>($($args),*),
            _ => $any_body($($args),*),
        }
    };
}

/// Weight codes one output channel of [`conv_q8_requant`] gathers on the
/// stack; longer rows gather into a heap buffer.
const GATHER: usize = 4096;

/// The scalar fused convolution layer of the fixed-point chain, on the
/// channel-pair-major layout of [`crate::quant::QuantActs`] (planes of
/// `rows × 2` codes; a 1-channel input stores tap pairs, whose first slots
/// are the signal): for every output channel `o` and position `j < len`,
/// `out[o, j] = clamp(requant_o(dot_o(j) + bias[o]), lo, hi)` with
/// `dot_o(j)` the exact dot of weight row `o` (`w`, sample-major
/// `[m, k, C]`, rows of [`qsimd::ConvShape::weight_stride`] codes) with
/// input rows `in_first + j ..` of every channel. The dot is summed in
/// `i64` and saturated into `i32` before the requantiser, so any depth is
/// exact. `lo = 0` fuses the following ReLU.
///
/// This is the fallback of [`qsimd::conv_requant`] and computes the **same
/// codes bit for bit**: integer sums are exact in any order and the vector
/// epilogue transcribes [`Requantizer::apply`] exactly (the property tests
/// pin this). It writes the body positions only. A 1-channel output is
/// written as tap pairs.
///
/// Each output channel first gathers its weights plane by plane (channels
/// `2p, 2p + 1` at every tap, zero for a channel past `C`), so every plane
/// contributes one contiguous dot of `2·k` codes against the plane's rows
/// `in_first + j ..` — the `pmaddwd` idiom LLVM vectorises.
///
/// # Panics
///
/// Panics if a slice length disagrees with the shape.
#[allow(clippy::too_many_arguments)] // layer shape: operands + requantisation
pub fn conv_q8_requant(
    out: &mut [i16],
    x: &[i16],
    w: &[i16],
    g: &qsimd::ConvShape,
    bias: &[i32],
    mults: &[Requantizer],
    lo: i16,
    hi: i16,
) {
    let (c_in, m, k, n) = (g.in_channels, g.out_channels, g.kernel, g.len);
    assert_eq!(w.len(), m * g.weight_stride(), "A must be {m} rows of {} codes", g.weight_stride());
    assert_eq!(bias.len(), m, "A needs one bias per row ({m})");
    assert_eq!(mults.len(), m, "A needs one requantiser per row ({m})");
    assert_eq!(x.len(), g.in_planes() * g.in_rows * 2, "input must be planes x rows x 2");
    assert_eq!(out.len(), g.out_planes() * g.out_rows * 2, "output must be planes x rows x 2");
    assert!(k > 0, "a convolution needs at least one tap");
    if n == 0 || m == 0 {
        return;
    }
    assert!(g.in_first + n - 1 + k <= g.in_rows, "input rows must cover {n} windows of {k} taps");
    assert!(g.out_first + n <= g.out_rows, "output rows must cover {n} positions");
    let span = 2 * k;
    let need = g.in_planes() * span;
    let mut stack = [0i16; GATHER];
    let mut heap = Vec::new();
    let gathered = if need <= GATHER {
        &mut stack[..need]
    } else {
        heap.resize(need, 0);
        &mut heap[..]
    };
    for o in 0..m {
        let row = &w[o * g.weight_stride()..][..c_in * k];
        for (p, plane) in gathered.chunks_exact_mut(span).enumerate() {
            for (t, pair) in plane.chunks_exact_mut(2).enumerate() {
                for (s, v) in pair.iter_mut().enumerate() {
                    let c = 2 * p + s;
                    *v = if c < c_in { row[t * c_in + c] } else { 0 };
                }
            }
        }
        let channel = Channel { bias: bias[o] as i64, mult: mults[o], lo, hi };
        span_dispatch!(
            span,
            conv_channel_const,
            conv_channel_any,
            (out, x, gathered, g, o, channel)
        );
    }
}

/// The requantisation of one output channel.
#[derive(Clone, Copy)]
struct Channel {
    bias: i64,
    mult: Requantizer,
    lo: i16,
    hi: i16,
}

impl Channel {
    /// Stores the code of accumulated `dot` at position `j` of channel `o`
    /// (both slots of a tap pair for a 1-channel output).
    #[inline]
    fn store(self, out: &mut [i16], g: &qsimd::ConvShape, o: usize, j: usize, dot: i64) {
        let acc = (dot + self.bias).clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        let code = self.mult.requantize_i16(acc, self.lo, self.hi);
        let at = ((o / 2) * g.out_rows + g.out_first + j) * 2 + o % 2;
        out[at] = code;
        if g.out_channels == 1 && at > 0 {
            out[at - 1] = code;
        }
    }
}

/// One output channel of [`conv_q8_requant`] whose plane windows are `S`
/// codes (`S ≤ QK`, so each plane dot fits an `i32`).
fn conv_channel_const<const S: usize>(
    out: &mut [i16],
    x: &[i16],
    gathered: &[i16],
    g: &qsimd::ConvShape,
    o: usize,
    channel: Channel,
) {
    for j in 0..g.len {
        let mut dot = 0i64;
        for (p, wp) in gathered.chunks_exact(S).enumerate() {
            let at = (p * g.in_rows + g.in_first + j) * 2;
            dot += q_dot_const::<S>(wp, &x[at..at + S]) as i64;
        }
        channel.store(out, g, o, j, dot);
    }
}

/// [`conv_channel_const`] for window lengths without a specialisation.
fn conv_channel_any(
    out: &mut [i16],
    x: &[i16],
    gathered: &[i16],
    g: &qsimd::ConvShape,
    o: usize,
    channel: Channel,
) {
    let span = 2 * g.kernel;
    for j in 0..g.len {
        let mut dot = 0i64;
        for (p, wp) in gathered.chunks_exact(span).enumerate() {
            let at = (p * g.in_rows + g.in_first + j) * 2;
            dot += q_dot_deep(wp, &x[at..at + span]);
        }
        channel.store(out, g, o, j, dot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference (naive, exact `i64`) integer product `A[m,k] · B[n,k]ᵀ` of
    /// the quantised operands (the integration tests share a copy in
    /// `tests/common`).
    fn matmul_q8_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut c = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    acc += a[i * k + kk] as i64 * b[j * k + kk] as i64;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Deterministic pseudo-random quantised operands for kernel tests:
    /// `a` holds i8-range codes (the weight side), `b` full i16 codes.
    fn q_operands(m: usize, k: usize, n: usize, seed: u64) -> (Vec<i16>, Vec<i16>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let a: Vec<i16> = (0..m * k).map(|_| ((next() % 255) as i64 - 127) as i16).collect();
        let b: Vec<i16> = (0..n * k).map(|_| ((next() % 65535) as i64 - 32767) as i16).collect();
        (a, b)
    }

    #[test]
    fn matmul_q8_matches_exact_integer_reference() {
        // The exact dot behind the calibration forward, at shallow and deep
        // (k > QK) depths, against the i64 reference product.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (8, 72, 130), (5, 300, 520)] {
            let (a, b) = q_operands(m, k, n, 7 + (m * k * n) as u64);
            let exact = matmul_q8_reference(&a, &b, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let dot = q_dot_deep(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(dot, exact[i * n + j], "{m}x{k}x{n} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn matmul_q8_deep_k_does_not_overflow() {
        // Worst-case magnitudes at a depth well past one i32 panel: the
        // panel-accumulation scheme must stay exact.
        let k = 3 * QK + 17;
        let a = vec![127i16; k];
        let b = vec![32767i16; k];
        let exact = matmul_q8_reference(&a, &b, 1, k, 1)[0];
        assert!(exact > i32::MAX as i64, "the sum must exceed any single i32 accumulator");
        assert_eq!(q_dot_deep(&a, &b), exact);
        let neg: Vec<i16> = b.iter().map(|&v| -v).collect();
        assert_eq!(q_dot_deep(&a, &neg), -exact);
    }

    #[test]
    #[should_panic(expected = "A needs one requantiser per row")]
    fn matmul_q8_scale_mismatch_panics() {
        let g = qsimd::ConvShape {
            in_channels: 2,
            out_channels: 2,
            kernel: 1,
            len: 2,
            in_rows: 2,
            in_first: 0,
            out_rows: 2,
            out_first: 0,
        };
        let mults = [Requantizer::from_ratio(1.0)];
        conv_q8_requant(&mut [0; 4], &[1; 4], &[1; 4], &g, &[0; 2], &mults, -1, 1);
    }

    #[test]
    fn matmul_q8_sliding_matches_packed_layout() {
        // A convolution reading its taps from the pair-major rows produces
        // the same codes as a 1×1 convolution over explicitly materialised
        // windows (channel t·C + c of row j is channel c at row j + t).
        for &(m, in_c, k, n) in
            &[(3usize, 2usize, 3usize, 17usize), (5, 1, 9, 30), (4, 16, 9, 12), (2, 3, 4, 9)]
        {
            let rows = n + k - 1;
            let (a, signal) = q_operands(m, in_c * k, rows * in_c / (in_c * k) + 1, 31);
            let signal = &signal[..rows * in_c];
            let mults: Vec<Requantizer> =
                (0..m).map(|i| Requantizer::from_ratio(1e-4 * (1.0 + i as f64))).collect();
            let run = |c: usize, k: usize, rows: usize, code: &dyn Fn(usize, usize) -> i16| {
                let g = qsimd::ConvShape {
                    in_channels: c,
                    out_channels: m,
                    kernel: k,
                    len: n,
                    in_rows: rows,
                    in_first: 0,
                    out_rows: n,
                    out_first: 0,
                };
                let mut x = vec![0i16; g.in_planes() * rows * 2];
                for ch in 0..c {
                    for r in 0..rows {
                        x[((ch / 2) * rows + r) * 2 + ch % 2] = code(ch, r);
                    }
                }
                let mut w = vec![0i16; m * g.weight_stride()];
                for (dst, src) in w.chunks_exact_mut(g.weight_stride()).zip(a.chunks_exact(c * k)) {
                    dst[..c * k].copy_from_slice(src);
                }
                let mut out = vec![0i16; g.out_planes() * n * 2];
                conv_q8_requant(&mut out, &x, &w, &g, &vec![0; m], &mults, -32767, 32767);
                out
            };
            let sliding = run(in_c, k, rows, &|c, r| signal[r * in_c + c]);
            let windows = run(in_c * k, 1, n, &|c, j| signal[(j + c / in_c) * in_c + c % in_c]);
            assert_eq!(sliding, windows, "m={m} C={in_c} k={k} n={n}");
        }
    }
}
