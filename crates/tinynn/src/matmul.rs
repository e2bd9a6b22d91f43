//! Cache-blocked and register-tiled `f32` matrix multiplication kernels,
//! and the quantised convolution's scalar fallback.
//!
//! The `f32` kernels serve the layer chain's fully connected layer:
//!
//! * [`matmul`]      — `C[m,n] += A[m,k] · B[k,n]` (row-major everywhere;
//!   `Linear`'s input gradient);
//! * [`matmul_at_b`] — `C[m,n] += A[r,m]ᵀ · B[r,n]` (sum of row outer
//!   products — `Linear`'s weight gradient).
//!
//! `matmul_at_b` is register-tiled, yet every element gets exactly the
//! operations of the plain scalar loop it replaced, in the same order: each
//! product is rounded before its add (no fused multiply-add), rows add
//! straight into `C` in turn and zero `A` entries are skipped. Only
//! independent elements run side by side, so trained weights do not depend
//! on the tiling. The convolution's gradients run no GEMM: `Conv1d`'s
//! backward computes them straight from its staged input.
//!
//! `Linear`'s forward uses the packed register-tiled kernel instead
//! ([`pack_rhs_t`] → [`matmul_packed_rhs`]): it packs the weight operand
//! once per layer call into [`NR`]-column panels and accumulates every
//! `MR × NR` output tile in registers with explicitly contracted FMA,
//! storing to `C` once. The forward convolutions run no GEMM either: they
//! convolve directly in [`crate::fused`].
//!
//! The quantised convolution has one kernel, `qsimd::conv_requant`, whose
//! scalar fallback [`conv_q8_requant`] lives here: both map exact integer
//! dots of `i8`-range weight codes and `i16` activation windows, on the
//! channel-pair-major layout of [`crate::quant::QuantActs`], straight onto
//! the next layer's `i16` grid. The quantised layers' calibration forward
//! reuses its exact dot.

use crate::quant::Requantizer;

/// Column-panel width: `NB` output columns are updated per pass so the `C`
/// row segment and the `B` panel rows stay cache-resident.
const NB: usize = 512;

/// Depth-panel height for the same reason on the `k` dimension.
const KB: usize = 256;

fn check_dims(c: &[f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A must be m*k = {}x{}", m, k);
    assert_eq!(b.len(), k * n, "B must be k*n = {}x{}", k, n);
    assert_eq!(c.len(), m * n, "C must be m*n = {}x{}", m, n);
}

/// `C += A · B` with `A: [m,k]`, `B: [k,n]`, `C: [m,n]`, all row-major.
///
/// Accumulates into `C` (zero it first for a plain product). The `i-k-j`
/// loop order turns the innermost loop into `c_row += a_ik * b_row`, a fused
/// multiply-add over two contiguous slices.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(c, a, b, m, k, n);
    for jb in (0..n).step_by(NB) {
        let jw = NB.min(n - jb);
        for kb in (0..k).step_by(KB) {
            let kw = KB.min(k - kb);
            for i in 0..m {
                let a_row = &a[i * k + kb..i * k + kb + kw];
                let c_row = &mut c[i * n + jb..i * n + jb + jw];
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + jw];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += aik * bv;
                    }
                }
            }
        }
    }
}

/// `C += Aᵀ · B` with `A: [r,m]`, `B: [r,n]`, `C: [m,n]`, all row-major.
///
/// A sum of per-row outer products: `C[i,j]` gains `A[row,i] · B[row,j]`
/// for `row = 0, 1, …` in turn, each product rounded and then added
/// straight into `C`, and rows whose `A[row,i]` is zero are skipped. This
/// is the gradient shape of `Linear`'s weights, `dW = dYᵀ · X`.
///
/// Register-tiled: each tile of up to 4 rows × 16 columns of `C` is loaded
/// into registers once, accumulates every `row` in order and is stored
/// once, so every element gets exactly the operations of the plain
/// row-by-row loop, in the same order. When `A` holds no zero (a weight
/// matrix, typically) the skip can never fire, so the tiles run without
/// its branches.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul_at_b(c: &mut [f32], a: &[f32], b: &[f32], r: usize, m: usize, n: usize) {
    assert_eq!(a.len(), r * m, "A must be r*m = {}x{}", r, m);
    assert_eq!(b.len(), r * n, "B must be r*n = {}x{}", r, n);
    assert_eq!(c.len(), m * n, "C must be m*n = {}x{}", m, n);
    if a.contains(&0.0) {
        at_b_columns::<true>(c, a, b, r, m, n);
    } else {
        at_b_columns::<false>(c, a, b, r, m, n);
    }
}

/// [`matmul_at_b`] in column strips of 16, then 8, then 1; `SKIP` keeps
/// the zero test on `A`.
fn at_b_columns<const SKIP: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    r: usize,
    m: usize,
    n: usize,
) {
    let mut j0 = 0;
    while j0 + 16 <= n {
        at_b_strip::<16, SKIP>(c, a, b, r, m, n, j0);
        j0 += 16;
    }
    if j0 + 8 <= n {
        at_b_strip::<8, SKIP>(c, a, b, r, m, n, j0);
        j0 += 8;
    }
    while j0 < n {
        at_b_strip::<1, SKIP>(c, a, b, r, m, n, j0);
        j0 += 1;
    }
}

/// The column strip `j0 .. j0 + W` of [`matmul_at_b`], four rows of `C` at
/// a time, then one.
fn at_b_strip<const W: usize, const SKIP: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    r: usize,
    m: usize,
    n: usize,
    j0: usize,
) {
    let mut i0 = 0;
    while i0 + 4 <= m {
        at_b_tile::<4, W, SKIP>(c, a, b, r, m, n, i0, j0);
        i0 += 4;
    }
    while i0 < m {
        at_b_tile::<1, W, SKIP>(c, a, b, r, m, n, i0, j0);
        i0 += 1;
    }
}

/// One `R × W` register tile of [`matmul_at_b`] at `C[i0.., j0..]`.
#[allow(clippy::too_many_arguments)] // GEMM tile: operands + geometry
#[inline]
fn at_b_tile<const R: usize, const W: usize, const SKIP: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    r: usize,
    m: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc: [[f32; W]; R] = std::array::from_fn(|i| {
        c[(i0 + i) * n + j0..(i0 + i) * n + j0 + W].try_into().expect("W columns")
    });
    for row in 0..r {
        let brow: &[f32; W] = b[row * n + j0..row * n + j0 + W].try_into().expect("W columns");
        for (acc_i, &av) in acc.iter_mut().zip(&a[row * m + i0..row * m + i0 + R]) {
            if SKIP && av == 0.0 {
                continue;
            }
            for (cv, &bv) in acc_i.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    for (i, acc_i) in acc.iter().enumerate() {
        c[(i0 + i) * n + j0..(i0 + i) * n + j0 + W].copy_from_slice(acc_i);
    }
}

// ---------------------------------------------------------------------------
// Packed register-tiled kernel
// ---------------------------------------------------------------------------

/// Rows of one register micro-tile: `MR` output rows are accumulated
/// simultaneously, each broadcasting one activation.
pub const MR: usize = 4;

/// Columns of one register micro-tile: `NR` output columns (two 8-lane
/// `f32` vectors on AVX2) held in registers for the whole depth sweep.
pub const NR: usize = 16;

/// Fused multiply-add of the `f32` register tiles (here and in
/// [`crate::fused`]). On targets with hardware FMA (the repo's x86-64-v3
/// baseline) this contracts to one `vfmadd` instruction — without the
/// explicit `mul_add`, Rust never contracts floating-point expressions. On
/// targets without FMA it falls back to `mul + add` (a libm `fma` call
/// would be orders of magnitude slower).
#[inline(always)]
pub(crate) fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Length of the pack produced by [`pack_rhs_t`] for an `[n, k]` transposed
/// right operand.
pub fn packed_rhs_len(n: usize, k: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs a right GEMM operand given in *transposed* row-major form
/// `bt: [n, k]` — the `[out, in]` weight layout of a fully connected layer
/// — into [`NR`]-column panels for [`matmul_packed_rhs`]: panel `p` holds
/// output columns `p·NR .. p·NR+NR` k-major (`NR` consecutive values per
/// depth step). The final panel is zero-padded, so padded accumulator
/// columns hold exact zeros and are simply never written back.
///
/// # Panics
///
/// Panics if `bt.len() != n * k`.
pub fn pack_rhs_t(pack: &mut Vec<f32>, bt: &[f32], n: usize, k: usize) {
    assert_eq!(bt.len(), n * k, "Bᵀ must be n*k = {}x{}", n, k);
    pack.resize(packed_rhs_len(n, k), 0.0);
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        let dst = &mut pack[p * NR * k..(p + 1) * NR * k];
        if cols < NR {
            // `resize` only zero-fills growth; a reused buffer may hold
            // stale values in the padded lanes of the tail panel.
            dst.fill(0.0);
        }
        for j in 0..cols {
            let src = &bt[(j0 + j) * k..(j0 + j + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                dst[kk * NR + j] = v;
            }
        }
    }
}

/// `C += A · B` with the right operand pre-packed by [`pack_rhs_t`]:
/// `A: [m, k]` row-major (the activations), `pack: [k, ⌈n/NR⌉·NR]`
/// panel-major, `C: [m, n]` row-major — the fully connected shape
/// (`y = x Wᵀ` with `W` packed once and reused across batches).
///
/// Each `MR × NR` output tile accumulates in registers: per depth step the
/// packed panel provides one contiguous `NR`-wide load and the `A` rows
/// `MR` scalar broadcasts. Row tails fall back to a runtime-bounded lane
/// loop; column tails are handled by the zero-padded pack (the padded
/// accumulator columns stay zero and are not written back).
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul_packed_rhs(c: &mut [f32], a: &[f32], pack: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A must be m*k = {}x{}", m, k);
    assert_eq!(pack.len(), packed_rhs_len(n, k), "pack must cover {}x{} in NR panels", n, k);
    assert_eq!(c.len(), m * n, "C must be m*n = {}x{}", m, n);
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let jb = p * NR;
        let nr = NR.min(n - jb);
        let panel = &pack[p * NR * k..(p + 1) * NR * k];
        for ib in (0..m).step_by(MR) {
            let rows = MR.min(m - ib);
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let brow: &[f32; NR] = panel[kk * NR..kk * NR + NR].try_into().expect("NR columns");
                for (i, acc_i) in acc.iter_mut().enumerate().take(rows) {
                    let av = a[(ib + i) * k + kk];
                    for (av_j, &bv) in acc_i.iter_mut().zip(brow.iter()) {
                        *av_j = fmadd(av, bv, *av_j);
                    }
                }
            }
            for (i, acc_i) in acc.iter().enumerate().take(rows) {
                let crow = &mut c[(ib + i) * n + jb..(ib + i) * n + jb + nr];
                for (cv, &av) in crow.iter_mut().zip(acc_i.iter()) {
                    *cv += av;
                }
            }
        }
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
/// of the runtime-length loop, and ~2× the f32 FMA GEMM at the network's
/// fan-ins — the reason the quantised path beats the `f32` kernels).
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

/// Reference (naive, exact `i64`) integer product `A[m,k] · B[n,k]ᵀ` of the
/// quantised operands, kept for parity tests of the optimised kernels.
pub fn matmul_q8_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
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

/// Reference (naive triple-loop) product `C = A · B`, kept for parity tests.
pub fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn matmul_matches_reference_across_shapes() {
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 4, 5), (7, 13, 11), (16, 64, 128), (2, 300, 600)]
        {
            let a = init::uniform(&[m, k], -1.0, 1.0, 1).data().to_vec();
            let b = init::uniform(&[k, n], -1.0, 1.0, 2).data().to_vec();
            let expect = matmul_reference(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            matmul(&mut c, &a, &b, m, k, n);
            assert!(max_abs_diff(&c, &expect) < 1e-4, "matmul {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_at_b_matches_reference() {
        let (r, m, n) = (6usize, 4usize, 8usize);
        let at = init::uniform(&[r, m], -1.0, 1.0, 5).data().to_vec();
        let b = init::uniform(&[r, n], -1.0, 1.0, 6).data().to_vec();
        // Build A = (Aᵀ)ᵀ row-major [m, r] for the reference.
        let mut a = vec![0.0f32; m * r];
        for row in 0..r {
            for i in 0..m {
                a[i * r + row] = at[row * m + i];
            }
        }
        let expect = matmul_reference(&a, &b, m, r, n);
        let mut c = vec![0.0f32; m * n];
        matmul_at_b(&mut c, &at, &b, r, m, n);
        assert!(max_abs_diff(&c, &expect) < 1e-4);
    }

    #[test]
    fn accumulates_instead_of_overwriting() {
        let a = vec![1.0f32, 0.0, 0.0, 1.0];
        let b = vec![2.0f32, 3.0, 4.0, 5.0];
        let mut c = vec![10.0f32; 4];
        matmul(&mut c, &a, &b, 2, 2, 2);
        assert_eq!(c, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0f32; 4];
        matmul(&mut c, &[1.0; 3], &[1.0; 4], 2, 2, 2);
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
