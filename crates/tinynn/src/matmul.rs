//! Cache-blocked and register-tiled `f32` matrix multiplication kernels.
//!
//! These are the GEMM primitives behind the im2col convolution and the
//! vectorised fully connected layer. Three layouts serve the layer chain's
//! training passes:
//!
//! * [`matmul`]             — `C[m,n] += A[m,k] · B[k,n]` (row-major
//!   everywhere; `Linear`'s input gradient);
//! * [`matmul_at_b`]        — `C[m,n] += A[r,m]ᵀ · B[r,n]` (sum of row outer
//!   products — `Linear`'s weight gradient and the conv column gradient);
//! * [`matmul_weight_grad`] — `C[m,n] += Σₚ Aᵀ[p,m] · B[n,p]` (one dot
//!   product over positions per element — the conv weight gradient, with
//!   the output gradient stored positions-major).
//!
//! The two gradient kernels are register-tiled, yet every element gets
//! exactly the operations of the plain scalar loop they replace, in the
//! same order: each product is rounded before its add (no fused
//! multiply-add), `matmul_at_b` adds row by row straight into `C` and
//! skips zero `A` entries, and `matmul_weight_grad` sums each element from
//! `0.0` over positions and adds the total once. Only independent elements
//! run side by side, so trained weights do not depend on the tiling, nor
//! on the thread count of the convolution backward that calls them.
//!
//! The layer forwards use the packed register-tiled family instead
//! ([`pack_lhs`] → [`matmul_packed_lhs`] for the im2col convolution shape,
//! [`pack_rhs_t`] → [`matmul_packed_rhs`] for the fully connected shape):
//! it packs the weight operand once per layer call into cache-friendly
//! [`MR`]/[`NR`] panels and accumulates every `MR × NR` output tile in
//! registers with explicitly contracted FMA, flushing to `C` once per
//! [`KC`] depth block instead of once per depth step — roughly double the
//! throughput of the auto-vectorised loops on the network's small-`m`
//! GEMMs. (Backbone inference convolves directly, without im2col, in
//! [`crate::fused`], reproducing [`matmul_packed_lhs`]'s per-block
//! accumulation order bit for bit.)
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
/// is the gradient shape: for `Linear`, `dW = dYᵀ · X`; for the conv input
/// gradient, `dcol = Wᵀ · dY`.
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

/// The weight-gradient product `C[i,j] += Σₚ Aᵀ[p,i] · B[j,p]` with
/// `Aᵀ: [p,m]` (an output gradient stored positions-major), `B: [n,p]` (the
/// channel-major im2col of the input) and `C: [m,n]` (the weight
/// gradient), all row-major.
///
/// Every element's sum starts from `0.0` and adds its `p` products in
/// position order, each product rounded before its add (no fused
/// multiply-add), and the finished sum is added to `C` once — the order of
/// a plain dot product per element. The kernel computes many such sums at
/// once: the lanes of a register tile are up to 16 consecutive rows of `C`
/// (output channels, contiguous in each row of `Aᵀ`), and each of the
/// tile's columns broadcasts one `B` value per position, so the serial add
/// chains of neighbouring elements overlap instead of waiting on each
/// other.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul_weight_grad(c: &mut [f32], at: &[f32], b: &[f32], p: usize, m: usize, n: usize) {
    assert_eq!(at.len(), p * m, "Aᵀ must be p*m = {}x{}", p, m);
    assert_eq!(b.len(), n * p, "B must be n*p = {}x{}", n, p);
    assert_eq!(c.len(), m * n, "C must be m*n = {}x{}", m, n);
    let mut i0 = 0;
    while i0 + 16 <= m {
        weight_grad_strip::<16, 4>(c, at, b, p, m, n, i0);
        i0 += 16;
    }
    if i0 + 8 <= m {
        weight_grad_strip::<8, 8>(c, at, b, p, m, n, i0);
        i0 += 8;
    }
    while i0 < m {
        weight_grad_strip::<1, 8>(c, at, b, p, m, n, i0);
        i0 += 1;
    }
}

/// The row strip `i0 .. i0 + W` of [`matmul_weight_grad`], `R` columns of
/// `C` at a time, then one.
fn weight_grad_strip<const W: usize, const R: usize>(
    c: &mut [f32],
    at: &[f32],
    b: &[f32],
    p: usize,
    m: usize,
    n: usize,
    i0: usize,
) {
    let mut j0 = 0;
    while j0 + R <= n {
        weight_grad_tile::<W, R>(c, at, b, p, m, n, i0, j0);
        j0 += R;
    }
    while j0 < n {
        weight_grad_tile::<W, 1>(c, at, b, p, m, n, i0, j0);
        j0 += 1;
    }
}

/// One tile of [`matmul_weight_grad`]: `W` rows of `C` in lanes by `R`
/// columns, `W · R` independent sums held in registers over all `p`
/// positions.
#[allow(clippy::too_many_arguments)] // GEMM tile: operands + geometry
#[inline]
fn weight_grad_tile<const W: usize, const R: usize>(
    c: &mut [f32],
    at: &[f32],
    b: &[f32],
    p: usize,
    m: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let brows: [&[f32]; R] = std::array::from_fn(|jj| &b[(j0 + jj) * p..(j0 + jj + 1) * p]);
    let mut acc = [[0.0f32; W]; R];
    for (pos, at_row) in at.chunks_exact(m).enumerate() {
        let lanes: &[f32; W] = at_row[i0..i0 + W].try_into().expect("W lanes");
        for (acc_j, brow) in acc.iter_mut().zip(&brows) {
            let bv = brow[pos];
            for (s, &av) in acc_j.iter_mut().zip(lanes) {
                *s += av * bv;
            }
        }
    }
    for (jj, acc_j) in acc.iter().enumerate() {
        for (i, &s) in acc_j.iter().enumerate() {
            c[(i0 + i) * n + j0 + jj] += s;
        }
    }
}

// ---------------------------------------------------------------------------
// Packed register-tiled kernels
// ---------------------------------------------------------------------------

/// Rows of one register micro-tile: `MR` output rows are accumulated
/// simultaneously, each broadcast from one packed weight lane.
pub const MR: usize = 4;

/// Columns of one register micro-tile: `NR` output columns (two 8-lane
/// `f32` vectors on AVX2) held in registers for the whole depth sweep.
pub const NR: usize = 16;

/// Depth block of the tiled kernels: the `B` column panel streamed by one
/// micro-tile pass is at most `KC × NR` floats (16 KiB), so it stays
/// L1-resident even for the paper configuration's `in_c · kernel = 2048`
/// fan-in.
pub const KC: usize = 256;

/// Fused multiply-add of the micro-kernels. On targets with hardware FMA
/// (the repo's x86-64-v3 baseline) this contracts to one `vfmadd`
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

/// Length of the pack produced by [`pack_lhs`] for an `[m, k]` left operand.
pub fn packed_lhs_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Packs the left GEMM operand (the weight matrix of a convolution) into
/// [`MR`]-row strips for [`matmul_packed_lhs`]: strip `s` holds rows
/// `s·MR .. s·MR+MR` k-major (`MR` consecutive values per depth step), so
/// the micro-kernel reads its `MR` broadcast lanes from one contiguous,
/// forward-moving stream. The final strip is zero-padded to `MR` rows,
/// which keeps the kernel branch-free on the row dimension (padded lanes
/// accumulate into registers that are simply never written back).
///
/// `pack` is a reusable buffer (cleared and resized here); packing an
/// `[m, k]` weight block costs one pass over it and is reused across every
/// window of a batch, so its cost is amortised to noise.
///
/// # Panics
///
/// Panics if `a.len() != m * k`.
pub fn pack_lhs(pack: &mut Vec<f32>, a: &[f32], m: usize, k: usize) {
    assert_eq!(a.len(), m * k, "A must be m*k = {}x{}", m, k);
    pack.resize(packed_lhs_len(m, k), 0.0);
    let strips = m.div_ceil(MR);
    for s in 0..strips {
        let i0 = s * MR;
        let rows = MR.min(m - i0);
        let dst = &mut pack[s * MR * k..(s + 1) * MR * k];
        if rows < MR {
            // `resize` only zero-fills growth; a reused buffer may hold
            // stale values in the padded lanes of the tail strip.
            dst.fill(0.0);
        }
        for i in 0..rows {
            let src = &a[(i0 + i) * k..(i0 + i + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                dst[kk * MR + i] = v;
            }
        }
    }
}

/// One full-width register tile: `C[i0.., jb..jb+NR] += strip · B` over
/// depth `[k0, k1)`. The `MR × NR` accumulator array lives entirely in
/// vector registers (8 × 256-bit on AVX2); `B` is touched with exactly one
/// aligned-friendly `NR`-wide load per depth step and `C` only once, after
/// the whole depth sweep — the memory traffic the plain `i-k-j` kernel pays
/// per depth step.
#[allow(clippy::too_many_arguments)] // GEMM tile: operands + geometry
#[inline]
fn tile_f32(
    c: &mut [f32],
    n: usize,
    i0: usize,
    jb: usize,
    rows: usize,
    pstrip: &[f32],
    b: &[f32],
    k0: usize,
    k1: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in k0..k1 {
        let lanes: &[f32; MR] = pstrip[kk * MR..kk * MR + MR].try_into().expect("MR lanes");
        let brow: &[f32; NR] = b[kk * n + jb..kk * n + jb + NR].try_into().expect("NR columns");
        for (acc_i, &av) in acc.iter_mut().zip(lanes.iter()) {
            for (av_j, &bv) in acc_i.iter_mut().zip(brow.iter()) {
                *av_j = fmadd(av, bv, *av_j);
            }
        }
    }
    for (i, acc_i) in acc.iter().enumerate().take(rows) {
        let crow = &mut c[(i0 + i) * n + jb..(i0 + i) * n + jb + NR];
        for (cv, &av) in crow.iter_mut().zip(acc_i.iter()) {
            *cv += av;
        }
    }
}

/// The masked column tail of [`tile_f32`]: identical accumulation order for
/// the `nr < NR` trailing columns, with the loop bound carried at runtime.
#[allow(clippy::too_many_arguments)] // GEMM tile: operands + geometry
#[inline]
fn tile_f32_tail(
    c: &mut [f32],
    n: usize,
    i0: usize,
    jb: usize,
    rows: usize,
    nr: usize,
    pstrip: &[f32],
    b: &[f32],
    k0: usize,
    k1: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in k0..k1 {
        let lanes = &pstrip[kk * MR..kk * MR + MR];
        let brow = &b[kk * n + jb..kk * n + jb + nr];
        for (acc_i, &av) in acc.iter_mut().zip(lanes.iter()) {
            for (av_j, &bv) in acc_i.iter_mut().zip(brow.iter()) {
                *av_j = fmadd(av, bv, *av_j);
            }
        }
    }
    for (i, acc_i) in acc.iter().enumerate().take(rows) {
        let crow = &mut c[(i0 + i) * n + jb..(i0 + i) * n + jb + nr];
        for (cv, &av) in crow.iter_mut().zip(acc_i.iter()) {
            *cv += av;
        }
    }
}

/// `C += A · B` with the left operand pre-packed by [`pack_lhs`]:
/// `pack: [⌈m/MR⌉·MR, k]` strip-major, `B: [k, n]` row-major,
/// `C: [m, n]` row-major.
///
/// This is the inference convolution kernel: the weight pack is built once
/// per layer call and reused across every batch item, and each `MR × NR`
/// output tile is accumulated entirely in registers with explicit FMA
/// (see `tile_f32`) instead of the load/FMA/store-per-depth-step pattern
/// of [`matmul`]. The depth dimension is blocked by [`KC`] so the streamed
/// `B` column panel stays L1-resident at any fan-in; accumulation order
/// over `k` is unchanged by the blocking, and every element of `C` is
/// produced by exactly one tile, so results do not depend on the blocking
/// constants' relation to the problem shape beyond float contraction.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul_packed_lhs(c: &mut [f32], pack: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(pack.len(), packed_lhs_len(m, k), "pack must cover {}x{} in MR strips", m, k);
    assert_eq!(b.len(), k * n, "B must be k*n = {}x{}", k, n);
    assert_eq!(c.len(), m * n, "C must be m*n = {}x{}", m, n);
    let strips = m.div_ceil(MR);
    for kb in (0..k).step_by(KC) {
        let k1 = (kb + KC).min(k);
        for jb in (0..n).step_by(NR) {
            let nr = NR.min(n - jb);
            for s in 0..strips {
                let i0 = s * MR;
                let rows = MR.min(m - i0);
                let pstrip = &pack[s * MR * k..(s + 1) * MR * k];
                if nr == NR {
                    tile_f32(c, n, i0, jb, rows, pstrip, b, kb, k1);
                } else {
                    tile_f32_tail(c, n, i0, jb, rows, nr, pstrip, b, kb, k1);
                }
            }
        }
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
    fn matmul_weight_grad_matches_reference() {
        let (m, p, n) = (5usize, 17usize, 9usize);
        let a = init::uniform(&[m, p], -1.0, 1.0, 3).data().to_vec();
        let bt = init::uniform(&[n, p], -1.0, 1.0, 4).data().to_vec();
        // The kernel takes A positions-major; the reference takes
        // B = (Bᵀ)ᵀ row-major.
        let mut at = vec![0.0f32; p * m];
        for i in 0..m {
            for pos in 0..p {
                at[pos * m + i] = a[i * p + pos];
            }
        }
        let mut b = vec![0.0f32; p * n];
        for j in 0..n {
            for pos in 0..p {
                b[pos * n + j] = bt[j * p + pos];
            }
        }
        let expect = matmul_reference(&a, &b, m, p, n);
        let mut c = vec![0.0f32; m * n];
        matmul_weight_grad(&mut c, &at, &bt, p, m, n);
        assert!(max_abs_diff(&c, &expect) < 1e-4);
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

    // The packed kernels' tile-boundary shape sweeps (sub-tile remainders,
    // >KC depths, random odd shapes, the packed-rhs transpose equivalence) live in `tests/gemm_props.rs`; the tests here
    // only cover properties that sweep cannot express.

    #[test]
    fn packed_lhs_accumulates_and_handles_empty_depth() {
        let a = vec![1.0f32, 0.0, 0.0, 1.0];
        let b = vec![2.0f32, 3.0, 4.0, 5.0];
        let mut pack = Vec::new();
        pack_lhs(&mut pack, &a, 2, 2);
        let mut c = vec![10.0f32; 4];
        matmul_packed_lhs(&mut c, &pack, &b, 2, 2, 2);
        assert_eq!(c, vec![12.0, 13.0, 14.0, 15.0]);
        // k = 0: a valid no-op that must leave C untouched.
        pack_lhs(&mut pack, &[], 3, 0);
        let mut c0 = vec![7.0f32; 6];
        matmul_packed_lhs(&mut c0, &pack, &[], 3, 0, 2);
        assert_eq!(c0, vec![7.0; 6]);
    }

    #[test]
    fn packed_lhs_reused_buffer_clears_stale_padding() {
        // A wide pack followed by a narrower one with a padded tail strip
        // must not leak the first pack's values into the padding lanes.
        let mut pack = Vec::new();
        pack_lhs(&mut pack, &[9.0f32; 8 * 4], 8, 4);
        let a: Vec<f32> = (0..3 * 2).map(|x| x as f32).collect();
        pack_lhs(&mut pack, &a, 3, 2);
        let b = vec![1.0f32, 1.0, 1.0, 1.0]; // [2, 2] of ones
        let expect = matmul_reference(&a, &b, 3, 2, 2);
        let mut c = vec![0.0f32; 6];
        matmul_packed_lhs(&mut c, &pack, &b, 3, 2, 2);
        assert_eq!(c, expect);
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
