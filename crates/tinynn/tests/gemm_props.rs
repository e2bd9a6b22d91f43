//! Property tests of the register-tiled kernels and of `Linear`.
//!
//! The `f32` forward convolution has one kernel, the direct register tile
//! behind `Conv1d::forward` (and the fused inference chain). Its outputs
//! must equal, bit for bit, a scalar loop of the pinned accumulation order
//! written here: the bias, then each 256-deep block of the `c·k + t` depth
//! summed from zero with fused multiply-adds, added in turn. The sweep
//! covers the tile's hazards: output-channel strips that do not divide
//! `out_c`, position tiles that do not divide the length, the depth-block
//! edges, kernels longer than the window, and batches of many items.
//!
//! The quantised convolution and `Linear` are swept over randomly drawn
//! *odd* shapes plus an explicit edge list (`k = 0`, `n = 1`, single rows,
//! multiples of 4 rows and 16 columns, one-off remainders). The quantised
//! path is checked against the exact integer `matmul_q8_reference`
//! (bit-exact, with code magnitudes kept small enough that every dot fits
//! the `i16` output grid of a unit requantiser). `Linear` is checked bit for
//! bit against scalar loops of the orders its deleted GEMM kernels had:
//! each output the bias plus a dot summed from zero with fused
//! multiply-adds; the input gradient summed from zero over output features
//! and the weight gradient over batch rows, each product rounded before its
//! add and a zero output gradient skipped.
//!
//! `Conv1d::backward` must match plain scalar loops bit for bit too; those
//! loops live here as oracles.
//! The backward is pinned to the sequence it had when it lowered every item
//! to im2col: the oracle composes an im2col and a col2im written here with
//! the scalar loops of the two GEMMs it ran (the weight gradient summed per
//! element over positions, the column gradient row by row over output
//! channels, skipping zero weights), the per-item partials added onto the
//! gradients in item order.

mod common;

use common::matmul_q8_reference;
use tinynn::matmul::conv_q8_requant;
use tinynn::{Conv1d, Layer, Linear, Requantizer, Tensor, Workspace};

/// Small deterministic LCG (same recipe as the quantisation property tests).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn uniform(&mut self, amp: f32) -> f32 {
        (self.next_u64() as f32 / (1u64 << 31) as f32 - 1.0) * amp
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

/// Edge shapes `(m, k, n)` every kernel must survive (for `Linear`, batch
/// rows, input and output features): empty depth, single columns and rows,
/// multiples of 4 rows and 16 columns and one-off remainders on each side,
/// plus depths beyond one `QK = 256` quantised panel.
const EDGE_SHAPES: &[(usize, usize, usize)] = &[
    (1, 0, 1),
    (3, 0, 5),
    (1, 1, 1),
    (1, 7, 1),
    (4, 16, 16),
    (5, 16, 17),
    (3, 16, 15),
    (4, 17, 16),
    (8, 72, 128),
    (16, 144, 128),
    (9, 9, 1),
    (2, 256, 16),
    (2, 257, 16),
    (7, 300, 33),
    (1, 513, 31),
];

fn random_shape(rng: &mut Rng) -> (usize, usize, usize) {
    // Odd-leaning draws: every dimension is frequently a non-multiple of
    // its tile constant.
    (rng.usize_in(1, 21), rng.usize_in(0, 90), rng.usize_in(1, 70))
}

/// Draws quantised operands with code magnitudes small enough that every
/// dot (|a| ≤ 3, |b| ≤ 9, depth ≤ 600) stays below the `i16` grid limit, so
/// a unit requantiser reproduces the exact `i64` reference bit for bit.
fn small_q_operands(rng: &mut Rng, len_a: usize, len_b: usize) -> (Vec<i16>, Vec<i16>) {
    let a: Vec<i16> = (0..len_a).map(|_| (rng.next_u64() % 7) as i16 - 3).collect();
    let b: Vec<i16> = (0..len_b).map(|_| (rng.next_u64() % 19) as i16 - 9).collect();
    (a, b)
}

/// The requantising convolution with unit ratios, zero biases and the full
/// signed clamp over `n` positions of a `ch`-channel signal stored
/// sample-major (`signal[r·ch + c]`), with `a` the `[m, k, ch]` weights:
/// every output code is the plain integer dot. Returns the codes
/// position-major, `[n, m]`.
fn unit_conv(a: &[i16], signal: &[i16], m: usize, ch: usize, k: usize, n: usize) -> Vec<i16> {
    let rows = n + k - 1;
    let g = qsimd::ConvShape {
        in_channels: ch,
        out_channels: m,
        kernel: k,
        len: n,
        in_rows: rows,
        in_first: 0,
        out_rows: n,
        out_first: 0,
    };
    let mut x = vec![0i16; g.in_planes() * rows * 2];
    for (r, sample) in signal.chunks_exact(ch.max(1)).take(rows).enumerate() {
        for (c, &v) in sample.iter().enumerate() {
            x[((c / 2) * rows + r) * 2 + c % 2] = v;
        }
    }
    let mut w = vec![0i16; m * g.weight_stride()];
    // A zero-depth layer (`ch = 0`) has no weights to copy.
    for (dst, src) in
        w.chunks_exact_mut(g.weight_stride().max(1)).zip(a.chunks_exact((ch * k).max(1)))
    {
        dst[..ch * k].copy_from_slice(src);
    }
    let mults = vec![Requantizer::from_ratio(1.0); m];
    let mut out = vec![0i16; g.out_planes() * n * 2];
    conv_q8_requant(&mut out, &x, &w, &g, &vec![0; m], &mults, -32767, 32767);
    let mut c = vec![0i16; n * m];
    for j in 0..n {
        for i in 0..m {
            c[j * m + i] = out[((i / 2) * n + j) * 2 + i % 2];
        }
    }
    c
}

#[test]
fn q8_kernels_match_exact_reference_over_shape_sweep() {
    let mut rng = Rng::new(53);
    let shapes: Vec<_> =
        EDGE_SHAPES.iter().copied().chain((0..40).map(|_| random_shape(&mut rng))).collect();
    for (m, k, n) in shapes {
        let (a, b) = small_q_operands(&mut rng, m * k, n * k);
        let exact = matmul_q8_reference(&a, &b, m, k, n);
        // A 1×1 convolution over k channels; position-major output.
        let c = unit_conv(&a, &b, m, k, 1, n);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    c[j * m + i] as i64,
                    exact[i * n + j],
                    "conv_q8_requant {m}x{k}x{n} at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn q8_sliding_matches_packed_windows_over_stride_sweep() {
    let mut rng = Rng::new(59);
    for _ in 0..40 {
        let m = rng.usize_in(1, 17);
        let ch = rng.usize_in(1, 6);
        let k = rng.usize_in(1, 10);
        let n = rng.usize_in(1, 40);
        let (a, signal) = small_q_operands(&mut rng, m * ch * k, (n + k - 1) * ch);
        // Materialise every overlapping window: window j is the ch·k
        // codes from row j on, one row of a 1×1 convolution.
        let mut packed = Vec::with_capacity(n * ch * k);
        for j in 0..n {
            packed.extend_from_slice(&signal[j * ch..(j + k) * ch]);
        }
        assert_eq!(
            unit_conv(&a, &packed, m, ch * k, 1, n),
            unit_conv(&a, &signal, m, ch, k, n),
            "m={m} ch={ch} k={k} n={n}"
        );
    }
}

/// The convolution weight gradient as one scalar loop —
/// `C[i,j] += Σₚ A[i,p] · B[j,p]` with `A: [m,p]` (an item's output
/// gradient), `B: [n,p]` (its im2col) — each dot summed from zero and added
/// to `C` once.
fn weight_grad_oracle(c: &mut [f32], a: &[f32], b: &[f32], m: usize, p: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * p..(i + 1) * p];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * p..(j + 1) * p];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *cv += acc;
        }
    }
}

/// `C[m,n] += A[r,m]ᵀ · B[r,n]` as the plain sum of row outer products,
/// added straight into `C`, skipping zero `A` entries: the oracle of
/// `Linear`'s weight gradient and of the convolution's column gradient.
fn at_b_oracle(c: &mut [f32], a: &[f32], b: &[f32], r: usize, m: usize, n: usize) {
    for row in 0..r {
        let a_row = &a[row * m..(row + 1) * m];
        let b_row = &b[row * n..(row + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += av * bv;
            }
        }
    }
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} at {i}: {g} vs {w}");
    }
}

/// [`assert_same_bits`] that lets any NaN stand for any NaN (infinite
/// output gradients turn padded products into NaNs, whose payload IEEE 754
/// leaves open).
fn assert_same_bits_or_nan(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(same, "{what} at {i}: {g} vs {w}");
    }
}

/// The fused multiply-add of the `f32` tiles: one rounding where the
/// target has hardware FMA, a rounded product and then an add where not.
fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Oracle of `Linear::forward`, `[batch, out]`: each output is the bias
/// plus the dot of the input row with the weight row, summed from zero in
/// input order with fused multiply-adds.
fn linear_forward_oracle(lin: &Linear, x: &[f32], batch: usize) -> Vec<f32> {
    let (in_f, out_f) = (lin.in_features(), lin.out_features());
    let (w, bias) = (lin.weight().data(), lin.bias().data());
    let mut out = Vec::with_capacity(batch * out_f);
    for b in 0..batch {
        for o in 0..out_f {
            let mut acc = 0.0f32;
            for i in 0..in_f {
                acc = fmadd(x[b * in_f + i], w[o * in_f + i], acc);
            }
            out.push(bias[o] + acc);
        }
    }
    out
}

/// Oracle of one `Linear::backward` call on `[batch, in]` inputs: the bias
/// gradient gains the output-gradient rows in turn, the weight gradient
/// the row outer products `dY[b]ᵀ · X[b]` ([`at_b_oracle`]), and the input
/// gradient, from zero, `dY[b,o] · W[o]` over `o` in order; both products
/// skip a zero `dY[b,o]`. Returns the input gradient.
fn linear_backward_oracle(
    w: &[f32],
    (grad_w, grad_b): (&mut [f32], &mut [f32]),
    x: &[f32],
    dy: &[f32],
    (batch, in_f): (usize, usize),
) -> Vec<f32> {
    let out_f = grad_b.len();
    for row in dy.chunks_exact(out_f) {
        for (g, &d) in grad_b.iter_mut().zip(row) {
            *g += d;
        }
    }
    at_b_oracle(grad_w, dy, x, batch, out_f, in_f);
    let mut dx = vec![0.0f32; batch * in_f];
    for b in 0..batch {
        for o in 0..out_f {
            let d = dy[b * out_f + o];
            if d == 0.0 {
                continue;
            }
            for i in 0..in_f {
                dx[b * in_f + i] += d * w[o * in_f + i];
            }
        }
    }
    dx
}

#[test]
fn linear_matches_the_scalar_loops_bit_for_bit_over_shape_sweep() {
    // `(batch, in, out)` shapes. Each runs twice, with dense output
    // gradients and with exact zeros: every fifth entry, and in the last
    // step the whole first row, whose input row is infinite (only the zero
    // skip keeps the weight gradient finite). Each run takes an empty step
    // and then two of different batch sizes, accumulating onto non-zero
    // gradients.
    let mut rng = Rng::new(79);
    let shapes: Vec<_> =
        EDGE_SHAPES.iter().copied().chain((0..60).map(|_| random_shape(&mut rng))).collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut runs = 0;
    for &(batch, in_f, out_f) in &shapes {
        for zeros in [false, true] {
            let mut lin = Linear::new(in_f, out_f, runs as u64);
            let mut params = lin.params_mut();
            for b in params[1].value.data_mut() {
                *b = rng.uniform(1.0);
            }
            for g in params.iter_mut().flat_map(|p| p.grad.data_mut()) {
                *g = rng.uniform(0.5);
            }
            let w = lin.weight().data().to_vec();
            let mut grad_w = lin.params()[0].grad.data().to_vec();
            let mut grad_b = lin.params()[1].grad.data().to_vec();
            let mut ws = Workspace::new();
            for (step, rows) in [0, batch, batch + 1].into_iter().enumerate() {
                let mut x: Vec<f32> = (0..rows * in_f).map(|_| rng.uniform(2.0)).collect();
                let mut dy: Vec<f32> = (0..rows * out_f)
                    .map(|i| if zeros && i % 5 == 0 { 0.0 } else { rng.uniform(1.0) })
                    .collect();
                if zeros && step == 2 {
                    x[..in_f].fill(f32::INFINITY);
                    dy[..out_f].fill(0.0);
                }
                let what = format!("batch={rows} in={in_f} out={out_f} zeros={zeros} step={step}");
                let want = linear_forward_oracle(&lin, &x, rows);
                let x = Tensor::from_vec(x, &[rows, in_f]);
                let y = lin.forward(&x, &mut ws, true);
                assert_same_bits_or_nan(y.data(), &want, &format!("{what}: output"));
                let grads = (&mut grad_w[..], &mut grad_b[..]);
                let want = linear_backward_oracle(&w, grads, x.data(), &dy, (rows, in_f));
                let got = lin.backward(&Tensor::from_vec(dy, &[rows, out_f]), &mut ws);
                assert_same_bits(got.data(), &want, &format!("{what}: input gradient"));
                fold_bits(&mut hash, y.data());
                fold_bits(&mut hash, got.data());
            }
            assert!(grad_w.iter().all(|v| v.is_finite()), "the oracle skips the infinite row");
            let what = format!("batch={batch} in={in_f} out={out_f} zeros={zeros}");
            let grads = lin.params();
            assert_same_bits(grads[0].grad.data(), &grad_w, &format!("{what}: dW"));
            assert_same_bits(grads[1].grad.data(), &grad_b, &format!("{what}: db"));
            fold_bits(&mut hash, grads[0].grad.data());
            fold_bits(&mut hash, grads[1].grad.data());
            runs += 1;
        }
    }
    assert_eq!(runs, 2 * shapes.len());
    println!("linear sweep: {runs} runs, output bits FNV-1a {hash:016x}");
}

/// Oracle of `Conv1d::forward`, `[batch, out_c, len]`: every output is the
/// bias, then each 256-deep block of the depth summed from zero in
/// `c·k + t` order (zero outside the window, "same" padding), the block
/// sums added in turn.
fn conv_oracle(conv: &Conv1d, x: &Tensor) -> Vec<f32> {
    let (in_c, len) = (x.shape()[1], x.shape()[2]);
    let k = conv.kernel_size();
    let (depth, pad) = (in_c * k, (k - 1) / 2);
    let mut out = Vec::with_capacity(x.shape()[0] * conv.out_channels() * len);
    for item in x.data().chunks_exact(in_c * len) {
        for (w, &bias) in conv.weight().data().chunks_exact(depth).zip(conv.bias().data()) {
            for j in 0..len {
                let mut v = bias;
                for (d0, w_block) in (0..).step_by(256).zip(w.chunks(256)) {
                    let mut block = 0.0f32;
                    for (d, &wd) in (d0..).zip(w_block) {
                        let (c, t) = (d / k, d % k);
                        let at = (j + t).checked_sub(pad).filter(|&s| s < len);
                        block = fmadd(wd, at.map_or(0.0, |s| item[c * len + s]), block);
                    }
                    v += block;
                }
                out.push(v);
            }
        }
    }
    out
}

/// `(in_c, kernel)` of the convolution sweep: depths 255, 256, 257 and
/// 1,024 (either side of the 256-deep block edges, and four blocks), odd
/// and even kernels, and 257 taps, longer than every window.
const CONV_DEPTHS: &[(usize, usize)] =
    &[(85, 3), (15, 17), (32, 8), (16, 16), (257, 1), (1, 257), (16, 64), (128, 8)];

/// Output channels below, at and above the 8- and 16-wide strips.
const CONV_OUT: &[usize] = &[1, 7, 8, 9, 15, 16, 17, 32];

/// Window lengths: one sample, the remainders of the 6- and 8-position
/// tiles, and the served 230.
const CONV_LENGTHS: &[usize] = &[1, 5, 6, 7, 8, 9, 230];

#[test]
fn conv_forward_matches_the_pinned_order_over_shape_sweep() {
    // Every case runs at batch 1; each (depth, channels) pair also runs one
    // rotating length at a batch of about 2 MFLOP. One workspace serves the
    // sweep, so every plan is rebuilt over an earlier shape's.
    let mut rng = Rng::new(71);
    let mut ws = Workspace::new();
    let mut cases = 0;
    for (ci, &(in_c, k)) in CONV_DEPTHS.iter().enumerate() {
        for (oi, &out_c) in CONV_OUT.iter().enumerate() {
            let mut conv = Conv1d::new(in_c, out_c, k, (ci * CONV_OUT.len() + oi) as u64);
            for b in conv.params_mut()[1].value.data_mut() {
                *b = rng.uniform(1.0);
            }
            for (li, &len) in CONV_LENGTHS.iter().enumerate() {
                let batched = (ci + oi) % CONV_LENGTHS.len() == li;
                let batched = batched.then(|| 2 + (1 << 21) / (2 * out_c * in_c * k * len));
                for batch in std::iter::once(1).chain(batched) {
                    let x: Vec<f32> = (0..batch * in_c * len).map(|_| rng.uniform(2.0)).collect();
                    let x = Tensor::from_vec(x, &[batch, in_c, len]);
                    let want = conv_oracle(&conv, &x);
                    for training in [false, true] {
                        let got = conv.forward(&x, &mut ws, training);
                        let what = format!(
                            "in_c={in_c} k={k} out_c={out_c} len={len} batch={batch} \
                             training={training}"
                        );
                        assert_same_bits(got.data(), &want, &what);
                    }
                    ws.clear();
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, CONV_DEPTHS.len() * CONV_OUT.len() * (CONV_LENGTHS.len() + 1));
}

/// The im2col lowering of one `[in_c, len]` item: row `c·k + t` of the
/// `[in_c·k, len]` result is channel `c` shifted by `t - pad` ("same"
/// padding), zero outside the signal.
fn im2col(x: &[f32], in_c: usize, len: usize, k: usize) -> Vec<f32> {
    let pad = (k - 1) / 2;
    let mut col = vec![0.0f32; in_c * k * len];
    for (d, row) in col.chunks_exact_mut(len).enumerate() {
        let (c, t) = (d / k, d % k);
        for (j, v) in row.iter_mut().enumerate() {
            if let Some(s) = (j + t).checked_sub(pad).filter(|&s| s < len) {
                *v = x[c * len + s];
            }
        }
    }
    col
}

/// The adjoint of [`im2col`]: adds every in-range column-gradient value
/// onto `dx`, each element's taps in order.
fn col2im_add(dx: &mut [f32], dcol: &[f32], len: usize, k: usize) {
    let pad = (k - 1) / 2;
    for (d, row) in dcol.chunks_exact(len).enumerate() {
        let (c, t) = (d / k, d % k);
        for (j, &v) in row.iter().enumerate() {
            if let Some(s) = (j + t).checked_sub(pad).filter(|&s| s < len) {
                dx[c * len + s] += v;
            }
        }
    }
}

/// Oracle of one `Conv1d::backward` call: for each item in order, the
/// weight-gradient partial `dY · colᵀ` summed onto `-0.0`, the bias
/// partial (each output row's `sum::<f32>()`) and the input gradient
/// `col2im(Wᵀ · dY)`, the partials then added onto `grad_w` and `grad_b`.
/// Returns the input gradient.
fn conv_backward_oracle(
    w: &[f32],
    (grad_w, grad_b): (&mut [f32], &mut [f32]),
    x: &Tensor,
    dy: &Tensor,
    k: usize,
) -> Vec<f32> {
    let (in_c, out_c, len) = (x.shape()[1], dy.shape()[1], x.shape()[2]);
    let ck = in_c * k;
    let mut grad_input = Vec::with_capacity(x.len());
    for (x_b, dy_b) in x.data().chunks_exact(in_c * len).zip(dy.data().chunks_exact(out_c * len)) {
        let col = im2col(x_b, in_c, len, k);
        let mut dw = vec![-0.0f32; out_c * ck];
        weight_grad_oracle(&mut dw, dy_b, &col, out_c, len, ck);
        let db: Vec<f32> = dy_b.chunks_exact(len).map(|row| row.iter().sum::<f32>()).collect();
        let mut dcol = vec![0.0f32; ck * len];
        at_b_oracle(&mut dcol, w, dy_b, out_c, ck, len);
        let mut dx = vec![0.0f32; in_c * len];
        col2im_add(&mut dx, &dcol, len, k);
        for (g, &d) in grad_w.iter_mut().zip(&dw) {
            *g += d;
        }
        for (g, &d) in grad_b.iter_mut().zip(&db) {
            *g += d;
        }
        grad_input.extend(dx);
    }
    grad_input
}

/// `(in_c, out_c, kernel, len, batch)` of the backward sweep: `k = 1`,
/// kernels longer than the window (odd and even), one input channel, odd
/// lengths, output channels that are not a multiple of 8 or 16, the
/// layers of the served network (stem, 8-channel block at the inference
/// length, projection, the 16-channel block) and the paper's kernel at
/// depth 1,024.
const BACKWARD_CASES: &[(usize, usize, usize, usize, usize)] = &[
    (3, 5, 1, 17, 2),
    (2, 7, 9, 5, 3),
    (1, 3, 12, 4, 2),
    (1, 8, 9, 64, 3),
    (8, 8, 9, 230, 2),
    (8, 16, 1, 256, 2),
    (16, 16, 9, 256, 2),
    (4, 12, 5, 31, 2),
    (5, 9, 4, 19, 1),
    (3, 17, 8, 37, 2),
    (6, 20, 3, 16, 3),
    (16, 16, 64, 40, 2),
    (16, 1, 3, 9, 2),
];

/// FNV-1a over the bits of a sweep's outputs, every NaN counted as one.
fn fold_bits(hash: &mut u64, values: &[f32]) {
    for v in values {
        let bits = if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            *hash = (*hash ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[test]
fn conv_backward_matches_the_im2col_sequence_over_shape_sweep() {
    // Each case runs twice, with dense weights and with exact zeros (every
    // fifth weight and all of output channel 0, whose output gradient is
    // infinite in the first item: only the zero skip keeps the input
    // gradient finite). Each run takes two training steps of different
    // batch sizes, accumulating onto non-zero gradients; the output
    // gradients hold zeros, as a ReLU mask leaves them.
    let mut rng = Rng::new(73);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut runs = 0;
    for &(in_c, out_c, k, len, batch) in BACKWARD_CASES {
        for zeros in [false, true] {
            let mut conv = Conv1d::new(in_c, out_c, k, runs as u64);
            for p in conv.params_mut() {
                for g in p.grad.data_mut() {
                    *g = rng.uniform(0.5);
                }
            }
            if zeros {
                let mut params = conv.params_mut();
                for (i, v) in params[0].value.data_mut().iter_mut().enumerate() {
                    if i % 5 == 2 || i < in_c * k {
                        *v = 0.0;
                    }
                }
            }
            let w = conv.weight().data().to_vec();
            let mut grad_w = conv.params()[0].grad.data().to_vec();
            let mut grad_b = conv.params()[1].grad.data().to_vec();
            let mut ws = Workspace::new();
            for (step, items) in [batch, batch + 1].into_iter().enumerate() {
                let x: Vec<f32> = (0..items * in_c * len).map(|_| rng.uniform(2.0)).collect();
                let x = Tensor::from_vec(x, &[items, in_c, len]);
                let mut dy: Vec<f32> = (0..items * out_c * len)
                    .map(|i| if i % 5 == 0 { 0.0 } else { rng.uniform(1.0) })
                    .collect();
                if zeros && step == 0 {
                    dy[..len].fill(f32::INFINITY);
                }
                let dy = Tensor::from_vec(dy, &[items, out_c, len]);
                let want = conv_backward_oracle(&w, (&mut grad_w, &mut grad_b), &x, &dy, k);
                assert!(want.iter().all(|v| v.is_finite()), "the oracle skips zero weights");
                let _ = conv.forward(&x, &mut ws, true);
                let got = conv.backward(&dy, &mut ws);
                let what =
                    format!("in_c={in_c} out_c={out_c} k={k} len={len} zeros={zeros} step={step}");
                assert_eq!(got.shape(), x.shape(), "{what}");
                assert_same_bits(got.data(), &want, &format!("{what}: input gradient"));
                fold_bits(&mut hash, got.data());
            }
            let what = format!("in_c={in_c} out_c={out_c} k={k} len={len} zeros={zeros}");
            let grads = conv.params();
            assert_same_bits_or_nan(grads[0].grad.data(), &grad_w, &format!("{what}: dW"));
            assert_same_bits_or_nan(grads[1].grad.data(), &grad_b, &format!("{what}: db"));
            fold_bits(&mut hash, grads[0].grad.data());
            fold_bits(&mut hash, grads[1].grad.data());
            runs += 1;
        }
    }
    assert_eq!(runs, 2 * BACKWARD_CASES.len());
    println!("conv backward sweep: {runs} runs, output bits FNV-1a {hash:016x}");
}
