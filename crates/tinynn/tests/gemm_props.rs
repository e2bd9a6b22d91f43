//! Property tests of the register-tiled kernels.
//!
//! The `f32` forward convolution has one kernel, the direct register tile
//! behind `Conv1d::forward` (and the fused inference chain). Its outputs
//! must equal, bit for bit, a scalar loop of the pinned accumulation order
//! written here: the bias, then each 256-deep block of the `c·k + t` depth
//! summed from zero with fused multiply-adds, added in turn. The sweep
//! covers the tile's hazards: output-channel strips that do not divide
//! `out_c`, position tiles that do not divide the length, the depth-block
//! edges, kernels longer than the window, and batches that fan out.
//!
//! The other kernels carry three kinds of shape hazard: row strips that do
//! not divide `m`, column blocks that do not divide `n` (zero-padded pack
//! lanes) and deep panels. Their tests sweep randomly drawn *odd* shapes
//! plus an explicit edge list (`k = 0`, `n = 1`, single rows, exact tile
//! multiples, one-off remainders) against the naive references —
//! [`matmul_reference`] for the fully connected forward (relative
//! tolerance: the tiled kernel contracts to FMA) and the exact integer
//! [`matmul_q8_reference`] for the quantised path (bit-exact, with code
//! magnitudes kept small enough that every dot fits the `i16` output grid
//! of a unit requantiser).
//!
//! The training kernels ([`matmul_weight_grad`], [`matmul_at_b`]) must
//! instead match the plain scalar loops they replaced bit for bit; those
//! loops live here as oracles. So must a batched `Conv1d::backward`, which
//! fans out across threads, match the same layer stepped one item at a
//! time.

use tinynn::matmul::{
    conv_q8_requant, matmul_at_b, matmul_packed_rhs, matmul_q8_reference, matmul_reference,
    matmul_weight_grad, pack_rhs_t, packed_rhs_len,
};
use tinynn::{init, Conv1d, Layer, Requantizer, Tensor, Workspace};

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

/// Edge shapes every kernel must survive: empty depth, single columns and
/// rows, exact tile multiples (`MR = 4`, `NR = 16`) and one-off remainders
/// on each side, plus depths beyond one `QK = 256` quantised panel.
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

fn assert_f32_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
        assert!((g - w).abs() <= 1e-5 * (1.0 + w.abs()), "{what} at {i}: {g} vs {w}");
    }
}

#[test]
fn packed_rhs_matches_reference_over_shape_sweep() {
    let mut rng = Rng::new(43);
    let shapes: Vec<_> =
        EDGE_SHAPES.iter().copied().chain((0..60).map(|_| random_shape(&mut rng))).collect();
    let mut pack = Vec::new();
    for (m, k, n) in shapes {
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(1.0)).collect();
        let bt: Vec<f32> = (0..n * k).map(|_| rng.uniform(1.0)).collect();
        // Reference expects B row-major [k, n]; transpose Bᵀ once.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let expect = matmul_reference(&a, &b, m, k, n);
        pack_rhs_t(&mut pack, &bt, n, k);
        assert_eq!(pack.len(), packed_rhs_len(n, k), "{n}x{k}");
        let mut c = vec![0.0f32; m * n];
        matmul_packed_rhs(&mut c, &a, &pack, m, k, n);
        assert_f32_close(&c, &expect, &format!("packed_rhs {m}x{k}x{n}"));
    }
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

/// Oracle of [`matmul_weight_grad`]: the scalar loop of the conv weight
/// gradient it replaced, on the untransposed output gradient —
/// `C[i,j] += Σₚ A[i,p] · B[j,p]` with `A: [m,p]`, `B: [n,p]`, each dot
/// summed from zero and added to `C` once.
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

/// Oracle of [`matmul_at_b`]: the plain sum of row outer products, added
/// straight into `C`, skipping zero `A` entries.
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

/// Column counts (`in_c · k` of the served, paper and small networks, and
/// every tail of the 16-, 8- and 1-wide tiles), position counts (fewer
/// than the 8-wide tile up to past one 256-block) and row counts 1–17.
const GRAD_COLS: &[usize] = &[1, 7, 8, 9, 17, 72, 144, 1024];
const GRAD_POSITIONS: &[usize] = &[1, 2, 31, 230, 256, 300];

/// `(rows, positions, columns)` of the gradient-kernel sweep: every column
/// and position count pairs with a rotating row count, and every row count
/// 1–17 runs at the served network's widest shape.
fn grad_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for (idx, (&p, &n)) in
        GRAD_POSITIONS.iter().flat_map(|p| GRAD_COLS.iter().map(move |n| (p, n))).enumerate()
    {
        shapes.push((1 + idx % 17, p, n));
    }
    shapes.extend((1..=17).map(|m| (m, 230, 144)));
    shapes
}

#[test]
fn weight_grad_matches_the_scalar_loop_bit_for_bit() {
    let mut rng = Rng::new(61);
    for (m, p, n) in grad_shapes() {
        let a: Vec<f32> = (0..m * p).map(|_| rng.uniform(1.0)).collect();
        let b: Vec<f32> = (0..n * p).map(|_| rng.uniform(1.0)).collect();
        // The kernel reads the output gradient positions-major.
        let mut at = vec![0.0f32; p * m];
        for i in 0..m {
            for pos in 0..p {
                at[pos * m + i] = a[i * p + pos];
            }
        }
        // Accumulate onto a non-zero C.
        let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform(4.0)).collect();
        let mut want = c0.clone();
        weight_grad_oracle(&mut want, &a, &b, m, p, n);
        let mut got = c0;
        matmul_weight_grad(&mut got, &at, &b, p, m, n);
        assert_same_bits(&got, &want, &format!("matmul_weight_grad m={m} p={p} n={n}"));
    }
}

#[test]
fn at_b_matches_the_scalar_loop_bit_for_bit() {
    let mut rng = Rng::new(67);
    // As `matmul_at_b(dcol, W, dY, out_c, in_c·k, len)`: rows r are output
    // channels, m the im2col depth and n positions.
    for (r, n, m) in grad_shapes() {
        // Once without zeros in A (the kernel drops the skip's branches),
        // once with them.
        for zeros in [false, true] {
            let mut a: Vec<f32> = (0..r * m)
                .map(|i| if zeros && i % 7 == 3 { 0.0 } else { rng.uniform(1.0) })
                .collect();
            let mut b: Vec<f32> = (0..r * n).map(|_| rng.uniform(1.0)).collect();
            if zeros && r > 1 {
                // A zero row of A meets an infinite row of B: only the zero
                // skip keeps the products out of C.
                a[..m].fill(0.0);
                b[..n].fill(f32::INFINITY);
            }
            let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform(4.0)).collect();
            let mut want = c0.clone();
            at_b_oracle(&mut want, &a, &b, r, m, n);
            let mut got = c0;
            matmul_at_b(&mut got, &a, &b, r, m, n);
            assert!(want.iter().all(|v| v.is_finite()), "the oracle skips the infinite row");
            let what = format!("matmul_at_b r={r} m={m} n={n} zeros={zeros}");
            assert_same_bits(&got, &want, &what);
        }
    }
}

#[test]
fn gradient_kernels_leave_c_alone_for_empty_products() {
    let mut c = vec![1.5f32; 6];
    matmul_at_b(&mut c, &[], &[], 0, 2, 3);
    assert_eq!(c, vec![1.5; 6]);
    matmul_weight_grad(&mut c, &[], &[], 0, 2, 3);
    assert_eq!(c, vec![1.5; 6]);
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
    // rotating length at a batch whose work passes the convolution's
    // 2 MFLOP fan-out gate. One workspace serves the sweep, so every plan
    // is rebuilt over an earlier shape's.
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
                let fan_out = (ci + oi) % CONV_LENGTHS.len() == li;
                let fan_out = fan_out.then(|| 2 + (1 << 21) / (2 * out_c * in_c * k * len));
                for batch in std::iter::once(1).chain(fan_out) {
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

/// The bits of `Conv1d` training steps on one layer, one step per entry of
/// `steps` (each an input and output gradient of some batch size): the
/// input gradients in order, then the accumulated weight and bias
/// gradients.
fn conv_backward_bits(conv: &Conv1d, steps: &[(Tensor, Tensor)]) -> Vec<u32> {
    let mut conv = conv.clone();
    let mut ws = Workspace::new();
    let mut bits = Vec::new();
    for (x, dy) in steps {
        let _ = conv.forward(x, &mut ws, true);
        bits.extend(conv.backward(dy, &mut ws).data().iter().map(|v| v.to_bits()));
    }
    let grads = conv.params().into_iter().flat_map(|p| p.grad.data().to_vec());
    bits.extend(grads.map(f32::to_bits));
    bits
}

/// Item `b` of a `[batch, C, len]` tensor as a batch of one.
fn item(t: &Tensor, b: usize) -> Tensor {
    let (c, len) = (t.shape()[1], t.shape()[2]);
    Tensor::from_vec(t.data()[b * c * len..(b + 1) * c * len].to_vec(), &[1, c, len])
}

#[test]
fn conv_backward_fan_out_matches_the_serial_bits() {
    // 8 → 16 channels, kernel 9, 100 positions: each item's backward
    // costs about 0.46 MFLOP, so batches of 7 and 32 pass the fan-out gate
    // of 2 MFLOP (a host with one core runs both sides serially). The
    // serial reference is the same layer stepped on one item at a time, in
    // item order: a batch of one never fans out, and the layer adds each
    // item's partials onto its gradients in item order, so these are the
    // serial loop's bits.
    for batch in [1usize, 7, 32] {
        let conv = Conv1d::new(8, 16, 9, 3);
        let x = init::uniform(&[batch, 8, 100], -1.0, 1.0, 5);
        let mut dy = init::uniform(&[batch, 16, 100], -1.0, 1.0, 7);
        // Zero output gradients, as a ReLU mask leaves them.
        for v in dy.data_mut().iter_mut().step_by(5) {
            *v = 0.0;
        }
        let serial: Vec<_> = (0..batch).map(|b| (item(&x, b), item(&dy, b))).collect();
        let want = conv_backward_bits(&conv, &serial);
        assert_eq!(conv_backward_bits(&conv, &[(x, dy)]), want, "batch {batch}");
    }
}
