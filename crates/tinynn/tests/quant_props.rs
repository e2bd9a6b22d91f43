//! Deterministic, seeded property tests for the quantisation path:
//! quantise→dequantise roundtrip bounds, scale correctness, degenerate
//! inputs, the integer product against the f32 product, the requantising
//! kernels against their scalar references, and the fixed-point chain's
//! vector kernel against its scalar fallback, pads included.
//!
//! The offline build has no `proptest`, so cases are generated from a seeded
//! xorshift generator — every run exercises the identical case set.

mod common;

use common::matmul_q8_reference;
use tinynn::matmul::conv_q8_requant;
use tinynn::qlayers::pooled_features;
use tinynn::quant::{
    quantize_activations_into, QuantActs, QuantPlan, QuantizedGemm, Requantizer, ACT_QMAX,
    WEIGHT_QMAX,
};
use tinynn::{
    BatchNorm1d, Conv1d, QuantizedConv1d, QuantizedResidualBlock1d, ResidualBlock1d, Tensor,
    Workspace,
};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f32 in `[-amp, amp)`.
    fn uniform(&mut self, amp: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        (2.0 * u - 1.0) * amp
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

/// Naive triple-loop product `C = A · B` of row-major `A: [m, k]` and
/// `B: [k, n]`: the `f32` reference of the quantisation error bound.
fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
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

#[test]
fn per_channel_scales_equal_row_max_over_127() {
    let mut rng = Rng::new(1);
    for case in 0..50 {
        let rows = rng.usize_in(1, 9);
        let cols = rng.usize_in(1, 130);
        let amp = 0.01 + rng.uniform(1.0).abs() * 4.0;
        let weights: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(amp)).collect();
        let gemm = QuantizedGemm::from_f32(&weights, &vec![0.0; rows], rows, cols);
        for (r, row) in weights.chunks(cols).enumerate() {
            let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let expect = if max_abs == 0.0 { 1.0 } else { max_abs / WEIGHT_QMAX };
            assert_eq!(gemm.scales()[r], expect, "case {case} row {r}");
        }
    }
}

#[test]
fn roundtrip_error_is_bounded_by_half_scale_per_weight() {
    let mut rng = Rng::new(2);
    for case in 0..50 {
        let rows = rng.usize_in(1, 8);
        let cols = rng.usize_in(1, 200);
        let amp = 1e-3 + rng.uniform(1.0).abs() * 10.0;
        let weights: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(amp)).collect();
        let gemm = QuantizedGemm::from_f32(&weights, &vec![0.0; rows], rows, cols);
        let back = gemm.dequantize();
        for (r, (orig, deq)) in weights.chunks(cols).zip(back.chunks(cols)).enumerate() {
            // Round-to-nearest: every weight lands within half a grid step.
            // The 1e-6 slack absorbs the rounding of the scale itself.
            let bound = gemm.scales()[r] * (0.5 + 1e-4);
            for (i, (&a, &b)) in orig.iter().zip(deq.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= bound,
                    "case {case} row {r} col {i}: |{a} - {b}| > {bound}"
                );
            }
        }
    }
}

#[test]
fn zero_channels_never_produce_nan_or_zero_scales() {
    let mut rng = Rng::new(3);
    for case in 0..30 {
        let rows = rng.usize_in(2, 7);
        let cols = rng.usize_in(1, 64);
        let zero_row = rng.usize_in(0, rows - 1);
        let mut weights: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(2.0)).collect();
        weights[zero_row * cols..(zero_row + 1) * cols].fill(0.0);
        let gemm = QuantizedGemm::from_f32(&weights, &vec![0.0; rows], rows, cols);
        for (r, &s) in gemm.scales().iter().enumerate() {
            assert!(s.is_finite() && s > 0.0, "case {case} row {r}: scale {s}");
        }
        let deq = gemm.dequantize();
        assert!(deq.iter().all(|v| v.is_finite()));
        assert!(deq[zero_row * cols..(zero_row + 1) * cols].iter().all(|&v| v == 0.0));
    }
}

#[test]
fn activation_roundtrip_error_is_bounded_by_half_scale() {
    let mut rng = Rng::new(4);
    let mut codes = Vec::new();
    for case in 0..50 {
        let len = rng.usize_in(1, 400);
        let amp = 1e-4 + rng.uniform(1.0).abs() * 100.0;
        let xs: Vec<f32> = (0..len).map(|_| rng.uniform(amp)).collect();
        let scale = quantize_activations_into(&xs, &mut codes);
        assert!(scale.is_finite() && scale > 0.0, "case {case}");
        let max_abs = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max_abs > 0.0 {
            assert_eq!(scale, max_abs / ACT_QMAX, "case {case}: tight grid");
        }
        // The i16 grid ratio reaches 32767, so the ~1e-7 relative rounding
        // of the `x · (1/scale)` multiply can shift a value by a few
        // thousandths of a grid step across the round-to-nearest boundary.
        for (i, (&x, &q)) in xs.iter().zip(codes.iter()).enumerate() {
            assert!((x - q as f32 * scale).abs() <= scale * (0.5 + 1e-2), "case {case} sample {i}");
        }
    }
}

#[test]
fn quantised_gemm_tracks_f32_gemm_within_quantisation_error() {
    // End-to-end quantisation property: the rescaled exact integer product
    // of the quantised operands ≈ the original f32 product, within the
    // analytic quantisation error bound.
    let mut rng = Rng::new(5);
    for case in 0..12 {
        let m = rng.usize_in(1, 10);
        let k = rng.usize_in(1, 300);
        let n = rng.usize_in(1, 200);
        let w: Vec<f32> = (0..m * k).map(|_| rng.uniform(0.5)).collect();
        let x: Vec<f32> = (0..k * n).map(|_| rng.uniform(2.0)).collect();
        let gemm = QuantizedGemm::from_f32(&w, &vec![0.0; m], m, k);
        // The integer product takes the activations as im2row-style rows
        // ([n, k]); build the transposed layout from the [k, n] matrix.
        let mut xt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                xt[j * k + kk] = x[kk * n + j];
            }
        }
        let mut codes = Vec::new();
        let x_scale = quantize_activations_into(&xt, &mut codes);
        let a: Vec<i16> = gemm.data().iter().map(|&q| q as i16).collect();
        let exact = matmul_q8_reference(&a, &codes, m, k, n);

        // Error bounded by the propagated weight/activation grid steps
        // (loose analytic bound).
        let f32_ref = matmul_reference(&w, &x, m, k, n);
        let x_max = x.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        for i in 0..m {
            let w_step = gemm.scales()[i] / 2.0;
            let x_step = x_scale / 2.0;
            let w_row_l1: f32 = w[i * k..(i + 1) * k].iter().map(|v| v.abs()).sum();
            let bound = (k as f32) * w_step * (x_max + x_step) + w_row_l1 * x_step + 1e-5;
            for j in 0..n {
                let q = gemm.scales()[i] * x_scale * exact[i * n + j] as f32;
                let diff = (q - f32_ref[i * n + j]).abs();
                assert!(diff <= bound, "case {case} ({i},{j}): |Δ| = {diff} > bound {bound}");
            }
        }
    }
}

/// Exact round-to-nearest-even reference for `acc · mult / 2^shift`,
/// computed in `i128` so no intermediate can overflow or round.
fn rne_shift_reference(acc: i32, mult: i32, shift: u8) -> i64 {
    let prod = acc as i128 * mult as i128;
    if shift == 0 {
        return prod as i64;
    }
    let div = 1i128 << shift;
    let floor = prod.div_euclid(div);
    let rem = prod.rem_euclid(div);
    let half = div / 2;
    let rounded = if rem > half || (rem == half && floor & 1 == 1) { floor + 1 } else { floor };
    rounded as i64
}

#[test]
fn requantizer_apply_is_exact_rne_across_the_full_accumulator_range() {
    let mut rng = Rng::new(7);
    let edge_accs =
        [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX, 0x4000_0000, -0x4000_0000];
    for case in 0..200 {
        // Ratios spanning ~18 orders of magnitude: tiny grids force the
        // shift to its cap, huge ones force shift 0.
        let mag = rng.uniform(9.0) as f64;
        let ratio = (0.1 + rng.uniform(1.0).abs() as f64) * 10f64.powf(mag);
        let r = Requantizer::from_ratio(ratio);
        assert!(r.shift() <= 62, "case {case}: shift {} out of range", r.shift());
        for &acc in &edge_accs {
            assert_eq!(
                r.apply(acc),
                rne_shift_reference(acc, r.mult(), r.shift()),
                "case {case} ratio {ratio} acc {acc}"
            );
        }
        for _ in 0..20 {
            let acc = rng.next_u64() as u32 as i32;
            assert_eq!(
                r.apply(acc),
                rne_shift_reference(acc, r.mult(), r.shift()),
                "case {case} ratio {ratio} acc {acc}"
            );
        }
    }
}

#[test]
fn requantizer_tracks_the_real_ratio_and_f64_rounding() {
    let mut rng = Rng::new(8);
    for case in 0..100 {
        let ratio = (1e-4 + rng.uniform(1.0).abs() as f64) * 10f64.powf(rng.uniform(4.0) as f64);
        let r = Requantizer::from_ratio(ratio);
        // The fixed-point representation is the nearest 31-bit approximation:
        // relative error below 2^-30.
        let represented = r.mult() as f64 / (1u64 << r.shift()) as f64;
        assert!(
            (represented - ratio).abs() <= ratio * 2.0f64.powi(-30),
            "case {case}: ratio {ratio} represented as {represented}"
        );
        // And applying it matches f64 round-ties-even of the true product
        // for accumulators small enough that the 2^-30 representation error
        // cannot reach the rounding boundary.
        for _ in 0..20 {
            let acc = (rng.next_u64() % (1 << 21)) as i32 - (1 << 20);
            let exact = (acc as f64 * represented).round_ties_even() as i64;
            assert_eq!(r.apply(acc), exact, "case {case} ratio {ratio} acc {acc}");
        }
    }
}

#[test]
fn requantizer_shift_edge_cases_are_exact() {
    // Powers of two are exactly representable: mult = 2^30, shift chosen so
    // the product is an exact integer multiply/divide.
    for (ratio, acc, expect) in [
        (1.0, 12345i32, 12345i64),
        (0.5, 7, 4),   // 3.5 rounds to even 4
        (0.5, 9, 4),   // 4.5 rounds to even 4
        (0.5, -7, -4), // -3.5 rounds to even -4
        (2.0, -21, -42),
        (0.25, 10, 2), // 2.5 rounds to even 2
    ] {
        let r = Requantizer::from_ratio(ratio);
        assert_eq!(r.apply(acc), expect, "ratio {ratio} acc {acc}");
    }
    // Degenerate and extreme ratios must stay inside the shift range and
    // never panic: zero, subnormal-small, enormous.
    assert_eq!(Requantizer::from_ratio(0.0).apply(i32::MAX), 0);
    assert_eq!(Requantizer::from_ratio(-1.0).apply(55), 0);
    assert_eq!(Requantizer::from_ratio(f64::NAN).apply(55), 0);
    let tiny = Requantizer::from_ratio(1e-300);
    assert_eq!(tiny.shift(), 62, "tiny ratios saturate the shift");
    assert_eq!(tiny.apply(i32::MAX), 0, "a sub-resolution ratio rounds every acc to 0");
    let huge = Requantizer::from_ratio(1e18);
    assert_eq!(huge.shift(), 0, "huge ratios exhaust the shift");
    assert_eq!(huge.mult(), i32::MAX, "and saturate the multiplier");
    // Clamping composes with the exact rounding.
    let unit = Requantizer::from_ratio(1.0);
    assert_eq!(unit.requantize_i16(40_000, -32767, 32767), 32767);
    assert_eq!(unit.requantize_i16(-40_000, -32767, 32767), -32767);
    assert_eq!(unit.requantize_i16(-5, 0, 32767), 0, "fused ReLU clamp");
}

#[test]
fn per_channel_plan_mults_track_the_scale_products() {
    let mut rng = Rng::new(9);
    for case in 0..30 {
        let rows = rng.usize_in(1, 12);
        let cols = rng.usize_in(1, 80);
        let weights: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(3.0)).collect();
        let bias: Vec<f32> = (0..rows).map(|_| rng.uniform(2.0)).collect();
        let gemm = QuantizedGemm::from_f32(&weights, &bias, rows, cols);
        let in_scale = 1e-4 + rng.uniform(1.0).abs() * 0.1;
        let out_scale = 1e-4 + rng.uniform(1.0).abs() * 0.1;
        let plan = QuantPlan::new(&gemm, in_scale, out_scale, false);
        assert_eq!(plan.mults.len(), rows);
        assert_eq!(plan.bias_q.len(), rows);
        // Every channel shares the layer shift (the SIMD epilogue divides
        // all lanes by one power of two), and `mults_i32` mirrors it.
        for (r, mult) in plan.mults.iter().enumerate() {
            assert_eq!(mult.shift(), plan.shift, "case {case} row {r} shift not uniform");
            assert_eq!(mult.mult(), plan.mults_i32[r], "case {case} row {r} mults_i32 mirror");
        }
        for (r, (mult, &s_w)) in plan.mults.iter().zip(gemm.scales()).enumerate() {
            let ratio = s_w as f64 * in_scale as f64 / out_scale as f64;
            let represented = mult.mult() as f64 / (1u64 << mult.shift()) as f64;
            // At the shared shift the multiplier is rne(ratio · 2^shift):
            // absolute error ≤ 2^-(shift+1), plus the ~2^-30 relative
            // rounding of the shift-defining (largest-ratio) channel.
            let tol = 0.5 / (1u64 << plan.shift) as f64 + ratio * 2.0f64.powi(-30);
            assert!(
                (represented - ratio).abs() <= tol,
                "case {case} row {r}: {represented} vs {ratio} (shift {})",
                plan.shift
            );
            // Bias lands on the accumulator grid by round-ties-even, clamped
            // to the wrap-free bound the SIMD kernel's plain add relies on.
            let acc_scale = s_w as f64 * in_scale as f64;
            let expect = (bias[r] as f64 / acc_scale)
                .round_ties_even()
                .clamp(-(qsimd::BIAS_BOUND as f64), qsimd::BIAS_BOUND as f64)
                as i32;
            assert_eq!(plan.bias_q[r], expect, "case {case} row {r} bias");
        }
    }
}

/// The `[rows, ch]` sample-major codes `b` laid out channel-pair-major
/// (`ch` channels, `rows` rows per plane).
fn pair_major(b: &[i16], ch: usize, rows: usize) -> Vec<i16> {
    let mut x = vec![0i16; ch.div_ceil(2) * rows * 2];
    for (r, sample) in b.chunks_exact(ch).enumerate() {
        for (c, &v) in sample.iter().enumerate() {
            x[((c / 2) * rows + r) * 2 + c % 2] = v;
        }
    }
    x
}

#[test]
fn requantising_gemm_matches_the_scalar_reference_exactly() {
    // The fused requantising kernel must agree bit-for-bit with the naive
    // i64 dot → saturate → bias → RNE-rescale → clamp pipeline, at shallow
    // and deep (depth > 256) depths: a 1×1 convolution over k channels
    // is the product of the weights with the rows of B.
    let mut rng = Rng::new(10);
    for case in 0..16 {
        let m = rng.usize_in(1, 10);
        let k = if case % 3 == 0 { rng.usize_in(257, 600) } else { rng.usize_in(1, 256) };
        let n = rng.usize_in(1, 20);
        let a: Vec<i16> =
            (0..m * k).map(|_| ((rng.next_u64() % 255) as i64 - 127) as i16).collect();
        let b: Vec<i16> =
            (0..n * k).map(|_| ((rng.next_u64() % 65535) as i64 - 32767) as i16).collect();
        let bias: Vec<i32> = (0..m).map(|_| rng.next_u64() as u32 as i32 / 1024).collect();
        let mults: Vec<Requantizer> = (0..m)
            .map(|_| Requantizer::from_ratio(1e-5 + rng.uniform(1.0).abs() as f64 * 0.1))
            .collect();
        let (lo, hi) = if case % 2 == 0 { (0i16, 32767i16) } else { (-32767i16, 32767i16) };
        let g = qsimd::ConvShape {
            in_channels: k,
            out_channels: m,
            kernel: 1,
            len: n,
            in_rows: n,
            in_first: 0,
            out_rows: n,
            out_first: 0,
        };
        let mut w = vec![0i16; m * g.weight_stride()];
        for (dst, src) in w.chunks_exact_mut(g.weight_stride()).zip(a.chunks_exact(k)) {
            dst[..k].copy_from_slice(src);
        }
        let mut out = vec![0i16; g.out_planes() * n * 2];
        conv_q8_requant(&mut out, &pair_major(&b, k, n), &w, &g, &bias, &mults, lo, hi);
        let exact = matmul_q8_reference(&a, &b, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let acc = (exact[i * n + j] + bias[i] as i64)
                    .clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                let expect = mults[i].requantize_i16(acc, lo, hi);
                assert_eq!(
                    out[((i / 2) * n + j) * 2 + i % 2],
                    expect,
                    "case {case} ({i},{j}): kernel diverged from scalar reference"
                );
            }
        }
    }
}

/// A zero-padded `ch`-channel buffer of `len` random body rows, shaped for
/// kernels up to `k` taps (tap pairs when `ch == 1`).
fn random_acts(rng: &mut Rng, ch: usize, len: usize, k: usize) -> QuantActs {
    let mut acts = QuantActs { scale: 1.0 / ACT_QMAX, ..QuantActs::default() };
    acts.reshape(ch, len, (k - 1) / 2, QuantActs::rows_for(len, k));
    let signal: Vec<f32> = (0..len * ch).map(|_| rng.uniform(1.0)).collect();
    if ch == 1 {
        acts.quantize_taps(&signal);
    } else {
        let mut codes = vec![0i16; signal.len()];
        tinynn::quant::quantize_with_scale(&signal, acts.scale, &mut codes);
        for (j, sample) in codes.chunks_exact(ch).enumerate() {
            for (c, &v) in sample.iter().enumerate() {
                acts.codes[((c / 2) * acts.rows + acts.pad_left + j) * 2 + c % 2] = v;
            }
        }
    }
    acts
}

#[test]
fn packed_simd_gemm_agrees_with_the_scalar_kernel_bit_for_bit() {
    // The SIMD fast path and the scalar fallback must be interchangeable:
    // same plan, same codes, zeros outside the body. Shapes cover the bench
    // model's layers (tap-pair stems, 8 and 16 channels, odd and even
    // kernels, the 1×1 projection) plus other channel blocks; when the
    // build has no AVX2 the vector entry declines and the property is
    // vacuously covered by the fallback itself.
    let mut rng = Rng::new(12);
    for case in 0..24 {
        let m = 4 * rng.usize_in(1, 4);
        let ch = [1usize, 2, 4, 8, 16][rng.usize_in(0, 4)];
        let k = rng.usize_in(1, (qsimd::QK / ch).min(12));
        let n = rng.usize_in(1, 60);
        let weights: Vec<f32> = (0..m * ch * k).map(|_| rng.uniform(2.0)).collect();
        let bias: Vec<f32> = (0..m).map(|_| rng.uniform(1.0)).collect();
        let gemm = QuantizedGemm::from_f32(&weights, &bias, m, ch * k);
        let x = random_acts(&mut rng, ch, n, k);
        // Keep every channel ratio s_w · in/out ≤ ½ (s_w ≤ 2/127 here), the
        // SIMD dispatch envelope — like any calibrated layer's grids.
        let out_scale = x.scale * (0.1 + rng.uniform(1.0).abs());
        let plan = QuantPlan::new(&gemm, x.scale, out_scale, case % 2 == 0);
        let g = qsimd::ConvShape {
            in_channels: ch,
            out_channels: m,
            kernel: k,
            len: n,
            in_rows: x.rows,
            in_first: 0,
            out_rows: x.rows,
            out_first: x.pad_left,
        };
        let rq = qsimd::Requant {
            bias: &plan.bias_q,
            mults: &plan.mults_i32,
            shift: plan.shift,
            lo: plan.lo,
            hi: plan.hi,
        };
        let mut c_simd = vec![0i16; g.out_planes() * g.out_rows * 2];
        let taken = qsimd::conv_requant(&mut c_simd, &x.codes, gemm.data16(), &g, &rq);
        assert_eq!(
            taken,
            qsimd::available(),
            "case {case}: the bench-model envelope must take the SIMD path whenever it exists"
        );
        if !taken {
            continue;
        }
        let mut c_scalar = vec![0i16; c_simd.len()];
        let (b, mults) = (&plan.bias_q, &plan.mults);
        conv_q8_requant(&mut c_scalar, &x.codes, gemm.data16(), &g, b, mults, plan.lo, plan.hi);
        assert_eq!(c_simd, c_scalar, "case {case}: m={m} C={ch} k={k} n={n}");
    }
}

/// A quantised backbone with fixed-point plans in the CO-locator's shape:
/// the stem, an identity block and a projection block, `f` filters,
/// kernel `k`.
fn backbone(f: usize, k: usize, seed: u64) -> (QuantizedConv1d, [QuantizedResidualBlock1d; 2]) {
    let stem_f32 = Conv1d::new(1, f, k, seed);
    let mut stem = QuantizedConv1d::from_conv_folded(&stem_f32, &BatchNorm1d::new(f), true);
    let mut res1 =
        QuantizedResidualBlock1d::from_residual(&ResidualBlock1d::new(f, f, k, seed + 1));
    let mut res2 =
        QuantizedResidualBlock1d::from_residual(&ResidualBlock1d::new(f, 2 * f, k, seed + 2));
    let grid = |max: f32| max / ACT_QMAX;
    stem.set_fixed_point(grid(2.0), grid(3.0));
    res1.set_fixed_point(grid(3.0), grid(3.0), grid(4.0));
    res2.set_fixed_point(grid(4.0), grid(4.0), grid(5.0));
    (stem, [res1, res2])
}

/// `conv` on `x` by the scalar fallback, into a fresh buffer shaped like
/// `like`.
fn fallback(conv: &QuantizedConv1d, x: &QuantActs, like: &QuantActs) -> QuantActs {
    let mut out = QuantActs::default();
    out.reshape(like.channels, like.len, like.pad_left, like.rows);
    let plan = conv.plan().expect("planned");
    let g = conv.conv_shape(x, &out);
    let (b, mults) = (&plan.bias_q, &plan.mults);
    conv_q8_requant(&mut out.codes, &x.codes, conv.gemm().data16(), &g, b, mults, plan.lo, plan.hi);
    out.scale = plan.out_scale;
    out
}

/// Asserts that `got` (the chain's codes) equals the scalar reference and
/// holds zeros in every row outside its body: pads and slack.
fn assert_layer(got: &QuantActs, want: &QuantActs, what: &str) {
    assert_eq!(got.codes, want.codes, "{what}: codes differ from the scalar fallback");
    assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{what}: grid");
    for (p, plane) in got.codes.chunks_exact(2 * got.rows).enumerate() {
        for (r, pair) in plane.chunks_exact(2).enumerate() {
            if !(got.pad_left..got.pad_left + got.len).contains(&r) {
                assert_eq!(pair, [0, 0], "{what}: plane {p} row {r} lies outside the body");
            }
        }
    }
}

#[test]
fn vector_tiles_never_leak_into_pads_at_any_length() {
    // The chain as served (vector kernel where the host has it) against
    // the scalar fallback, layer by layer, at lengths around every tile
    // boundary (8-position vectors, 24-position tiles) and the served
    // window, for the served (8×9) and golden (2×3) channel counts.
    let mut rng = Rng::new(13);
    let mut ws = Workspace::new();
    for (f, k) in [(8usize, 9usize), (2, 3)] {
        let (stem, blocks) = backbone(f, k, 40 + f as u64);
        for len in [1usize, 7, 8, 23, 24, 25, 215, 216, 229, 230, 231] {
            let what = |layer: &str| format!("{f}x{k} len {len} {layer}");
            let shaped = |ch: usize| {
                let mut acts = QuantActs::default();
                acts.reshape(ch, len, (k - 1) / 2, QuantActs::rows_for(len, k));
                acts
            };
            let window: Vec<f32> = (0..len).map(|_| rng.uniform(2.5)).collect();
            let mut input = shaped(1);
            input.scale = stem.plan().expect("planned").in_scale;
            input.quantize_taps(&window);
            let mut x = shaped(f);
            stem.forward_fixed(&input, &mut x);
            let mut x_ref = fallback(&stem, &input, &x);
            assert_layer(&x, &x_ref, &what("stem"));
            for (b, block) in blocks.iter().enumerate() {
                let ch = block.out_channels();
                let (mut out, mut mid, mut short) = (shaped(ch), shaped(ch), shaped(ch));
                block.forward_fixed(&x, &mut out, &mut mid, &mut short);
                let convs = block.convs();
                let mid_ref = fallback(convs[0], &x_ref, &mid);
                let mut out_ref = fallback(convs[1], &mid_ref, &out);
                let short_ref = match convs.get(2) {
                    Some(projection) => fallback(projection, &x_ref, &short),
                    None => {
                        let r = Requantizer::from_ratio(x_ref.scale as f64 / out_ref.scale as f64);
                        let mut short_ref = x_ref.clone();
                        for v in &mut short_ref.codes {
                            *v = r.requantize_i16(*v as i32, -32767, 32767);
                        }
                        short_ref
                    }
                };
                for (d, &sv) in out_ref.codes.iter_mut().zip(&short_ref.codes) {
                    *d = (*d as i32 + sv as i32).clamp(0, 32767) as i16;
                }
                assert_layer(&mid, &mid_ref, &what(&format!("res{} conv1", b + 1)));
                assert_layer(&out, &out_ref, &what(&format!("res{}", b + 1)));
                (x, x_ref) = (out, out_ref);
            }
            let blocks: Vec<&QuantizedResidualBlock1d> = blocks.iter().collect();
            let pooled =
                pooled_features(&stem, &blocks, &Tensor::from_vec(window, &[1, 1, len]), &mut ws);
            let pad = x_ref.pad_left;
            let expect: Vec<f32> = (0..x_ref.channels)
                .map(|c| {
                    let sum: i64 = (0..len).map(|j| x_ref.get(c, pad + j) as i64).sum();
                    sum as f32 * x_ref.scale * (1.0 / len as f32)
                })
                .collect();
            assert_eq!(pooled.data(), &expect[..], "{}", what("pool"));
        }
    }
}
