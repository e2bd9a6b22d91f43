//! Property tests of the packed register-tiled GEMM kernels.
//!
//! The micro-kernels carry three kinds of shape hazard: row strips that do
//! not divide `m` (zero-padded pack lanes), column blocks that do not divide
//! `n` (masked tails) and depth blocking at the `KC` boundary. Every test
//! here sweeps randomly drawn *odd* shapes plus an explicit edge list
//! (`k = 0`, `n = 1`, single rows, exact tile multiples, one-off remainders)
//! against the naive references — [`matmul_reference`] for the `f32` paths
//! (relative tolerance: the tiled kernels contract to FMA) and the exact
//! integer [`matmul_q8_reference`] for the quantised path (bit-exact, with
//! code magnitudes kept small enough that every dot fits the `i16` output
//! grid of a unit requantiser).

use tinynn::matmul::{
    matmul_packed_lhs, matmul_packed_rhs, matmul_q8_reference, matmul_q8_requant_sliding,
    matmul_reference, pack_lhs, pack_rhs_t, packed_lhs_len, packed_rhs_len,
};
use tinynn::Requantizer;

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
/// on each side, plus depths beyond one `KC = 256` block.
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
fn packed_lhs_matches_reference_over_shape_sweep() {
    let mut rng = Rng::new(41);
    let shapes: Vec<_> =
        EDGE_SHAPES.iter().copied().chain((0..60).map(|_| random_shape(&mut rng))).collect();
    let mut pack = Vec::new();
    for (m, k, n) in shapes {
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(1.0)).collect();
        let expect = matmul_reference(&a, &b, m, k, n);
        pack_lhs(&mut pack, &a, m, k);
        assert_eq!(pack.len(), packed_lhs_len(m, k), "{m}x{k}");
        let mut c = vec![0.0f32; m * n];
        matmul_packed_lhs(&mut c, &pack, &b, m, k, n);
        assert_f32_close(&c, &expect, &format!("packed_lhs {m}x{k}x{n}"));
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

#[test]
fn packed_kernels_accumulate_into_nonzero_c() {
    // `C +=` semantics: a biased output must keep its bias.
    let mut rng = Rng::new(47);
    let (m, k, n) = (5usize, 23usize, 19usize);
    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(1.0)).collect();
    let product = matmul_reference(&a, &b, m, k, n);
    let mut pack = Vec::new();
    pack_lhs(&mut pack, &a, m, k);
    let mut c = vec![2.5f32; m * n];
    matmul_packed_lhs(&mut c, &pack, &b, m, k, n);
    let expect: Vec<f32> = product.iter().map(|v| v + 2.5).collect();
    assert_f32_close(&c, &expect, "accumulate");
}

/// Draws quantised operands with code magnitudes small enough that every
/// dot (|a| ≤ 3, |b| ≤ 9, depth ≤ 600) stays below the `i16` grid limit, so
/// a unit requantiser reproduces the exact `i64` reference bit for bit.
fn small_q_operands(rng: &mut Rng, len_a: usize, len_b: usize) -> (Vec<i16>, Vec<i16>) {
    let a: Vec<i16> = (0..len_a).map(|_| (rng.next_u64() % 7) as i16 - 3).collect();
    let b: Vec<i16> = (0..len_b).map(|_| (rng.next_u64() % 19) as i16 - 9).collect();
    (a, b)
}

/// The requantising kernel with unit ratios, zero biases and the full
/// signed clamp: every output code is the plain integer dot.
fn unit_requant(a: &[i16], b: &[i16], m: usize, k: usize, n: usize, stride: usize) -> Vec<i16> {
    let mults = vec![Requantizer::from_ratio(1.0); m];
    let mut c = vec![0i16; n * m];
    matmul_q8_requant_sliding(&mut c, a, &vec![0; m], &mults, b, m, k, n, stride, -32767, 32767);
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
        // Position-major output: c[j * m + i].
        let c = unit_requant(&a, &b, m, k, n, k);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    c[j * m + i] as i64,
                    exact[i * n + j],
                    "matmul_q8_requant_sliding {m}x{k}x{n} at ({i},{j})"
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
        let k = rng.usize_in(1, 60);
        let n = rng.usize_in(1, 40);
        let stride = rng.usize_in(1, k);
        let len_b = (n - 1) * stride + k;
        let (a, buf) = small_q_operands(&mut rng, m * k, len_b);
        // Materialise every overlapping window for the packed layout.
        let mut packed = Vec::with_capacity(n * k);
        for j in 0..n {
            packed.extend_from_slice(&buf[j * stride..j * stride + k]);
        }
        assert_eq!(
            unit_requant(&a, &packed, m, k, n, k),
            unit_requant(&a, &buf, m, k, n, stride),
            "m={m} k={k} n={n} stride={stride}"
        );
    }
}
