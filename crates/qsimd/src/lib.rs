//! # qsimd
//!
//! Arch-specific SIMD micro-kernels for the quantised fixed-point inference
//! chain. This is the **one** crate in the workspace allowed to contain
//! `unsafe` code. Every unsafe block is a bounds-asserted pointer load or
//! store, or a `core::arch` intrinsic whose target feature is statically
//! enabled (the workspace builds with `-C target-cpu=x86-64-v3`, see
//! `.cargo/config.toml`), with one exception: the AVX-VNNI body of the
//! convolution runs only after [`vnni`] has detected the feature on the
//! running CPU, and its `// SAFETY:` comment names that check.
//!
//! ## Layout
//!
//! Activations travel between layers **channel-pair-major**: a buffer of `C`
//! channels is `⌈C/2⌉` planes of `rows × 2` `i16` codes, plane `p` holding
//! channels `2p` and `2p + 1` interleaved row by row (an odd channel count
//! leaves the last plane's second slot zero). A 1-channel buffer, the
//! network input, instead stores overlapping **tap pairs**: row `r` holds
//! `(x[r], x[r + 1])`, so two consecutive taps of the one channel form a
//! pair. Either way, one unaligned 256-bit load at row `r` of a plane
//! returns the depth pair of 8 consecutive output positions.
//!
//! Weights stay in the sample-major order `[m, k, C]` of the quantised
//! layer (`tinynn::quant::QuantizedGemm::data16`), each row padded to an
//! even length: the pair of channels `(2p, 2p + 1)` at tap `t`, or of taps
//! `(2t, 2t + 1)` for a 1-channel input, is one aligned `i32` of that row.
//!
//! ## The tile
//!
//! Each 256-bit accumulator holds **8 consecutive output positions of one
//! channel**. A tile is 3 position vectors × 4 output channels (12
//! accumulators): per depth pair, three loads give the input pairs of 24
//! positions, and one broadcast weight pair per channel feeds three
//! multiply-accumulates. No horizontal reduction happens anywhere, and each
//! broadcast serves several accumulators — the property that lets a fused
//! multiply-accumulate instruction pay off.
//!
//! The epilogue adds the bias, requantises onto the consumer's grid
//! (exact round-to-nearest-even, one shift per layer, one multiplier per
//! channel), clamps, interleaves each channel pair back into rows and
//! stores 8 rows per instruction. Lanes past the last output position
//! store zero, so the tiles write the buffer's slack rows but never leave
//! anything but zeros in its pads.
//!
//! ## Dispatch
//!
//! The multiply-accumulate is `vpmaddwd` + `vpaddd` under AVX2. Where the
//! CPU reports AVX-VNNI it is one `vpdpwssd` (non-saturating, so the two
//! bodies compute the same wrapping `i32` sums), chosen by a runtime check
//! whose result the standard library caches after the first query. The
//! choice is the CPU's alone: no option, feature or environment variable
//! selects a body.
//!
//! Every kernel is bit-exact against the scalar reference: integer sums are
//! exact in any order, and the epilogue reimplements
//! `tinynn::quant::Requantizer::apply` operation for operation (verified by
//! the parity tests here and the property suite in `tinynn`).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

/// Depth bound under which an `i32` accumulator cannot overflow (mirrors
/// `tinynn::matmul::QK`): every i8-range × i16 product is below `2²²` and at
/// most 256 of them sum to below `2³¹`.
pub const QK: usize = 256;

/// Bias magnitude bound (`2³⁰`) under which `accumulator + bias` cannot wrap
/// an `i32`: the depth bound keeps `|acc| ≤ 127·32767·256 < 2³⁰`, so the sum
/// stays below `2³¹`. Callers clamp quantised biases to this bound at plan
/// build time, which makes wrapping, saturating and exact addition identical
/// — the property the SIMD epilogue's plain `vpaddd` relies on.
pub const BIAS_BOUND: i32 = 1 << 30;

/// Output positions per vector: the convolution computes and stores whole
/// vectors of this many rows, so a buffer it writes or reads needs its
/// body rounded up to a multiple of `LANES` rows (see [`ConvShape`]).
pub const LANES: usize = 8;

/// Whether the accelerated kernels are compiled in (x86-64 with AVX2
/// statically enabled). When `false`, [`conv_requant`] and
/// [`requantize_add`] always return `false` and callers use their scalar
/// paths.
///
/// Under Miri this is `false` even when AVX2 is statically enabled: the
/// interpreter cannot execute the vendor intrinsics, so the dispatchers
/// decline and `cargo miri test` exercises exactly the scalar-fallback
/// paths (the SIMD parity tests skip themselves through this same gate).
pub const fn available() -> bool {
    cfg!(all(target_arch = "x86_64", target_feature = "avx2", not(miri)))
}

/// Whether [`conv_requant`] runs its AVX-VNNI body (`vpdpwssd`) on this
/// CPU: the accelerated kernels are compiled in and the CPU reports
/// AVX-VNNI. The standard library caches the CPUID query after its first
/// call. Like [`available`], this is `false` under Miri.
pub fn vnni() -> bool {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avxvnni")
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", not(miri))))]
    {
        false
    }
}

/// Where one stride-1 convolution reads its input and writes its output on
/// the pair-major layout (see the crate docs).
///
/// Output position `j` of channel `o` is the dot of weight row `o` with the
/// input rows `in_first + j .. in_first + j + kernel` of every channel, and
/// lands in plane `o / 2`, slot `o % 2`, row `out_first + j` of the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels `C`. A 1-channel input is read as tap pairs.
    pub in_channels: usize,
    /// Output channels `m`.
    pub out_channels: usize,
    /// Taps per channel `k`.
    pub kernel: usize,
    /// Output positions `n`.
    pub len: usize,
    /// Rows of each input plane.
    pub in_rows: usize,
    /// Input row of output position 0's first tap.
    pub in_first: usize,
    /// Rows of each output plane.
    pub out_rows: usize,
    /// Output row of position 0.
    pub out_first: usize,
}

impl ConvShape {
    /// Planes of the input buffer (`⌈C/2⌉`).
    pub fn in_planes(&self) -> usize {
        self.in_channels.div_ceil(2)
    }

    /// Planes of the output buffer (`⌈m/2⌉`).
    pub fn out_planes(&self) -> usize {
        self.out_channels.div_ceil(2)
    }

    /// Length of one weight row: `C · k` rounded up to an even count, the
    /// odd tail paired with an explicit zero.
    pub fn weight_stride(&self) -> usize {
        (self.in_channels * self.kernel).div_ceil(2) * 2
    }

    /// Depth pairs per tap row and the row step between them: channel
    /// pairs at every tap, or, for a 1-channel input, tap pairs two rows
    /// apart.
    fn pair_taps(&self) -> (usize, usize) {
        if self.in_channels == 1 {
            (self.kernel.div_ceil(2), 2)
        } else {
            (self.kernel, 1)
        }
    }
}

/// The requantisation of one layer's accumulators onto the consumer's grid:
/// `clamp(rne((acc + bias[o]) · mults[o] / 2^shift), lo, hi)` per output
/// channel `o`.
#[derive(Clone, Copy, Debug)]
pub struct Requant<'a> {
    /// Bias per output channel, in accumulator units.
    pub bias: &'a [i32],
    /// Fixed-point multiplier per output channel.
    pub mults: &'a [i32],
    /// The right shift every channel shares.
    pub shift: u8,
    /// Lower output clamp (0 fuses a ReLU).
    pub lo: i16,
    /// Upper output clamp.
    pub hi: i16,
}

/// The multiply-accumulate bodies of [`conv_requant`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    /// `vpmaddwd` + `vpaddd`.
    Avx2,
    /// `vpdpwssd`; requires [`vnni`].
    Vnni,
}

/// Fused integer convolution on the pair-major layout: for every output
/// channel `o` and position `j < len`,
/// `out[o, j] = clamp(rne((dot_o(j) + bias[o]) · mults[o] / 2^shift), lo, hi)`
/// with `dot_o(j)` the exact `i32` dot of weight row `o` (`w`, row-major
/// `[m, `[`ConvShape::weight_stride`]`]`) with the input window of
/// position `j`. Lanes past `len` in the last vector store zero.
///
/// Returns `false` (computing nothing) when the call is outside the
/// accelerated envelope — caller falls back to the scalar kernel. The
/// envelope: AVX2 compiled in; `m % 4 == 0`; `C` even or 1; `k ≥ 1` and a
/// weight row of at most [`QK`] codes; both buffers holding every row of
/// the last position vector (the body rounded up to [`LANES`] rows, plus
/// the taps); `1 ≤ shift ≤ 62`; every `|bias[o]| ≤ `[`BIAS_BOUND`]; and
/// every `0 ≤ mults[o] ≤ 2^(shift−1)` (grid ratio ≤ ½): with accumulators
/// bounded by `2³¹` the rounded result then provably fits an `i32`, which
/// lets the epilogue clamp on `i32` lanes. Calibrated inter-layer ratios
/// are ≪ 1, so real layers always qualify.
///
/// # Panics
///
/// Panics if a slice length disagrees with the shape.
pub fn conv_requant(out: &mut [i16], x: &[i16], w: &[i16], g: &ConvShape, rq: &Requant) -> bool {
    let body = if vnni() { Body::Vnni } else { Body::Avx2 };
    conv_requant_with(body, out, x, w, g, rq)
}

/// [`conv_requant`] on an explicit multiply-accumulate body (the tests run
/// every body the host has).
fn conv_requant_with(
    body: Body,
    out: &mut [i16],
    x: &[i16],
    w: &[i16],
    g: &ConvShape,
    rq: &Requant,
) -> bool {
    let (m, c, n) = (g.out_channels, g.in_channels, g.len);
    if !available()
        || m == 0
        || !m.is_multiple_of(4)
        || !(c == 1 || c.is_multiple_of(2))
        || g.kernel == 0
        || g.weight_stride() > QK
        || rq.shift == 0
        || rq.shift > 62
    {
        return false;
    }
    let mult_bound = 1i64 << (rq.shift - 1);
    if rq.mults.iter().any(|&mv| mv < 0 || mv as i64 > mult_bound) {
        return false;
    }
    if rq.bias.iter().any(|&v| v.abs() > BIAS_BOUND) {
        return false;
    }
    let (taps, step) = g.pair_taps();
    let body_rows = n.div_ceil(LANES) * LANES;
    if g.out_first + body_rows > g.out_rows
        || g.in_first + body_rows + (taps - 1) * step > g.in_rows
    {
        return false;
    }
    assert_eq!(w.len(), m * g.weight_stride(), "weights must be {m} rows of {}", g.weight_stride());
    assert_eq!(rq.bias.len(), m, "one bias per output channel ({m})");
    assert_eq!(rq.mults.len(), m, "one multiplier per output channel ({m})");
    assert_eq!(x.len(), g.in_planes() * g.in_rows * 2, "input must be planes x rows x 2");
    assert_eq!(out.len(), g.out_planes() * g.out_rows * 2, "output must be planes x rows x 2");
    if n == 0 {
        return true;
    }
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        match body {
            // SAFETY: AVX2 is statically enabled for this compilation (the
            // cfg above) and the shape checks above bound every row the
            // kernel loads or stores.
            Body::Avx2 => unsafe { avx2::conv_madd(out, x, w, g, rq) },
            Body::Vnni => {
                assert!(vnni(), "the VNNI body needs a CPU that reports AVX-VNNI");
                // SAFETY: `vnni()` just confirmed the running CPU reports
                // AVX-VNNI (AVX2 is statically enabled), and the shape
                // checks above bound every row the kernel loads or stores.
                unsafe { avx2::conv_vnni(out, x, w, g, rq) }
            }
        }
        true
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        let _ = body;
        false
    }
}

/// Vectorised requantise-add of an identity residual shortcut: the block
/// input's codes `src` rescaled onto the output grid and added to the
/// block's output codes `dst`, the final ReLU as the clamp:
/// `dst[i] = clamp(dst[i] + clamp(rne(src[i] · mult / 2^shift), −qmax,
/// qmax), 0, qmax)`, with `qmax ≥ 0`.
///
/// Returns `false` (computing nothing) when unaccelerated or outside the
/// envelope (`1 ≤ shift ≤ 62` and, for `shift < 16`,
/// `0 ≤ mult ≤ 2^(shift+15)`) — caller falls back to the scalar loop. The
/// mult bound keeps `|code · mult / 2^shift| ≤ 2³⁰` for i16 codes, the
/// epilogue's fits-in-i32 invariant, so the sum of two clamped codes fits
/// too; grid-to-grid rescales (ratios near 1, shift ≈ 30) always qualify.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn requantize_add(dst: &mut [i16], src: &[i16], mult: i32, shift: u8, qmax: i16) -> bool {
    assert_eq!(dst.len(), src.len(), "one destination code per source code");
    if !available() || shift == 0 || shift > 62 || mult < 0 {
        return false;
    }
    if shift < 16 && mult as i64 > 1i64 << (shift + 15) {
        return false;
    }
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        // SAFETY: AVX2 statically enabled; equal lengths asserted.
        unsafe { avx2::requantize_add(dst, src, mult, shift, qmax) };
        true
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        false
    }
}

/// Scalar reference of the fixed-point map (`round_ties_even(acc · mult /
/// 2^shift)`, exact in integer arithmetic) — the same math as
/// `tinynn::quant::Requantizer::apply`, duplicated here so this crate's
/// parity tests are self-contained.
pub fn rne_apply(acc: i32, mult: i32, shift: u8) -> i64 {
    let prod = acc as i64 * mult as i64;
    if shift == 0 {
        return prod;
    }
    let floor = prod >> shift;
    let rem = prod & ((1i64 << shift) - 1);
    let half = 1i64 << (shift - 1);
    floor + (((rem > half) as i64) | ((rem == half) as i64 & floor))
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use crate::{ConvShape, Requant, LANES};
    use core::arch::x86_64::*;

    /// Output channels per tile (two output planes).
    const TILE_CHANNELS: usize = 4;

    /// Position vectors per full tile.
    const TILE_VECTORS: usize = 3;

    /// Per-layer requantisation constants, preloaded once per call.
    /// Requires `1 ≤ shift ≤ 62` (the dispatch gates guarantee it).
    struct Epilogue {
        shift: __m256i,
        /// 63 in every lane: masks the shift count (see [`Self::rne4`]).
        low6: __m256i,
        one: __m256i,
        /// `2⁶² + half − 1`: the rounding bias plus an offset that makes
        /// every biased product non-negative.
        round: __m256i,
        /// `2^(62 − shift)` modulo `2³²`: the offset left in the low dword
        /// after the logical shift.
        offset: __m256i,
        lo: __m256i,
        hi: __m256i,
    }

    impl Epilogue {
        #[target_feature(enable = "avx2")]
        fn new(shift: u8, lo: i16, hi: i16) -> Self {
            debug_assert!((1..=62).contains(&shift));
            Self {
                shift: _mm256_set1_epi64x(shift as i64),
                low6: _mm256_set1_epi64x(63),
                one: _mm256_set1_epi64x(1),
                round: _mm256_set1_epi64x((1i64 << 62) + (1i64 << (shift - 1)) - 1),
                offset: _mm256_set1_epi32((1u64 << (62 - shift)) as u32 as i32),
                lo: _mm256_set1_epi32(lo as i32),
                hi: _mm256_set1_epi32(hi as i32),
            }
        }

        /// `round_ties_even(prod / 2^shift) + 2^(62 − shift)` on four `i64`
        /// lanes, via the carry formulation `prod + (half − 1) +
        /// bit_shift(prod)`: adding `half − 1` rounds remainders *above*
        /// half up, and adding the floor's parity bit (bit `shift` of
        /// `prod`) promotes exactly the odd-floor ties. The extra `2⁶²`
        /// makes the biased sum non-negative (`|prod| < 2⁶²`), so one
        /// logical `vpsrlvq` is the floor division; `2⁶²` is a multiple of
        /// `2^shift`, so it leaves the offset `2^(62 − shift)`, which
        /// [`Self::apply8`] subtracts after narrowing. The sum stays below
        /// `2⁶⁴` as an unsigned lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn rne4(&self, prod: __m256i) -> __m256i {
            // `shift ≤ 62`, so the mask changes nothing; it lets LLVM see
            // the count is below 64 and drop its out-of-range guard (a
            // compare and an and-not per shift).
            let shift = _mm256_and_si256(self.shift, self.low6);
            let parity = _mm256_and_si256(_mm256_srlv_epi64(prod, shift), self.one);
            let biased = _mm256_add_epi64(_mm256_add_epi64(prod, self.round), parity);
            _mm256_srlv_epi64(biased, shift)
        }

        /// Requantises eight `i32` accumulators (bias already added) by the
        /// multiplier broadcast in `mult` into eight clamped `i32` lanes,
        /// exactly equal to [`crate::rne_apply`] then clamp.
        ///
        /// `vpmuldq` reads the even dwords, so the odd lanes are shifted
        /// down for a second product. The dispatch gates guarantee every
        /// rounded result fits in `i32` (see the mult bounds on the public
        /// wrappers), so the low dwords carry it modulo `2³²` and the clamp
        /// runs on `i32` lanes after narrowing.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn apply8(&self, acc: __m256i, mult: __m256i) -> __m256i {
            let even = self.rne4(_mm256_mul_epi32(acc, mult));
            let odd = self.rne4(_mm256_mul_epi32(_mm256_srli_epi64::<32>(acc), mult));
            let r = _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd));
            let r = _mm256_sub_epi32(r, self.offset);
            _mm256_min_epi32(_mm256_max_epi32(r, self.lo), self.hi)
        }
    }

    /// The multiply-accumulate of the AVX2 body: `acc + vpmaddwd(x, w)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn madd(acc: __m256i, x: __m256i, w: __m256i) -> __m256i {
        _mm256_add_epi32(acc, _mm256_madd_epi16(x, w))
    }

    /// The multiply-accumulate of the AVX-VNNI body: one `vpdpwssd`.
    #[inline]
    #[target_feature(enable = "avx2,avxvnni")]
    fn dpwssd(acc: __m256i, x: __m256i, w: __m256i) -> __m256i {
        _mm256_dpwssd_avx_epi32(acc, x, w)
    }

    /// Requantises one tile's accumulators and stores them: each channel
    /// pair interleaves back into rows (low word channel `2p`, high word
    /// `2p + 1`), 8 rows per store, and lanes at or past `len` store zero.
    ///
    /// # Safety
    ///
    /// Output planes `o/2, o/2 + 1` must hold rows `out_first + j ..
    /// out_first + j + 8·V` (checked by the dispatcher).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_tile<const V: usize>(
        acc: &[[__m256i; TILE_CHANNELS]; V],
        out: &mut [i16],
        g: &ConvShape,
        rq: &Requant,
        epi: &Epilogue,
        o: usize,
        j: usize,
    ) {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for (v, acc_v) in acc.iter().enumerate() {
            let pos = j + v * LANES;
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((g.len - pos).min(LANES) as i32), lane);
            for pair in 0..TILE_CHANNELS / 2 {
                let (c0, c1) = (o + 2 * pair, o + 2 * pair + 1);
                let lo = _mm256_add_epi32(acc_v[2 * pair], _mm256_set1_epi32(rq.bias[c0]));
                let lo = epi.apply8(lo, _mm256_set1_epi32(rq.mults[c0]));
                let hi = _mm256_add_epi32(acc_v[2 * pair + 1], _mm256_set1_epi32(rq.bias[c1]));
                let hi = epi.apply8(hi, _mm256_set1_epi32(rq.mults[c1]));
                let rows = _mm256_blend_epi16::<0b1010_1010>(lo, _mm256_slli_epi32::<16>(hi));
                let rows = _mm256_and_si256(rows, mask);
                let plane = o / 2 + pair;
                let at = 2 * (plane * g.out_rows + g.out_first + pos);
                // SAFETY: the caller guarantees rows `out_first + pos ..
                // + 8` of this plane exist, i.e. 16 codes from `at`.
                unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(at) as *mut __m256i, rows) };
            }
        }
    }

    /// Expands one convolution body per multiply-accumulate instruction:
    /// the call loop and a tile of `V` position vectors × 4 channels, each
    /// compiled with `$features` so `$mac` inlines into the tile.
    macro_rules! conv_body {
        ($conv:ident, $tile:ident, $features:literal, $mac:ident) => {
            /// The convolution call: 4-channel blocks × 24-position tiles,
            /// then one tile of the remaining 1 to 3 vectors.
            ///
            /// # Safety
            ///
            /// The CPU must support the body's target features, and the
            /// caller must have checked every slice length and row bound of
            /// [`crate::conv_requant`]'s envelope.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn $conv(
                out: &mut [i16],
                x: &[i16],
                w: &[i16],
                g: &ConvShape,
                rq: &Requant,
            ) {
                let epi = Epilogue::new(rq.shift, rq.lo, rq.hi);
                let full = TILE_VECTORS * LANES;
                for o in (0..g.out_channels).step_by(TILE_CHANNELS) {
                    let mut j = 0;
                    while j + full <= g.len {
                        // SAFETY: the caller's envelope covers every tile.
                        unsafe { $tile::<TILE_VECTORS>(out, x, w, g, rq, &epi, o, j) };
                        j += full;
                    }
                    match (g.len - j).div_ceil(LANES) {
                        0 => {}
                        // SAFETY: as above; the last vector's rows are in
                        // the rounded-up body the envelope checked.
                        1 => unsafe { $tile::<1>(out, x, w, g, rq, &epi, o, j) },
                        // SAFETY: as above.
                        2 => unsafe { $tile::<2>(out, x, w, g, rq, &epi, o, j) },
                        // SAFETY: as above.
                        _ => unsafe { $tile::<TILE_VECTORS>(out, x, w, g, rq, &epi, o, j) },
                    }
                }
            }

            /// One tile: channels `o .. o + 4` at positions `j .. j + 8·V`.
            ///
            /// # Safety
            ///
            /// As for the call loop; `j + 8·V` must not pass the rounded-up
            /// body.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            unsafe fn $tile<const V: usize>(
                out: &mut [i16],
                x: &[i16],
                w: &[i16],
                g: &ConvShape,
                rq: &Requant,
                epi: &Epilogue,
                o: usize,
                j: usize,
            ) {
                let (taps, step) = g.pair_taps();
                let planes = g.in_planes();
                let stride = g.weight_stride();
                let mut acc = [[_mm256_setzero_si256(); TILE_CHANNELS]; V];
                let mut xv = [_mm256_setzero_si256(); V];
                let x_at = x.as_ptr().wrapping_add(2 * (g.in_first + j));
                let w_at = w.as_ptr().wrapping_add(o * stride);
                for t in 0..taps {
                    for p in 0..planes {
                        let row = x_at.wrapping_add(2 * (p * g.in_rows + t * step));
                        for (v, xv) in xv.iter_mut().enumerate() {
                            // SAFETY: rows `in_first + j + t·step + 8v ..
                            // + 8` of plane `p` lie inside the input (the
                            // envelope's read bound).
                            *xv = unsafe {
                                _mm256_loadu_si256(row.add(2 * LANES * v) as *const __m256i)
                            };
                        }
                        let pair = 2 * (t * planes + p);
                        for c in 0..TILE_CHANNELS {
                            // SAFETY: `pair + 2 ≤ stride` and channel
                            // `o + c < m`, so the pair lies in weight row
                            // `o + c`.
                            let wp = unsafe {
                                core::ptr::read_unaligned(w_at.add(c * stride + pair) as *const i32)
                            };
                            let wb = _mm256_set1_epi32(wp);
                            for v in 0..V {
                                acc[v][c] = $mac(acc[v][c], xv[v], wb);
                            }
                        }
                    }
                }
                // SAFETY: the output rows of this tile lie inside the
                // rounded-up body the envelope checked.
                unsafe { store_tile::<V>(&acc, out, g, rq, epi, o, j) };
            }
        };
    }

    conv_body!(conv_madd, tile_madd, "avx2", madd);
    conv_body!(conv_vnni, tile_vnni, "avx2,avxvnni", dpwssd);

    /// Vectorised requantise-add (uniform multiplier): widen 8 codes of
    /// each operand to `i32`, requantise and clamp the shortcut, add,
    /// clamp to `[0, qmax]`, pack and store. Tail handled scalar.
    ///
    /// # Safety
    ///
    /// `dst.len() == src.len()` must have been asserted by the caller.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn requantize_add(
        dst: &mut [i16],
        src: &[i16],
        mult: i32,
        shift: u8,
        qmax: i16,
    ) {
        let epi = Epilogue::new(shift, -qmax, qmax);
        let mult_v = _mm256_set1_epi32(mult);
        let (zero, top) = (_mm256_setzero_si256(), _mm256_set1_epi32(qmax as i32));
        let n8 = src.len() / LANES * LANES;
        for i0 in (0..n8).step_by(LANES) {
            // SAFETY: i0 + 8 <= src.len() == dst.len(), two 16-byte loads.
            let (codes, out) = unsafe {
                (
                    _mm_loadu_si128(src.as_ptr().add(i0) as *const __m128i),
                    _mm_loadu_si128(dst.as_ptr().add(i0) as *const __m128i),
                )
            };
            let short = epi.apply8(_mm256_cvtepi16_epi32(codes), mult_v);
            let sum = _mm256_add_epi32(_mm256_cvtepi16_epi32(out), short);
            let v8 = _mm256_min_epi32(_mm256_max_epi32(sum, zero), top);
            // Pack to i16 (saturation is a no-op post-clamp) and fix the
            // 128-bit lane interleave.
            let packed = _mm256_permute4x64_epi64::<0b00_00_10_00>(_mm256_packs_epi32(v8, v8));
            // SAFETY: i0 + 8 <= dst.len(), a 16-byte store.
            unsafe {
                _mm_storeu_si128(
                    dst.as_mut_ptr().add(i0) as *mut __m128i,
                    _mm256_castsi256_si128(packed),
                )
            };
        }
        for i in n8..src.len() {
            let short =
                crate::rne_apply(src[i] as i32, mult, shift).clamp(-qmax as i64, qmax as i64);
            dst[i] = (dst[i] as i64 + short).clamp(0, qmax as i64) as i16;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for test data.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn i16_in(&mut self, bound: i32) -> i16 {
            ((self.next() % (2 * bound as u64 + 1)) as i32 - bound) as i16
        }
    }

    /// Every multiply-accumulate body this host can run, announced on
    /// stdout so a test log shows which ones the parity tests covered.
    fn bodies() -> Vec<Body> {
        let mut bodies = vec![Body::Avx2];
        if vnni() {
            bodies.push(Body::Vnni);
        }
        println!("qsimd bodies under test: {bodies:?}");
        bodies
    }

    /// One random convolution call on the pair-major layout.
    struct Case {
        g: ConvShape,
        /// The signal, channel-major `[C, in_rows]` (zero outside the
        /// body), from which `x` is laid out.
        signal: Vec<i16>,
        x: Vec<i16>,
        w: Vec<i16>,
        bias: Vec<i32>,
    }

    impl Case {
        fn new(rng: &mut Rng, in_c: usize, m: usize, k: usize, n: usize, slack: usize) -> Self {
            let pad = (k - 1) / 2;
            let rows = pad + n.div_ceil(LANES) * LANES + k + slack;
            let g = ConvShape {
                in_channels: in_c,
                out_channels: m,
                kernel: k,
                len: n,
                in_rows: rows,
                in_first: 0,
                out_rows: rows,
                out_first: pad,
            };
            let mut signal = vec![0i16; in_c * rows];
            for c in 0..in_c {
                for r in pad..pad + n {
                    signal[c * rows + r] = rng.i16_in(32767);
                }
            }
            let mut x = vec![0i16; g.in_planes() * rows * 2];
            for c in 0..in_c {
                for r in 0..rows {
                    let v = signal[c * rows + r];
                    if in_c == 1 {
                        x[2 * r] = v;
                        if r > 0 {
                            x[2 * r - 1] = v;
                        }
                    } else {
                        x[((c / 2) * rows + r) * 2 + c % 2] = v;
                    }
                }
            }
            let stride = g.weight_stride();
            let mut w = vec![0i16; m * stride];
            for row in w.chunks_exact_mut(stride) {
                for v in &mut row[..in_c * k] {
                    *v = rng.i16_in(127);
                }
            }
            let bias = (0..m).map(|_| (rng.next() % (1 << 22)) as i32 - (1 << 21)).collect();
            Self { g, signal, x, w, bias }
        }

        /// The scalar reference, in the output layout (zero everywhere but
        /// the body rows).
        fn reference(&self, mults: &[i32], shift: u8, lo: i16, hi: i16) -> Vec<i16> {
            let g = &self.g;
            let (rows, stride) = (g.in_rows, g.weight_stride());
            let mut out = vec![0i16; g.out_planes() * g.out_rows * 2];
            for (o, (&mult, &bias)) in mults.iter().zip(&self.bias).enumerate() {
                for j in 0..g.len {
                    let mut acc = 0i32;
                    for t in 0..g.kernel {
                        for c in 0..g.in_channels {
                            let wv = self.w[o * stride + t * g.in_channels + c] as i32;
                            acc += wv * self.signal[c * rows + g.in_first + j + t] as i32;
                        }
                    }
                    let r = rne_apply(acc + bias, mult, shift);
                    let at = ((o / 2) * g.out_rows + g.out_first + j) * 2 + o % 2;
                    out[at] = r.clamp(lo as i64, hi as i64) as i16;
                }
            }
            out
        }
    }

    #[test]
    fn accelerated_gemm_matches_the_scalar_reference_exactly() {
        if !available() {
            return;
        }
        for body in bodies() {
            let mut rng = Rng(0xC0FFEE);
            for &(in_c, m, k, n) in &[
                (1usize, 8usize, 9usize, 37usize), // the stem: tap pairs, odd depth
                (8, 8, 9, 230),                    // res1 at the served shape
                (8, 16, 9, 229),
                (16, 16, 9, 31),
                (8, 16, 1, 30), // the 1×1 projection
                (1, 4, 1, 17),  // degenerate depth
                (2, 12, 64, 9), // full-depth row, 3 channel blocks
                (32, 4, 8, 11), // depth QK exactly
                (1, 16, 64, 24),
            ] {
                let case = Case::new(&mut rng, in_c, m, k, n, 0);
                for shift in [1u8, 31, 40, 62] {
                    // Multipliers inside the dispatch bound (ratio ≤ ½),
                    // spanning tiny to maximal.
                    let bound = (1u64 << (shift - 1)).min(1 << 30);
                    let mults: Vec<i32> =
                        (0..m).map(|_| (rng.next() % (bound + 1)) as i32).collect();
                    let (lo, hi) = if shift % 2 == 0 { (0i16, 32767i16) } else { (-32767, 32767) };
                    let rq = Requant { bias: &case.bias, mults: &mults, shift, lo, hi };
                    let mut out = vec![0i16; case.g.out_planes() * case.g.out_rows * 2];
                    assert!(conv_requant_with(body, &mut out, &case.x, &case.w, &case.g, &rq));
                    let expect = case.reference(&mults, shift, lo, hi);
                    assert_eq!(out, expect, "{body:?} C={in_c} m={m} k={k} n={n} shift={shift}");
                }
            }
        }
    }

    #[test]
    fn out_of_envelope_shapes_decline_instead_of_computing() {
        let mut rng = Rng(7);
        let case = Case::new(&mut rng, 8, 8, 3, 20, 0);
        let ok = [1 << 30; 8];
        let rq = Requant { bias: &[0; 8], mults: &ok, shift: 31, lo: 0, hi: 32767 };
        let mut out = vec![0i16; case.g.out_planes() * case.g.out_rows * 2];
        assert_eq!(conv_requant(&mut out, &case.x, &case.w, &case.g, &rq), available());
        let decline = |g: &ConvShape, rq: &Requant| {
            let w = vec![0i16; g.out_channels * g.weight_stride()];
            let x = vec![0i16; g.in_planes() * g.in_rows * 2];
            let mut out = vec![0i16; g.out_planes() * g.out_rows * 2];
            assert!(!conv_requant(&mut out, &x, &w, g, rq), "{g:?} must decline");
        };
        // m = 6 is not a multiple of 4; 3 input channels are neither even
        // nor tap pairs; a 300-code weight row passes QK.
        decline(
            &ConvShape { out_channels: 6, ..case.g },
            &Requant { bias: &[0; 6], mults: &[1; 6], ..rq },
        );
        decline(&ConvShape { in_channels: 3, ..case.g }, &rq);
        decline(&ConvShape { in_channels: 100, kernel: 3, ..case.g }, &rq);
        // A buffer without the last vector's slack rows.
        decline(&ConvShape { out_rows: case.g.out_first + 20, ..case.g }, &rq);
        decline(&ConvShape { in_rows: 20 + 2, ..case.g }, &rq);
        // Oversized bias violates the wrap-free addition invariant.
        decline(&case.g, &Requant { bias: &[BIAS_BOUND + 1; 8], ..rq });
        // shift 0 and a multiplier beyond 2^(shift−1) (ratio > ½) break the
        // fits-in-i32 invariant of the vector clamp → scalar fallback.
        decline(&case.g, &Requant { shift: 0, mults: &[1; 8], ..rq });
        decline(&case.g, &Requant { mults: &[(1 << 30) + 1; 8], ..rq });
    }

    #[test]
    fn elementwise_requantise_matches_the_scalar_map() {
        if !available() {
            return;
        }
        let mut rng = Rng(0xBADC0DE);
        let src: Vec<i16> = (0..1003).map(|_| rng.i16_in(32767)).collect();
        let out: Vec<i16> = (0..src.len()).map(|_| rng.i16_in(32767)).collect();
        for &(mult, shift) in
            &[(1_500_000_000i32, 31u8), (1 << 30, 62), (123_456_789, 17), (7, 1), (65_536, 14)]
        {
            for qmax in [32767i16, 1000] {
                let mut dst = out.clone();
                assert!(requantize_add(&mut dst, &src, mult, shift, qmax));
                for (i, ((&d, &o), &s)) in dst.iter().zip(&out).zip(&src).enumerate() {
                    let q = qmax as i64;
                    let short = rne_apply(s as i32, mult, shift).clamp(-q, q);
                    let expect = (o as i64 + short).clamp(0, q) as i16;
                    assert_eq!(d, expect, "index {i} code {s} onto {o}, mult {mult} shift {shift}");
                }
            }
        }
        // shift 0 (no rounding step) and low-shift multipliers beyond
        // 2^(shift+15) fall outside the fits-in-i32 envelope → declined,
        // leaving the destination alone.
        let mut dst = out.clone();
        assert!(!requantize_add(&mut dst, &src, 7, 0, 32767));
        assert!(!requantize_add(&mut dst, &src, (1 << 29) + 1, 14, 32767));
        assert_eq!(dst, out);
    }

    #[test]
    fn rne_rounding_in_the_kernel_breaks_ties_to_even() {
        if !available() {
            return;
        }
        // acc · mult = prod; shift 2 → /4. prod 6 → 1.5 → 2 (even); prod
        // 10 → 2.5 → 2 (even); prod −6 → −1.5 → −2 (even). Added onto 10,
        // through two full vectors and a scalar tail.
        let src = [6i16, 10, -6, 7, -10];
        let mut dst = [10i16; 21];
        let cycled: Vec<i16> = src.iter().copied().cycle().take(dst.len()).collect();
        assert!(requantize_add(&mut dst, &cycled, 1, 2, 32767));
        let expect: Vec<i16> = [12i16, 12, 8, 12, 8].into_iter().cycle().take(21).collect();
        assert_eq!(dst[..], expect[..]);
        // The same ties through every convolution body: a 1×1 convolution
        // with unit weights on channel 0 passes the codes through as
        // accumulators.
        for body in bodies() {
            let g = ConvShape {
                in_channels: 2,
                out_channels: 4,
                kernel: 1,
                len: src.len(),
                in_rows: LANES,
                in_first: 0,
                out_rows: LANES,
                out_first: 0,
            };
            let mut x = vec![0i16; 2 * LANES];
            for (r, &v) in src.iter().enumerate() {
                x[2 * r] = v;
            }
            let w = [1i16, 0, 1, 0, 1, 0, 1, 0];
            let rq = Requant { bias: &[0; 4], mults: &[1; 4], shift: 2, lo: -32767, hi: 32767 };
            let mut out = vec![0i16; 2 * LANES * 2];
            assert!(conv_requant_with(body, &mut out, &x, &w, &g, &rq));
            for o in 0..4 {
                let codes: Vec<i16> =
                    (0..src.len()).map(|r| out[((o / 2) * LANES + r) * 2 + o % 2]).collect();
                assert_eq!(codes, [2, 2, -2, 2, -2], "{body:?} channel {o}");
            }
            for plane in out.chunks_exact(2 * LANES) {
                assert!(plane[2 * src.len()..].iter().all(|&v| v == 0), "{body:?} slack rows");
            }
        }
    }
}
