//! The training kernels: batch norm's per-channel `f64` sums and the `f32`
//! transpose a convolution backward takes of its output gradient.
//!
//! Both reproduce a plain scalar loop bit for bit. The transpose only moves
//! values. The sums keep every lane's terms and their order: each channel
//! is one `f64` lane, which adds its terms from `0.0` in batch-then-position
//! order, so every lane is the serial sum of a loop over one channel.

/// `(batch, channels, len)` of a row-major `[batch, channels, len]` tensor.
pub type Dims = (usize, usize, usize);

/// The per-element terms of [`channel_sums`], each formed with the
/// operations named here and no others (no fused multiply-add).
#[derive(Clone, Copy, Debug)]
pub enum SumTerms<'a> {
    /// One sum per channel: each value `v` widened to `f64` (a batch mean's
    /// numerator).
    Value,
    /// One sum per channel: `v − mean[c]` rounded in `f32`, then widened
    /// and squared in `f64` (a batch variance's numerator).
    SquaredDeviation(&'a [f32]),
    /// Two sums per channel: `v` widened, and `v · w` with `w` the same
    /// element of this second tensor, both widened and multiplied in `f64`
    /// (batch norm's `Σdy` and `Σdy·x̂`).
    ValueAndProduct(&'a [f32]),
}

/// Per-channel `f64` sums over a row-major `[batch, channels, len]` tensor
/// `x`: `sums[c][s]` becomes the sum of channel `c`'s term `s` (see
/// [`SumTerms`]), added from `0.0` in batch-then-position order, the bits of
/// a plain loop over one channel at a time. A one-term variant writes `0.0`
/// to `sums[c][1]`.
///
/// Each channel runs in one `f64` lane. Register transposes in 128-bit
/// lanes turn four channels' rows of eight positions into eight position
/// vectors, which `vcvtps2pd` widens, and up to four such channel blocks run
/// side by side so their add chains overlap.
///
/// Returns `false` (computing nothing) when the kernels are not compiled in
/// (see [`crate::available`]); the caller then runs its scalar loop.
///
/// # Panics
///
/// Panics (whether or not the kernels are compiled in) if `x`, the second tensor or the means disagree with `dims`, or
/// `sums` does not hold one entry per channel.
pub fn channel_sums(sums: &mut [[f64; 2]], x: &[f32], terms: SumTerms, dims: Dims) -> bool {
    let (batch, channels, len) = dims;
    assert_eq!(x.len(), batch * channels * len, "x must be batch x channels x len");
    assert_eq!(sums.len(), channels, "one sum entry per channel ({channels})");
    match terms {
        SumTerms::Value => {}
        SumTerms::SquaredDeviation(mean) => {
            assert_eq!(mean.len(), channels, "one mean per channel ({channels})");
        }
        SumTerms::ValueAndProduct(w) => {
            assert_eq!(w.len(), x.len(), "the second tensor must match x");
        }
    }
    if !crate::available() {
        return false;
    }
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        // SAFETY: AVX2 is statically enabled for this compilation (the cfg
        // above), and every length the kernel reads or writes is asserted
        // above.
        unsafe { avx2::channel_sums(sums, x, terms, dims) };
        true
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        false
    }
}

/// Writes the `[len, rows]` transpose of a row-major `[rows, len]` block
/// into `dst`: `dst[j·rows + r] = src[r·len + j]`. Whole 8×8 blocks go
/// through 256-bit registers; the rows and positions past the last whole
/// block are copied one value at a time.
///
/// Returns `false` (computing nothing) when the kernels are not compiled in
/// (see [`crate::available`]); the caller then runs its scalar loop.
///
/// # Panics
///
/// Panics (whether or not the kernels are compiled in) if `src` or `dst` does not hold `rows · len` values.
pub fn transpose(dst: &mut [f32], src: &[f32], rows: usize, len: usize) -> bool {
    assert_eq!(src.len(), rows * len, "src must be rows x len");
    assert_eq!(dst.len(), rows * len, "dst must be len x rows");
    if !crate::available() {
        return false;
    }
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        // SAFETY: AVX2 is statically enabled for this compilation (the cfg
        // above), and both lengths are asserted above.
        unsafe { avx2::transpose(dst, src, rows, len) };
        true
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        false
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::{Dims, SumTerms};
    use core::arch::x86_64::*;

    /// Channels per block: one 4-lane `f64` vector.
    const BLOCK: usize = 4;

    /// Channel blocks whose sums run side by side.
    const GROUP: usize = 4;

    /// [`SumTerms`] as a const parameter of the loops.
    const VALUE: u8 = 0;
    const SQUARED_DEVIATION: u8 = 1;
    const VALUE_AND_PRODUCT: u8 = 2;

    /// [`super::channel_sums`], one loop per kind of terms.
    ///
    /// # Safety
    ///
    /// The caller must have checked every length of
    /// [`super::channel_sums`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn channel_sums(
        sums: &mut [[f64; 2]],
        x: &[f32],
        terms: SumTerms,
        dims: Dims,
    ) {
        // SAFETY: (all three arms) the caller checked the lengths.
        unsafe {
            match terms {
                SumTerms::Value => sum_groups::<VALUE>(sums, x, x, &[], dims),
                SumTerms::SquaredDeviation(mean) => {
                    sum_groups::<SQUARED_DEVIATION>(sums, x, x, mean, dims)
                }
                SumTerms::ValueAndProduct(w) => {
                    sum_groups::<VALUE_AND_PRODUCT>(sums, x, w, &[], dims)
                }
            }
        }
    }

    /// `KIND`'s sums ([`sum_group`]) on groups of up to [`GROUP`] channel
    /// blocks.
    ///
    /// # Safety
    ///
    /// As for [`sum_group`], for every channel.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_groups<const KIND: u8>(
        sums: &mut [[f64; 2]],
        x: &[f32],
        w: &[f32],
        mean: &[f32],
        dims: Dims,
    ) {
        let mut c0 = 0;
        while c0 < dims.1 {
            let blocks = (dims.1 - c0).div_ceil(BLOCK).min(GROUP);
            // SAFETY: (all four arms) the caller's lengths, and
            // `c0 < channels`.
            unsafe {
                match blocks {
                    1 => sum_group::<1, KIND>(sums, x, w, mean, dims, c0),
                    2 => sum_group::<2, KIND>(sums, x, w, mean, dims, c0),
                    3 => sum_group::<3, KIND>(sums, x, w, mean, dims, c0),
                    _ => sum_group::<4, KIND>(sums, x, w, mean, dims, c0),
                }
            }
            c0 += blocks * BLOCK;
        }
    }

    /// Adds one position's widened terms onto a block's sums: `a`, four
    /// channels' values (deviations for [`SQUARED_DEVIATION`]), and `b`,
    /// the second tensor's, with the operations [`SumTerms`] names for
    /// `KIND`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_terms<const KIND: u8>(acc: &mut [__m256d; 2], a: __m256d, b: __m256d) {
        match KIND {
            VALUE => acc[0] = _mm256_add_pd(acc[0], a),
            SQUARED_DEVIATION => acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(a, a)),
            _ => {
                acc[0] = _mm256_add_pd(acc[0], a);
                acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(a, b));
            }
        }
    }

    /// Positions `j .. j + 8` of four rows of `data` (row `i` starting at
    /// offset `rows[i]`), transposed in 128-bit lanes: the low half of
    /// vector `t` holds the four rows' values at position `j + t`, its high
    /// half those at `j + 4 + t`.
    ///
    /// # Safety
    ///
    /// Every `rows[i] + j + 8` must be at most the length of `data`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_transposed(data: *const f32, rows: &[usize; BLOCK], j: usize) -> [__m256; 4] {
        // SAFETY: the caller guarantees eight values from each offset.
        transpose_lanes(rows.map(|r| unsafe { _mm256_loadu_ps(data.add(r + j)) }))
    }

    /// The 4×4 transpose of each 128-bit lane of four vectors: lane `h` of
    /// output `t` holds element `t` of lane `h` of every input, in input
    /// order. Both stages pick even then odd elements (`vshufps` 0x88 and
    /// 0xDD), a pattern the compiler cannot rewrite into `vunpcklpd` and
    /// `vunpckhpd`, which issue on fewer ports than `vshufps` on recent
    /// Intel cores.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose_lanes([r0, r1, r2, r3]: [__m256; 4]) -> [__m256; 4] {
        let (even01, odd01) =
            (_mm256_shuffle_ps::<0x88>(r0, r1), _mm256_shuffle_ps::<0xDD>(r0, r1));
        let (even23, odd23) =
            (_mm256_shuffle_ps::<0x88>(r2, r3), _mm256_shuffle_ps::<0xDD>(r2, r3));
        [
            _mm256_shuffle_ps::<0x88>(even01, even23),
            _mm256_shuffle_ps::<0x88>(odd01, odd23),
            _mm256_shuffle_ps::<0xDD>(even01, even23),
            _mm256_shuffle_ps::<0xDD>(odd01, odd23),
        ]
    }

    /// 8-position steps staged per chunk by [`sum_group`].
    const STEPS: usize = 8;

    /// One chunk's transposed `f32` blocks: `[step][block][t]` holds
    /// [`load_transposed`]'s vector `t`.
    type Staged<const G: usize> = [[[[f32; 8]; 4]; G]; STEPS];

    /// Channels `c0 .. c0 + 4·G` of [`super::channel_sums`], whose terms
    /// are `KIND`'s over `x` and `w` (`w` is `x` unless paired) with the
    /// channel means `mean` (read by [`SQUARED_DEVIATION`] only). Lanes
    /// past the last channel repeat it; their sums are not stored.
    ///
    /// Each item runs in chunks of up to [`STEPS`] · 8 positions: one loop
    /// transposes the chunk in registers (subtracting the means, for
    /// [`SQUARED_DEVIATION`]) and stages it on the stack, and a second
    /// loop widens it with `vcvtps2pd` straight from memory, which skips
    /// the shuffle port a register conversion and an extract would share
    /// with the transposes. Positions past the last whole step go one at a
    /// time.
    ///
    /// # Safety
    ///
    /// `x` and `w` must hold `batch · channels · len` values, `sums`
    /// `channels` entries and, for [`SQUARED_DEVIATION`], `mean` too;
    /// `c0 < channels`.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_group<const G: usize, const KIND: u8>(
        sums: &mut [[f64; 2]],
        x: &[f32],
        w: &[f32],
        mean: &[f32],
        (batch, channels, len): Dims,
        c0: usize,
    ) {
        let lane_channel = |b: usize, i: usize| (c0 + BLOCK * b + i).min(channels - 1);
        let means: [[f32; BLOCK]; G] = std::array::from_fn(|b| {
            std::array::from_fn(|i| {
                if KIND == SQUARED_DEVIATION {
                    mean[lane_channel(b, i)]
                } else {
                    0.0
                }
            })
        });
        let mean_halves =
            means.map(|[m0, m1, m2, m3]| _mm256_setr_ps(m0, m1, m2, m3, m0, m1, m2, m3));
        let mut acc = [[_mm256_setzero_pd(); 2]; G];
        let mut staged_x: Staged<G> = [[[[0.0; 8]; 4]; G]; STEPS];
        let mut staged_w: Staged<G> = [[[[0.0; 8]; 4]; G]; STEPS];
        for item in 0..batch {
            let rows: [[usize; BLOCK]; G] = std::array::from_fn(|b| {
                std::array::from_fn(|i| (item * channels + lane_channel(b, i)) * len)
            });
            let mut j = 0;
            while j + 8 <= len {
                let steps = ((len - j) / 8).min(STEPS);
                for (s, (chunk_x, chunk_w)) in
                    staged_x.iter_mut().zip(&mut staged_w).enumerate().take(steps)
                {
                    for b in 0..G {
                        // SAFETY: every row holds `len ≥ j + 8s + 8` values
                        // inside `x` and `w`, whose lengths the caller
                        // checked.
                        let v = unsafe { load_transposed(x.as_ptr(), &rows[b], j + 8 * s) };
                        for (dst, v_t) in chunk_x[b].iter_mut().zip(v) {
                            let v_t = if KIND == SQUARED_DEVIATION {
                                _mm256_sub_ps(v_t, mean_halves[b])
                            } else {
                                v_t
                            };
                            // SAFETY: an 8-lane store into an 8-element array.
                            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v_t) };
                        }
                        if KIND == VALUE_AND_PRODUCT {
                            // SAFETY: as above.
                            let u = unsafe { load_transposed(w.as_ptr(), &rows[b], j + 8 * s) };
                            for (dst, u_t) in chunk_w[b].iter_mut().zip(u) {
                                // SAFETY: as above.
                                unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), u_t) };
                            }
                        }
                    }
                }
                for (chunk_x, chunk_w) in staged_x.iter().zip(&staged_w).take(steps) {
                    for (acc_b, (block_x, block_w)) in
                        acc.iter_mut().zip(chunk_x.iter().zip(chunk_w))
                    {
                        for half in [0, 4] {
                            for (v_t, u_t) in block_x.iter().zip(block_w) {
                                // SAFETY: `half + 4 ≤ 8`, four values inside
                                // the staged vector.
                                let a = unsafe { _mm_loadu_ps(v_t.as_ptr().add(half)) };
                                let b = if KIND == VALUE_AND_PRODUCT {
                                    // SAFETY: as above.
                                    unsafe { _mm_loadu_ps(u_t.as_ptr().add(half)) }
                                } else {
                                    a
                                };
                                add_terms::<KIND>(acc_b, _mm256_cvtps_pd(a), _mm256_cvtps_pd(b));
                            }
                        }
                    }
                }
                j += 8 * steps;
            }
            for j in j..len {
                for (acc_b, (rows_b, [m0, m1, m2, m3])) in
                    acc.iter_mut().zip(rows.iter().zip(&means))
                {
                    let [v0, v1, v2, v3] = rows_b.map(|r| x[r + j]);
                    let [u0, u1, u2, u3] = rows_b.map(|r| w[r + j]);
                    let v = _mm_setr_ps(v0, v1, v2, v3);
                    let v = if KIND == SQUARED_DEVIATION {
                        _mm_sub_ps(v, _mm_setr_ps(*m0, *m1, *m2, *m3))
                    } else {
                        v
                    };
                    let u = _mm_setr_ps(u0, u1, u2, u3);
                    add_terms::<KIND>(acc_b, _mm256_cvtps_pd(v), _mm256_cvtps_pd(u));
                }
            }
        }
        for (b, acc_b) in acc.iter().enumerate() {
            let mut lanes = [[0.0f64; BLOCK]; 2];
            for (lane, &sum) in lanes.iter_mut().zip(acc_b) {
                // SAFETY: a 4-lane store into a 4-element array.
                unsafe { _mm256_storeu_pd(lane.as_mut_ptr(), sum) };
            }
            let [first, second] = lanes;
            let channels = sums.iter_mut().skip(c0 + BLOCK * b).take(BLOCK);
            for (entry, (sum, product)) in channels.zip(first.into_iter().zip(second)) {
                *entry = [sum, product];
            }
        }
    }

    /// Rows and positions of one register block of [`transpose`].
    const TILE: usize = 8;

    /// [`super::transpose`]: whole 8×8 blocks in registers, the rest one
    /// value at a time.
    ///
    /// # Safety
    ///
    /// `src` and `dst` must each hold `rows · len` values.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn transpose(dst: &mut [f32], src: &[f32], rows: usize, len: usize) {
        let (whole_rows, whole_len) = (rows / TILE * TILE, len / TILE * TILE);
        for r0 in (0..whole_rows).step_by(TILE) {
            for j0 in (0..whole_len).step_by(TILE) {
                // SAFETY: rows `r0 .. r0 + 8` and positions `j0 .. j0 + 8`
                // exist, and the caller checked both lengths.
                unsafe { transpose_tile(dst.as_mut_ptr(), src.as_ptr(), rows, len, r0, j0) };
            }
        }
        for r in 0..rows {
            let from = if r < whole_rows { whole_len } else { 0 };
            for j in from..len {
                dst[j * rows + r] = src[r * len + j];
            }
        }
    }

    /// One 8×8 block of [`transpose`]: rows `r0 .. r0 + 8` at positions
    /// `j0 .. j0 + 8`. Each 256-bit register is loaded with four positions
    /// of row `r0 + i` in its low half and of row `r0 + 4 + i` in its high
    /// half, so in-lane shuffles alone leave each position's eight rows in
    /// one register.
    ///
    /// # Safety
    ///
    /// `r0 + 8 ≤ rows`, `j0 + 8 ≤ len`, and `src` and `dst` must each hold
    /// `rows · len` values.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_tile(
        dst: *mut f32,
        src: *const f32,
        rows: usize,
        len: usize,
        r0: usize,
        j0: usize,
    ) {
        for half in [j0, j0 + 4] {
            let q: [__m256; 4] = std::array::from_fn(|i| {
                // SAFETY: rows `r0 + i` and `r0 + 4 + i` hold positions
                // `half .. half + 4` (the caller's bounds).
                let (lo, hi) = unsafe {
                    (
                        _mm_loadu_ps(src.add((r0 + i) * len + half)),
                        _mm_loadu_ps(src.add((r0 + 4 + i) * len + half)),
                    )
                };
                _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
            });
            for (t, column) in transpose_lanes(q).into_iter().enumerate() {
                // SAFETY: position `half + t` of the transpose holds rows
                // `r0 .. r0 + 8` (the caller's bounds).
                unsafe { _mm256_storeu_ps(dst.add((half + t) * rows + r0), column) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values that show any change of summation order in the bits: `±0.0`,
    /// large magnitudes, and spikes that nearly cancel, over small noise.
    fn hostile(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let small = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                match state % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 3e12 + small,
                    3 => -3e12,
                    4 => 7.5e14 * small,
                    5 => 1e-30 * small,
                    _ => small,
                }
            })
            .collect()
    }

    /// The scalar loop every kernel lane reproduces (the callers' fallback
    /// order): one channel at a time, its terms added from `0.0` in
    /// batch-then-position order.
    fn plain_sums(x: &[f32], terms: SumTerms, (batch, channels, len): Dims) -> Vec<[f64; 2]> {
        let mut sums = vec![[0.0f64; 2]; channels];
        for (c, sum) in sums.iter_mut().enumerate() {
            for item in 0..batch {
                for i in (item * channels + c) * len..(item * channels + c + 1) * len {
                    match terms {
                        SumTerms::Value => sum[0] += x[i] as f64,
                        SumTerms::SquaredDeviation(mean) => {
                            sum[0] += ((x[i] - mean[c]) as f64).powi(2);
                        }
                        SumTerms::ValueAndProduct(w) => {
                            sum[0] += x[i] as f64;
                            sum[1] += x[i] as f64 * w[i] as f64;
                        }
                    }
                }
            }
        }
        sums
    }

    #[test]
    fn channel_sums_match_the_plain_loop_bit_for_bit() {
        let bits = |sums: &[[f64; 2]]| sums.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>();
        let mut cases = 0;
        for channels in 1..=17 {
            // Every tail of an 8-position block, and whole blocks only.
            for len in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 13, 24] {
                for batch in [1usize, 32] {
                    let dims = (batch, channels, len);
                    let n = batch * channels * len;
                    let x = hostile((channels * 100 + len) as u64, n);
                    let w = hostile((channels * 100 + len + 50) as u64, n);
                    let mean: Vec<f32> = hostile(channels as u64, channels);
                    for terms in [
                        SumTerms::Value,
                        SumTerms::SquaredDeviation(&mean),
                        SumTerms::ValueAndProduct(&w),
                    ] {
                        let mut sums = vec![[f64::NAN; 2]; channels];
                        if !crate::available() {
                            // Unaccelerated (and under Miri): the kernel
                            // declines and leaves the sums alone.
                            assert!(!channel_sums(&mut sums, &x, terms, dims));
                            assert!(sums.iter().flatten().all(|s| s.is_nan()));
                            return;
                        }
                        assert!(channel_sums(&mut sums, &x, terms, dims));
                        let want = plain_sums(&x, terms, dims);
                        assert_eq!(bits(&sums), bits(&want), "{terms:?} at {dims:?}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 17 * 11 * 2 * 3);
    }

    #[test]
    fn transpose_matches_the_plain_loop_bit_for_bit() {
        for rows in 1..=17 {
            // Every tail of an 8-position block, and whole blocks only.
            for len in (0..=17).chain([24, 41]) {
                let src = hostile((rows * 100 + len) as u64, rows * len);
                let mut dst = vec![f32::NAN; rows * len];
                if !crate::available() {
                    assert!(!transpose(&mut dst, &src, rows, len));
                    assert!(dst.iter().all(|v| v.is_nan()));
                    return;
                }
                assert!(transpose(&mut dst, &src, rows, len));
                for (r, src_row) in src.chunks_exact(len.max(1)).enumerate() {
                    for (j, &v) in src_row.iter().enumerate() {
                        let got = dst[j * rows + r];
                        assert_eq!(got.to_bits(), v.to_bits(), "{rows}x{len} at ({r}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one mean per channel")]
    fn channel_sums_reject_a_short_mean() {
        let x = [1.0f32; 12];
        channel_sums(&mut [[0.0; 2]; 3], &x, SumTerms::SquaredDeviation(&[0.0; 2]), (1, 3, 4));
    }
}
