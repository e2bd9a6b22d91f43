//! Per-channel symmetric `i8` weight quantisation, activation quantisation
//! and the fixed-point requantisation machinery of the integer-chained
//! inference path.
//!
//! The quantisation scheme is the standard inference recipe:
//!
//! * **Weights** are quantised *per output channel* (per row of the GEMM
//!   operand): each row gets its own scale `s_r = max|w_r| / 127` and is
//!   stored as `i8` values `q = round(w / s_r)`. Per-channel scales bound the
//!   roundtrip error of every weight by `s_r / 2` — one badly scaled channel
//!   cannot poison the rest.
//! * **Activations** are `i16` codes. Serving quantises the network
//!   *input* once against a statically calibrated scale
//!   ([`quantize_with_scale`]) and then keeps every inter-layer activation
//!   in `i16` — no f32 roundtrip between layers. One window's activation
//!   travels between layers as a [`QuantActs`], channel-pair-major (see
//!   its docs). Calibration, which chooses
//!   those static scales, quantises each window on its own grid (scale
//!   `max|x| / 32767`, [`quantize_activations_into`]).
//! * **Accumulation** is integer (`i32` within depth panels). Serving maps
//!   the sums straight onto the next layer's `i16` input grid with a
//!   precomputed per-channel [`Requantizer`] (`acc · m ≫ shift`,
//!   round-to-nearest-even — the Jacob et al. integer-only recipe), with
//!   ReLU fused as the `[0, 32767]` clamp of that same store; calibration
//!   rescales them into `f32` with `s_row · s_act`.
//!
//! Biases on the fixed-point path are pre-quantised to accumulator units
//! (`round(b / (s_row · s_in))`, a [`QuantPlan`]). The global average pool
//! sums the last layer's codes exactly in `i64` and dequantises each
//! channel's mean once; the tiny fully connected head stays `f32`.

use serde::{Deserialize, Serialize};

/// Largest magnitude representable by the `i8` weight grid.
pub const WEIGHT_QMAX: f32 = 127.0;

/// Largest magnitude representable by the `i16` activation grid.
pub const ACT_QMAX: f32 = 32767.0;

/// A per-row (per-output-channel) symmetrically quantised GEMM operand:
/// `i8` weights, one `f32` scale per row, and the `f32` bias of the layer.
///
/// This is the weight storage of [`crate::qlayers::QuantizedConv1d`] and the
/// unit the versioned model format serialises.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedGemm {
    data: Vec<i8>,
    /// The same codes widened to `i16` once at construction, each row
    /// padded with a zero to an even length (`[rows, cols16]`, see
    /// [`Self::data16`]): the integer kernels multiply `i16 × i16` pairs
    /// (the x86 `pmaddwd` shape), so keeping a widened shadow copy moves
    /// the sign extension out of every inner loop. Never serialised —
    /// rebuilt from `data` on load.
    data16: Vec<i16>,
    scales: Vec<f32>,
    bias: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl PartialEq for QuantizedGemm {
    fn eq(&self, other: &Self) -> bool {
        // `data16` is derived state; comparing it would be redundant.
        self.data == other.data
            && self.scales == other.scales
            && self.bias == other.bias
            && self.rows == other.rows
            && self.cols == other.cols
    }
}

impl QuantizedGemm {
    /// Quantises a row-major `[rows, cols]` weight matrix with per-row
    /// symmetric scales. A row of zeros gets scale `1.0` (never `NaN` or
    /// zero), so dequantisation is always well defined.
    ///
    /// Each row's scale is the classic `max|w| / 127`: round-to-nearest
    /// onto that grid keeps every weight within half a step and never
    /// clips. (A per-row reconstruction-MSE scale search below absmax was
    /// tried and measurably *worsened* end-to-end score parity — clipping a
    /// row's largest taps costs the dot products more than the finer grid
    /// buys — so the simple rule stays.)
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols` or `bias.len() != rows`.
    pub fn from_f32(weights: &[f32], bias: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(weights.len(), rows * cols, "weights must be rows*cols = {rows}x{cols}");
        assert_eq!(bias.len(), rows, "bias length must equal the row count {rows}");
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for row in weights.chunks(cols) {
            let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / WEIGHT_QMAX };
            let inv = 1.0 / scale;
            scales.push(scale);
            data.extend(
                row.iter().map(|&v| (v * inv).round().clamp(-WEIGHT_QMAX, WEIGHT_QMAX) as i8),
            );
        }
        let data16 = widen_rows(&data, cols);
        Self { data, data16, scales, bias: bias.to_vec(), rows, cols }
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (fan-in per output channel).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `i8` weight block, row-major `[rows, cols]` (the serialised
    /// representation).
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The weight codes widened to `i16` (same values as [`Self::data`]),
    /// row-major `[rows, cols16]` with each row zero-padded to the even
    /// length [`Self::cols16`]: the operand of the integer convolution
    /// kernels, which read two consecutive codes of a row as one pair.
    pub fn data16(&self) -> &[i16] {
        &self.data16
    }

    /// Row length of [`Self::data16`]: [`Self::cols`] rounded up to an
    /// even count.
    pub fn cols16(&self) -> usize {
        self.cols.div_ceil(2) * 2
    }

    /// Per-row dequantisation scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The layer bias (kept in `f32`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Bytes occupied by the quantised weight block (excluding scales/bias).
    pub fn quantized_bytes(&self) -> usize {
        self.data.len()
    }

    /// Total heap bytes this operand keeps resident at serving time: the
    /// `i8` block, its derived `i16` widened copy, and the per-row
    /// scale/bias vectors. This is the number a model registry should
    /// budget against, not [`Self::quantized_bytes`] (the on-disk size).
    pub fn resident_bytes(&self) -> usize {
        self.data.len() + self.data16.len() * 2 + (self.scales.len() + self.bias.len()) * 4
    }

    /// Replaces the quantised payload (used by the model loader).
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if any length disagrees with
    /// the operand's `[rows, cols]` geometry.
    pub fn set_payload(
        &mut self,
        data: Vec<i8>,
        scales: Vec<f32>,
        bias: Vec<f32>,
    ) -> Result<(), String> {
        if data.len() != self.rows * self.cols {
            return Err(format!(
                "quantised block length {} does not match {}x{}",
                data.len(),
                self.rows,
                self.cols
            ));
        }
        if scales.len() != self.rows {
            return Err(format!("scale count {} does not match {} rows", scales.len(), self.rows));
        }
        if bias.len() != self.rows {
            return Err(format!("bias count {} does not match {} rows", bias.len(), self.rows));
        }
        self.data16 = widen_rows(&data, self.cols);
        self.data = data;
        self.scales = scales;
        self.bias = bias;
        Ok(())
    }

    /// Dequantises the weight block back to `f32` (row-major), mainly for
    /// tests and diagnostics.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.data.len());
        for (row, &scale) in self.data.chunks(self.cols).zip(self.scales.iter()) {
            out.extend(row.iter().map(|&q| q as f32 * scale));
        }
        out
    }
}

/// Widens row-major `i8` codes of `cols` per row to `i16`, padding each row
/// with a zero to an even length.
fn widen_rows(data: &[i8], cols: usize) -> Vec<i16> {
    let cols16 = cols.div_ceil(2) * 2;
    let mut wide = vec![0i16; data.len().div_ceil(cols.max(1)) * cols16];
    for (dst, src) in wide.chunks_exact_mut(cols16).zip(data.chunks_exact(cols.max(1))) {
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = q as i16;
        }
    }
    wide
}

/// `1.5 · 2²³` — for `|r| ≤ 2²², r + MAGIC` has a fixed exponent, so its
/// low 16 mantissa bits are `round(r)` in two's complement. The classic
/// magic-constant float→code trick: no float→int cast instruction exists in
/// the quantisation loops — a saturating `as i16` (and `f32::round`, a
/// libcall) would each keep LLVM from vectorising them (~13× slower,
/// measured).
const MAGIC: f32 = 12_582_912.0;

/// Dynamically quantises an activation slice to `i16` with one symmetric
/// scale, writing into `dst` (cleared first) and returning the scale.
///
/// An all-zero (or empty) input yields scale `1.0` and zero codes, so the
/// caller never sees a `NaN` or zero scale. Non-finite inputs do not poison
/// the grid: the scale is chosen from the *finite* values only, `±inf`
/// saturates to the grid limits and `NaN` maps to code 0.
pub fn quantize_activations_into(src: &[f32], dst: &mut Vec<i16>) -> f32 {
    let max_abs = src.iter().fold(0.0f32, |m, &v| {
        let a = v.abs();
        // A non-finite sample must not drive the grid: `inf` would zero
        // every other code and `NaN` would poison the fold.
        if a.is_finite() {
            m.max(a)
        } else {
            m
        }
    });
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / ACT_QMAX };
    dst.resize(src.len(), 0);
    quantize_with_scale(src, scale, dst);
    scale
}

/// Quantises an activation slice to `i16` against a *fixed* symmetric scale
/// (the statically calibrated grid of the fixed-point inference chain),
/// writing one code per sample into `dst`.
///
/// Values beyond the grid (including `±inf`) saturate to `±32767`; `NaN`
/// maps to code 0 — untrusted trace data can never produce garbage codes.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()` or `scale` is not finite and positive.
pub fn quantize_with_scale(src: &[f32], scale: f32, dst: &mut [i16]) {
    assert_eq!(dst.len(), src.len(), "one code per sample");
    assert!(scale.is_finite() && scale > 0.0, "activation scale must be finite and positive");
    let inv = 1.0 / scale;
    for (d, &v) in dst.iter_mut().zip(src.iter()) {
        *d = code(v, inv);
    }
}

/// The code of one sample on the grid of step `1 / inv`.
#[inline]
fn code(v: f32, inv: f32) -> i16 {
    // NaN → 0 before the grid clamp (a compare+select, vectorisable);
    // max/min (not `clamp`) so the result of the multiply can never reach
    // the bit trick as a NaN either.
    let v = if v.is_nan() { 0.0 } else { v };
    #[allow(clippy::manual_clamp)]
    let r = (v * inv).max(-ACT_QMAX).min(ACT_QMAX);
    (r + MAGIC).to_bits() as u16 as i16
}

// ---------------------------------------------------------------------------
// Fixed-point requantisation
// ---------------------------------------------------------------------------

/// A positive real ratio `r ≈ mult · 2^(-shift)` in fixed point, used to map
/// one quantisation grid onto another without any float arithmetic:
/// `apply(acc)` computes `round_ties_even(acc · r)` **exactly** for the
/// stored dyadic ratio.
///
/// `mult` is normalised into `[2³⁰, 2³¹)` whenever the shift budget allows,
/// so the ratio carries ~31 significant bits; `shift ≤ 62` keeps the
/// `i32 × i32` product inside `i64`. Degenerate ratios (zero, negative,
/// non-finite) collapse to the all-zero requantiser, which maps every
/// accumulator to 0 — never garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requantizer {
    mult: i32,
    shift: u8,
}

impl Requantizer {
    /// Largest shift: `acc · mult` is bounded by `2³¹ · 2³¹ = 2⁶²`, so any
    /// shift up to 62 stays an ordinary `i64` arithmetic shift.
    pub const MAX_SHIFT: u8 = 62;

    /// Builds the fixed-point approximation of `ratio` (typically
    /// `s_weight · s_in / s_out`). The relative approximation error is
    /// ≤ 2⁻³¹ for any ratio in `(2⁻³², 2³⁰)` — far below the `i16` grid.
    pub fn from_ratio(ratio: f64) -> Self {
        if !ratio.is_finite() || ratio <= 0.0 {
            return Self { mult: 0, shift: 0 };
        }
        let mut scaled = ratio;
        let mut shift: u8 = 0;
        while scaled < (1u64 << 30) as f64 && shift < Self::MAX_SHIFT {
            scaled *= 2.0;
            shift += 1;
        }
        while scaled >= (1u64 << 31) as f64 && shift > 0 {
            scaled /= 2.0;
            shift -= 1;
        }
        let mut mult = scaled.round_ties_even();
        // Rounding can land exactly on 2³¹; renormalise (2³⁰ · 2 is exact).
        if mult >= (1u64 << 31) as f64 && shift > 0 {
            mult /= 2.0;
            shift -= 1;
        }
        if mult > i32::MAX as f64 {
            // Pathological ratio ≥ ~2³⁰ with no shift budget left: saturate.
            return Self { mult: i32::MAX, shift };
        }
        Self { mult: mult as i32, shift }
    }

    /// Builds the fixed-point approximation of `ratio` at a *caller-chosen*
    /// shift: `mult = rne(ratio · 2^shift)`, saturated to `i32::MAX`.
    ///
    /// This is how a [`QuantPlan`] aligns every channel of a layer onto one
    /// shared shift (the SIMD epilogue divides all lanes by the same power
    /// of two): channels whose natural shift exceeds the shared one lose
    /// their lowest multiplier bits, a relative error of at most
    /// `2^(-shift) / ratio` — negligible as long as the per-channel ratios
    /// of a layer sit within a few powers of two of each other, which
    /// per-output-channel weight scales of one layer always do.
    ///
    /// Degenerate ratios (zero, negative, non-finite) collapse to the
    /// all-zero map at the requested shift, like [`Self::from_ratio`].
    pub fn with_shift(ratio: f64, shift: u8) -> Self {
        let shift = shift.min(Self::MAX_SHIFT);
        if !ratio.is_finite() || ratio <= 0.0 {
            return Self { mult: 0, shift };
        }
        let mult = (ratio * (1u64 << shift) as f64).round_ties_even();
        if mult > i32::MAX as f64 {
            return Self { mult: i32::MAX, shift };
        }
        Self { mult: mult as i32, shift }
    }

    /// The fixed-point multiplier.
    pub fn mult(self) -> i32 {
        self.mult
    }

    /// The right-shift paired with [`Self::mult`].
    pub fn shift(self) -> u8 {
        self.shift
    }

    /// The real ratio this requantiser encodes (`mult · 2^(-shift)`).
    pub fn ratio(self) -> f64 {
        self.mult as f64 / (1u64 << self.shift) as f64
    }

    /// `round_ties_even(acc · mult / 2^shift)`, computed exactly in integer
    /// arithmetic. Branchless: the arithmetic shift is a floor division
    /// whose non-negative remainder decides the round-up, with the tie
    /// broken towards the even floor.
    #[inline]
    pub fn apply(self, acc: i32) -> i64 {
        let prod = acc as i64 * self.mult as i64;
        if self.shift == 0 {
            return prod;
        }
        let floor = prod >> self.shift;
        let rem = prod & ((1i64 << self.shift) - 1);
        let half = 1i64 << (self.shift - 1);
        // rem > half → +1; rem == half → +1 only if floor is odd (the two
        // conditions are exclusive, so a plain `|` combines them).
        floor + (((rem > half) as i64) | ((rem == half) as i64 & floor))
    }

    /// Requantises an accumulator onto an `i16` grid segment: [`Self::apply`]
    /// then clamp to `[lo, hi]`. `lo = 0` *is* the fused ReLU of the
    /// integer chain.
    #[inline]
    pub fn requantize_i16(self, acc: i32, lo: i16, hi: i16) -> i16 {
        self.apply(acc).clamp(lo as i64, hi as i64) as i16
    }
}

/// The precomputed fixed-point execution plan of one quantised GEMM layer:
/// per-output-channel requantisers onto the consumer's grid, the bias in
/// accumulator units, and the output clamp (which encodes a fused ReLU).
#[derive(Debug, Clone)]
pub struct QuantPlan {
    /// One requantiser per output channel
    /// (`s_weight[oc] · s_in / s_out`), all sharing [`Self::shift`].
    pub mults: Vec<Requantizer>,
    /// The multipliers of [`Self::mults`] as a bare `i32` slice — the
    /// operand shape of the SIMD requantisation epilogue.
    pub mults_i32: Vec<i32>,
    /// The shift shared by every channel of this layer. Per-channel
    /// requantisers naturally normalise to per-channel shifts; the plan
    /// re-expresses them all at the layer minimum
    /// ([`Requantizer::with_shift`]) so the vector epilogue divides all
    /// lanes by one power of two instead of doing per-lane variable 64-bit
    /// shifts (which AVX2 does not have).
    pub shift: u8,
    /// Bias pre-quantised to accumulator units:
    /// `round(b[oc] / (s_weight[oc] · s_in))`, added to the integer dot
    /// product before requantisation. Clamped to `±2³⁰`
    /// ([`qsimd::BIAS_BOUND`]): with depth-bounded accumulators below `2³⁰`
    /// the sum then never wraps an `i32`, so the plain vector add of the
    /// SIMD kernel and the saturating add of the scalar kernel are the same
    /// operation. (A bias beyond `2³⁰` accumulator units is ~`2¹⁵` output
    /// grids past the clamp — the clamp is where such an output lands
    /// regardless.)
    pub bias_q: Vec<i32>,
    /// Lower output clamp (0 when a ReLU is fused, −32767 otherwise).
    pub lo: i16,
    /// Upper output clamp (always 32767).
    pub hi: i16,
    /// The input activation scale the plan was built for.
    pub in_scale: f32,
    /// The output activation scale the plan maps onto.
    pub out_scale: f32,
}

impl QuantPlan {
    /// Builds the plan of `gemm` for a fixed input/output activation grid.
    ///
    /// # Panics
    ///
    /// Panics if either scale is not finite and positive.
    pub fn new(gemm: &QuantizedGemm, in_scale: f32, out_scale: f32, fused_relu: bool) -> Self {
        assert!(in_scale.is_finite() && in_scale > 0.0, "input scale must be finite and positive");
        assert!(
            out_scale.is_finite() && out_scale > 0.0,
            "output scale must be finite and positive"
        );
        let ratios: Vec<f64> = gemm
            .scales()
            .iter()
            .map(|&s_w| s_w as f64 * in_scale as f64 / out_scale as f64)
            .collect();
        // The layer's shared shift: the smallest natural shift across
        // channels (ignoring degenerate zero-maps). Channels with larger
        // natural shifts re-express at this one, trading their lowest
        // multiplier bits — see `Requantizer::with_shift`.
        let shift = ratios
            .iter()
            .map(|&r| Requantizer::from_ratio(r))
            .filter(|r| r.mult() != 0)
            .map(|r| r.shift())
            .min()
            .unwrap_or(0);
        let mults: Vec<Requantizer> =
            ratios.iter().map(|&r| Requantizer::with_shift(r, shift)).collect();
        let mults_i32 = mults.iter().map(|r| r.mult()).collect();
        let mut bias_q = Vec::with_capacity(gemm.rows());
        for (&s_w, &b) in gemm.scales().iter().zip(gemm.bias().iter()) {
            let acc_scale = s_w as f64 * in_scale as f64;
            let q = if b.is_finite() { (b as f64 / acc_scale).round_ties_even() } else { 0.0 };
            bias_q.push(q.clamp(-(qsimd::BIAS_BOUND as f64), qsimd::BIAS_BOUND as f64) as i32);
        }
        let lo = if fused_relu { 0 } else { -(ACT_QMAX as i16) };
        Self { mults, mults_i32, shift, bias_q, lo, hi: ACT_QMAX as i16, in_scale, out_scale }
    }
}

/// One window's quantised activations in the channel-pair-major,
/// zero-padded layout of the fixed-point convolutions — the unit that
/// travels *between* layers of the fixed-point chain.
///
/// The codes form `⌈channels/2⌉` planes of `rows × 2` codes: row `r` of
/// plane `p` holds channels `2p` and `2p + 1` (`codes[(p·rows + r)·2 +
/// c % 2]`, see [`Self::get`]); an odd channel count leaves the last
/// plane's second slot zero. A 1-channel buffer (the network input)
/// instead stores overlapping tap pairs: row `r` holds `(x[r], x[r + 1])`,
/// so its first slots read as the plain signal. One unaligned vector load
/// at a row of a plane thus returns the depth pairs of consecutive output
/// positions (see the `qsimd` crate docs).
///
/// Rows `pad_left .. pad_left + len` hold the signal and every other code
/// is zero: the pads a kernel window reaches past the signal, and slack
/// rows that round the body up to whole vectors of [`qsimd::LANES`]
/// positions, which the vector kernel reads and writes (lanes past the
/// signal store zero). A consumer with kernel `k'` and left padding `p'`
/// reads output position `j`'s taps from rows `pad_left - p' + j ..`, so
/// one geometry ([`Self::rows_for`]) serves every kernel size in the
/// network — the uniform-`k` convolutions *and* the 1×1 projection.
///
/// The chain shapes each buffer once per call ([`Self::reshape`]) and every
/// window of the call then overwrites the body rows only, so the pads and
/// slack stay zero without being touched again.
#[derive(Debug, Clone, Default)]
pub struct QuantActs {
    /// The codes, `[⌈channels/2⌉, rows, 2]`.
    pub codes: Vec<i16>,
    /// Channel count.
    pub channels: usize,
    /// Signal length (body rows).
    pub len: usize,
    /// Zero rows before the body.
    pub pad_left: usize,
    /// Rows per plane: body, pads and slack.
    pub rows: usize,
    /// The activation scale of the codes (`value = code · scale`).
    pub scale: f32,
}

impl QuantActs {
    /// Rows per plane that let every kernel up to `max_kernel` taps read
    /// and write `len` positions with left padding `(max_kernel − 1) / 2`:
    /// the body rounded up to whole [`qsimd::LANES`] vectors plus
    /// `max_kernel − 1` pad rows.
    pub fn rows_for(len: usize, max_kernel: usize) -> usize {
        len.next_multiple_of(qsimd::LANES) + max_kernel.max(1) - 1
    }

    /// Shapes the buffer as `rows` zero rows of `channels` codes, the body
    /// starting at row `pad_left`, reusing its capacity. The producer
    /// overwrites the body and sets the scale.
    ///
    /// # Panics
    ///
    /// Panics if `rows < pad_left + len`.
    pub fn reshape(&mut self, channels: usize, len: usize, pad_left: usize, rows: usize) {
        assert!(rows >= pad_left + len, "padded rows must cover the body");
        self.codes.clear();
        self.codes.resize(channels.div_ceil(2) * rows * 2, 0);
        (self.channels, self.len, self.pad_left, self.rows) = (channels, len, pad_left, rows);
    }

    /// The code of channel `c` at row `r` (a body row is `pad_left + j`).
    pub fn get(&self, c: usize, r: usize) -> i16 {
        self.codes[((c / 2) * self.rows + r) * 2 + c % 2]
    }

    /// Quantises one window onto [`Self::scale`] into the body of this
    /// 1-channel buffer, as tap pairs: sample `i` lands in the first slot
    /// of body row `i` and the second slot of the row before, with the
    /// codes of [`quantize_with_scale`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer has more than one channel, if `src` is not one
    /// sample per body row, or if the scale is not finite and positive.
    pub fn quantize_taps(&mut self, src: &[f32]) {
        assert_eq!(self.channels, 1, "tap pairs hold a single channel");
        assert_eq!(src.len(), self.len, "one sample per body row");
        let scale = self.scale;
        assert!(scale.is_finite() && scale > 0.0, "activation scale must be finite and positive");
        let inv = 1.0 / scale;
        let Some((&first, rest)) = src.split_first() else { return };
        // x[r] is code 2r (row r, first slot) and code 2r − 1 (row r − 1,
        // second slot).
        let start = 2 * self.pad_left;
        let q = code(first, inv);
        self.codes[start] = q;
        if start > 0 {
            self.codes[start - 1] = q;
        }
        let tail = &mut self.codes[start + 1..start + 2 * src.len() - 1];
        for (pair, &v) in tail.chunks_exact_mut(2).zip(rest) {
            let q = code(v, inv);
            pair.fill(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn per_row_scales_are_max_abs_over_127() {
        let w = vec![1.0f32, -2.0, 0.5, 0.0, 0.25, -0.125];
        let g = QuantizedGemm::from_f32(&w, &[0.0, 0.0], 2, 3);
        assert_eq!(g.scales()[0], 2.0 / WEIGHT_QMAX);
        assert_eq!(g.scales()[1], 0.25 / WEIGHT_QMAX);
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_scale() {
        let w = init::uniform(&[4, 33], -0.7, 0.7, 42);
        let g = QuantizedGemm::from_f32(w.data(), &[0.0; 4], 4, 33);
        let back = g.dequantize();
        for (r, (orig_row, deq_row)) in w.data().chunks(33).zip(back.chunks(33)).enumerate() {
            let half = g.scales()[r] / 2.0;
            for (&a, &b) in orig_row.iter().zip(deq_row.iter()) {
                assert!((a - b).abs() <= half * 1.0001, "row {r}: {a} vs {b} (half {half})");
            }
        }
    }

    #[test]
    fn zero_row_has_finite_scale_and_zero_codes() {
        let w = vec![0.0f32; 8];
        let g = QuantizedGemm::from_f32(&w, &[1.0, -1.0], 2, 4);
        assert!(g.scales().iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(g.data().iter().all(|&q| q == 0));
        assert_eq!(g.dequantize(), vec![0.0; 8]);
    }

    #[test]
    fn activation_quantisation_is_symmetric_and_tight() {
        let x = vec![0.5f32, -1.5, 0.0, 1.5];
        let mut q = Vec::new();
        let scale = quantize_activations_into(&x, &mut q);
        assert_eq!(scale, 1.5 / ACT_QMAX);
        assert_eq!(q[1], -32767);
        assert_eq!(q[3], 32767);
        assert_eq!(q[2], 0);
        for (&orig, &code) in x.iter().zip(q.iter()) {
            assert!((orig - code as f32 * scale).abs() <= scale / 2.0 * 1.0001);
        }
    }

    #[test]
    fn all_zero_activations_do_not_produce_nan_scale() {
        let mut q = Vec::new();
        let scale = quantize_activations_into(&[0.0; 5], &mut q);
        assert_eq!(scale, 1.0);
        assert!(q.iter().all(|&v| v == 0));
        let scale = quantize_activations_into(&[], &mut q);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn non_finite_activations_saturate_instead_of_poisoning_the_grid() {
        // One inf/NaN among ordinary samples: the scale must come from the
        // finite values, inf must saturate and NaN must map to silence.
        let x = vec![0.5f32, f32::INFINITY, -2.0, f32::NAN, f32::NEG_INFINITY, 2.0];
        let mut q = Vec::new();
        let scale = quantize_activations_into(&x, &mut q);
        assert_eq!(scale, 2.0 / ACT_QMAX, "scale must ignore the non-finite samples");
        assert_eq!(q[1], 32767, "+inf saturates to the positive grid limit");
        assert_eq!(q[3], 0, "NaN maps to code 0");
        assert_eq!(q[4], -32767, "-inf saturates to the negative grid limit");
        assert_eq!(q[5], 32767);
        // All-non-finite input: fallback scale 1.0, still no garbage.
        let scale = quantize_activations_into(&[f32::NAN, f32::INFINITY], &mut q);
        assert_eq!(scale, 1.0);
        assert_eq!(q, vec![0, 32767]);
    }

    #[test]
    fn fixed_scale_quantisation_matches_dynamic_grid_and_saturates() {
        let x = vec![0.25f32, -1.0, 3.0, f32::NAN, f32::NEG_INFINITY];
        let scale = 1.0 / ACT_QMAX;
        let mut q = vec![0i16; x.len()];
        quantize_with_scale(&x, scale, &mut q);
        assert_eq!(q[0], 8192);
        assert_eq!(q[1], -32767);
        assert_eq!(q[2], 32767, "beyond-grid values saturate");
        assert_eq!(q[3], 0);
        assert_eq!(q[4], -32767);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn fixed_scale_quantisation_rejects_bad_scale() {
        quantize_with_scale(&[1.0], f32::NAN, &mut [0i16]);
    }

    #[test]
    fn requantizer_mult_is_normalised_and_ratio_tight() {
        for ratio in [1e-6f64, 3.7e-4, 0.021, 0.5, 1.0, 7.3, 900.0] {
            let r = Requantizer::from_ratio(ratio);
            assert!(
                (1 << 30..1i64 << 31).contains(&(r.mult() as i64)),
                "mult {} for ratio {ratio} not normalised",
                r.mult()
            );
            assert!((r.ratio() - ratio).abs() <= ratio * 2e-9, "ratio {ratio} vs {}", r.ratio());
        }
        // Degenerate ratios collapse to the zero map.
        for bad in [0.0f64, -1.0, f64::NAN, f64::INFINITY] {
            let r = Requantizer::from_ratio(bad);
            assert_eq!((r.mult(), r.shift()), (0, 0));
            assert_eq!(r.apply(12345), 0);
        }
    }

    #[test]
    fn requantizer_rounds_ties_to_even() {
        // ratio 0.5 → mult 2³⁰, shift 31: apply(acc) = RNE(acc / 2).
        let r = Requantizer::from_ratio(0.5);
        assert_eq!(r.apply(2), 1);
        assert_eq!(r.apply(3), 2, "1.5 rounds to even 2");
        assert_eq!(r.apply(5), 2, "2.5 rounds to even 2");
        assert_eq!(r.apply(-3), -2, "-1.5 rounds to even -2");
        assert_eq!(r.apply(-5), -2, "-2.5 rounds to even -2");
    }

    #[test]
    fn quant_plan_clamp_encodes_fused_relu() {
        let gemm = QuantizedGemm::from_f32(&[1.0, -1.0], &[0.5, -0.5], 2, 1);
        let plan = QuantPlan::new(&gemm, 1e-3, 1e-3, true);
        assert_eq!((plan.lo, plan.hi), (0, 32767));
        let plan = QuantPlan::new(&gemm, 1e-3, 1e-3, false);
        assert_eq!((plan.lo, plan.hi), (-32767, 32767));
        // bias_q = round(b / (s_w · s_in)) with s_w = 1/127.
        let expect = (0.5f64 / (1.0 / 127.0 * 1e-3)).round_ties_even() as i32;
        assert_eq!(plan.bias_q[0], expect);
        assert_eq!(plan.bias_q[1], -expect);
    }

    #[test]
    fn quant_acts_reshape_zeroes_the_pads_around_the_body() {
        let mut acts = QuantActs { codes: vec![7i16; 40], ..QuantActs::default() };
        // 3 channels: two planes, the second with an empty slot.
        acts.reshape(3, 4, 1, 6);
        assert_eq!(acts.codes.len(), 2 * 6 * 2);
        assert!(acts.codes.iter().all(|&v| v == 0), "stale codes are cleared");
        assert_eq!(acts.get(2, 3), acts.codes[(6 + 3) * 2]);
        assert_eq!(acts.get(1, 5), acts.codes[5 * 2 + 1]);
        // A 1-channel buffer holds tap pairs: (x[r], x[r + 1]) per row.
        let mut taps = QuantActs { scale: 1.0 / ACT_QMAX, ..QuantActs::default() };
        taps.reshape(1, 3, 2, QuantActs::rows_for(3, 5));
        assert_eq!(taps.rows, 8 + 4);
        taps.quantize_taps(&[0.25, -1.0, 0.5]);
        let rows: Vec<[i16; 2]> = taps.codes.chunks_exact(2).map(|p| [p[0], p[1]]).collect();
        assert_eq!(
            &rows[..6],
            &[[0, 0], [0, 8192], [8192, -32767], [-32767, 16384], [16384, 0], [0, 0]]
        );
        assert!(rows[6..].iter().all(|&p| p == [0, 0]), "slack rows stay zero");
        let body: Vec<i16> = (0..3).map(|j| taps.get(0, taps.pad_left + j)).collect();
        let mut plain = [0i16; 3];
        quantize_with_scale(&[0.25, -1.0, 0.5], taps.scale, &mut plain);
        assert_eq!(body, plain, "the first slots are the plain codes");
    }

    #[test]
    fn data16_rows_pair_up_and_zero_pad_odd_depths() {
        // Depth 5: each widened row gains a zero, so two consecutive codes
        // of a row always form a pair and no pair straddles two rows.
        let w = [1.0f32, -2.0, 3.0, -4.0, 127.0, 5.0, 6.0, -7.0, 8.0, 127.0];
        let mut g = QuantizedGemm::from_f32(&w, &[0.0; 2], 2, 5);
        assert_eq!(g.cols16(), 6);
        assert_eq!(g.data16(), &[1, -2, 3, -4, 127, 0, 5, 6, -7, 8, 127, 0]);
        assert_eq!(g.resident_bytes(), 10 + 12 * 2 + 4 * 4, "i8 block, i16 rows, scales, bias");
        // A loaded payload rebuilds the padded rows.
        g.set_payload(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0], vec![1.0; 2], vec![0.0; 2]).unwrap();
        assert_eq!(g.data16(), &[9, 8, 7, 6, 5, 0, 4, 3, 2, 1, 0, 0]);
        // Even depths need no padding.
        let mut even = QuantizedGemm::from_f32(&w, &[0.0; 5], 5, 2);
        even.set_payload((0..10).collect(), vec![1.0; 5], vec![0.0; 5]).unwrap();
        assert_eq!(even.data16(), (0..10).collect::<Vec<i16>>());
    }

    #[test]
    fn set_payload_validates_lengths() {
        let mut g = QuantizedGemm::from_f32(&[1.0; 6], &[0.0; 2], 2, 3);
        assert!(g.set_payload(vec![0; 5], vec![1.0; 2], vec![0.0; 2]).is_err());
        assert!(g.set_payload(vec![0; 6], vec![1.0; 3], vec![0.0; 2]).is_err());
        assert!(g.set_payload(vec![0; 6], vec![1.0; 2], vec![0.0; 1]).is_err());
        assert!(g.set_payload(vec![0; 6], vec![1.0; 2], vec![0.0; 2]).is_ok());
    }
}
