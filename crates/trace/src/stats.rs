//! Basic statistics: mean, variance, Pearson correlation and a numerically
//! stable streaming accumulator used by the incremental CPA implementation.

use serde::{Deserialize, Serialize};

/// Arithmetic mean of the samples. Returns 0.0 for an empty slice.
pub fn mean(samples: &[f32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64) as f32
}

/// Population variance of the samples. Returns 0.0 for an empty slice.
pub fn variance(samples: &[f32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = mean(samples) as f64;
    (samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / samples.len() as f64) as f32
}

/// Population standard deviation of the samples. Returns 0.0 for an empty slice.
pub fn std(samples: &[f32]) -> f32 {
    variance(samples).sqrt()
}

/// Pearson correlation coefficient between two equally long slices.
///
/// Returns 0.0 if either slice is constant, empty, or the lengths differ
/// (a degenerate correlation is treated as "no correlation" rather than an
/// error because the CPA loop calls this in the hot path).
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() || a.is_empty() {
        return 0.0;
    }
    let n = a.len() as f64;
    let mean_a = a.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mean_b = b.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for i in 0..a.len() {
        let da = a[i] as f64 - mean_a;
        let db = b[i] as f64 - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        return 0.0;
    }
    (cov / (var_a.sqrt() * var_b.sqrt())) as f32
}

/// Streaming accumulator of the sums needed to compute Pearson correlation
/// between a scalar prediction series and many trace sample points at once.
///
/// This is the classic "online CPA" formulation: for every new trace we feed
/// the hypothetical leakage value `h` and the trace samples `t[j]`, and the
/// accumulator maintains `Σh`, `Σh²`, `Σt[j]`, `Σt[j]²` and `Σh·t[j]`. The
/// correlation at any point can then be computed in O(1) per sample without
/// storing traces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelationAccumulator {
    n: u64,
    sum_h: f64,
    sum_h2: f64,
    sum_t: Vec<f64>,
    sum_t2: Vec<f64>,
    sum_ht: Vec<f64>,
}

impl CorrelationAccumulator {
    /// Creates an accumulator for traces of `num_samples` points.
    pub fn new(num_samples: usize) -> Self {
        Self {
            n: 0,
            sum_h: 0.0,
            sum_h2: 0.0,
            sum_t: vec![0.0; num_samples],
            sum_t2: vec![0.0; num_samples],
            sum_ht: vec![0.0; num_samples],
        }
    }

    /// Number of (prediction, trace) pairs accumulated so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of trace sample points tracked by the accumulator.
    pub fn num_samples(&self) -> usize {
        self.sum_t.len()
    }

    /// Adds one observation: hypothetical leakage `h` and its trace `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t.len()` differs from the accumulator width.
    pub fn update(&mut self, h: f32, t: &[f32]) {
        assert_eq!(
            t.len(),
            self.sum_t.len(),
            "trace length {} does not match accumulator width {}",
            t.len(),
            self.sum_t.len()
        );
        let h = h as f64;
        self.n += 1;
        self.sum_h += h;
        self.sum_h2 += h * h;
        for (j, &tj) in t.iter().enumerate() {
            let tj = tj as f64;
            self.sum_t[j] += tj;
            self.sum_t2[j] += tj * tj;
            self.sum_ht[j] += h * tj;
        }
    }

    /// Computes the Pearson correlation at every trace sample point.
    ///
    /// Degenerate points (zero variance, fewer than two observations) yield 0.0.
    pub fn correlations(&self) -> Vec<f32> {
        let n = self.n as f64;
        if self.n < 2 {
            return vec![0.0; self.sum_t.len()];
        }
        let var_h = self.sum_h2 - self.sum_h * self.sum_h / n;
        (0..self.sum_t.len())
            .map(|j| {
                let var_t = self.sum_t2[j] - self.sum_t[j] * self.sum_t[j] / n;
                let cov = self.sum_ht[j] - self.sum_h * self.sum_t[j] / n;
                if var_h <= 0.0 || var_t <= 0.0 {
                    0.0
                } else {
                    (cov / (var_h.sqrt() * var_t.sqrt())) as f32
                }
            })
            .collect()
    }

    /// Maximum absolute correlation over all sample points (the usual CPA
    /// distinguisher score for one key hypothesis).
    pub fn max_abs_correlation(&self) -> f32 {
        self.correlations().iter().fold(0.0f32, |acc, &c| acc.max(c.abs()))
    }
}

/// Hamming weight of a byte (number of set bits), the standard leakage model.
pub fn hamming_weight(value: u8) -> u32 {
    value.count_ones()
}

/// Hamming distance between two bytes.
pub fn hamming_distance(a: u8, b: u8) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-6);
        assert!((variance(&v) - 4.0).abs() < 1e-5);
        assert!((std(&v) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-6);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn accumulator_matches_direct_pearson() {
        // Deterministic pseudo-random data.
        let mut state = 0x12345678u32;
        let mut next = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1 << 24) as f32
        };
        let n_traces = 50;
        let n_samples = 7;
        let mut hs = Vec::new();
        let mut ts: Vec<Vec<f32>> = Vec::new();
        let mut acc = CorrelationAccumulator::new(n_samples);
        for _ in 0..n_traces {
            let h = next();
            let t: Vec<f32> =
                (0..n_samples).map(|j| next() + if j == 3 { h } else { 0.0 }).collect();
            acc.update(h, &t);
            hs.push(h);
            ts.push(t);
        }
        let corr = acc.correlations();
        for j in 0..n_samples {
            let column: Vec<f32> = ts.iter().map(|t| t[j]).collect();
            let direct = pearson(&hs, &column);
            assert!((corr[j] - direct).abs() < 1e-4, "sample {j}: {} vs {}", corr[j], direct);
        }
        // The correlated sample must dominate.
        let best = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3);
    }

    #[test]
    fn accumulator_fewer_than_two_observations() {
        let mut acc = CorrelationAccumulator::new(4);
        assert_eq!(acc.correlations(), vec![0.0; 4]);
        acc.update(1.0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(acc.correlations(), vec![0.0; 4]);
        assert_eq!(acc.count(), 1);
    }

    #[test]
    #[should_panic(expected = "does not match accumulator width")]
    fn accumulator_width_mismatch_panics() {
        let mut acc = CorrelationAccumulator::new(3);
        acc.update(1.0, &[1.0, 2.0]);
    }

    #[test]
    fn hamming_weight_and_distance() {
        assert_eq!(hamming_weight(0x00), 0);
        assert_eq!(hamming_weight(0xFF), 8);
        assert_eq!(hamming_weight(0xA5), 4);
        assert_eq!(hamming_distance(0xFF, 0x0F), 4);
        assert_eq!(hamming_distance(0x55, 0x55), 0);
    }
}
