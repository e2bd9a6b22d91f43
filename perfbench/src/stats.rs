//! Order statistics for the report: medians and the tail percentile a
//! sample can support.

/// Percentiles the tail helper may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: which one, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub p: f64,
    pub value: f64,
    pub n: usize,
}

impl std::fmt::Display for Quantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{} {:.3} ms", self.p, self.value)
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values` (any order), or `None` when
/// there are no values.
pub fn percentile(values: &[f64], p: f64) -> Option<Quantile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Quantile { p, value: sorted[rank(p, sorted.len()) - 1], n: sorted.len() })
}

/// The median of `values`, or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).map_or(0.0, |q| q.value)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when the sample is too small
/// for any of them.
pub fn tail(values: &[f64]) -> Option<Quantile> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
        .and_then(|&p| percentile(values, p))
}

/// Nearest-rank 90th percentile of `values`, or 0 for an empty slice.
pub fn p90(values: &[f64]) -> f64 {
    percentile(values, 90.0).map_or(0.0, |q| q.value)
}

/// A latency summary for the log: median, 90th percentile and the highest
/// percentile the sample supports, with the sample count.
pub fn latency_note(values: &[f64]) -> String {
    let supported =
        tail(values).map_or("no percentile has 10 samples beyond it".into(), |q| q.to_string());
    format!(
        "p50 {:.3} ms, p90 {:.3} ms, {supported} (n={})",
        median(values),
        p90(values),
        values.len()
    )
}

/// `part / whole` as a percentage, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 exactly 10.
        let q = tail(&ramp(1000)).unwrap();
        assert_eq!((q.p, q.value, q.n), (99.0, 990.0, 1000));
        // 999 samples: p99 sits at rank 990 and leaves only 9 beyond.
        let q = tail(&ramp(999)).unwrap();
        assert_eq!((q.p, q.value, q.n), (95.0, 950.0, 999));
        // 100 samples: p95 leaves 5, p90 exactly 10.
        let q = tail(&ramp(100)).unwrap();
        assert_eq!((q.p, q.value, q.n), (90.0, 90.0, 100));
        // 20 samples: only the median has 10 beyond.
        assert_eq!(tail(&ramp(20)).unwrap().p, 50.0);
        // 19 samples support no ladder percentile at all.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_reports_n_and_ignores_input_order() {
        let mut values = ramp(250);
        values.reverse();
        let q = tail(&values).unwrap();
        assert_eq!(q.n, 250);
        assert_eq!(q.p, 95.0);
        assert_eq!(q.value, 238.0);
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&ramp(10), 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&ramp(10), 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn pct_handles_empty_base() {
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
    }
}
