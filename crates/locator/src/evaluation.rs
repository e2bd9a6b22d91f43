//! Hit-rate evaluation of located CO starts against ground truth
//! (the "Hits (%)" metric of Table II and Section IV-B).

use serde::{Deserialize, Serialize};

/// The result of comparing located CO starts with the ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitReport {
    /// Number of true COs that were matched by a located start.
    pub hits: usize,
    /// Total number of true COs.
    pub total: usize,
    /// Number of located starts that did not match any true CO (false alarms).
    pub false_positives: usize,
    /// Pairs `(true_start, located_start)` of the matches.
    pub matches: Vec<(usize, usize)>,
}

impl HitReport {
    /// Hit percentage (the "Hits (%)" column of Table II). 0.0 when there are
    /// no true COs.
    pub fn percentage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.total as f64
        }
    }

    /// Precision in percent: the share of located starts that hit a CO,
    /// `100 · hits / (hits + false_positives)`. 0.0 when nothing was
    /// located.
    pub fn precision(&self) -> f64 {
        let located = self.hits + self.false_positives;
        if located == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / located as f64
        }
    }

    /// `true` when every CO was located and there were no false alarms.
    pub fn is_perfect(&self) -> bool {
        self.hits == self.total && self.false_positives == 0
    }

    /// Mean absolute localisation error, in samples, over the matched COs
    /// (0.0 if nothing matched).
    pub fn mean_abs_error(&self) -> f64 {
        if self.matches.is_empty() {
            return 0.0;
        }
        self.matches.iter().map(|&(t, l)| t.abs_diff(l) as f64).sum::<f64>()
            / self.matches.len() as f64
    }
}

/// Scores located CO starts against ground truth.
///
/// A located start is a *hit* for a true CO if it falls within `tolerance`
/// samples of the true start; every true CO can be matched by at most one
/// located start and vice versa (greedy nearest matching in trace order).
pub fn hit_rate(located: &[usize], truth: &[usize], tolerance: usize) -> HitReport {
    let mut used = vec![false; located.len()];
    let mut matches = Vec::new();
    for &t in truth {
        // Find the closest unused located start within tolerance.
        let mut best: Option<(usize, usize)> = None; // (located index, distance)
        for (i, &l) in located.iter().enumerate() {
            if used[i] {
                continue;
            }
            let dist = l.abs_diff(t);
            if dist <= tolerance && best.is_none_or(|(_, d)| dist < d) {
                best = Some((i, dist));
            }
        }
        if let Some((i, _)) = best {
            used[i] = true;
            matches.push((t, located[i]));
        }
    }
    HitReport {
        hits: matches.len(),
        total: truth.len(),
        false_positives: used.iter().filter(|&&u| !u).count(),
        matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_match() {
        let r = hit_rate(&[100, 500, 900], &[102, 498, 903], 10);
        assert_eq!(r.hits, 3);
        assert_eq!(r.false_positives, 0);
        assert!(r.is_perfect());
        assert!((r.percentage() - 100.0).abs() < 1e-9);
        assert!(r.mean_abs_error() <= 4.0);
    }

    #[test]
    fn missed_and_false_positive() {
        let r = hit_rate(&[100, 700], &[100, 400], 50);
        assert_eq!(r.hits, 1);
        assert_eq!(r.total, 2);
        assert_eq!(r.false_positives, 1);
        assert!(!r.is_perfect());
        assert!((r.percentage() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn precision_counts_false_starts() {
        // Every CO is hit, but only two of the four located starts hit one.
        let r = hit_rate(&[100, 150, 500, 900], &[102, 498], 10);
        assert_eq!((r.hits, r.false_positives), (2, 2));
        assert!((r.percentage() - 100.0).abs() < 1e-9);
        assert!((r.precision() - 50.0).abs() < 1e-9);
        assert!((hit_rate(&[100, 500], &[102, 498], 10).precision() - 100.0).abs() < 1e-9);
        // Nothing located: no precision to report.
        assert_eq!(hit_rate(&[], &[100], 10).precision(), 0.0);
    }

    #[test]
    fn each_located_start_matches_at_most_one_co() {
        // One located start near two true COs can only satisfy one of them.
        let r = hit_rate(&[100], &[95, 105], 20);
        assert_eq!(r.hits, 1);
        assert_eq!(r.false_positives, 0);
    }

    #[test]
    fn zero_hits_when_nothing_located() {
        let r = hit_rate(&[], &[10, 20, 30], 5);
        assert_eq!(r.hits, 0);
        assert_eq!(r.percentage(), 0.0);
        assert_eq!(r.mean_abs_error(), 0.0);
    }

    #[test]
    fn empty_ground_truth() {
        let r = hit_rate(&[5], &[], 5);
        assert_eq!(r.total, 0);
        assert_eq!(r.percentage(), 0.0);
        assert_eq!(r.false_positives, 1);
    }

    #[test]
    fn tolerance_is_inclusive() {
        let r = hit_rate(&[110], &[100], 10);
        assert_eq!(r.hits, 1);
        let r = hit_rate(&[111], &[100], 10);
        assert_eq!(r.hits, 0);
    }
}
