//! Matched-filter CO locator (baseline \[10\] of the paper).
//!
//! A template of the CO (e.g. the average of a few triggered acquisitions on
//! an unprotected device) is correlated against the unknown trace with a
//! normalised cross-correlation; positions whose correlation exceeds a
//! threshold — separated by at least a minimum distance — are reported as CO
//! starts. Robust to moderate amplitude noise and to interrupts, but not to
//! the non-uniform time stretching introduced by random delays.

use sca_trace::{dsp, Trace};
use serde::{Deserialize, Serialize};

use crate::BaselineLocator;

/// Matched-filter (normalised cross-correlation) locator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedFilterLocator {
    template: Vec<f32>,
    threshold: f32,
    min_distance: usize,
}

impl MatchedFilterLocator {
    /// Creates a locator from a CO template, a correlation threshold in
    /// `(0, 1]` and a minimum distance (in samples) between reported starts.
    ///
    /// # Panics
    ///
    /// Panics if the template is empty or the threshold is outside `(0, 1]`.
    pub fn new(template: Vec<f32>, threshold: f32, min_distance: usize) -> Self {
        assert!(!template.is_empty(), "template must not be empty");
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold must be in (0, 1]");
        Self { template, threshold, min_distance }
    }

    /// Builds a template by averaging aligned reference CO traces
    /// (they must share the same length).
    ///
    /// # Panics
    ///
    /// Panics if `references` is empty or the lengths differ.
    pub fn template_from_references(references: &[Vec<f32>]) -> Vec<f32> {
        assert!(!references.is_empty(), "at least one reference trace required");
        let len = references[0].len();
        assert!(references.iter().all(|r| r.len() == len), "reference lengths differ");
        let mut template = vec![0.0f32; len];
        for r in references {
            for (t, &v) in template.iter_mut().zip(r.iter()) {
                *t += v;
            }
        }
        for t in template.iter_mut() {
            *t /= references.len() as f32;
        }
        template
    }

    /// The template length in samples.
    pub fn template_len(&self) -> usize {
        self.template.len()
    }

    /// The correlation threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }
}

impl BaselineLocator for MatchedFilterLocator {
    fn name(&self) -> &'static str {
        "matched filter [10]"
    }

    fn locate(&self, trace: &Trace) -> Vec<usize> {
        if trace.len() < self.template.len() {
            return Vec::new();
        }
        let ncc = dsp::normalized_cross_correlation(trace.samples(), &self.template)
            .expect("template validated at construction");
        dsp::find_peaks(&ncc, self.threshold, self.min_distance.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn co_shape(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i as f32) * 0.7).sin() + if i % 5 == 0 { 0.8 } else { 0.0 }).collect()
    }

    #[test]
    fn locates_rigid_copies_of_the_template() {
        let co = co_shape(40);
        let mut samples = vec![0.0f32; 30];
        let mut truth = Vec::new();
        for _ in 0..3 {
            truth.push(samples.len());
            samples.extend_from_slice(&co);
            samples.extend(vec![0.0f32; 25]);
        }
        let locator = MatchedFilterLocator::new(co.clone(), 0.9, 30);
        let found = locator.locate(&Trace::from_samples(samples));
        assert_eq!(found, truth);
    }

    #[test]
    fn fails_on_time_stretched_cos() {
        // Simulate random delay by dilating the CO non-uniformly: the rigid
        // template no longer correlates above threshold at the true starts.
        let co = co_shape(40);
        let mut stretched = Vec::new();
        for (i, &v) in co.iter().enumerate() {
            stretched.push(v);
            if i % 2 == 0 {
                stretched.push(0.05); // inserted dummy-instruction samples
            }
            if i % 3 == 0 {
                stretched.push(0.05);
            }
        }
        let mut samples = vec![0.0f32; 30];
        let start = samples.len();
        samples.extend_from_slice(&stretched);
        samples.extend(vec![0.0f32; 30]);
        let locator = MatchedFilterLocator::new(co, 0.9, 30);
        let found = locator.locate(&Trace::from_samples(samples));
        let hit = found.iter().any(|&f| f.abs_diff(start) < 10);
        assert!(!hit, "matched filter unexpectedly survived the stretching: {found:?}");
    }

    #[test]
    fn template_from_references_averages() {
        let t = MatchedFilterLocator::template_from_references(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t, vec![2.0, 3.0]);
    }

    #[test]
    fn short_trace_yields_nothing() {
        let locator = MatchedFilterLocator::new(vec![1.0; 10], 0.8, 5);
        assert!(locator.locate(&Trace::from_samples(vec![0.0; 5])).is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0, 1]")]
    fn invalid_threshold_panics() {
        MatchedFilterLocator::new(vec![1.0], 1.5, 1);
    }
}
