//! SAD (sum of absolute differences) template-matching locator
//! (in the spirit of baselines \[11\]/\[16\] of the paper).
//!
//! A reference waveform of the CO is slid over the trace; positions where the
//! per-sample SAD (normalised by the template length) falls below a threshold
//! are reported as CO starts. Like the matched filter, this assumes the CO
//! shape is rigid in time, so random delays defeat it.

use sca_trace::{dsp, Trace};
use serde::{Deserialize, Serialize};

use crate::BaselineLocator;

/// SAD template-matching locator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SadTemplateLocator {
    template: Vec<f32>,
    max_sad_per_sample: f32,
    min_distance: usize,
}

impl SadTemplateLocator {
    /// Creates a locator from a CO template, a maximum mean absolute
    /// difference per sample and a minimum distance between reported starts.
    ///
    /// # Panics
    ///
    /// Panics if the template is empty or the threshold is not positive.
    pub fn new(template: Vec<f32>, max_sad_per_sample: f32, min_distance: usize) -> Self {
        assert!(!template.is_empty(), "template must not be empty");
        assert!(max_sad_per_sample > 0.0, "SAD threshold must be positive");
        Self { template, max_sad_per_sample, min_distance }
    }

    /// The template length in samples.
    pub fn template_len(&self) -> usize {
        self.template.len()
    }
}

impl BaselineLocator for SadTemplateLocator {
    fn name(&self) -> &'static str {
        "SAD template matching [11]"
    }

    fn locate(&self, trace: &Trace) -> Vec<usize> {
        if trace.len() < self.template.len() {
            return Vec::new();
        }
        let sad = dsp::sliding_sad(trace.samples(), &self.template)
            .expect("template validated at construction");
        // Convert "low SAD is good" into a peak-finding problem by negating.
        let neg: Vec<f32> = sad.iter().map(|&s| -s / self.template.len() as f32).collect();
        dsp::find_peaks(&neg, -self.max_sad_per_sample, self.min_distance.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn co_shape(len: usize) -> Vec<f32> {
        (0..len).map(|i| 0.5 + ((i as f32) * 0.9).cos()).collect()
    }

    #[test]
    fn locates_exact_copies() {
        let co = co_shape(32);
        let mut samples = vec![0.0f32; 20];
        let mut truth = Vec::new();
        for _ in 0..2 {
            truth.push(samples.len());
            samples.extend_from_slice(&co);
            samples.extend(vec![0.0f32; 40]);
        }
        let locator = SadTemplateLocator::new(co.clone(), 0.05, 30);
        let found = locator.locate(&Trace::from_samples(samples));
        assert_eq!(found, truth);
    }

    #[test]
    fn fails_on_time_stretched_cos() {
        let co = co_shape(32);
        let mut stretched = Vec::new();
        for (i, &v) in co.iter().enumerate() {
            stretched.push(v);
            if i % 2 == 1 {
                stretched.push(0.1);
            }
        }
        let mut samples = vec![0.0f32; 20];
        let start = samples.len();
        samples.extend_from_slice(&stretched);
        samples.extend(vec![0.0f32; 40]);
        let locator = SadTemplateLocator::new(co, 0.05, 20);
        let found = locator.locate(&Trace::from_samples(samples));
        assert!(found.iter().all(|&f| f.abs_diff(start) >= 5), "unexpected hit: {found:?}");
    }

    #[test]
    fn tolerates_small_amplitude_noise() {
        let co = co_shape(24);
        let noisy: Vec<f32> =
            co.iter().enumerate().map(|(i, &v)| v + 0.01 * ((i % 3) as f32 - 1.0)).collect();
        let mut samples = vec![0.0f32; 10];
        samples.extend_from_slice(&noisy);
        samples.extend(vec![0.0f32; 10]);
        let locator = SadTemplateLocator::new(co, 0.05, 10);
        let found = locator.locate(&Trace::from_samples(samples));
        assert_eq!(found, vec![10]);
    }

    #[test]
    fn short_trace_yields_nothing() {
        let locator = SadTemplateLocator::new(vec![1.0; 8], 0.1, 2);
        assert!(locator.locate(&Trace::from_samples(vec![0.0; 3])).is_empty());
    }

    #[test]
    #[should_panic(expected = "SAD threshold must be positive")]
    fn non_positive_threshold_panics() {
        SadTemplateLocator::new(vec![1.0], 0.0, 1);
    }
}
