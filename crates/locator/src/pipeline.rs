//! Training-time assembly of the end-to-end locator: [`LocatorBuilder`]
//! builds the dataset, trains the CNN and returns the
//! [`LocatorEngine`] that runs the inference pipeline of Figure 1
//! (sliding-window classification + segmentation).
//!
//! Feed the builder labelled training material once (cipher traces with a
//! known CO start and a noise trace), then call [`LocatorEngine::locate`] on
//! unknown traces.

use sca_trace::{SplitRatios, Trace};

use crate::cnn::{CnnConfig, CoLocatorCnn};
use crate::dataset::DatasetBuilder;
use crate::engine::LocatorEngine;
use crate::profiles::CipherProfile;
use crate::segmentation::{SegmentationConfig, Segmenter};
use crate::sliding::SlidingWindowClassifier;
use crate::training::{Trainer, TrainingConfig, TrainingReport};

/// Builder training a [`LocatorEngine`] from training material.
#[derive(Debug, Clone)]
pub struct LocatorBuilder {
    n_train: usize,
    n_inf: usize,
    stride: usize,
    cipher_start_windows: usize,
    cipher_rest_windows: usize,
    noise_windows: usize,
    cnn_config: CnnConfig,
    training_config: TrainingConfig,
    segmentation_config: SegmentationConfig,
    split: SplitRatios,
    seed: u64,
}

impl LocatorBuilder {
    /// Starts a builder with explicit window sizes and stride.
    ///
    /// # Panics
    ///
    /// Panics if any of the three values is zero.
    pub fn new(n_train: usize, n_inf: usize, stride: usize) -> Self {
        assert!(n_train > 0 && n_inf > 0 && stride > 0, "window sizes and stride must be non-zero");
        Self {
            n_train,
            n_inf,
            stride,
            cipher_start_windows: usize::MAX,
            cipher_rest_windows: usize::MAX,
            noise_windows: usize::MAX,
            cnn_config: CnnConfig::scaled(),
            training_config: TrainingConfig::scaled(),
            segmentation_config: SegmentationConfig::default(),
            split: SplitRatios::paper(),
            seed: 7,
        }
    }

    /// Starts a builder from a per-cipher profile (Table I row or its scaled
    /// equivalent).
    pub fn from_profile(profile: &CipherProfile) -> Self {
        let mut b = Self::new(profile.n_train, profile.n_inf, profile.stride);
        b.cipher_start_windows = profile.cipher_start_windows;
        b.cipher_rest_windows = profile.cipher_rest_windows;
        b.noise_windows = profile.noise_windows;
        b.cnn_config = profile.cnn;
        b.training_config = profile.training;
        b.segmentation_config = profile.segmentation;
        b
    }

    /// Overrides the CNN configuration.
    pub fn cnn_config(mut self, config: CnnConfig) -> Self {
        self.cnn_config = config;
        self
    }

    /// Overrides the training configuration.
    pub fn training_config(mut self, config: TrainingConfig) -> Self {
        self.training_config = config;
        self
    }

    /// Overrides the segmentation configuration.
    pub fn segmentation_config(mut self, config: SegmentationConfig) -> Self {
        self.segmentation_config = config;
        self
    }

    /// Overrides the dataset-size limits (cipher start / cipher rest / noise).
    pub fn dataset_limits(mut self, start: usize, rest: usize, noise: usize) -> Self {
        self.cipher_start_windows = start;
        self.cipher_rest_windows = rest;
        self.noise_windows = noise;
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the training dataset, trains the CNN and returns the ready
    /// `f32` engine together with the training report.
    ///
    /// `cipher_traces` must carry the CO start of their single CO in the
    /// trace metadata (as produced by the acquisition procedure with the NOP
    /// preamble); `noise_trace` is a trace of non-cryptographic activity.
    pub fn fit(
        &self,
        cipher_traces: &[Trace],
        noise_trace: &Trace,
    ) -> (LocatorEngine, TrainingReport) {
        let dataset = DatasetBuilder::new(self.n_train)
            .with_limits(self.cipher_start_windows, self.cipher_rest_windows, self.noise_windows)
            .with_seed(self.seed)
            .build(cipher_traces, noise_trace);
        let split = dataset.split(self.split, self.seed);
        let mut cnn = CoLocatorCnn::new(self.cnn_config.with_seed(self.seed.wrapping_add(1)));
        let trainer = Trainer::new(self.training_config);
        let report = trainer.train(&mut cnn, &split);
        let engine = LocatorEngine::new(
            cnn,
            SlidingWindowClassifier::new(self.n_inf, self.stride),
            Segmenter::new(self.segmentation_config),
        );
        (engine, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmentation::ThresholdStrategy;
    use sca_trace::TraceMeta;

    /// Synthetic "cipher" with a strongly recognisable start pattern:
    /// a burst of high samples followed by a medium plateau, on a low-level
    /// background. No neural network heroics needed — the point of these
    /// tests is the plumbing of the full pipeline.
    fn synth_co(len: usize) -> Vec<f32> {
        (0..len).map(|i| if i < len / 4 { 1.0 } else { 0.5 }).collect()
    }

    fn cipher_trace(co_len: usize, lead: usize) -> Trace {
        let mut samples = vec![0.05f32; lead];
        samples.extend(synth_co(co_len));
        samples.extend(vec![0.05f32; lead]);
        let meta =
            TraceMeta { co_starts: vec![lead], co_ends: vec![lead + co_len], ..Default::default() };
        Trace::with_meta(samples, meta)
    }

    fn long_trace(co_len: usize, gaps: &[usize]) -> (Trace, Vec<usize>) {
        let mut samples = Vec::new();
        let mut truth = Vec::new();
        for &gap in gaps {
            samples.extend(vec![0.05f32; gap]);
            truth.push(samples.len());
            samples.extend(synth_co(co_len));
        }
        samples.extend(vec![0.05f32; 64]);
        (Trace::from_samples(samples), truth)
    }

    #[test]
    fn end_to_end_locates_synthetic_cos() {
        let co_len = 64;
        let cipher_traces: Vec<Trace> = (0..24).map(|i| cipher_trace(co_len, 20 + i % 5)).collect();
        let noise_trace = Trace::from_samples(vec![0.05f32; 2000]);
        let builder = LocatorBuilder::new(32, 24, 8)
            .cnn_config(CnnConfig { base_filters: 2, kernel_size: 3, seed: 11 })
            .training_config(TrainingConfig {
                epochs: 4,
                batch_size: 16,
                learning_rate: 5e-3,
                seed: 1,
            })
            .segmentation_config(SegmentationConfig {
                threshold: ThresholdStrategy::MidRange,
                median_filter_k: 3,
                min_distance_windows: 4,
            });
        let (engine, report) = builder.fit(&cipher_traces, &noise_trace);
        assert!(report.best_validation_accuracy() > 0.8, "report {report:?}");

        let (trace, truth) = long_trace(co_len, &[120, 200, 150]);
        let located = engine.locate(&trace);
        let hits = crate::evaluation::hit_rate(&located, &truth, 24);
        assert_eq!(hits.hits, truth.len(), "located {located:?} truth {truth:?}");
    }

    #[test]
    fn builder_from_profile_uses_profile_windows() {
        let profile = CipherProfile::scaled(sca_ciphers::CipherId::Aes128, 1000);
        let builder = LocatorBuilder::from_profile(&profile);
        assert_eq!(builder.n_train, profile.n_train);
        assert_eq!(builder.n_inf, profile.n_inf);
        assert_eq!(builder.stride, profile.stride);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_stride_builder_panics() {
        LocatorBuilder::new(16, 16, 0);
    }
}
