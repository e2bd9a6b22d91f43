//! Shared experiment harness used by the `table1`, `fig3_confusion`,
//! `table2_attack` and `hits_sweep` binaries to regenerate the paper's
//! tables and figures on the simulated platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sca_ciphers::{cipher_by_id, CipherId};
use sca_locator::{
    CipherProfile, DatasetBuilder, HitReport, LocatorBuilder, LocatorEngine, Trainer,
    TrainingReport,
};
use sca_trace::{SplitRatios, Trace};
use soc_sim::{Scenario, ScenarioResult, SocSimulator, SocSimulatorConfig};
use tinynn::ConfusionMatrix;

/// Everything produced by training a locator for one cipher on the simulator.
pub struct TrainedSetup {
    /// The trained CO locator (an `f32` engine).
    pub locator: LocatorEngine,
    /// The scaled per-cipher pipeline profile that was used.
    pub profile: CipherProfile,
    /// Mean CO length (samples) measured on the simulated platform.
    pub mean_co_len: f64,
    /// Training metrics.
    pub report: TrainingReport,
    /// Wall time of `LocatorBuilder::fit` (dataset building and training),
    /// in seconds.
    pub fit_s: f64,
    /// Test confusion matrix of the underlying CNN (Figure 3).
    pub confusion: ConfusionMatrix,
}

/// Experiment-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Maximum random-delay insertions (0, 2 or 4).
    pub rd_max: usize,
    /// Reproducibility seed.
    pub seed: u64,
    /// Number of cipher traces acquired for training.
    pub n_cipher_traces: usize,
    /// Number of COs in each evaluation scenario (512 in the paper; scaled
    /// down by default).
    pub scenario_cos: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { rd_max: 4, seed: 2024, n_cipher_traces: 96, scenario_cos: 32 }
    }
}

/// Acquires training material on the simulated clone device and trains a
/// locator for `cipher`.
pub fn train_locator(cipher: CipherId, cfg: &ExperimentConfig) -> TrainedSetup {
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(cfg.rd_max), cfg.seed);
    let mean_co_len = sim.mean_co_samples(cipher, 8);
    let profile = CipherProfile::scaled(cipher, mean_co_len.round() as usize);

    // Acquire cipher traces (single CO each, NOP preamble, random plaintexts)
    // and one long noise trace, with the countermeasure always on.
    let cipher_impl = cipher_by_id(cipher);
    let key = Scenario::DEFAULT_KEY;
    let mut cipher_traces: Vec<Trace> = Vec::with_capacity(cfg.n_cipher_traces);
    for _ in 0..cfg.n_cipher_traces {
        let pt = sim.trng_mut().next_block();
        let (trace, _ct) = sim.capture_cipher_trace(cipher_impl.as_ref(), &key, &pt);
        cipher_traces.push(trace);
    }
    let noise_ops = (profile.n_train * profile.noise_windows / 2).max(4_000);
    let noise_trace = sim.capture_noise_trace(noise_ops);

    let builder = LocatorBuilder::from_profile(&profile).seed(cfg.seed);
    let fit_start = std::time::Instant::now();
    let (locator, report) = builder.fit(&cipher_traces, &noise_trace);
    let fit_s = fit_start.elapsed().as_secs_f64();

    // Figure 3: confusion matrix on the held-out test split of the same dataset.
    let dataset = DatasetBuilder::new(profile.n_train)
        .with_limits(
            profile.cipher_start_windows,
            profile.cipher_rest_windows,
            profile.noise_windows,
        )
        .with_seed(cfg.seed)
        .build(&cipher_traces, &noise_trace);
    let split = dataset.split(SplitRatios::paper(), cfg.seed);
    let trainer = Trainer::new(profile.training);
    let cnn = locator.cnn().expect("LocatorBuilder::fit returns an f32 engine");
    let confusion = trainer.confusion_matrix(cnn, &split.test);

    TrainedSetup { locator, profile, mean_co_len, report, fit_s, confusion }
}

/// Simulates an evaluation scenario for `cipher` under the experiment's
/// random-delay setting.
pub fn simulate_scenario(
    cipher: CipherId,
    interleave_noise: bool,
    cfg: &ExperimentConfig,
) -> ScenarioResult {
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(cfg.rd_max), cfg.seed ^ 0xBEEF);
    let scenario = if interleave_noise {
        Scenario::interleaved(cipher, cfg.scenario_cos)
    } else {
        Scenario::consecutive(cipher, cfg.scenario_cos)
    };
    sim.run_scenario(&scenario)
}

/// Scores located starts against a scenario's ground truth. The tolerance is
/// half the mean CO length, matching the paper's notion of a hit (the CPA's
/// time aggregation absorbs the residual offset).
pub fn score_hits(located: &[usize], result: &ScenarioResult) -> HitReport {
    let tolerance = (result.mean_co_len() / 2.0).max(1.0) as usize;
    sca_locator::hit_rate(located, &result.co_starts(), tolerance)
}

/// Builds a matched-filter / SAD template for a cipher by averaging a few
/// CO acquisitions captured on an *unprotected* clone (the best case for the
/// baselines: the template itself is delay-free).
pub fn baseline_template(cipher: CipherId, seed: u64, n_refs: usize) -> Vec<f32> {
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(0), seed);
    let cipher_impl = cipher_by_id(cipher);
    let key = Scenario::DEFAULT_KEY;
    let mut refs: Vec<Vec<f32>> = Vec::new();
    let mut min_len = usize::MAX;
    for _ in 0..n_refs.max(1) {
        let pt = sim.trng_mut().next_block();
        let (trace, _) = sim.capture_cipher_trace(cipher_impl.as_ref(), &key, &pt);
        let start = trace.meta().co_starts[0];
        let end = trace.meta().co_ends[0];
        let co = trace.samples()[start..end].to_vec();
        min_len = min_len.min(co.len());
        refs.push(co);
    }
    for r in refs.iter_mut() {
        r.truncate(min_len);
    }
    sca_baselines::MatchedFilterLocator::template_from_references(&refs)
}

/// Formats a percentage for table output.
pub fn fmt_pct(value: f64) -> String {
    format!("{value:6.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.rd_max <= 4);
        assert!(cfg.scenario_cos > 0);
    }

    #[test]
    fn baseline_template_is_nonempty_and_bounded() {
        let t = baseline_template(CipherId::Simon128, 5, 3);
        assert!(t.len() > 100);
        assert!(t.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn simulate_scenario_produces_requested_cos() {
        let cfg = ExperimentConfig { scenario_cos: 3, ..Default::default() };
        let result = simulate_scenario(CipherId::Simon128, false, &cfg);
        assert_eq!(result.cos.len(), 3);
    }

    #[test]
    fn fmt_pct_formats() {
        assert_eq!(fmt_pct(100.0), "100.00%");
    }
}
