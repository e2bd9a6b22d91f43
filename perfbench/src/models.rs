//! Program set-up: profiling captures, `LocatorBuilder::fit`, quantisation
//! and the v4 model files every workload serves.
//!
//! The models are part of the program under test, not of the workload, so
//! they are trained from a fixed profiling seed whatever the workload seed.

use std::path::Path;
use std::time::Instant;

use sca_ciphers::{cipher_by_id, CipherId};
use sca_locator::{CipherProfile, LocatorBuilder, LocatorEngine};
use sca_trace::Trace;
use soc_sim::{Scenario, SocSimulator, SocSimulatorConfig};

use crate::stats::median;
use crate::workload::{Digest, RD_MAX};

/// Seed of the profiling captures and of training.
pub const PROFILING_SEED: u64 = 2024;

/// Profiling captures per cipher (single CO each, NOP preamble).
const PROFILING_CAPTURES: usize = 96;

/// Captures whose windows calibrate the i8 twin.
const CALIBRATION_CAPTURES: usize = 16;

/// Times a workload's set-up repeats; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The profiling material for one cipher (input generation: outside
/// `setup_s`).
pub struct Profiling {
    pub profile: CipherProfile,
    pub captures: Vec<Trace>,
    pub noise: Trace,
}

impl Profiling {
    pub fn capture(cipher: CipherId) -> Self {
        let mut sim = SocSimulator::new(SocSimulatorConfig::rd(RD_MAX), PROFILING_SEED);
        let mean_co_len = sim.mean_co_samples(cipher, 8);
        let profile = CipherProfile::scaled(cipher, mean_co_len.round() as usize);
        let implementation = cipher_by_id(cipher);
        let captures = (0..PROFILING_CAPTURES)
            .map(|_| {
                let pt = sim.trng_mut().next_block();
                sim.capture_cipher_trace(implementation.as_ref(), &Scenario::DEFAULT_KEY, &pt).0
            })
            .collect();
        let noise =
            sim.capture_noise_trace((profile.n_train * profile.noise_windows / 2).max(4_000));
        Self { profile, captures, noise }
    }

    /// Raw windows of the inference length cut from the profiling captures
    /// (at the CO start and at three other offsets of each capture), the
    /// representative samples `quantize_with_samples` calibrates on.
    pub fn calibration_windows(&self) -> Vec<Vec<f32>> {
        let n = self.profile.n_inf;
        let mut windows = Vec::new();
        for trace in self.captures.iter().take(CALIBRATION_CAPTURES) {
            let samples = trace.samples();
            let last = samples.len() - n;
            let co = trace.meta().co_starts[0].min(last);
            for start in [co, 0, last / 2, last] {
                windows.push(samples[start..start + n].to_vec());
            }
        }
        windows
    }
}

/// Set-up step timings of one repetition.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub fit_s: f64,
    pub quantize_ms: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub start_ms: f64,
    pub total_s: f64,
}

impl SetupTimes {
    /// Field-wise median over repetitions.
    pub fn median(reps: &[SetupTimes]) -> SetupTimes {
        let m = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            fit_s: m(|t| t.fit_s),
            quantize_ms: m(|t| t.quantize_ms),
            save_ms: m(|t| t.save_ms),
            load_ms: m(|t| t.load_ms),
            start_ms: m(|t| t.start_ms),
            total_s: m(|t| t.total_s),
        }
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Trains the f32 engine and, when `quantize`, derives its i8 twin;
/// accumulates the step times into `times`.
pub fn fit_engine(p: &Profiling, quantize: bool, times: &mut SetupTimes) -> LocatorEngine {
    let t = Instant::now();
    let (locator, _) =
        LocatorBuilder::from_profile(&p.profile).seed(PROFILING_SEED).fit(&p.captures, &p.noise);
    times.fit_s += t.elapsed().as_secs_f64();
    let engine = LocatorEngine::from_locator(locator);
    if !quantize {
        return engine;
    }
    let t = Instant::now();
    let twin = engine.quantize_with_samples(&p.calibration_windows());
    times.quantize_ms += ms_since(t);
    twin
}

/// Saves `engine` as a v4 model file and folds the file's bytes into
/// `digest` (repeated set-ups must write identical models).
pub fn save_engine(
    engine: &LocatorEngine,
    path: &Path,
    digest: &mut Digest,
    times: &mut SetupTimes,
) -> Result<(), String> {
    let t = Instant::now();
    engine.save(path).map_err(|e| format!("saving {}: {e}", path.display()))?;
    times.save_ms += ms_since(t);
    let bytes = std::fs::read(path).map_err(|e| format!("reading back {}: {e}", path.display()))?;
    digest.bytes(&bytes);
    Ok(())
}

/// Runs `once` [`SETUP_REPS`] times, checks that every repetition wrote the
/// same models, and returns the last repetition's state with the median
/// step times.
pub fn repeat_setup<S>(
    mut once: impl FnMut(&mut SetupTimes, &mut Digest) -> Result<S, String>,
) -> Result<(S, SetupTimes), String> {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut first_digest = None;
    let mut state = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous repetition (a service, a server) first, so the
        // repetitions never overlap.
        drop(state.take());
        let mut times = SetupTimes::default();
        let mut digest = Digest::default();
        let t = Instant::now();
        let s = once(&mut times, &mut digest)?;
        times.total_s = t.elapsed().as_secs_f64();
        let d = digest.value();
        if *first_digest.get_or_insert(d) != d {
            return Err(format!(
                "set-up repetition {rep} wrote different model bytes than repetition 0: \
                 training is not deterministic, so runs are not comparable"
            ));
        }
        reps.push(times);
        state = Some(s);
    }
    Ok((state.expect("SETUP_REPS > 0"), SetupTimes::median(&reps)))
}

/// Multiply-accumulates of one forward pass over one inference window,
/// computed from the layer shapes of the CNN (Figure 2), not measured:
/// every convolution is stride 1 with "same" padding, so each keeps the
/// window length. Batch norm, ReLU, the residual adds and pooling are not
/// counted.
pub fn macs_per_window(engine: &LocatorEngine) -> u64 {
    let cfg = engine.model().config();
    let (f, k, n) =
        (cfg.base_filters as u64, cfg.kernel_size as u64, engine.sliding().window_len() as u64);
    let stem = n * f * k;
    let res1 = 2 * n * f * f * k;
    let res2 = n * 2 * f * f * k + n * 2 * f * 2 * f * k + n * 2 * f * f;
    let head = 2 * f * 2 * f + 2 * f * 2;
    stem + res1 + res2 + head
}
