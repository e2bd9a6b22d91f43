//! Cross-version bit pins of `f32` inference.
//!
//! `Trainer::evaluate_loss` picks the best epoch and
//! `QuantizedCoLocatorCnn::align_head` sets the i8 head bias from `f32`
//! inference, so a single flipped score bit changes the models a training
//! run produces. These tests pin the exact `swc` score bits that
//! `LocatorEngine::locate_detailed` returns for three seeded engines on one
//! synthetic trace, plus the exact v4 bytes `quantize_with_samples` writes,
//! against fixtures written by an earlier build. Each engine's
//! `quantize_with_samples` twin is pinned too: its calibrated activation
//! grid bits and its i8 `swc` score bits on the same trace, so the
//! calibration pass and the fixed-point chain cannot drift either.
//!
//! The pinned engines:
//!
//! * `golden` — the persistence fixtures' engine (2 filters, kernel 3);
//! * `served` — the benchmark shape (8 filters, kernel 9, 230-sample
//!   windows at stride 16, batches of 64 with a ragged final batch);
//! * `paper` — the paper configuration (16 filters, kernel 64, so the
//!   residual convolutions have depths 1024 and 2048, several depth blocks
//!   each), on 48-sample windows, shorter than the kernel.
//!
//! Every batch-norm layer carries non-trivial running statistics and affine
//! parameters, and every convolution a non-zero bias, so each stage of the
//! inference chain shows in the bits.
//!
//! Training is pinned too: `LocatorBuilder::fit` on seeded synthetic
//! captures must write the exact v4 model bytes and training-loss bits of
//! the fixtures, at the served shape (8 filters, kernel 9, 256-sample
//! windows, batches of 32 over a training split that is not a multiple of
//! 32) and at 2 filters with kernel 3 (convolution depths 3 and 6, below
//! one 8-lane vector). Every fit uses every core the process may use; CI
//! runs this suite a second time under `TINYNN_THREADS=1`, so the pins hold
//! on one thread and on many.
//!
//! Regenerate the fixtures only after an *intentional* numerical change,
//! on one thread:
//! `TINYNN_THREADS=1 cargo test -p sca-locator --test f32_bit_pin -- --ignored`.

use std::path::PathBuf;

use sca_locator::qcnn::ACTIVATION_SCALE_COUNT;
use sca_locator::{
    CnnConfig, CoLocatorCnn, DatasetBuilder, EngineModel, LocatorBuilder, LocatorEngine,
    SegmentationConfig, Segmenter, SlidingWindowClassifier, ThresholdStrategy, TrainingConfig,
};
use sca_trace::{SplitRatios, Trace, TraceMeta};

fn xorshift(state: &mut u64) -> f32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
}

/// A seeded network whose batch norms and biases are all non-trivial:
/// every parameter is perturbed, every running mean set off zero and every
/// running variance set off one (buffers alternate mean, variance).
fn perturbed_cnn(config: CnnConfig) -> CoLocatorCnn {
    let mut cnn = CoLocatorCnn::new(config);
    let mut state = 0x5EED_0000_0000_0001 ^ config.seed;
    for p in cnn.params_mut() {
        for v in p.value.data_mut() {
            *v += 0.1 * xorshift(&mut state);
        }
    }
    for (i, buf) in cnn.buffers_mut().into_iter().enumerate() {
        for v in buf.iter_mut() {
            let r = xorshift(&mut state);
            *v = if i % 2 == 0 { 0.2 * r } else { 0.75 + 0.5 * r.abs() };
        }
    }
    cnn
}

fn segmenter() -> Segmenter {
    Segmenter::new(SegmentationConfig {
        threshold: ThresholdStrategy::MeanPlusStd(1.25),
        median_filter_k: 5,
        min_distance_windows: 3,
    })
}

/// The three pinned engines, by fixture name.
fn engines() -> Vec<(&'static str, LocatorEngine)> {
    vec![
        (
            "golden",
            LocatorEngine::new(
                perturbed_cnn(CnnConfig { base_filters: 2, kernel_size: 3, seed: 77 }),
                SlidingWindowClassifier::new(24, 6).with_batch_size(16).with_threads(2),
                segmenter(),
            ),
        ),
        (
            // 141 windows: two full batches of 64 and a ragged one of 13.
            "served",
            LocatorEngine::new(
                perturbed_cnn(CnnConfig { base_filters: 8, kernel_size: 9, seed: 5 }),
                SlidingWindowClassifier::new(230, 16).with_batch_size(64).with_threads(1),
                segmenter(),
            ),
        ),
        (
            "paper",
            LocatorEngine::new(
                perturbed_cnn(CnnConfig { base_filters: 16, kernel_size: 64, seed: 3 }),
                SlidingWindowClassifier::new(48, 160).with_batch_size(5).with_threads(1),
                segmenter(),
            ),
        ),
    ]
}

/// One synthetic trace for every engine: a chirp carrying seeded noise and
/// periodic bursts.
fn trace() -> Trace {
    let mut state = 0xC0FF_EE00_D15E_A5E5u64;
    Trace::from_samples(
        (0..2470)
            .map(|i| {
                let t = i as f32;
                let burst = if (i / 97) % 3 == 0 { 1.5 } else { 0.0 };
                (t * 0.07 + t * t * 1e-5).sin() + burst + 0.3 * xorshift(&mut state)
            })
            .collect(),
    )
}

/// Fixed sample windows for `quantize_with_samples`: eight raw slices of
/// the trace, `len` samples each (the engine's window length).
fn sample_windows(trace: &Trace, len: usize) -> Vec<Vec<f32>> {
    (0..8).map(|i| trace.samples()[i * 280..i * 280 + len].to_vec()).collect()
}

/// The engine's i8 twin, quantised from its own window-length samples.
fn i8_twin(engine: &LocatorEngine, trace: &Trace) -> LocatorEngine {
    engine.quantize_with_samples(&sample_windows(trace, engine.sliding().window_len()))
}

/// The twin's pinned bits: its six activation grid scales, then its `swc`
/// scores on the trace.
fn i8_pin_bits(twin: &LocatorEngine, trace: &Trace) -> Vec<u32> {
    let EngineModel::Quantized(qcnn) = twin.model() else { panic!("the twin must be i8") };
    let (scores, _) = twin.locate_detailed(trace);
    qcnn.activation_scales().iter().chain(&scores).map(|v| v.to_bits()).collect()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn bits_fixture(name: &str) -> String {
    format!("swc_bits_{name}.bin")
}

fn i8_fixture(name: &str) -> String {
    format!("i8_bits_{name}.bin")
}

const QUANT_FIXTURE: &str = "quant_samples_v4.scaloc";

fn to_bytes(scores: &[f32]) -> Vec<u8> {
    scores.iter().flat_map(|s| s.to_bits().to_le_bytes()).collect()
}

/// The v4 bytes `engine.save` writes (`tag` keeps concurrent tests' temp
/// files apart).
fn saved_bytes(engine: &LocatorEngine, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir()
        .join(format!("sca_locator_f32_bit_pin_{tag}_{}.scaloc", std::process::id()));
    engine.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn quantized_bytes(engine: &LocatorEngine, trace: &Trace) -> Vec<u8> {
    saved_bytes(&i8_twin(engine, trace), "quant")
}

/// One pinned training run: the builder's settings and its material.
struct FitCase {
    name: &'static str,
    window: usize,
    cnn: CnnConfig,
    training: TrainingConfig,
    /// Dataset limits: `(cipher start, cipher rest, noise)` windows.
    limits: (usize, usize, usize),
    seed: u64,
    captures: Vec<Trace>,
    noise: Trace,
}

impl FitCase {
    fn builder(&self) -> LocatorBuilder {
        let (start, rest, noise) = self.limits;
        LocatorBuilder::new(self.window, self.window * 9 / 10, self.window / 16)
            .cnn_config(self.cnn)
            .training_config(self.training)
            .dataset_limits(start, rest, noise)
            .seed(self.seed)
    }
}

/// Seeded single-CO captures: a noisy idle lead of varying length, a CO
/// whose first samples carry a burst over an oscillation, and an idle tail.
fn fit_captures(count: usize, co_len: usize, seed: u64) -> Vec<Trace> {
    let mut state = 0xF17C_A97E_0000_0001 ^ seed;
    (0..count)
        .map(|i| {
            let lead = 40 + 7 * (i % 5);
            let samples = (0..lead + co_len + 64)
                .map(|j| {
                    let noise = 0.25 * xorshift(&mut state);
                    if j < lead || j >= lead + co_len {
                        return noise;
                    }
                    let t = (j - lead) as f32;
                    let burst = if t < 24.0 { 2.0 } else { 0.0 };
                    burst + (t * 0.3).sin() + noise
                })
                .collect();
            let meta = TraceMeta {
                co_starts: vec![lead],
                co_ends: vec![lead + co_len],
                ..Default::default()
            };
            Trace::with_meta(samples, meta)
        })
        .collect()
}

/// A seeded noise trace of non-cryptographic activity.
fn fit_noise(len: usize, seed: u64) -> Trace {
    let mut state = 0x0015_E7EA_CE00_0001 ^ seed;
    Trace::from_samples(
        (0..len).map(|i| 0.5 * (i as f32 * 0.11).sin() + 0.25 * xorshift(&mut state)).collect(),
    )
}

fn fit_cases() -> Vec<FitCase> {
    vec![
        FitCase {
            name: "served",
            window: 256,
            cnn: CnnConfig { base_filters: 8, kernel_size: 9, seed: 1 },
            training: TrainingConfig { epochs: 2, batch_size: 32, learning_rate: 2e-3, seed: 1 },
            limits: (30, 60, 40),
            seed: 11,
            captures: fit_captures(30, 700, 1),
            noise: fit_noise(6_000, 1),
        },
        FitCase {
            name: "small",
            window: 48,
            cnn: CnnConfig { base_filters: 2, kernel_size: 3, seed: 1 },
            training: TrainingConfig { epochs: 3, batch_size: 16, learning_rate: 5e-3, seed: 2 },
            limits: (24, 40, 32),
            seed: 13,
            captures: fit_captures(24, 160, 2),
            noise: fit_noise(2_000, 2),
        },
    ]
}

/// The pinned outputs of one fit: the saved v4 model bytes, and the bits of
/// every epoch's training loss followed by every epoch's validation loss.
fn fit_pin(case: &FitCase) -> (Vec<u8>, Vec<u8>) {
    let (engine, report) = case.builder().fit(&case.captures, &case.noise);
    let losses = report
        .train_losses
        .iter()
        .chain(&report.validation_losses)
        .flat_map(|l| l.to_bits().to_le_bytes())
        .collect();
    (saved_bytes(&engine, &format!("fit_{}", case.name)), losses)
}

fn fit_model_fixture(name: &str) -> String {
    format!("fit_{name}.scaloc")
}

fn fit_losses_fixture(name: &str) -> String {
    format!("fit_losses_{name}.bin")
}

/// One-time fixture writer (run explicitly with `--ignored` under
/// `TINYNN_THREADS=1` after an intentional numerical change; never runs in
/// CI).
#[test]
#[ignore = "regenerates the bit-pin fixtures in the source tree"]
fn regenerate_bit_pins() {
    let trace = trace();
    for (name, engine) in engines() {
        let (scores, _) = engine.locate_detailed(&trace);
        std::fs::write(fixture_path(&bits_fixture(name)), to_bytes(&scores)).unwrap();
        let pin: Vec<u8> = i8_pin_bits(&i8_twin(&engine, &trace), &trace)
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .collect();
        std::fs::write(fixture_path(&i8_fixture(name)), pin).unwrap();
        if name == "served" {
            std::fs::write(fixture_path(QUANT_FIXTURE), quantized_bytes(&engine, &trace)).unwrap();
        }
    }
    for case in fit_cases() {
        let (model, losses) = fit_pin(&case);
        std::fs::write(fixture_path(&fit_model_fixture(case.name)), model).unwrap();
        std::fs::write(fixture_path(&fit_losses_fixture(case.name)), losses).unwrap();
    }
}

#[test]
fn f32_scores_match_the_pinned_bits() {
    let trace = trace();
    for (name, engine) in engines() {
        let (scores, _) = engine.locate_detailed(&trace);
        let pinned = std::fs::read(fixture_path(&bits_fixture(name))).unwrap();
        assert_eq!(pinned.len(), 4 * scores.len(), "{name}: score count changed");
        for (i, (chunk, s)) in pinned.chunks_exact(4).zip(&scores).enumerate() {
            let want = u32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(
                s.to_bits(),
                want,
                "{name}: score {i} is {s}, pinned {}",
                f32::from_bits(want)
            );
        }
    }
}

#[test]
fn i8_twins_match_the_pinned_grids_and_scores() {
    let trace = trace();
    for (name, engine) in engines() {
        let got = i8_pin_bits(&i8_twin(&engine, &trace), &trace);
        let pinned: Vec<u32> = std::fs::read(fixture_path(&i8_fixture(name)))
            .unwrap()
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(pinned.len(), got.len(), "{name}: score count changed");
        let (pinned_scales, pinned_scores) = pinned.split_at(ACTIVATION_SCALE_COUNT);
        let (scales, scores) = got.split_at(ACTIVATION_SCALE_COUNT);
        assert_eq!(scales, pinned_scales, "{name}: calibrated activation grids drifted");
        for (i, (&s, &want)) in scores.iter().zip(pinned_scores).enumerate() {
            assert_eq!(
                s,
                want,
                "{name}: i8 score {i} is {}, pinned {}",
                f32::from_bits(s),
                f32::from_bits(want)
            );
        }
    }
}

#[test]
fn quantize_with_samples_writes_the_pinned_bytes() {
    let trace = trace();
    let (_, engine) = engines().into_iter().find(|(name, _)| *name == "served").unwrap();
    assert_eq!(
        quantized_bytes(&engine, &trace),
        std::fs::read(fixture_path(QUANT_FIXTURE)).unwrap(),
        "the i8 twin quantised from fixed windows drifted from its pinned v4 bytes"
    );
}

#[test]
fn pinned_engines_cover_the_intended_shapes() {
    let trace = trace();
    for (name, engine) in engines() {
        let sliding = engine.sliding();
        let windows = sliding.output_len(trace.len());
        match name {
            "served" => {
                assert_eq!(windows, 141);
                assert_ne!(windows % sliding.batch_size(), 0, "served needs a ragged batch");
            }
            "paper" => {
                let k = engine.model().config().kernel_size;
                assert!(sliding.window_len() < k, "paper windows must be shorter than k");
                assert!(
                    engine.model().config().base_filters * k > 256,
                    "depths must exceed one block"
                );
            }
            _ => assert!(windows > 0),
        }
    }
}

#[test]
fn fit_writes_the_pinned_model_bytes() {
    for case in fit_cases() {
        let pinned_model = std::fs::read(fixture_path(&fit_model_fixture(case.name))).unwrap();
        let pinned_losses = std::fs::read(fixture_path(&fit_losses_fixture(case.name))).unwrap();
        let (model, losses) = fit_pin(&case);
        let threads = tinynn::parallel::max_threads();
        assert_eq!(
            losses, pinned_losses,
            "{} fit on {threads} threads: loss bits drifted",
            case.name
        );
        assert!(
            model == pinned_model,
            "{} fit on {threads} threads: the trained model drifted from its pinned v4 bytes",
            case.name
        );
    }
}

#[test]
fn pinned_fits_cover_the_intended_shapes() {
    for case in fit_cases() {
        let (start, rest, noise) = case.limits;
        // The dataset and split `LocatorBuilder::fit` builds for this case.
        let split = DatasetBuilder::new(case.window)
            .with_limits(start, rest, noise)
            .with_seed(case.seed)
            .build(&case.captures, &case.noise)
            .split(SplitRatios::paper(), case.seed);
        assert!(!split.validation.is_empty(), "{}: epoch selection needs validation", case.name);
        if case.name == "served" {
            assert_ne!(
                split.train.len() % case.training.batch_size,
                0,
                "served needs a ragged training batch"
            );
        } else {
            let res1_depth = case.cnn.base_filters * case.cnn.kernel_size;
            assert!(res1_depth < 8, "small needs convolution depths below one 8-lane vector");
        }
    }
}
