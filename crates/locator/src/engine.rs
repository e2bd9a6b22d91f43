//! The shared-weight serving engine: profile once, score many traces.
//!
//! The paper's workflow (and the follow-up localisation literature) trains a
//! CNN once per cipher and then applies it to whole sets of long traces. A
//! [`LocatorEngine`] is the object built for that second phase:
//!
//! * every entry point takes **`&self`** — one warm weight set is shared by
//!   all scoring threads, which allocate only a per-thread
//!   [`tinynn::Workspace`] (no weight clones anywhere);
//! * a trace's windows are scored in shards across
//!   [`LocatorEngine::with_threads`] threads, the calling thread among
//!   them. Neither scoring chain starts threads of its own, so a caller
//!   that runs its own workers and scores through [`EngineModel`]
//!   directly, as the locate service does, uses one thread per worker;
//! * [`LocatorEngine::save`] / [`LocatorEngine::load`] persist a trained
//!   model in the versioned binary format of [`crate::persist`], so a fleet
//!   of workers can load one profile from disk instead of retraining.
//!
//! # Example: build → save → load → serve
//!
//! ```
//! use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
//! use sca_trace::Trace;
//!
//! // Normally the engine comes out of `LocatorBuilder::fit(...)`; an
//! // untrained network keeps the example fast.
//! let cnn = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 1 });
//! let engine =
//!     LocatorEngine::new(cnn, SlidingWindowClassifier::new(16, 4), Segmenter::default());
//!
//! let traces: Vec<Trace> = (0..3)
//!     .map(|i| Trace::from_samples((0..96).map(|x| ((x + i) as f32 * 0.2).sin()).collect()))
//!     .collect();
//! let located: Vec<Vec<usize>> = traces.iter().map(|t| engine.locate(t)).collect();
//!
//! // Persist the profile and serve it from a fresh process.
//! let path =
//!     std::env::temp_dir().join(format!("colocator_doc_{}.engine", std::process::id()));
//! engine.save(&path).unwrap();
//! let restored = LocatorEngine::load(&path).unwrap();
//! assert_eq!(restored.locate(&traces[0]), located[0]);
//! # std::fs::remove_file(&path).ok();
//! ```

use std::path::Path;
use std::sync::Arc;

use sca_trace::{Trace, TraceSource};
use tinynn::{Tensor, Workspace};

use crate::cnn::{CoLocatorCnn, WindowScorer};
use crate::persist::{self, PersistError};
use crate::qcnn::QuantizedCoLocatorCnn;
use crate::segmentation::{Segmenter, StreamingSegmenter};
use crate::sliding::SlidingWindowClassifier;

/// The weight set an engine serves: the trained `f32` network or its
/// quantised (`i8` weights, per-channel scales) counterpart.
///
/// Both variants implement [`WindowScorer`], so every scoring path of the
/// engine — in-memory, streamed, shard fan-out — is shared verbatim between
/// them.
// The variants genuinely differ in size (f32 tensors vs i8 blocks); an
// engine holds exactly one model for its whole lifetime, so boxing would
// only add a pointer chase to every score.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum EngineModel {
    /// Full-precision weights (model format v1).
    F32(CoLocatorCnn),
    /// Per-channel symmetric `i8` weights with calibrated activation grids
    /// (model format v3; v2 files load and self-calibrate).
    Quantized(QuantizedCoLocatorCnn),
}

impl EngineModel {
    /// Heap bytes the weight set keeps resident at serving time.
    ///
    /// For `f32` models this is the parameter and buffer storage; for
    /// quantised models it counts the `i8` blocks *and* their derived
    /// widened `i16` kernel operands plus the `f32` head (see
    /// [`QuantizedCoLocatorCnn::resident_weight_bytes`]). This is the
    /// per-model term a serving registry budgets against.
    pub fn weight_bytes(&self) -> usize {
        match self {
            EngineModel::F32(cnn) => {
                let params = cnn.param_count() * 4;
                let buffers: usize = cnn.buffers().iter().map(|b| b.len() * 4).sum();
                params + buffers
            }
            EngineModel::Quantized(qcnn) => qcnn.resident_weight_bytes(),
        }
    }

    /// The architecture configuration behind either variant.
    pub fn config(&self) -> &crate::cnn::CnnConfig {
        match self {
            EngineModel::F32(cnn) => cnn.config(),
            EngineModel::Quantized(qcnn) => qcnn.config(),
        }
    }
}

impl WindowScorer for EngineModel {
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        match self {
            EngineModel::F32(cnn) => cnn.score_windows_into(input, ws, scores),
            EngineModel::Quantized(qcnn) => qcnn.score_windows_into(input, ws, scores),
        }
    }
}

/// A trained, immutable CO-locating model ready to serve many traces.
///
/// Returned by [`crate::LocatorBuilder::fit`], assembled from a trained CNN
/// with [`LocatorEngine::new`], or loaded from disk with
/// [`LocatorEngine::load`]. All scoring entry points take `&self`, so one
/// engine can be shared behind an `Arc` (or plain borrows) by any number of
/// worker threads. [`LocatorEngine::quantize`] derives a drop-in engine
/// with `i8` weights that serves the same API from a quarter of the weight
/// memory.
/// The weight set is held behind an [`Arc`], so cloning an engine (or the
/// [`Self::quantize`] of an already quantised engine) shares the weights
/// instead of deep-copying them — a registry can hand out engine clones per
/// request generation at the cost of a reference count.
#[derive(Debug, Clone)]
pub struct LocatorEngine {
    model: Arc<EngineModel>,
    sliding: SlidingWindowClassifier,
    segmenter: Segmenter,
}

impl LocatorEngine {
    /// Assembles an engine from an already trained CNN and explicit inference
    /// parameters.
    pub fn new(cnn: CoLocatorCnn, sliding: SlidingWindowClassifier, segmenter: Segmenter) -> Self {
        Self { model: Arc::new(EngineModel::F32(cnn)), sliding, segmenter }
    }

    /// Returns `engine` unchanged: `LocatorBuilder::fit` already returns an
    /// engine. Kept only for perfbench's `models::fit_engine`, which calls
    /// it; the next change to the benchmark deletes it.
    #[doc(hidden)]
    pub fn from_locator(engine: LocatorEngine) -> Self {
        engine
    }

    /// The model served by this engine.
    pub fn model(&self) -> &EngineModel {
        &self.model
    }

    /// Estimated resident bytes of serving this engine: the weight set
    /// ([`EngineModel::weight_bytes`]) plus a workspace estimate for one
    /// scoring batch: `batch_size` windows staged as `[B, 1, N]` input, the
    /// per-window scratch of the chain the model runs (the fused `f32`
    /// chain's weight packing and activations, or the fixed-point chain's
    /// `i16` codes — one window's worth either way), and the batch's
    /// pooled features, head activations and logits. The estimate is
    /// deterministic in the engine's configuration, so an eviction budget
    /// compares like with like across save/load cycles.
    pub fn memory_footprint(&self) -> usize {
        let (batch, len) = (self.sliding.batch_size(), self.sliding.window_len());
        let features = 2 * self.model.config().base_filters;
        let chain = match &*self.model {
            EngineModel::F32(cnn) => cnn.scratch_bytes(len),
            EngineModel::Quantized(qcnn) => qcnn.scratch_bytes(len),
        };
        // Pooled features, the hidden layer before and after its ReLU, and
        // the two logits of every window.
        let head = batch * (3 * features + 2) * 4;
        self.model.weight_bytes() + batch * len * 4 + chain + head
    }

    /// The trained `f32` CNN, or `None` for a quantised engine.
    pub fn cnn(&self) -> Option<&CoLocatorCnn> {
        match &*self.model {
            EngineModel::F32(cnn) => Some(cnn),
            EngineModel::Quantized(_) => None,
        }
    }

    /// `true` if this engine serves quantised (`i8`) weights.
    pub fn is_quantized(&self) -> bool {
        matches!(&*self.model, EngineModel::Quantized(_))
    }

    /// Derives an engine serving the quantised (`i8` weights, per-channel
    /// scales) version of this engine's model, with identical inference
    /// parameters. The activation grids of the fixed-point inference chain
    /// are calibrated on the deterministic built-in probe set at this
    /// engine's window length; [`Self::quantize_with_samples`] calibrates
    /// on representative trace windows instead. `locate` / `locate_streamed`
    /// of the result are drop-in replacements whose scores track the `f32`
    /// engine within the quantisation error bound (see the parity tests);
    /// quantising an already quantised engine shares the weights (a
    /// reference-count bump, not a deep copy).
    pub fn quantize(&self) -> LocatorEngine {
        self.quantize_with_samples(&[])
    }

    /// Like [`Self::quantize`], but calibrates the fixed-point chain on
    /// caller-provided sample windows (raw, equal-length slices of real
    /// traces — typically cut with this engine's window length). The
    /// windows are staged exactly as the sliding classifier stages them
    /// ([`SlidingWindowClassifier::stage_window`]) before they drive the
    /// calibration pass, so the grids match what inference will actually
    /// see.
    ///
    /// Beyond the activation grids, the samples also align the head: the
    /// quantised backbone's systematic pooled-feature offset under the
    /// sample distribution is folded into the `f32` head bias (see
    /// `QuantizedCoLocatorCnn::align_head`), which roughly halves the
    /// score divergence against the `f32` engine on matching traces. An
    /// empty sample set falls back to the built-in probes; quantising an
    /// already quantised engine recalibrates its grids on the samples but
    /// cannot re-align the head (the `f32` reference is gone).
    pub fn quantize_with_samples(&self, windows: &[Vec<f32>]) -> LocatorEngine {
        let samples = windows.first().map(|w| {
            let mut stacked = Tensor::zeros(&[windows.len(), 1, w.len()]);
            for (row, window) in stacked.data_mut().chunks_exact_mut(w.len()).zip(windows) {
                self.sliding.stage_window(row, window);
            }
            stacked
        });
        // Each path calibrates exactly once.
        let model = match (&*self.model, &samples) {
            (EngineModel::Quantized(_), None) => Arc::clone(&self.model),
            (EngineModel::Quantized(qcnn), Some(stacked)) => {
                let mut qcnn = qcnn.clone();
                qcnn.calibrate(stacked);
                Arc::new(EngineModel::Quantized(qcnn))
            }
            (EngineModel::F32(cnn), _) => {
                let mut qcnn = QuantizedCoLocatorCnn::uncalibrated(cnn);
                match &samples {
                    Some(stacked) => {
                        qcnn.calibrate(stacked);
                        qcnn.align_head(cnn, stacked);
                    }
                    None => qcnn.calibrate(&QuantizedCoLocatorCnn::synthetic_calibration_windows(
                        self.sliding.window_len(),
                    )),
                }
                Arc::new(EngineModel::Quantized(qcnn))
            }
        };
        LocatorEngine { model, sliding: self.sliding, segmenter: self.segmenter }
    }

    /// The sliding-window classifier parameters.
    pub fn sliding(&self) -> &SlidingWindowClassifier {
        &self.sliding
    }

    /// The segmentation stage.
    pub fn segmenter(&self) -> &Segmenter {
        &self.segmenter
    }

    /// Sets the number of scoring threads (`0` = one per available core);
    /// the calling thread is one of them, so `1` scores on the calling
    /// thread alone, for either precision. Scores are independent per
    /// window, so the located starts do not depend on the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.sliding = self.sliding.with_threads(threads);
        self
    }

    /// Locates the CO start samples in one trace.
    pub fn locate(&self, trace: &Trace) -> Vec<usize> {
        let swc = self.sliding.classify(self.model.as_ref(), trace);
        self.segmenter.segment(&swc, self.sliding.stride())
    }

    /// Like [`Self::locate`] but also returns the raw sliding-window scores.
    pub fn locate_detailed(&self, trace: &Trace) -> (Vec<f32>, Vec<usize>) {
        let swc = self.sliding.classify(self.model.as_ref(), trace);
        let starts = self.segmenter.segment(&swc, self.sliding.stride());
        (swc, starts)
    }

    /// Locates the CO start samples of a trace served by a [`TraceSource`]
    /// — typically an on-disk [`sca_trace::FileTraceSource`] holding far
    /// more samples than fit in memory — scoring it in chunks of at most
    /// `chunk_len` samples.
    ///
    /// The `swc` scores are **bit-identical** to [`Self::locate`] on the
    /// fully loaded trace (see
    /// [`SlidingWindowClassifier::classify_source`]), and the per-chunk
    /// score spans are segmented incrementally through a
    /// [`StreamingSegmenter`], so the located starts are exactly
    /// [`Self::locate`]'s. Peak memory is O(`chunk_len`) for the samples;
    /// with a [`crate::ThresholdStrategy::Fixed`] threshold the segmentation
    /// state is O(median filter size) too, while the data-dependent
    /// strategies additionally buffer the score signal
    /// (O(trace ∕ stride) — see [`StreamingSegmenter`]).
    ///
    /// # Errors
    ///
    /// Returns [`sca_trace::TraceError::InvalidParameter`] if `chunk_len` is
    /// zero, and propagates source I/O failures.
    pub fn locate_streamed<T: TraceSource + ?Sized>(
        &self,
        source: &T,
        chunk_len: usize,
    ) -> sca_trace::Result<Vec<usize>> {
        let mut segmenter =
            StreamingSegmenter::new(*self.segmenter.config(), self.sliding.stride());
        self.sliding.classify_source_with(self.model.as_ref(), source, chunk_len, |span| {
            segmenter.push(span);
        })?;
        Ok(segmenter.finish())
    }

    /// Serialises the engine (weights + inference parameters) to `path` in
    /// the versioned binary format of [`crate::persist`]: the checksummed
    /// format v4, carrying the `f32` or quantised payload as the engine is.
    /// A [`Self::load`]-ed copy reproduces every score bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the file cannot be written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        persist::save_engine(path.as_ref(), &self.model, &self.sliding, &self.segmenter)
    }

    /// Loads an engine previously written by [`Self::save`] — any format
    /// version, current or legacy; the loaded engine is quantised exactly
    /// when the file was.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PersistError`] for missing files, foreign files
    /// (bad magic), incompatible versions and corrupt/truncated payloads
    /// (including v4 checksum mismatches).
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let (model, sliding, segmenter) = persist::load_engine(path.as_ref())?;
        Ok(Self { model: Arc::new(model), sliding, segmenter })
    }

    /// Loads an engine from any [`std::io::Read`] source — the same formats
    /// and error contract as [`Self::load`], without touching the
    /// filesystem. This is how integrity tooling (and the service's fault
    /// harness) validates model bytes it already holds in memory.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PersistError`]; see [`Self::load`].
    pub fn load_from<R: std::io::Read>(reader: R) -> Result<Self, PersistError> {
        let (model, sliding, segmenter) = persist::load_engine_from(reader)?;
        Ok(Self { model: Arc::new(model), sliding, segmenter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::CnnConfig;
    use crate::segmentation::{SegmentationConfig, ThresholdStrategy};

    fn tiny_engine() -> LocatorEngine {
        LocatorEngine::new(
            CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 5 }),
            SlidingWindowClassifier::new(16, 4).with_batch_size(8),
            Segmenter::new(SegmentationConfig {
                threshold: ThresholdStrategy::MidRange,
                median_filter_k: 3,
                min_distance_windows: 2,
            }),
        )
    }

    fn wavy_trace(len: usize, phase: usize) -> Trace {
        Trace::from_samples((0..len).map(|x| ((x + phase) as f32 * 0.13).sin()).collect())
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sca_locator_engine_{name}_{}", std::process::id()))
    }

    #[test]
    fn memory_footprint_tracks_what_a_warm_workspace_retains() {
        // The served shape: the scaled 8×9 network on 230-sample windows in
        // batches of 64. A warm scoring workspace plus the staged batch is
        // what the workspace term must cover, without inflating it.
        let (len, batch) = (230, 64);
        let f32_engine = LocatorEngine::new(
            CoLocatorCnn::new(CnnConfig { seed: 5, ..CnnConfig::scaled() }),
            SlidingWindowClassifier::new(len, 16).with_batch_size(batch),
            Segmenter::new(SegmentationConfig::default()),
        );
        let windows = CoLocatorCnn::stack_windows(
            &(0..batch).map(|i| wavy_trace(len, i).samples().to_vec()).collect::<Vec<_>>(),
        );
        let staged = windows.len() * 4;
        for engine in [f32_engine.quantize(), f32_engine] {
            let mut ws = Workspace::new();
            let mut scores = Vec::new();
            for _ in 0..3 {
                match &*engine.model {
                    EngineModel::F32(cnn) => cnn.score_windows_into(&windows, &mut ws, &mut scores),
                    EngineModel::Quantized(q) => {
                        q.score_windows_into(&windows, &mut ws, &mut scores)
                    }
                }
            }
            let held = ws.retained_bytes() + staged;
            let estimate = engine.memory_footprint() - engine.model.weight_bytes();
            let what = if engine.is_quantized() { "i8" } else { "f32" };
            assert!(
                held <= estimate && estimate * 2 <= held * 3,
                "{what}: estimate {estimate} B against {held} B held (retained + staged)"
            );
        }
    }

    #[test]
    fn locate_detailed_starts_match_locate() {
        let engine = tiny_engine();
        for i in 0..9 {
            let trace = wavy_trace(240, 3 * i);
            assert_eq!(engine.locate_detailed(&trace).1, engine.locate(&trace), "trace {i}");
        }
    }

    #[test]
    fn locate_finds_no_starts_in_a_trace_shorter_than_the_window() {
        let engine = tiny_engine();
        let short = Trace::from_samples(vec![0.0; 4]);
        assert!(engine.locate(&short).is_empty());
        assert_eq!(engine.locate_detailed(&short), (Vec::new(), Vec::new()));
    }

    #[test]
    fn locate_streamed_matches_locate_for_both_model_kinds() {
        let engine = tiny_engine();
        let quantized = engine.quantize();
        for eng in [&engine, &quantized] {
            for len in [40usize, 150, 333] {
                let trace = wavy_trace(len, len / 3);
                let expected = eng.locate(&trace);
                for chunk_len in [24usize, 100, 1000] {
                    assert_eq!(
                        eng.locate_streamed(&trace, chunk_len).unwrap(),
                        expected,
                        "quantized={} len={len} chunk={chunk_len}",
                        eng.is_quantized()
                    );
                }
            }
        }
    }

    #[test]
    fn locate_streamed_from_disk_matches_in_memory() {
        let engine = tiny_engine();
        let trace = wavy_trace(400, 7);
        let path = temp_path("streamed_disk");
        sca_trace::io::write_samples_binary(std::fs::File::create(&path).unwrap(), trace.samples())
            .unwrap();
        let source = sca_trace::FileTraceSource::open_raw_f32(&path).unwrap();
        assert_eq!(engine.locate_streamed(&source, 96).unwrap(), engine.locate(&trace));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = tiny_engine();
        let trace = wavy_trace(300, 1);
        let expected = engine.locate(&trace);
        let engine_ref = &engine;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let trace = trace.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    assert_eq!(engine_ref.locate(&trace), expected);
                });
            }
        });
    }

    #[test]
    fn save_load_roundtrip_reproduces_scores_bit_exactly() {
        let engine = tiny_engine();
        let path = temp_path("roundtrip");
        engine.save(&path).unwrap();
        let restored = LocatorEngine::load(&path).unwrap();
        for (i, len) in [100usize, 257, 400].into_iter().enumerate() {
            let trace = wavy_trace(len, i);
            let (scores_a, starts_a) = engine.locate_detailed(&trace);
            let (scores_b, starts_b) = restored.locate_detailed(&trace);
            assert_eq!(starts_a, starts_b);
            assert_eq!(scores_a.len(), scores_b.len());
            for (a, b) in scores_a.iter().zip(scores_b.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "roundtrip scores must be bit-identical");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_foreign_file_with_typed_error() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a model file").unwrap();
        assert_eq!(LocatorEngine::load(&path).unwrap_err(), PersistError::BadMagic);
        std::fs::remove_file(&path).ok();
    }
}
