//! # sca-locator
//!
//! The core contribution of the reproduced paper: a deep-learning pipeline
//! that locates the beginning of cryptographic operations (COs) in a
//! side-channel trace, even when the target platform deploys a random-delay
//! desynchronisation countermeasure.
//!
//! The crate mirrors the structure of the paper's Section III:
//!
//! * [`dataset`] — *Dataset Creation* (III-A): cut cipher traces and a noise
//!   trace into `N`-sample windows labelled `c1` (beginning of CO) / `c0`
//!   (not beginning).
//! * [`cnn`] — the 1-D ResNet-style CNN binary classifier (III-B, Figure 2).
//! * [`training`] — the training pipeline: Adam, cross-entropy, 80/15/5
//!   train/validation/test split, best-epoch selection (IV-B).
//! * [`sliding`] — *Sliding Window Classification* (III-C): slide an
//!   `N_inf`-sample window with stride `s` over an unknown trace and score
//!   every window with the trained CNN (linear class-1 output).
//! * [`segmentation`] — *Segmentation* (III-D): threshold → ±1 square wave →
//!   median filter → rising edges → CO start samples; includes
//!   [`segmentation::StreamingSegmenter`] for incremental segmentation over
//!   per-chunk score spans.
//! * [`alignment`] — cut and align the located COs for the downstream attack.
//! * [`evaluation`] — hit-rate scoring against ground truth (IV-B).
//! * [`pipeline`] — [`pipeline::LocatorBuilder`], which trains the CNN and
//!   returns the [`engine::LocatorEngine`] running the end-to-end pipeline.
//! * [`engine`] — [`engine::LocatorEngine`], the profile-once / score-many
//!   serving front-end: `&self` scoring, out-of-core
//!   [`engine::LocatorEngine::locate_streamed`] over any
//!   [`sca_trace::TraceSource`], model save/load, and
//!   [`engine::LocatorEngine::quantize`] for the `i8` serving path.
//! * [`qcnn`] — [`qcnn::QuantizedCoLocatorCnn`], the inference-only
//!   quantised CNN (per-channel symmetric `i8` weights, `f32` activations).
//! * [`persist`] — the versioned little-endian binary model format behind
//!   the engine's save/load.
//! * [`profiles`] — per-cipher pipeline parameters: the paper's Table I
//!   values and the CPU-scaled equivalents used by this reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod cnn;
pub mod dataset;
pub mod engine;
pub mod evaluation;
pub mod persist;
pub mod pipeline;
pub mod profiles;
pub mod qcnn;
pub mod segmentation;
pub mod sliding;
pub mod training;

pub use alignment::Aligner;
pub use cnn::{CnnConfig, CoLocatorCnn, WindowScorer};
pub use dataset::DatasetBuilder;
pub use engine::{EngineModel, LocatorEngine};
pub use evaluation::{hit_rate, HitReport};
pub use persist::PersistError;
pub use pipeline::LocatorBuilder;
pub use profiles::{CipherProfile, ProfileKind};
pub use qcnn::QuantizedCoLocatorCnn;
pub use segmentation::{SegmentationConfig, Segmenter, StreamingSegmenter, ThresholdStrategy};
pub use sliding::SlidingWindowClassifier;
pub use training::{Trainer, TrainingConfig, TrainingReport};
