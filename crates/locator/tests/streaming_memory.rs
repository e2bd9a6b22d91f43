//! Memory budget of the out-of-core path: `locate_streamed` over a 128 MiB
//! on-disk trace must keep the process's peak resident set (`VmHWM`) under
//! 16 MiB, i.e. its memory is bounded by the chunk, not by the trace.
//!
//! The test is alone in its binary so no other test raises the process
//! peak. It reads `VmHWM` from `/proc/self/status` and so runs on Linux
//! only. The stride is wide to keep a debug run short: the chunk buffers
//! the budget is about depend on the chunk length, not on the stride.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::path::PathBuf;

use sca_locator::{
    CnnConfig, CoLocatorCnn, LocatorEngine, SegmentationConfig, Segmenter, SlidingWindowClassifier,
    ThresholdStrategy,
};
use sca_trace::{FileTraceSource, Trace, TraceSource};

/// 128 MiB of raw `f32` samples.
const TRACE_LEN: usize = 32 * 1024 * 1024;
/// Samples generated and written at a time.
const PIECE: usize = 64 * 1024;
const CHUNK_LEN: usize = 256 * 1024;
const WINDOW_LEN: usize = 128;
const STRIDE: usize = 4096;
const BUDGET_KB: u64 = 16 * 1024;

/// Removes the trace file however the test ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Superposed oscillations plus LCG noise, generated positionally so the
/// trace is written in bounded pieces and never held in memory.
fn write_trace(path: &std::path::Path) {
    let mut state = 0x0123_4567_89AB_CDEF_u64;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).expect("create trace file"));
    let mut piece = Vec::with_capacity(PIECE);
    for start in (0..TRACE_LEN).step_by(PIECE) {
        piece.clear();
        piece.extend((start..start + PIECE).map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
            let t = i as f32;
            (t * 0.013).sin() + 0.4 * (t * 0.11).sin() + 0.25 * noise
        }));
        sca_trace::io::write_samples_binary(&mut w, &piece).expect("write trace piece");
    }
    w.flush().expect("flush trace file");
}

/// Peak resident set size of this process in KiB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

#[test]
fn streamed_locate_of_a_128_mib_trace_peaks_under_16_mib() {
    let file = TempFile(
        std::env::temp_dir().join(format!("sca_streaming_memory_{}.bin", std::process::id())),
    );
    write_trace(&file.0);
    let source = FileTraceSource::open_raw_f32(&file.0).expect("open trace source");
    assert_eq!(source.len(), TRACE_LEN);

    let cnn = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 42 });
    let sliding = SlidingWindowClassifier::new(WINDOW_LEN, STRIDE).with_batch_size(64);
    // A fixed threshold keeps the streaming segmentation's state
    // O(median filter size); the data-dependent strategies buffer the whole
    // score signal. Taking it from the score midrange of one bounded prefix
    // lets the untrained network still yield edges to segment.
    let mut prefix = vec![0.0f32; CHUNK_LEN];
    source.fill(0, &mut prefix).expect("read prefix");
    let prefix_scores = sliding.classify(&cnn, &Trace::from_samples(prefix));
    let threshold = Segmenter::new(SegmentationConfig {
        threshold: ThresholdStrategy::MidRange,
        ..Default::default()
    })
    .resolve_threshold(&prefix_scores);
    let engine = LocatorEngine::new(
        cnn,
        sliding,
        Segmenter::new(SegmentationConfig {
            threshold: ThresholdStrategy::Fixed(threshold),
            median_filter_k: 5,
            min_distance_windows: 4,
        }),
    );

    let starts = engine.locate_streamed(&source, CHUNK_LEN).expect("streamed locate");
    let peak_kb = peak_rss_kb();
    assert!(!starts.is_empty(), "the fixed threshold must yield starts to segment");
    assert!(
        peak_kb <= BUDGET_KB,
        "streamed locate of a {} MiB trace peaked at {peak_kb} KiB (budget {BUDGET_KB} KiB)",
        TRACE_LEN * 4 / (1024 * 1024)
    );
}
