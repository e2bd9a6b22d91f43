//! Quantised serving-path demo: derive an `i8` engine from an `f32` engine,
//! compare their scores, and roundtrip the v2 model format.
//!
//! Run with: `cargo run --release --example quantized_engine`

use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
use sca_trace::Trace;

fn main() {
    // Normally the f32 engine comes out of `LocatorBuilder::fit(...)`; an
    // untrained network keeps the example fast.
    let engine = LocatorEngine::new(
        CoLocatorCnn::new(CnnConfig::scaled()),
        SlidingWindowClassifier::new(128, 32),
        Segmenter::default(),
    );

    // One call: per-channel symmetric i8 weights, batch norms folded into
    // the convolutions, same `locate`/`locate_streamed` API.
    let quantized = engine.quantize();
    assert!(quantized.is_quantized());

    let trace = Trace::from_samples((0..40_000).map(|i| (i as f32 * 0.013).sin() * 0.8).collect());
    let (f32_scores, f32_starts) = engine.locate_detailed(&trace);
    let (q_scores, q_starts) = quantized.locate_detailed(&trace);
    let max_div =
        f32_scores.iter().zip(q_scores.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    println!("scored {} windows: max |i8 - f32| score divergence {max_div:.2e}", f32_scores.len());
    let matching = f32_starts.iter().filter(|s| q_starts.contains(s)).count();
    println!(
        "located starts: f32 {} / i8 {} ({matching} matching)",
        f32_starts.len(),
        q_starts.len()
    );

    // Persist the quantised engine (format v2: i8 blocks + f32 scale
    // vectors) and reload it — scores reproduce bit-exactly.
    let dir = std::env::temp_dir();
    let v1 = dir.join(format!("quant_demo_{}.v1", std::process::id()));
    let v2 = dir.join(format!("quant_demo_{}.v2", std::process::id()));
    engine.save(&v1).expect("save f32 model");
    quantized.save(&v2).expect("save quantised model");
    let v1_bytes = std::fs::metadata(&v1).map(|m| m.len()).unwrap_or(0);
    let v2_bytes = std::fs::metadata(&v2).map(|m| m.len()).unwrap_or(0);
    println!(
        "model files: v1 {v1_bytes} bytes, v2 {v2_bytes} bytes ({:.1}x smaller)",
        v1_bytes as f64 / v2_bytes.max(1) as f64
    );

    let restored = LocatorEngine::load(&v2).expect("load quantised model");
    assert!(restored.is_quantized());
    let (r_scores, _) = restored.locate_detailed(&trace);
    assert!(
        r_scores.iter().zip(q_scores.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
        "v2 roundtrip must reproduce scores bit-exactly"
    );
    println!("v2 save → load roundtrip reproduced every score bit-exactly");

    std::fs::remove_file(&v1).ok();
    std::fs::remove_file(&v2).ok();
}
