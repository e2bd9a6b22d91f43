//! Multi-trace engine throughput benchmark.
//!
//! Measures the batched serving path introduced with
//! [`sca_locator::LocatorEngine`]: N synthetic traces are scored through one
//! shared weight set, once by looping the single-trace `locate` (per-trace
//! shard parallelism) and once through `locate_batch` (across-trace
//! parallelism). A save → load roundtrip of the engine is also timed and the
//! restored model is verified to reproduce the located starts exactly. The
//! numbers are printed; the run fails if batching is slower than looping.
//!
//! Usage: `engine_bench [--traces N] [--trace-len N]`
//! (defaults: 8 traces of 1,000,000 samples).

use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
use sca_trace::Trace;
use std::time::Instant;

/// Window length of the scorer (the scaled profiles use this order of size).
const WINDOW_LEN: usize = 128;
/// Stride between windows.
const STRIDE: usize = 32;

struct Args {
    traces: usize,
    trace_len: usize,
}

fn parse_args() -> Args {
    let mut args = Args { traces: 8, trace_len: 1_000_000 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("missing value for {name}"));
        match flag.as_str() {
            "--traces" => args.traces = value("--traces").parse().expect("trace count"),
            "--trace-len" => args.trace_len = value("--trace-len").parse().expect("trace len"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.traces > 0, "need at least one trace");
    args
}

/// Synthetic "SoC-like" trace: superposed oscillations plus a deterministic
/// pseudo-noise term, seeded per trace so the fleet is not N copies of one
/// signal.
fn synthetic_trace(len: usize, seed: u64) -> Trace {
    let mut state = 0x0123_4567_89AB_CDEF_u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let samples = (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
            let t = i as f32;
            (t * 0.013).sin() + 0.4 * (t * 0.11).sin() + 0.25 * noise
        })
        .collect();
    Trace::from_samples(samples)
}

fn main() {
    let args = parse_args();
    let engine = LocatorEngine::new(
        CoLocatorCnn::new(CnnConfig::scaled()),
        SlidingWindowClassifier::new(WINDOW_LEN, STRIDE).with_batch_size(64),
        Segmenter::default(),
    );
    let traces: Vec<Trace> =
        (0..args.traces).map(|i| synthetic_trace(args.trace_len, i as u64)).collect();
    let total_windows: usize = traces.iter().map(|t| engine.sliding().output_len(t.len())).sum();
    println!(
        "fleet: {} traces x {} samples = {} windows (N={WINDOW_LEN}, stride={STRIDE})",
        traces.len(),
        args.trace_len,
        total_windows
    );

    // Warm-up: fault in code paths and thread-local buffers. (The batch
    // route needs no separate warm-up: its workers spawn fresh scoped
    // threads with fresh workspaces every call, and the median-pair
    // selection below rejects a cold outlier rep.)
    let _ = engine.locate(&traces[0]);

    // Interleaved measurement: looped and batched runs alternate
    // (L, B, L, B, …) so a one-sided cache or frequency drift cannot bias
    // the comparison in either direction. All rep times are kept: the
    // median rep pair provides every reported number and the rep spread
    // calibrates the noise floor of the speedup assertion below.
    const REPS: usize = 3;
    let mut looped: Vec<Vec<usize>> = Vec::new();
    let mut batched: Vec<Vec<usize>> = Vec::new();
    let mut loop_reps = [std::time::Duration::ZERO; REPS];
    let mut batch_reps = [std::time::Duration::ZERO; REPS];
    for rep in 0..REPS {
        let t0 = Instant::now();
        looped = traces.iter().map(|t| engine.locate(t)).collect();
        loop_reps[rep] = t0.elapsed();
        let t0 = Instant::now();
        batched = engine.locate_batch(&traces);
        batch_reps[rep] = t0.elapsed();
    }
    // One estimator for every reported number: the median rep *pair*. Each
    // rep's batch run follows its looped run back-to-back, so slow
    // machine-speed drift hits both sides of one pair almost equally and
    // cancels in the ratio; taking the median pair then rejects a single
    // disturbed rep. Using the same pair for the printed throughputs keeps
    // them consistent — the two windows/s figures divide to exactly the
    // printed speedup (deriving them from per-path minima instead can
    // contradict the speedup on a noisy host).
    let mut pair_order: Vec<usize> = (0..REPS).collect();
    pair_order.sort_by(|&a, &b| {
        let ra = loop_reps[a].as_secs_f64() / batch_reps[a].as_secs_f64();
        let rb = loop_reps[b].as_secs_f64() / batch_reps[b].as_secs_f64();
        ra.partial_cmp(&rb).expect("finite ratios")
    });
    let median_pair = pair_order[REPS / 2];
    let loop_elapsed = loop_reps[median_pair];
    let batch_elapsed = batch_reps[median_pair];
    let loop_tps = traces.len() as f64 / loop_elapsed.as_secs_f64();
    let loop_wps = total_windows as f64 / loop_elapsed.as_secs_f64();
    println!(
        "looped locate:  {loop_elapsed:>8.2?}  ({loop_tps:>6.2} traces/s, {loop_wps:>10.1} windows/s)"
    );
    let batch_tps = traces.len() as f64 / batch_elapsed.as_secs_f64();
    let batch_wps = total_windows as f64 / batch_elapsed.as_secs_f64();
    println!(
        "locate_batch:   {batch_elapsed:>8.2?}  ({batch_tps:>6.2} traces/s, {batch_wps:>10.1} windows/s)"
    );

    // Acceptance: the two routes must agree exactly.
    assert_eq!(batched, looped, "locate_batch must reproduce per-trace locate exactly");

    // Acceptance: batch scheduling must never be slower than looping the
    // single-trace path — the dynamic trace-stealing scheduler either fans
    // out across traces or *is* the looped path (narrow batches, 1 core),
    // so any real gap is a regression. The assertion's noise floor is
    // calibrated from the measurement itself: the worst rep-to-rep spread
    // either path showed this run (capped at 10%). On a quiet machine the
    // floor is tight; on a noisy shared runner it widens exactly as much as
    // the run demonstrably wobbles, so timer noise between two reps of what
    // can be byte-for-byte the same code cannot fail the build while a real
    // scheduling regression still trips it.
    let spread = |reps: &[std::time::Duration; REPS]| {
        let min = reps.iter().min().expect("REPS > 0").as_secs_f64();
        let max = reps.iter().max().expect("REPS > 0").as_secs_f64();
        (max - min) / min
    };
    let noise = spread(&loop_reps).max(spread(&batch_reps)).min(0.10);
    let speedup =
        (loop_elapsed.as_secs_f64() / batch_elapsed.as_secs_f64() * 100.0).round() / 100.0;
    assert!(
        speedup >= 1.0 - noise,
        "locate_batch regressed below looped locate: speedup {speedup:.2} < 1.0 \
         (measured rep noise {:.1}%)",
        noise * 100.0
    );

    // Model persistence roundtrip: save, load, verify identical starts.
    let model_path =
        std::env::temp_dir().join(format!("engine_bench_{}.model", std::process::id()));
    let t0 = Instant::now();
    engine.save(&model_path).expect("save engine");
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let model_bytes = std::fs::metadata(&model_path).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let restored = LocatorEngine::load(&model_path).expect("load engine");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        restored.locate(&traces[0]),
        looped[0],
        "restored engine must reproduce the original starts"
    );
    std::fs::remove_file(&model_path).ok();
    println!("model roundtrip: save {save_ms:.2} ms, load {load_ms:.2} ms, {model_bytes} bytes");

    println!("speedup locate_batch vs looped locate: {speedup:.2}x");
}
