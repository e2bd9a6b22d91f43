//! Fleet serving with the engine API: train a locator once, persist it, and
//! run a whole fleet of captured traces through one shared weight set with
//! [`LocatorEngine::locate`].
//!
//! This is the profile-once / score-many workflow of the paper's evaluation
//! (one trained CNN per cipher applied to entire trace sets): the engine is
//! `&self`-callable, so every trace shares a single copy of the weights
//! across every scoring thread instead of cloning the CNN per shard.
//!
//! Run with: `cargo run --example engine_fleet --release`

use sca_locate::ciphers::CipherId;
use sca_locate::locator::{hit_rate, CipherProfile, LocatorBuilder, LocatorEngine};
use sca_locate::soc::{Scenario, SocSimulator, SocSimulatorConfig};
use std::time::Instant;

fn main() {
    // 1. Profile phase: train the locator on the attacker's clone device.
    let cipher = CipherId::Aes128;
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(2), 1234);
    let mean_co = sim.mean_co_samples(cipher, 8);
    let profile = CipherProfile::scaled(cipher, mean_co.round() as usize);
    let cipher_impl = sca_locate::ciphers::cipher_by_id(cipher);
    let key = Scenario::DEFAULT_KEY;
    let mut cipher_traces = Vec::new();
    for _ in 0..64 {
        let pt = sim.trng_mut().next_block();
        let (trace, _) = sim.capture_cipher_trace(cipher_impl.as_ref(), &key, &pt);
        cipher_traces.push(trace);
    }
    let noise_trace = sim.capture_noise_trace(8_000);
    let (locator, report) =
        LocatorBuilder::from_profile(&profile).fit(&cipher_traces, &noise_trace);
    println!("trained: best validation accuracy {:.1}%", 100.0 * report.best_validation_accuracy());

    // 2. Persist the profile; a scoring fleet loads it instead of retraining.
    let model_path = std::env::temp_dir().join("engine_fleet.model");
    locator.save(&model_path).expect("save model");
    let engine = LocatorEngine::load(&model_path).expect("load model");
    std::fs::remove_file(&model_path).ok();

    // 3. Serve: capture a fleet of target traces and locate each in turn.
    let results: Vec<_> =
        (0..6).map(|i| sim.run_scenario(&Scenario::interleaved(cipher, 4 + i % 3))).collect();
    let traces: Vec<_> = results.iter().map(|r| r.trace.clone()).collect();
    let total_samples: usize = traces.iter().map(|t| t.len()).sum();
    let t0 = Instant::now();
    let located: Vec<Vec<usize>> = traces.iter().map(|t| engine.locate(t)).collect();
    let elapsed = t0.elapsed();
    println!(
        "scored {} traces ({} samples) in {:.2?} ({:.2} traces/s)",
        traces.len(),
        total_samples,
        elapsed,
        traces.len() as f64 / elapsed.as_secs_f64()
    );

    // 4. Report per-trace hit rates against the simulation ground truth.
    for (i, (result, starts)) in results.iter().zip(located.iter()).enumerate() {
        let tolerance = (result.mean_co_len() / 2.0) as usize;
        let hits = hit_rate(starts, &result.co_starts(), tolerance);
        println!(
            "trace {i}: {:>2} located, hits {}/{} ({:.1}%)",
            starts.len(),
            hits.hits,
            hits.total,
            hits.percentage()
        );
    }
}
