//! Quickstart: simulate a protected device, train the CNN locator, and find
//! the cryptographic operations in an unknown trace — then persist the
//! trained model with the engine API and serve from the reloaded copy.
//!
//! Run with: `cargo run --example quickstart --release`

use sca_locate::ciphers::{cipher_by_id, CipherId};
use sca_locate::locator::{hit_rate, CipherProfile, LocatorBuilder, LocatorEngine};
use sca_locate::soc::{Scenario, SocSimulator, SocSimulatorConfig};

fn main() {
    // 1. The attacker's clone device: a simulated SoC with the RD-2 random
    //    delay countermeasure permanently enabled.
    let cipher = CipherId::Simon128;
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(2), 42);

    // 2. Acquire training material: cipher traces (one CO each, located via
    //    the NOP preamble) and a noise trace of other applications.
    let mean_co = sim.mean_co_samples(cipher, 8);
    let profile = CipherProfile::scaled(cipher, mean_co.round() as usize);
    println!("mean {} CO length on this platform: {:.0} samples", cipher, mean_co);
    println!(
        "pipeline parameters: N_train={} N_inf={} stride={}",
        profile.n_train, profile.n_inf, profile.stride
    );

    let cipher_impl = cipher_by_id(cipher);
    let key = Scenario::DEFAULT_KEY;
    let mut cipher_traces = Vec::new();
    for _ in 0..64 {
        let pt = sim.trng_mut().next_block();
        let (trace, _ct) = sim.capture_cipher_trace(cipher_impl.as_ref(), &key, &pt);
        cipher_traces.push(trace);
    }
    let noise_trace = sim.capture_noise_trace(8_000);

    // 3. Train the CNN-based locator.
    let (engine, report) = LocatorBuilder::from_profile(&profile).fit(&cipher_traces, &noise_trace);
    println!(
        "trained CNN, best validation accuracy: {:.1}%",
        100.0 * report.best_validation_accuracy()
    );

    // 4. Persist the trained model with the engine API (profile once, serve
    //    many): save to disk and reload, as a scoring fleet would.
    let model_path = std::env::temp_dir().join("quickstart_colocator.model");
    engine.save(&model_path).expect("save trained model");
    let served = LocatorEngine::load(&model_path).expect("load trained model");
    println!(
        "saved model to {} ({} bytes) and reloaded it",
        model_path.display(),
        std::fs::metadata(&model_path).map(|m| m.len()).unwrap_or(0)
    );
    std::fs::remove_file(&model_path).ok();

    // 5. Locate the COs in a fresh trace from the *target* device: 8 cipher
    //    executions interleaved with other applications. `locate` takes
    //    `&self`, so `served` could be shared by any number of threads.
    let result = sim.run_scenario(&Scenario::interleaved(cipher, 8));
    let located = served.locate(&result.trace);

    // 6. Compare with the (simulation-provided) ground truth.
    let tolerance = (result.mean_co_len() / 2.0) as usize;
    let hits = hit_rate(&located, &result.co_starts(), tolerance);
    println!(
        "located {} candidate starts in a {}-sample trace; hits {}/{} ({:.1}%)",
        located.len(),
        result.trace.len(),
        hits.hits,
        hits.total,
        hits.percentage()
    );
}
