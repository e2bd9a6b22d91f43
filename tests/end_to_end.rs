//! Cross-crate integration tests: simulate → build dataset → train → locate →
//! (attack), exercising the public API the way a downstream user would.
//!
//! The scenarios are deliberately small (Simon-128, few COs, scaled CNN) so
//! the whole file runs in tens of seconds; the full-scale experiments live in
//! the `sca-bench` binaries.

use sca_locate::attack::{CpaAttack, CpaConfig};
use sca_locate::ciphers::{cipher_by_id, CipherId, RecordingCipher};
use sca_locate::locator::{
    hit_rate, Aligner, CipherProfile, CnnConfig, LocatorBuilder, LocatorEngine, TrainingConfig,
};
use sca_locate::soc::{Scenario, SocSimulator, SocSimulatorConfig};
use sca_locate::trace::Trace;

/// Trains a small locator for the given cipher / RD setting and returns it
/// together with the profile that was used.
fn small_locator(
    cipher: CipherId,
    rd: usize,
    seed: u64,
) -> (LocatorEngine, CipherProfile, SocSimulator) {
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(rd), seed);
    let mean_co = sim.mean_co_samples(cipher, 4);
    let mut profile = CipherProfile::scaled(cipher, mean_co.round() as usize);
    // Shrink further for test speed.
    profile.cnn = CnnConfig { base_filters: 4, kernel_size: 5, seed: 3 };
    profile.training = TrainingConfig { epochs: 3, batch_size: 16, learning_rate: 2e-3, seed: 3 };
    profile.cipher_start_windows = 96;
    profile.cipher_rest_windows = 96;
    profile.noise_windows = 64;

    let cipher_impl = cipher_by_id(cipher);
    let key = Scenario::DEFAULT_KEY;
    let mut cipher_traces: Vec<Trace> = Vec::new();
    for _ in 0..48 {
        let pt = sim.trng_mut().next_block();
        let (trace, _ct) = sim.capture_cipher_trace(cipher_impl.as_ref(), &key, &pt);
        cipher_traces.push(trace);
    }
    let noise_trace = sim.capture_noise_trace(6_000);
    let (locator, report) =
        LocatorBuilder::from_profile(&profile).seed(seed).fit(&cipher_traces, &noise_trace);
    assert!(report.best_validation_accuracy() > 0.7, "CNN failed to learn ({:?})", report);
    (locator, profile, sim)
}

#[test]
fn locator_finds_most_cos_in_consecutive_scenario() {
    let (locator, _profile, mut sim) = small_locator(CipherId::Simon128, 2, 101);
    let result = sim.run_scenario(&Scenario::consecutive(CipherId::Simon128, 8));
    let located = locator.locate(&result.trace);
    let hits = hit_rate(&located, &result.co_starts(), (result.mean_co_len() / 2.0) as usize);
    assert!(
        hits.percentage() >= 75.0,
        "expected at least 75% hits, got {:.1}% (located {:?}, truth {:?})",
        hits.percentage(),
        located,
        result.co_starts()
    );
}

#[test]
fn locator_generalises_to_noise_interleaved_scenario() {
    let (locator, _profile, mut sim) = small_locator(CipherId::Simon128, 2, 202);
    let result = sim.run_scenario(&Scenario::interleaved(CipherId::Simon128, 6));
    let located = locator.locate(&result.trace);
    let hits = hit_rate(&located, &result.co_starts(), (result.mean_co_len() / 2.0) as usize);
    assert!(
        hits.percentage() >= 66.0,
        "expected at least 66% hits, got {:.1}% (located {:?}, truth {:?})",
        hits.percentage(),
        located,
        result.co_starts()
    );
}

#[test]
fn trained_engine_roundtrips_and_batches_identically() {
    // The serving workflow of the engine API: train once, persist the
    // engine, reload it, and score a fleet of traces — every route must
    // agree with the fitted engine's own per-trace `locate`.
    let (engine, _profile, mut sim) = small_locator(CipherId::Simon128, 2, 303);
    let traces: Vec<Trace> = (0..4)
        .map(|i| sim.run_scenario(&Scenario::consecutive(CipherId::Simon128, 3 + i % 2)).trace)
        .collect();
    let expected: Vec<Vec<usize>> = traces.iter().map(|t| engine.locate(t)).collect();
    assert!(expected.iter().any(|starts| !starts.is_empty()), "locator found nothing at all");

    let path = std::env::temp_dir().join(format!("e2e_engine_{}.model", std::process::id()));
    engine.save(&path).expect("save trained engine");
    let restored = LocatorEngine::load(&path).expect("load trained engine");
    std::fs::remove_file(&path).ok();
    let located: Vec<Vec<usize>> = traces.iter().map(|t| restored.locate(t)).collect();
    assert_eq!(
        located, expected,
        "a save/load roundtrip must reproduce the located starts exactly"
    );
}

#[test]
fn quantised_engine_matches_f32_engine_on_consecutive_aes() {
    // The quantised serving path end to end: train a tiny f32 locator on
    // AES, derive the i8 engine, and check the full parity contract on the
    // consecutive-AES scenario — bounded per-window score divergence,
    // identical predicted CO starts, a bit-exact v2 save/load roundtrip,
    // and located starts invariant under the thread count.
    let (engine, _profile, mut sim) = small_locator(CipherId::Aes128, 2, 42);
    let result = sim.run_scenario(&Scenario::consecutive(CipherId::Aes128, 6));
    let qengine = engine.quantize();
    assert!(qengine.is_quantized());

    // Parity on the reference scenario: the class-1 score signal of the
    // quantised engine tracks the f32 engine within 1e-2 per window and
    // yields the same CO start locations.
    let (f32_scores, f32_starts) = engine.locate_detailed(&result.trace);
    let (q_scores, q_starts) = qengine.locate_detailed(&result.trace);
    assert_eq!(q_scores.len(), f32_scores.len());
    let mut max_div = 0.0f32;
    for (a, b) in q_scores.iter().zip(f32_scores.iter()) {
        max_div = max_div.max((a - b).abs());
    }
    assert!(max_div <= 1e-2, "quantised score divergence {max_div} exceeds 1e-2");
    assert_eq!(q_starts, f32_starts, "quantised engine must locate the same CO starts");
    assert!(!f32_starts.is_empty(), "scenario produced no locatable COs at all");

    // v2 roundtrip: save → load reproduces the quantised scores bit-exactly.
    let path = std::env::temp_dir().join(format!("e2e_qengine_{}.model", std::process::id()));
    qengine.save(&path).expect("save quantised engine");
    let restored = sca_locate::locator::LocatorEngine::load(&path).expect("load quantised engine");
    std::fs::remove_file(&path).ok();
    assert!(restored.is_quantized());
    let (r_scores, r_starts) = restored.locate_detailed(&result.trace);
    assert_eq!(r_starts, q_starts);
    for (a, b) in r_scores.iter().zip(q_scores.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "v2 roundtrip must reproduce scores bit-exactly");
    }

    // locate across 1/2/4 threads must be bit-identical to itself
    // (per-window scores are independent of sharding and batching).
    let traces: Vec<Trace> = (0..3)
        .map(|i| sim.run_scenario(&Scenario::consecutive(CipherId::Aes128, 3 + i % 2)).trace)
        .collect();
    let base: Vec<Vec<usize>> = traces.iter().map(|t| restored.locate(t)).collect();
    for threads in [1usize, 2, 4] {
        let engine_t = restored.clone().with_threads(threads);
        let located: Vec<Vec<usize>> = traces.iter().map(|t| engine_t.locate(t)).collect();
        assert_eq!(located, base, "threads = {threads}");
        for (trace, expected) in traces.iter().zip(base.iter()) {
            let (scores_a, starts_a) = engine_t.locate_detailed(trace);
            let (scores_b, _) = restored.locate_detailed(trace);
            assert_eq!(&starts_a, expected);
            for (a, b) in scores_a.iter().zip(scores_b.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}: scores must not drift");
            }
        }
    }
}

#[test]
fn ground_truth_alignment_lets_cpa_recover_key_bytes() {
    // Independently of the locator, the simulated leakage must be strong
    // enough for CPA once traces are aligned: align on the ground truth and
    // attack 2 key bytes. Random delay is disabled here so few traces suffice
    // (with RD enabled the leakage sample jitters and far more COs are needed,
    // which is exactly the Table II experiment in the bench harness).
    let cipher = CipherId::Aes128;
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(0), 77);
    let result = sim.run_scenario(&Scenario::consecutive(cipher, 40));
    let co_len = result.mean_co_len().round() as usize;
    let aligner = Aligner::new(co_len);
    let truth: Vec<usize> = result.co_starts();
    let (aligned, dropped) = aligner.align(&result.trace, &truth);
    assert!(dropped.len() <= 1);
    let plaintexts: Vec<[u8; 16]> = result
        .cos
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, c)| c.plaintext)
        .collect();
    let config = CpaConfig { num_key_bytes: 2, aggregation_window: 4, ..CpaConfig::default() };
    let (attack, _progress) = CpaAttack::run(&aligned, &plaintexts, &result.key, config, 10);
    let report = attack.rank_report(&result.key);
    assert!(
        report.ranks[0] <= 4 && report.ranks[1] <= 4,
        "CPA ranks too poor: {:?}",
        &report.ranks[..2]
    );
}

#[test]
fn misaligned_traces_defeat_cpa() {
    // The motivation for the whole paper: without localisation/alignment,
    // the same number of traces does NOT recover the key. Use random cut
    // points instead of the true CO starts.
    let cipher = CipherId::Aes128;
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(2), 78);
    let result = sim.run_scenario(&Scenario::consecutive(cipher, 40));
    let co_len = result.mean_co_len().round() as usize;
    // Shift every start by a different pseudo-random offset comparable to the
    // CO length, destroying alignment.
    let misaligned: Vec<usize> = result
        .co_starts()
        .iter()
        .enumerate()
        .map(|(i, &s)| s.saturating_sub((i * striding(co_len, i)) % co_len))
        .collect();
    let (aligned, dropped) = Aligner::new(co_len).align(&result.trace, &misaligned);
    let plaintexts: Vec<[u8; 16]> = result
        .cos
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, c)| c.plaintext)
        .collect();
    let config = CpaConfig { num_key_bytes: 1, aggregation_window: 4, ..CpaConfig::default() };
    let (attack, _) = CpaAttack::run(&aligned, &plaintexts, &result.key, config, 20);
    let report = attack.rank_report(&result.key);
    assert!(report.ranks[0] > 1, "misaligned CPA should not recover the key byte at rank 1");
}

fn striding(co_len: usize, i: usize) -> usize {
    (co_len / 3).max(1) + 7 * i
}

#[test]
fn masked_aes_traces_are_more_variable_than_plain_aes() {
    // Section IV-B notes that masked AES traces show much greater variability.
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(0), 9);
    let key = Scenario::DEFAULT_KEY;
    let plain = cipher_by_id(CipherId::Aes128);
    let masked = cipher_by_id(CipherId::MaskedAes128);
    let pt = [0x42u8; 16];
    let variability = |cipher: &dyn RecordingCipher, sim: &mut SocSimulator| {
        let (a, _) = sim.capture_cipher_trace(cipher, &key, &pt);
        let (b, _) = sim.capture_cipher_trace(cipher, &key, &pt);
        let n = a.len().min(b.len());
        let diff: f64 = a.samples()[..n]
            .iter()
            .zip(&b.samples()[..n])
            .map(|(x, y)| (x - y).abs() as f64)
            .sum::<f64>()
            / n as f64;
        diff
    };
    let plain_var = variability(plain.as_ref(), &mut sim);
    let masked_var = variability(masked.as_ref(), &mut sim);
    assert!(
        masked_var > plain_var,
        "masked AES should vary more between executions: {masked_var} vs {plain_var}"
    );
}

#[test]
fn baseline_locators_fail_under_random_delay_on_simulated_traces() {
    use sca_locate::baselines::{BaselineLocator, MatchedFilterLocator};
    // Build a clean template on an unprotected clone.
    let cipher = CipherId::Camellia128;
    let mut clean = SocSimulator::new(SocSimulatorConfig::rd(0), 3);
    let cipher_impl = cipher_by_id(cipher);
    let key = Scenario::DEFAULT_KEY;
    let mut refs = Vec::new();
    let mut min_len = usize::MAX;
    for _ in 0..4 {
        let pt = clean.trng_mut().next_block();
        let (t, _) = clean.capture_cipher_trace(cipher_impl.as_ref(), &key, &pt);
        let co = t.samples()[t.meta().co_starts[0]..t.meta().co_ends[0]].to_vec();
        min_len = min_len.min(co.len());
        refs.push(co);
    }
    refs.iter_mut().for_each(|r| r.truncate(min_len));
    let template = MatchedFilterLocator::template_from_references(&refs);
    let locator = MatchedFilterLocator::new(template.clone(), 0.85, template.len() / 2);

    // Protected target trace (RD-4).
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(4), 4);
    let result = sim.run_scenario(&Scenario::consecutive(cipher, 6));
    let located = locator.locate(&result.trace);
    let hits = hit_rate(&located, &result.co_starts(), (result.mean_co_len() / 4.0) as usize);
    assert!(
        hits.percentage() < 50.0,
        "matched filter unexpectedly survived RD-4: {:.1}%",
        hits.percentage()
    );
}
