//! Regenerates **Table II** of the paper: segmentation hit-rate and CPA
//! result for AES-128 under RD-2 and RD-4, with and without interleaved noise
//! applications, comparing the CNN-based locator against the matched-filter
//! baseline \[10\] and the SAD template-matching baseline \[11\].
//!
//! For every scenario the harness reports:
//! * Hits (%) — fraction of COs whose beginning was located;
//! * CPA (N. COs) — number of located-and-aligned COs needed for every
//!   attacked key byte to reach rank 1 (✗ if the key is not recovered with
//!   the available COs).
//!
//! The attacked key bytes default to 4 (instead of all 16) to keep the runtime
//! of the scaled-down experiment reasonable; pass `--bytes 16` for the full key.
//!
//! Run with: `cargo run -p sca-bench --bin table2_attack --release`

use sca_attack::{CpaAttack, CpaConfig};
use sca_baselines::{BaselineLocator, MatchedFilterLocator, SadTemplateLocator};
use sca_bench::{
    baseline_template, score_hits, simulate_scenario, train_locator, ExperimentConfig,
};
use sca_ciphers::CipherId;
use sca_locator::Aligner;
use soc_sim::ScenarioResult;

struct Row {
    method: &'static str,
    rd: usize,
    noise: bool,
    hits_pct: f64,
    cpa_cos: Option<usize>,
}

fn cpa_on_alignment(
    located: &[usize],
    result: &ScenarioResult,
    num_key_bytes: usize,
) -> Option<usize> {
    if located.is_empty() {
        return None;
    }
    let co_len = result.mean_co_len().round() as usize;
    let aligner = Aligner::new(co_len.max(16));
    let (aligned, dropped) = aligner.align(&result.trace, located);
    if aligned.is_empty() {
        return None;
    }
    // Pair every aligned segment with the plaintext of the ground-truth CO it
    // overlaps (an attacker would instead use the known plaintext sequence;
    // with hits at 100 % the ordering is identical).
    let kept: Vec<usize> = (0..located.len()).filter(|i| !dropped.contains(i)).collect();
    let tolerance = (result.mean_co_len() / 2.0) as usize;
    let mut traces = Vec::new();
    let mut plaintexts = Vec::new();
    for (seg, &loc_idx) in aligned.iter().zip(kept.iter()) {
        let start = located[loc_idx];
        if let Some(co) = result.cos.iter().find(|c| c.start_sample.abs_diff(start) <= tolerance) {
            traces.push(seg.clone());
            plaintexts.push(co.plaintext);
        }
    }
    if traces.is_empty() {
        return None;
    }
    // A coarse aggregation window absorbs both the stride-quantised alignment
    // and the random-delay jitter of the first-round SubBytes position.
    let config = CpaConfig { num_key_bytes, aggregation_window: 64, ..CpaConfig::default() };
    let (_, progress) = CpaAttack::run(&traces, &plaintexts, &result.key, config, 8);
    progress.cos_to_rank1
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let num_key_bytes = args
        .iter()
        .position(|a| a == "--bytes")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .clamp(1, 16);

    let mut rows: Vec<Row> = Vec::new();
    for rd in [2usize, 4] {
        let cfg = ExperimentConfig { rd_max: rd, ..ExperimentConfig::default() };
        println!("training CNN locator for AES-128 under RD-{rd} ...");
        let setup = train_locator(CipherId::Aes128, &cfg);
        let template = baseline_template(CipherId::Aes128, cfg.seed, 8);
        let matched = MatchedFilterLocator::new(template.clone(), 0.85, template.len() / 2);
        let sad = SadTemplateLocator::new(template.clone(), 0.05, template.len() / 2);

        for noise in [true, false] {
            let result = simulate_scenario(CipherId::Aes128, noise, &cfg);

            // Baseline [10]: matched filter.
            let mf_hits = score_hits(&matched.locate(&result.trace), &result);
            rows.push(Row {
                method: "[10] matched filter",
                rd,
                noise,
                hits_pct: mf_hits.percentage(),
                cpa_cos: cpa_on_alignment(&matched.locate(&result.trace), &result, num_key_bytes),
            });

            // Baseline [11]: SAD template matching.
            let sad_hits = score_hits(&sad.locate(&result.trace), &result);
            rows.push(Row {
                method: "[11] SAD template",
                rd,
                noise,
                hits_pct: sad_hits.percentage(),
                cpa_cos: cpa_on_alignment(&sad.locate(&result.trace), &result, num_key_bytes),
            });

            // This work: CNN locator.
            let located = setup.locator.locate(&result.trace);
            let our_hits = score_hits(&located, &result);
            rows.push(Row {
                method: "This work (CNN)",
                rd,
                noise,
                hits_pct: our_hits.percentage(),
                cpa_cos: cpa_on_alignment(&located, &result, num_key_bytes),
            });
        }
    }

    println!();
    println!("== Table II: segmentation and CPA results targeting AES-128 ==");
    println!(
        "(scaled scenario: {} COs per trace, {} attacked key bytes)",
        ExperimentConfig::default().scenario_cos,
        num_key_bytes
    );
    println!(
        "{:<22} {:>6} {:>12} {:>10} {:>14}",
        "Method", "RD", "Noise apps", "Hits (%)", "CPA (N. COs)"
    );
    println!("{}", "-".repeat(70));
    for row in &rows {
        println!(
            "{:<22} {:>6} {:>12} {:>10.2} {:>14}",
            row.method,
            format!("RD-{}", row.rd),
            if row.noise { "yes" } else { "no" },
            row.hits_pct,
            row.cpa_cos.map_or_else(|| "x".to_string(), |n| n.to_string())
        );
    }
    println!();
    println!("Paper reference: [10] and [11] score 0% hits (CPA fails) in every scenario;");
    println!("this work scores 100% hits with CPA succeeding after 1 125-3 695 COs.");
}
