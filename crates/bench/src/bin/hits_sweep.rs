//! Regenerates the Section IV-B segmentation sweep: hit-rate of the CNN
//! locator for **every cipher**, both random-delay configurations (RD-2 and
//! RD-4), consecutive and noise-interleaved scenarios. The paper reports
//! 100 % hits in all of these cells. Beside every hit rate the sweep
//! prints the false starts (located starts that hit no CO) and the
//! precision (hits over located starts).
//!
//! Also doubles as an ablation harness (pass `--ablation`): on AES RD-4
//! consecutive COs it re-segments one trained locator's scores with median
//! filters of 1 to 15 windows. The median filter is the segmentation stage's
//! only smoothing (Section III-D): too short, and noise spikes in the score
//! signal split one CO into several starts; too long, and the plateaus of
//! neighbouring COs merge. The hit rate across sizes shows how much slack
//! the profile's default leaves. The score signal itself is always the
//! linear class-1 output, as Section III-C prescribes — the softmax
//! probability saturates near 0 and 1 and flattens the margins the
//! threshold has to separate — so the sweep does not vary it.
//!
//! Run with: `cargo run -p sca-bench --bin hits_sweep --release`

use sca_bench::{score_hits, simulate_scenario, train_locator, ExperimentConfig};
use sca_ciphers::CipherId;
use sca_locator::{SegmentationConfig, Segmenter};

fn main() {
    let ablation = std::env::args().any(|a| a == "--ablation");
    // A smaller CO count keeps the 5-cipher x 2-RD x 2-scenario sweep tractable.
    let base = ExperimentConfig { scenario_cos: 16, ..ExperimentConfig::default() };

    println!("== Section IV-B: segmentation hit-rate sweep ==");
    println!(
        "{:<10} {:>6} {:>14} {:>10} {:>10} {:>8} {:>7} {:>9}",
        "Cipher", "RD", "Noise apps", "Hits", "Total", "Hits (%)", "False", "Prec. (%)"
    );
    println!("{}", "-".repeat(82));

    let ciphers: &[CipherId] = if ablation { &[CipherId::Aes128] } else { &CipherId::ALL };

    // The ablation reuses the sweep's AES RD-4 locator and consecutive scenario.
    let mut rd4_consecutive = None;
    for &cipher in ciphers {
        for rd in [2usize, 4] {
            let cfg = ExperimentConfig { rd_max: rd, ..base };
            let setup = train_locator(cipher, &cfg);
            let mut consecutive = None;
            for noise in [false, true] {
                let result = simulate_scenario(cipher, noise, &cfg);
                let located = setup.locator.locate(&result.trace);
                let hits = score_hits(&located, &result);
                println!(
                    "{:<10} {:>6} {:>14} {:>10} {:>10} {:>8.2} {:>7} {:>9.2}",
                    cipher.label(),
                    format!("RD-{rd}"),
                    if noise { "yes" } else { "no" },
                    hits.hits,
                    hits.total,
                    hits.percentage(),
                    hits.false_positives,
                    hits.precision()
                );
                if !noise {
                    consecutive = Some(result);
                }
            }
            if ablation && rd == 4 {
                rd4_consecutive = consecutive.map(|result| (setup, result));
            }
        }
    }

    if let Some((setup, result)) = rd4_consecutive {
        println!();
        println!("== Ablation: median-filter size k (AES, RD-4, consecutive) ==");
        let (swc, _) = setup.locator.locate_detailed(&result.trace);
        let stride = setup.locator.sliding().stride();
        for k in [1usize, 3, 5, 9, 15] {
            let seg = SegmentationConfig { median_filter_k: k, ..setup.profile.segmentation };
            let located = Segmenter::new(seg).segment(&swc, stride);
            let hits = score_hits(&located, &result);
            println!(
                "k = {k:>2}  ->  hits {:>5.1}%  ({} located, {} false, precision {:>5.1}%)",
                hits.percentage(),
                located.len(),
                hits.false_positives,
                hits.precision()
            );
        }
    }

    println!();
    println!("Paper reference: 100% hits for every cipher, both RD settings, both scenarios.");
}
