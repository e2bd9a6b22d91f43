//! Regenerates **Figure 3** of the paper: the test confusion matrices of the
//! per-cipher CNN classifiers under the RD-4 random-delay configuration.
//!
//! For every cipher a dedicated dataset is acquired on the simulated clone
//! device, a CNN is trained, and the confusion matrix over the held-out test
//! split is printed (rows = true class, columns = predicted class, as in the
//! paper).
//!
//! Run with: `cargo run -p sca-bench --bin fig3_confusion --release`

use sca_bench::{train_locator, ExperimentConfig};
use sca_ciphers::CipherId;

fn main() {
    let cfg = ExperimentConfig { rd_max: 4, ..ExperimentConfig::default() };
    println!("== Figure 3: test confusion matrices (RD-4) ==");
    println!("(class 0 = not beginning of CO, class 1 = beginning of CO)\n");
    for cipher in CipherId::ALL {
        let start = std::time::Instant::now();
        let setup = train_locator(cipher, &cfg);
        println!("--- {} ---", cipher.label());
        println!(
            "mean CO length: {:.0} samples | N_train = {} | best val. accuracy = {:.2}%",
            setup.mean_co_len,
            setup.profile.n_train,
            100.0 * setup.report.best_validation_accuracy()
        );
        println!("{}", setup.confusion);
        let epochs = setup.report.train_losses.len();
        let fit_windows = epochs * setup.report.train_windows;
        println!(
            "fit: {:.2}s for {} epochs x {} training windows = {:.1} us per training window",
            setup.fit_s,
            epochs,
            setup.report.train_windows,
            1e6 * setup.fit_s / fit_windows.max(1) as f64
        );
        println!(
            "test accuracy: {:.2}%  ({} test windows, acquired and trained in {:.1}s)\n",
            100.0 * setup.confusion.accuracy(),
            setup.confusion.total(),
            start.elapsed().as_secs_f64()
        );
    }
    println!("Paper reference (RD-4 diagonal percentages): AES 99.56/97.3, AES mask 99.87/99.93,");
    println!("Camellia 99.92/100, Clefia 88.08/99.97, Simon 94.3/92.1.");
}
