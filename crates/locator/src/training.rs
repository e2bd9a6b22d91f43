//! CNN training pipeline (Section IV-B of the paper): Adam on the
//! cross-entropy loss, mini-batches of 64, two epochs, best epoch selected by
//! validation error.

use sca_trace::{Dataset, DatasetSplit};
use serde::{Deserialize, Serialize};
use tinynn::{accuracy, Adam, ConfusionMatrix, CrossEntropyLoss, DataLoader, Workspace};

use crate::cnn::CoLocatorCnn;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of epochs (2 in the paper).
    pub epochs: usize,
    /// Mini-batch size (64 in the paper).
    pub batch_size: usize,
    /// Adam learning rate (0.001 in the paper).
    pub learning_rate: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl TrainingConfig {
    /// The paper's hyper-parameters.
    pub fn paper() -> Self {
        Self { epochs: 2, batch_size: 64, learning_rate: 1e-3, seed: 1 }
    }

    /// CPU-scaled hyper-parameters: a few more epochs compensate for the much
    /// smaller dataset, with the paper's batch size and learning rate.
    pub fn scaled() -> Self {
        Self { epochs: 4, batch_size: 32, learning_rate: 2e-3, seed: 1 }
    }
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

/// Per-epoch and final metrics of a training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss per epoch.
    pub validation_losses: Vec<f32>,
    /// Validation accuracy per epoch.
    pub validation_accuracies: Vec<f64>,
    /// Index of the epoch whose weights were retained (lowest validation loss).
    pub best_epoch: usize,
    /// Training windows each epoch runs through forward and backward: the
    /// size of the train split. A fit's cost per window is its wall time
    /// over `epochs · train_windows`.
    pub train_windows: usize,
}

impl TrainingReport {
    /// Validation accuracy of the retained epoch (0.0 when no epoch ran).
    pub fn best_validation_accuracy(&self) -> f64 {
        self.validation_accuracies.get(self.best_epoch).copied().unwrap_or(0.0)
    }
}

/// Trains and evaluates [`CoLocatorCnn`] classifiers.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    config: TrainingConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainingConfig) -> Self {
        Self { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    fn loader(dataset: &Dataset, batch_size: usize) -> DataLoader {
        let samples: Vec<Vec<f32>> = dataset.iter().map(|w| w.samples().to_vec()).collect();
        let labels: Vec<usize> = dataset.iter().map(|w| w.label().class_index()).collect();
        DataLoader::new_signal(samples, labels, batch_size)
    }

    /// Trains `cnn` on the train split, evaluating on the validation split
    /// after every epoch and restoring the weights of the best epoch
    /// (lowest validation loss), as described in Section IV-B.
    ///
    /// # Panics
    ///
    /// Panics if the training split is empty.
    pub fn train(&self, cnn: &mut CoLocatorCnn, split: &DatasetSplit) -> TrainingReport {
        assert!(!split.train.is_empty(), "training split must not be empty");
        let loss_fn = CrossEntropyLoss::new();
        let mut optim = Adam::new(self.config.learning_rate);
        let train_loader = Self::loader(&split.train, self.config.batch_size);
        let mut report = TrainingReport { train_windows: split.train.len(), ..Default::default() };
        let mut best: Option<(f32, CoLocatorCnn)> = None;
        // One workspace serves every forward/backward pair of the run; its
        // buffers grow once to the high-water mark and are then reused.
        let mut ws = Workspace::new();

        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for batch in train_loader.epoch(self.config.seed.wrapping_add(epoch as u64)) {
                let logits = cnn.forward(&batch.inputs, &mut ws, true);
                let (loss, grad) = loss_fn.loss_and_grad(&logits, &batch.labels);
                ws.recycle(logits);
                cnn.zero_grad();
                cnn.backward(&grad, &mut ws);
                optim.step(&mut cnn.params_mut());
                epoch_loss += loss as f64;
                batches += 1;
            }
            report.train_losses.push((epoch_loss / batches.max(1) as f64) as f32);

            let (val_loss, val_acc) = if split.validation.is_empty() {
                (report.train_losses[epoch], 0.0)
            } else {
                self.evaluate_loss(cnn, &split.validation)
            };
            report.validation_losses.push(val_loss);
            report.validation_accuracies.push(val_acc);

            if best.as_ref().is_none_or(|(l, _)| val_loss < *l) {
                best = Some((val_loss, cnn.clone()));
                report.best_epoch = epoch;
            }
        }
        if let Some((_, best_cnn)) = best {
            *cnn = best_cnn;
        }
        report
    }

    /// Mean loss and accuracy of `cnn` over a dataset (no weight updates).
    pub fn evaluate_loss(&self, cnn: &CoLocatorCnn, dataset: &Dataset) -> (f32, f64) {
        let loss_fn = CrossEntropyLoss::new();
        let loader = Self::loader(dataset, self.config.batch_size);
        let mut ws = Workspace::new();
        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        for batch in loader.sequential() {
            let logits = cnn.forward(&batch.inputs, &mut ws, false);
            total_loss += loss_fn.loss(&logits, &batch.labels) as f64;
            batches += 1;
            preds.extend(logits.argmax_rows());
            labels.extend(batch.labels);
        }
        ((total_loss / batches.max(1) as f64) as f32, accuracy(&preds, &labels))
    }

    /// Builds the test confusion matrix of a trained classifier (Figure 3).
    pub fn confusion_matrix(&self, cnn: &CoLocatorCnn, dataset: &Dataset) -> ConfusionMatrix {
        let loader = Self::loader(dataset, self.config.batch_size);
        let mut cm = ConfusionMatrix::new(2);
        let mut ws = Workspace::new();
        let mut preds = Vec::with_capacity(self.config.batch_size);
        for batch in loader.sequential() {
            cnn.predict_into(&batch.inputs, &mut ws, &mut preds);
            cm.record_all(&batch.labels, &preds);
        }
        cm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::CnnConfig;
    use sca_trace::{SplitRatios, Window, WindowLabel};

    /// Builds a trivially separable dataset: class-1 windows contain a strong
    /// positive step at the origin, class-0 windows are flat noise.
    fn separable_dataset(n_per_class: usize, window: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n_per_class {
            let mut start = vec![0.0f32; window];
            for (j, v) in start.iter_mut().enumerate() {
                *v = if j < window / 2 { 1.0 } else { -1.0 } + 0.01 * (i % 7) as f32;
            }
            d.push(Window::new(start, WindowLabel::CipherStart, i));
            let flat = vec![0.02 * ((i % 5) as f32 - 2.0); window];
            d.push(Window::new(flat, WindowLabel::NotStart, i));
        }
        d
    }

    #[test]
    fn training_learns_separable_problem() {
        let split = separable_dataset(40, 24).split(SplitRatios::paper(), 3);
        let mut cnn = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 5 });
        let trainer =
            Trainer::new(TrainingConfig { epochs: 3, batch_size: 8, learning_rate: 5e-3, seed: 1 });
        let report = trainer.train(&mut cnn, &split);
        assert_eq!(report.train_losses.len(), 3);
        assert_eq!(report.train_windows, split.train.len());
        assert!(report.best_validation_accuracy() > 0.9, "report: {report:?}");
        // The loss must decrease from the first to the best epoch.
        assert!(report.validation_losses[report.best_epoch] <= report.validation_losses[0] + 1e-6);
        // Test confusion matrix close to diagonal.
        let cm = trainer.confusion_matrix(&cnn, &split.test);
        assert!(cm.accuracy() > 0.9, "confusion matrix:\n{cm}");
    }

    #[test]
    fn evaluate_loss_without_training_is_near_chance() {
        let d = separable_dataset(10, 16);
        let cnn = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 2 });
        let trainer = Trainer::default();
        let (loss, _acc) = trainer.evaluate_loss(&cnn, &d);
        // Untrained binary classifier: loss around ln(2) ~ 0.69.
        assert!(loss > 0.2 && loss < 2.0, "loss = {loss}");
    }

    #[test]
    #[should_panic(expected = "training split must not be empty")]
    fn empty_training_split_panics() {
        let mut cnn = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 2 });
        Trainer::default().train(&mut cnn, &DatasetSplit::default());
    }

    #[test]
    fn paper_hyperparameters() {
        let c = TrainingConfig::paper();
        assert_eq!(c.epochs, 2);
        assert_eq!(c.batch_size, 64);
        assert!((c.learning_rate - 1e-3).abs() < 1e-9);
    }
}
