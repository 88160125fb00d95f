//! Training loop with mini-batching, validation, early stopping and
//! best-weights restoration — the procedure of §5.2 of the paper
//! (Adam, cross-entropy, early stopping when the validation loss stalls).

use crate::checkpoint::{self, Checkpoint};
use crate::layers::Layer;
use crate::loss::{predictions, softmax_cross_entropy};
use crate::optim::Optimizer;
use dcam_tensor::{shuffled_indices, Tensor};

/// A labelled set of pre-encoded samples. Every sample tensor must share the
/// same shape; the trainer stacks them along a new leading batch axis.
#[derive(Debug, Clone, Default)]
pub struct LabelledSet {
    /// Per-sample network inputs (e.g. `(C, H, W)` for conv nets).
    pub inputs: Vec<Tensor>,
    /// Class index per sample.
    pub labels: Vec<usize>,
}

impl LabelledSet {
    /// Creates a set, checking that inputs and labels align.
    pub fn new(inputs: Vec<Tensor>, labels: Vec<usize>) -> Self {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length mismatch");
        LabelledSet { inputs, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Stacks per-sample tensors into one batch tensor with a leading batch axis.
pub fn stack(samples: &[&Tensor]) -> Tensor {
    assert!(!samples.is_empty(), "cannot stack an empty batch");
    let sample_dims = samples[0].dims().to_vec();
    let mut dims = vec![samples.len()];
    dims.extend_from_slice(&sample_dims);
    let sample_len = samples[0].len();
    let mut data = Vec::with_capacity(samples.len() * sample_len);
    for s in samples {
        assert_eq!(s.dims(), &sample_dims[..], "ragged batch");
        data.extend_from_slice(s.data());
    }
    Tensor::from_vec(data, &dims).expect("stack shape")
}

/// Hyperparameters of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size (the paper uses up to 16).
    pub batch_size: usize,
    /// Early-stopping patience in epochs on validation loss; `None` disables.
    pub patience: Option<usize>,
    /// Shuffle the training set each epoch.
    pub shuffle: bool,
    /// Seed for shuffling.
    pub seed: u64,
    /// Clip the global gradient L2 norm to this value (stabilizes RNNs).
    pub clip_grad: Option<f32>,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 16,
            patience: Some(20),
            shuffle: true,
            seed: 0,
            clip_grad: None,
            verbose: false,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation loss per epoch (empty without a validation set).
    pub val_loss: Vec<f32>,
    /// Validation accuracy per epoch.
    pub val_acc: Vec<f32>,
    /// Epoch index with the best validation (or training) loss.
    pub best_epoch: usize,
    /// Number of epochs actually run (≤ configured epochs with early stop).
    pub epochs_run: usize,
}

impl History {
    /// The best monitored loss value seen.
    pub fn best_loss(&self) -> f32 {
        let series = if self.val_loss.is_empty() {
            &self.train_loss
        } else {
            &self.val_loss
        };
        series
            .get(self.best_epoch)
            .copied()
            .unwrap_or(f32::INFINITY)
    }

    /// Epochs needed to first reach `fraction` of the way down from the
    /// initial loss to the best loss (used by the Fig. 12(c) convergence
    /// experiment with `fraction = 0.9`).
    pub fn epochs_to_fraction_of_best(&self, fraction: f32) -> Option<usize> {
        let series = if self.val_loss.is_empty() {
            &self.train_loss
        } else {
            &self.val_loss
        };
        let first = *series.first()?;
        let best = series.iter().copied().fold(f32::INFINITY, f32::min);
        let target = first - fraction * (first - best);
        series.iter().position(|&l| l <= target)
    }
}

/// Tag of the in-memory best-epoch snapshot.
const BEST_TAG: &str = "best-epoch";

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
fn clip_gradients(model: &mut dyn Layer, max_norm: f32) {
    let mut norm_sq = 0.0f32;
    model.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |p| p.grad.scale_in_place(scale));
    }
}

/// Mean loss and accuracy of `model` on `set` (evaluation mode).
pub fn evaluate(model: &mut dyn Layer, set: &LabelledSet, batch_size: usize) -> (f32, f32) {
    if set.is_empty() {
        return (0.0, 0.0);
    }
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let n = set.len();
    let mut i = 0;
    while i < n {
        let end = (i + batch_size).min(n);
        let refs: Vec<&Tensor> = set.inputs[i..end].iter().collect();
        let x = stack(&refs);
        let labels = &set.labels[i..end];
        let logits = model.forward(&x, false);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        total_loss += loss as f64 * (end - i) as f64;
        let preds = predictions(&logits);
        correct += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        i = end;
    }
    ((total_loss / n as f64) as f32, correct as f32 / n as f32)
}

/// Predicted class for every sample in `set`.
pub fn predict_all(model: &mut dyn Layer, set: &LabelledSet, batch_size: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(set.len());
    let n = set.len();
    let mut i = 0;
    while i < n {
        let end = (i + batch_size).min(n);
        let refs: Vec<&Tensor> = set.inputs[i..end].iter().collect();
        let x = stack(&refs);
        let logits = model.forward(&x, false);
        out.extend(predictions(&logits));
        i = end;
    }
    out
}

/// Trains `model` on `train`, monitoring `val` for early stopping.
///
/// On return the model holds the weights of the best monitored epoch (not
/// the last one), matching the early-stopping protocol of §5.2.
pub fn fit(
    model: &mut dyn Layer,
    optimizer: &mut dyn Optimizer,
    train: &LabelledSet,
    val: Option<&LabelledSet>,
    cfg: &TrainConfig,
) -> History {
    assert!(!train.is_empty(), "training set is empty");
    assert!(cfg.batch_size > 0);
    let n = train.len();
    let mut history = History::default();
    let mut best_loss = f32::INFINITY;
    // Parameters *and* buffers: batch-norm running statistics belong to
    // the best epoch's model as much as its weights do.
    let mut best_snap: Option<Checkpoint> = None;
    let mut since_best = 0usize;

    for epoch in 0..cfg.epochs {
        let order = if cfg.shuffle {
            shuffled_indices(n, cfg.seed.wrapping_add(epoch as u64))
        } else {
            (0..n).collect()
        };

        let mut epoch_loss = 0.0f64;
        let mut i = 0;
        while i < n {
            let end = (i + cfg.batch_size).min(n);
            let idx = &order[i..end];
            let refs: Vec<&Tensor> = idx.iter().map(|&j| &train.inputs[j]).collect();
            let labels: Vec<usize> = idx.iter().map(|&j| train.labels[j]).collect();
            let x = stack(&refs);
            model.zero_grads();
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            if let Some(max_norm) = cfg.clip_grad {
                clip_gradients(model, max_norm);
            }
            optimizer.step(model);
            epoch_loss += loss as f64 * (end - i) as f64;
            i = end;
        }
        let train_loss = (epoch_loss / n as f64) as f32;
        history.train_loss.push(train_loss);

        let monitored = if let Some(vset) = val {
            let (vl, va) = evaluate(model, vset, cfg.batch_size);
            history.val_loss.push(vl);
            history.val_acc.push(va);
            vl
        } else {
            train_loss
        };
        if cfg.verbose {
            eprintln!("epoch {epoch:4}  train_loss {train_loss:.4}  monitored {monitored:.4}");
        }

        if monitored < best_loss - 1e-6 {
            best_loss = monitored;
            history.best_epoch = epoch;
            since_best = 0;
            if cfg.patience.is_some() {
                best_snap = Some(checkpoint::save(model, BEST_TAG));
            }
        } else {
            since_best += 1;
        }
        history.epochs_run = epoch + 1;
        if let Some(patience) = cfg.patience {
            if since_best >= patience {
                break;
            }
        }
    }

    if let Some(snap) = best_snap {
        checkpoint::restore(model, &snap, BEST_TAG)
            .expect("a snapshot of this model restores into it");
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm, Conv2dRows, Dense, GlobalAvgPool, Relu, Sequential};
    use crate::optim::Adam;
    use dcam_tensor::SeededRng;

    /// Linearly separable 2-class toy problem.
    fn toy_set(n: usize, seed: u64) -> LabelledSet {
        let mut rng = SeededRng::new(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let label = rng.index(2);
            let offset = if label == 0 { -1.0 } else { 1.0 };
            let x = Tensor::from_vec(
                vec![offset + 0.3 * rng.normal(), -offset + 0.3 * rng.normal()],
                &[2],
            )
            .unwrap();
            inputs.push(x);
            labels.push(label);
        }
        LabelledSet::new(inputs, labels)
    }

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        Sequential::new()
            .push(Dense::new(2, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn fit_learns_separable_data() {
        let train = toy_set(64, 0);
        let val = toy_set(32, 1);
        let mut model = toy_model(7);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 16,
            ..Default::default()
        };
        let history = fit(&mut model, &mut opt, &train, Some(&val), &cfg);
        let (_, acc) = evaluate(&mut model, &val, 16);
        assert!(acc > 0.9, "val accuracy {acc}");
        assert!(history.train_loss.last().unwrap() < &0.3);
    }

    #[test]
    fn early_stopping_halts_and_restores_best() {
        let train = toy_set(32, 2);
        let val = toy_set(16, 3);
        let mut model = toy_model(8);
        let mut opt = Adam::new(0.05);
        let cfg = TrainConfig {
            epochs: 500,
            batch_size: 8,
            patience: Some(5),
            ..Default::default()
        };
        let history = fit(&mut model, &mut opt, &train, Some(&val), &cfg);
        assert!(history.epochs_run < 500, "early stopping never triggered");
        // Restored weights must reproduce (approximately) the best val loss.
        let (vl, _) = evaluate(&mut model, &val, 8);
        let best = history.best_loss();
        assert!(
            (vl - best).abs() < 1e-4,
            "restored loss {vl} differs from best {best}"
        );
    }

    /// Two-class `(1, 1, 16)` series: class 1 carries a bump at t = 6..10.
    fn bump_set(n: usize, seed: u64) -> LabelledSet {
        let mut rng = SeededRng::new(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let label = rng.index(2);
            let x: Vec<f32> = (0..16)
                .map(|t| {
                    let bump = if label == 1 && (6..10).contains(&t) {
                        1.5
                    } else {
                        0.0
                    };
                    bump + 0.5 * rng.normal()
                })
                .collect();
            inputs.push(Tensor::from_vec(x, &[1, 1, 16]).unwrap());
            labels.push(label);
        }
        LabelledSet::new(inputs, labels)
    }

    /// Best-epoch restoration must bring back the batch-norm running
    /// statistics with the weights: the epochs after the best one keep
    /// moving them, and evaluation normalizes with them.
    #[test]
    fn early_stopping_restores_batchnorm_buffers() {
        let train = bump_set(48, 5);
        let val = bump_set(24, 6);
        let mut rng = SeededRng::new(11);
        let mut model = Sequential::new()
            .push(Conv2dRows::new(1, 4, 3, 1, 1, &mut rng))
            .push(BatchNorm::new(4))
            .push(Relu::new())
            .push(GlobalAvgPool::new())
            .push(Dense::new(4, 2, &mut rng));
        let mut opt = Adam::new(0.05);
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 8,
            patience: Some(4),
            ..Default::default()
        };
        let history = fit(&mut model, &mut opt, &train, Some(&val), &cfg);
        assert!(
            history.epochs_run > history.best_epoch + 1,
            "early stopping must have trained past the best epoch"
        );
        let (vl, _) = evaluate(&mut model, &val, 8);
        let best = history.val_loss[history.best_epoch];
        assert!(
            (vl - best).abs() < 1e-4,
            "restored loss {vl} differs from best {best}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let train = toy_set(32, 4);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 8,
            patience: None,
            ..Default::default()
        };
        let mut m1 = toy_model(9);
        let mut m2 = toy_model(9);
        let h1 = fit(&mut m1, &mut Adam::new(0.01), &train, None, &cfg);
        let h2 = fit(&mut m2, &mut Adam::new(0.01), &train, None, &cfg);
        assert_eq!(h1.train_loss, h2.train_loss);
    }

    #[test]
    fn stack_builds_batch_axis() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let s = stack(&[&a, &b]);
        assert_eq!(s.dims(), &[2, 2, 3]);
        assert_eq!(&s.data()[..6], a.data());
        assert_eq!(&s.data()[6..], b.data());
    }

    #[test]
    fn epochs_to_fraction_of_best() {
        let h = History {
            train_loss: vec![1.0, 0.8, 0.5, 0.2, 0.1],
            ..Default::default()
        };
        // target = 1.0 - 0.9*(1.0-0.1) = 0.19 -> first epoch <= 0.19 is 4.
        assert_eq!(h.epochs_to_fraction_of_best(0.9), Some(4));
        // fraction 0.5 -> target 0.55 -> epoch 2.
        assert_eq!(h.epochs_to_fraction_of_best(0.5), Some(2));
    }

    #[test]
    fn clip_gradients_bounds_norm() {
        let mut model = toy_model(10);
        model.visit_params(&mut |p| p.grad.fill(10.0));
        clip_gradients(&mut model, 1.0);
        let mut norm_sq = 0.0;
        model.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
        assert!((norm_sq.sqrt() - 1.0).abs() < 1e-4);
    }
}
