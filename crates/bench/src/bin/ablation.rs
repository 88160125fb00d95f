//! Ablation study of the dCAM design choices:
//!
//! 1. **Definition 3 decomposition** — dCAM multiplies the per-dimension
//!    positional variance `σ²_p(M̄)` by the global temporal mean `μ(M̄)`.
//!    We score each factor alone against the full product.
//! 2. **`only_correct` merging** — average `M̄` over correctly classified
//!    permutations (the reference implementation) vs. all permutations.
//! 3. **Baseline explainers** — occlusion saliency and cCAM on the same
//!    trained instances, for context.
//!
//! Run: `cargo run --release -p dcam-bench --bin ablation -- [--quick|--full]`

use dcam::dcam::{compute_dcam, DcamConfig};
use dcam::model::ArchKind;
use dcam::occlusion::{occlusion_map, OcclusionConfig};
use dcam::train::{build_and_train, Protocol};
use dcam::ModelScale;
use dcam_bench::harness::{parse_scale, write_json, RunScale};
use dcam_eval::{dr_acc, dr_acc_random};
use dcam_series::synth::inject::{generate, DatasetType, InjectConfig};
use dcam_series::synth::seeds::SeedKind;
use dcam_tensor::Tensor;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    dataset_type: String,
    variant: String,
    dr_acc: f32,
}

/// Rebuilds the Definition-3 map from `mbar` with selectable factors.
fn recombine(mbar: &Tensor, mu: &[f32], use_var: bool, use_mu: bool) -> Tensor {
    let dims = mbar.dims();
    let (d, n) = (dims[0], dims[2]);
    let mut out = Tensor::zeros(&[d, n]);
    for dim in 0..d {
        for t in 0..n {
            let mut mean = 0.0f32;
            for p in 0..d {
                mean += mbar.at(&[dim, p, t]).unwrap();
            }
            mean /= d as f32;
            let mut var = 0.0f32;
            for p in 0..d {
                let v = mbar.at(&[dim, p, t]).unwrap() - mean;
                var += v * v;
            }
            var /= d as f32;
            let value = match (use_var, use_mu) {
                (true, true) => var * mu[t],
                (true, false) => var,
                (false, true) => mu[t],
                (false, false) => mean, // raw averaged activation
            };
            out.data_mut()[dim * n + t] = value;
        }
    }
    out
}

fn main() {
    let scale = parse_scale();
    let (d, n_instances, k, epochs, model_scale) = match scale {
        RunScale::Quick => (6usize, 8usize, 24usize, 25usize, ModelScale::Small),
        RunScale::Full => (20, 20, 100, 50, ModelScale::Small),
    };

    println!("=== dCAM ablation (D = {d}, {}) ===", scale.name());
    let mut rows: Vec<AblationRow> = Vec::new();

    for dataset_type in [DatasetType::Type1, DatasetType::Type2] {
        let mut cfg = InjectConfig::new(SeedKind::StarLight, dataset_type, d);
        cfg.n_per_class = 40;
        cfg.series_len = 64;
        cfg.pattern_len = 16;
        cfg.amplitude = 2.0;
        cfg.seed = 71;
        let train_ds = generate(&cfg);
        let mut test_cfg = cfg.clone();
        test_cfg.seed = 1071;
        test_cfg.n_per_class = n_instances;
        let test_ds = generate(&test_cfg);

        let protocol = Protocol {
            epochs,
            patience: epochs / 2,
            seed: 7,
            ..Default::default()
        };
        let (mut clf, outcome) = build_and_train(ArchKind::DCnn, &train_ds, model_scale, &protocol);
        println!(
            "\n{}: dCNN val acc {:.2}",
            dataset_type.name(),
            outcome.val_acc
        );
        let gap = clf.as_gap_mut().unwrap();

        let mut scores: Vec<(String, Vec<f32>)> = vec![
            ("dCAM (var × μ, only_correct)".into(), vec![]),
            ("dCAM (var × μ, all perms)".into(), vec![]),
            ("variance only".into(), vec![]),
            ("μ only (temporal)".into(), vec![]),
            ("mean activation (no Def.3)".into(), vec![]),
            ("occlusion saliency".into(), vec![]),
            ("random".into(), vec![]),
        ];

        for &i in test_ds.class_indices(1).iter().take(n_instances) {
            let series = &test_ds.samples[i];
            let mask = test_ds.masks[i].as_ref().unwrap();
            let base = DcamConfig {
                k,
                seed: 13,
                ..Default::default()
            };

            let r_correct = compute_dcam(
                gap,
                series,
                1,
                &DcamConfig {
                    only_correct: true,
                    ..base.clone()
                },
            );
            let r_all = compute_dcam(
                gap,
                series,
                1,
                &DcamConfig {
                    only_correct: false,
                    ..base
                },
            );

            scores[0].1.push(dr_acc(&r_correct.dcam, mask.tensor()));
            scores[1].1.push(dr_acc(&r_all.dcam, mask.tensor()));
            scores[2].1.push(dr_acc(
                &recombine(&r_correct.mbar, &r_correct.mu, true, false),
                mask.tensor(),
            ));
            scores[3].1.push(dr_acc(
                &recombine(&r_correct.mbar, &r_correct.mu, false, true),
                mask.tensor(),
            ));
            scores[4].1.push(dr_acc(
                &recombine(&r_correct.mbar, &r_correct.mu, false, false),
                mask.tensor(),
            ));
            let occ = occlusion_map(gap, series, 1, &OcclusionConfig::default())
                .expect("default occlusion window fits the benchmark series");
            scores[5].1.push(dr_acc(&occ, mask.tensor()));
            scores[6].1.push(dr_acc_random(mask.tensor()));
        }

        for (variant, vals) in &scores {
            let mean = vals.iter().sum::<f32>() / vals.len().max(1) as f32;
            println!("  {variant:<32} Dr-acc {mean:.3}");
            rows.push(AblationRow {
                dataset_type: dataset_type.name().to_string(),
                variant: variant.clone(),
                dr_acc: mean,
            });
        }
    }

    write_json("ablation", scale, &rows);
}
