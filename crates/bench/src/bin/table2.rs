//! Table 2 + Figure 8: classification accuracy of all 13 methods over the
//! UCR/UEA multivariate archive (synthetic stand-ins; see
//! `dcam_series::synth::uea`).
//!
//! Paper shape being reproduced (§5.3):
//! * recurrent baselines trail CNN-based models;
//! * c-variants lose accuracy relative to their plain counterparts;
//! * d-variants match or beat their plain counterparts (dResNet best rank);
//! * MTEX-CNN lands near cCNN.
//!
//! Run: `cargo run --release -p dcam-bench --bin table2 -- [--quick|--full]`

use dcam::model::ArchKind;
use dcam::train::{build_and_train, test_accuracy, Protocol};
use dcam::ModelScale;
use dcam_bench::harness::{cell, parse_scale, timed, write_json, RunScale};
use dcam_eval::average_ranks;
use dcam_series::synth::uea::{generate, UeaStandInConfig, UEA_DATASETS};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    n_classes: usize,
    series_len: usize,
    n_dims: usize,
    accuracies: Vec<f32>,
    train_secs: f64,
}

/// Quick-mode subset: spread of |C|, |T| and D across the archive.
const QUICK_SUBSET: [&str; 8] = [
    "RacketSports",
    "BasicMotions",
    "Libras",
    "AtrialFibrillation",
    "NATOPS",
    "LSST",
    "FingerMovements",
    "SelfRegulationSCP2",
];

fn main() {
    let scale = parse_scale();
    let (names, model_scale, epochs, max_len, max_dims, budget): (
        Vec<&str>,
        ModelScale,
        usize,
        usize,
        usize,
        usize,
    ) = match scale {
        RunScale::Quick => (QUICK_SUBSET.to_vec(), ModelScale::Tiny, 24, 64, 12, 96),
        RunScale::Full => (
            UEA_DATASETS.iter().map(|m| m.name).collect(),
            ModelScale::Small,
            40,
            128,
            24,
            240,
        ),
    };
    let methods = ArchKind::ALL;

    println!(
        "=== Table 2: C-acc over UEA stand-ins ({}) ===",
        scale.name()
    );
    print!("{:<22}{:>4}{:>6}{:>5} |", "dataset", "|C|", "|T|", "D");
    for m in methods {
        print!(" {:>7}", m.name());
    }
    println!();

    let mut rows: Vec<Row> = Vec::new();
    for name in &names {
        let meta = dcam_series::synth::uea::meta(name).expect("dataset in archive");
        // Sample budget shared across classes so many-class datasets stay
        // tractable; two extra folds generated for train vs held-out test.
        let n_per_class = (budget / meta.n_classes).clamp(6, 24);
        let cfg = UeaStandInConfig {
            n_per_class: n_per_class * 2,
            max_len,
            max_dims,
            seed: 5,
        };
        let all = generate(meta, &cfg);
        let (train_ds, test_ds) = all.split(0.5, 99);

        let mut accs = Vec::with_capacity(methods.len());
        let (_, secs) = timed(|| {
            for kind in methods {
                let protocol = Protocol {
                    epochs,
                    patience: epochs / 3,
                    seed: 13,
                    ..Default::default()
                };
                let (mut clf, _) = build_and_train(kind, &train_ds, model_scale, &protocol);
                let acc = test_accuracy(&mut clf, &test_ds, 8);
                accs.push(acc);
            }
        });

        print!(
            "{:<22}{:>4}{:>6}{:>5} |",
            meta.name,
            meta.n_classes,
            train_ds.series_len(),
            train_ds.n_dims()
        );
        for &a in &accs {
            print!(" {:>7}", cell(a));
        }
        println!("   ({secs:.0}s)");
        rows.push(Row {
            dataset: meta.name.to_string(),
            n_classes: meta.n_classes,
            series_len: train_ds.series_len(),
            n_dims: train_ds.n_dims(),
            accuracies: accs,
            train_secs: secs,
        });
    }

    // Mean and rank rows (the paper's last two rows).
    let score_matrix: Vec<Vec<f32>> = rows.iter().map(|r| r.accuracies.clone()).collect();
    let means: Vec<f32> = (0..methods.len())
        .map(|m| score_matrix.iter().map(|r| r[m]).sum::<f32>() / score_matrix.len() as f32)
        .collect();
    let ranks = average_ranks(&score_matrix);
    print!("{:<37} |", "Mean");
    for &m in &means {
        print!(" {:>7}", cell(m));
    }
    println!();
    print!("{:<37} |", "Rank");
    for &r in &ranks {
        print!(" {:>7}", format!("{r:5.2}"));
    }
    println!();

    // Figure 8 scatter points: d-variant vs plain / c-variant / MTEX.
    println!("\n=== Figure 8 scatter points (x = competitor C-acc, y = d-variant C-acc) ===");
    let idx = |k: ArchKind| methods.iter().position(|&m| m == k).unwrap();
    let pairs = [
        ("dCNN vs CNN", ArchKind::DCnn, ArchKind::Cnn),
        ("dCNN vs cCNN", ArchKind::DCnn, ArchKind::CCnn),
        ("dCNN vs MTEX", ArchKind::DCnn, ArchKind::Mtex),
        ("dResNet vs ResNet", ArchKind::DResNet, ArchKind::ResNet),
        ("dResNet vs cResNet", ArchKind::DResNet, ArchKind::CResNet),
        ("dResNet vs MTEX", ArchKind::DResNet, ArchKind::Mtex),
        (
            "dInceptionT. vs InceptionT.",
            ArchKind::DInceptionTime,
            ArchKind::InceptionTime,
        ),
        (
            "dInceptionT. vs cInceptionT.",
            ArchKind::DInceptionTime,
            ArchKind::CInceptionTime,
        ),
        (
            "dInceptionT. vs MTEX",
            ArchKind::DInceptionTime,
            ArchKind::Mtex,
        ),
    ];
    for (label, d_kind, other) in pairs {
        let (di, oi) = (idx(d_kind), idx(other));
        let wins = rows
            .iter()
            .filter(|r| r.accuracies[di] > r.accuracies[oi])
            .count();
        let points: Vec<(f32, f32)> = rows
            .iter()
            .map(|r| (r.accuracies[oi], r.accuracies[di]))
            .collect();
        println!(
            "{label:<30} d-variant wins {wins}/{}: {points:?}",
            rows.len()
        );
    }

    write_json("table2", scale, &rows);
}
