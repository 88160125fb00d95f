//! The cube-free first layer: a dCNN whose first convolution has a long
//! kernel explains without materialising the permuted cubes, and must give
//! the same explanation as the cube path on the same weights. The
//! reference model pins `Im2col`, which keeps it on the cube path; the
//! model under test is unpinned `Auto`. Under a `DCAM_CONV_STRATEGY` pin
//! both run the cube path, and the comparison still holds.
//!
//! Every other first layer (dResNet, dInceptionTime, short-kernel dCNN)
//! keeps the cube path, bit for bit.

use dcam::arch::{cnn, inception_time, resnet, GapClassifier, InputEncoding, ModelScale};
use dcam::dcam::{compute_dcam, DcamConfig, DcamResult};
use dcam::dcam_many::{compute_dcam_many, DcamManyConfig, DcamRequest};
use dcam_nn::layers::{
    assemble_cubes, BatchNorm, Conv2dRows, ConvStrategy, Dense, Layer, Relu, Sequential,
};
use dcam_nn::BatchArena;
use dcam_series::MultivariateSeries;
use dcam_tensor::{SeededRng, Tensor};

fn series(d: usize, n: usize, seed: u64) -> MultivariateSeries {
    let mut rng = SeededRng::new(seed);
    let rows: Vec<Vec<f32>> = (0..d)
        .map(|_| (0..n).map(|_| rng.normal()).collect())
        .collect();
    MultivariateSeries::from_rows(&rows)
}

/// A two-conv dCNN with a `len`-tap first layer and non-zero biases.
fn long_kernel_model(d: usize, len: usize, seed: u64) -> GapClassifier {
    let mut rng = SeededRng::new(seed);
    let mut features = Sequential::new();
    features.add(Box::new(Conv2dRows::same(d, 4, len, &mut rng)));
    features.add(Box::new(BatchNorm::new(4)));
    features.add(Box::new(Relu::new()));
    features.add(Box::new(Conv2dRows::same(4, 5, 3, &mut rng)));
    features.add(Box::new(Relu::new()));
    let head = Dense::new(5, 2, &mut rng);
    let mut model = GapClassifier::new("dCNN-long", InputEncoding::Dcnn, features, head);
    model.visit_params(&mut |p| {
        if p.value.dims().len() == 1 {
            for v in p.value.data_mut() {
                *v += rng.uniform_in(-0.3, 0.3);
            }
        }
    });
    model
}

/// `a` equals `b` to `tol` relative to `b`'s largest magnitude.
fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape");
    let scale = b
        .data()
        .iter()
        .fold(f32::MIN_POSITIVE, |m, v| m.max(v.abs()));
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            (x - y).abs() <= tol * scale,
            "{what}: index {i}: {x} vs {y} (scale {scale})"
        );
    }
}

fn assert_same_result(got: &DcamResult, want: &DcamResult, what: &str) {
    assert_eq!(got.ng, want.ng, "{what}: ng");
    assert_close(&got.mbar, &want.mbar, 1e-5, &format!("{what}: mbar"));
    assert_close(&got.dcam, &want.dcam, 1e-5, &format!("{what}: dcam"));
}

#[test]
fn compute_dcam_matches_the_cube_path() {
    // An odd and an even kernel: even kernels pad asymmetrically.
    for (d, len) in [(2usize, 9usize), (3, 16), (6, 39), (20, 8)] {
        let s = series(d, 48, 100 + d as u64);
        let mut fast = long_kernel_model(d, len, 7);
        let mut reference = long_kernel_model(d, len, 7);
        reference.set_conv_strategy(ConvStrategy::Im2col);
        for only_correct in [false, true] {
            for class in 0..2 {
                let cfg = DcamConfig {
                    k: 10,
                    batch: 4,
                    only_correct,
                    seed: 3,
                    ..Default::default()
                };
                let got = compute_dcam(&mut fast, &s, class, &cfg);
                let want = compute_dcam(&mut reference, &s, class, &cfg);
                let what = format!("d {d} len {len} only_correct {only_correct} class {class}");
                assert_same_result(&got, &want, &what);
            }
        }
    }
}

#[test]
fn compute_dcam_many_matches_the_cube_path_across_series() {
    let d = 6;
    let instances: Vec<MultivariateSeries> = (0..3).map(|i| series(d, 40, 200 + i)).collect();
    let requests: Vec<DcamRequest<'_>> = instances
        .iter()
        .enumerate()
        .map(|(i, series)| DcamRequest {
            series,
            class: i % 2,
        })
        .collect();
    let dcam = DcamConfig {
        k: 5,
        only_correct: false,
        seed: 4,
        ..Default::default()
    };
    // max_batch 4 against k 5: mega-batches straddle two series.
    let cfg = DcamManyConfig {
        dcam: dcam.clone(),
        max_batch: 4,
    };
    let mut fast = long_kernel_model(d, 13, 9);
    let mut reference = long_kernel_model(d, 13, 9);
    reference.set_conv_strategy(ConvStrategy::Im2col);
    let got = compute_dcam_many(&mut fast, &requests, &cfg);
    for (i, (g, r)) in got.iter().zip(&requests).enumerate() {
        let want = compute_dcam(&mut reference, r.series, r.class, &dcam);
        assert_same_result(g, &want, &format!("request {i}"));
    }
}

#[test]
fn other_first_layers_keep_the_cube_path_bit_for_bit() {
    let d = 4;
    let s = series(d, 24, 300);
    let perms: Vec<Vec<usize>> = {
        let mut rng = SeededRng::new(5);
        (0..3).map(|_| rng.permutation(d)).collect()
    };
    let samples: Vec<(&[f32], &[usize])> =
        perms.iter().map(|p| (s.tensor().data(), &p[..])).collect();
    let mut rng = SeededRng::new(6);
    for mut model in [
        cnn(InputEncoding::Dcnn, d, 2, ModelScale::Tiny, &mut rng),
        resnet(InputEncoding::Dcnn, d, 2, ModelScale::Tiny, &mut rng),
        inception_time(InputEncoding::Dcnn, d, 2, ModelScale::Tiny, &mut rng),
    ] {
        let mut arena = BatchArena::new();
        let (f_cube, l_cube) =
            model.forward_with_features_eval(assemble_cubes(&samples, &mut arena), &mut arena);
        let (f, l) = model.forward_cubes_with_features_eval(&samples, &mut arena);
        assert_eq!(f.data(), f_cube.data(), "{}: features", model.name());
        assert_eq!(l.data(), l_cube.data(), "{}: logits", model.name());
    }
}
