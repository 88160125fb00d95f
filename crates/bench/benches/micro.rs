//! Micro-benchmarks of the substrate hot paths: the row-wise convolution
//! (forward/backward, both execution strategies), the `C(T)` cube
//! construction, GEMM (all transpose variants), and the `M` transformation
//! inside dCAM. These are ablation-style benches for the substrate's
//! design choices (batch-parallel conv kernels, contiguous cube layout,
//! im2col + packed GEMM).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcam_nn::layers::{Conv2dRows, ConvStrategy, Layer};
use dcam_series::cube;
use dcam_series::MultivariateSeries;
use dcam_tensor::{SeededRng, Tensor};
use std::time::Duration;

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2drows");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let mut rng = SeededRng::new(0);
    for &(c_in, c_out, h, w) in &[(8usize, 16usize, 1usize, 128usize), (8, 16, 8, 64)] {
        let x = Tensor::uniform(&[4, c_in, h, w], -1.0, 1.0, &mut rng);
        for (name, strategy) in [
            ("direct", ConvStrategy::Direct),
            ("im2col", ConvStrategy::Im2col),
        ] {
            let mut conv = Conv2dRows::same(c_in, c_out, 3, &mut rng);
            conv.set_strategy(strategy);
            group.bench_with_input(
                BenchmarkId::new(format!("forward_{name}"), format!("{c_in}x{c_out}x{h}x{w}")),
                &w,
                |b, _| {
                    b.iter(|| conv.forward(&x, false));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("fwd_bwd_{name}"), format!("{c_in}x{c_out}x{h}x{w}")),
                &w,
                |b, _| {
                    b.iter(|| {
                        let y = conv.forward(&x, true);
                        conv.backward(&y)
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_cube(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_construction");
    let mut rng = SeededRng::new(1);
    for &d in &[10usize, 20, 40] {
        let rows: Vec<Vec<f32>> = (0..d)
            .map(|_| (0..128).map(|_| rng.normal()).collect())
            .collect();
        let s = MultivariateSeries::from_rows(&rows);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| cube::cube(&s));
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = SeededRng::new(2);
    for &n in &[32usize, 64, 128] {
        let a = Tensor::uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b_ = Tensor::uniform(&[n, n], -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| a.matmul(&b_).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bch, _| {
            bch.iter(|| a.matmul_tn(&b_).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bch, _| {
            bch.iter(|| a.matmul_nt(&b_).unwrap());
        });
        // Allocation-free variant writing into a caller buffer.
        let mut out = Tensor::zeros(&[n, n]);
        group.bench_with_input(BenchmarkId::new("into", n), &n, |bch, _| {
            bch.iter(|| a.matmul_into(&b_, &mut out).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conv, bench_cube, bench_matmul);
criterion_main!(benches);
