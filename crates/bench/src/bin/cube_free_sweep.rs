//! Crossover sweep for the cube-free dCAM first layer.
//!
//! A d-architecture's first convolution reads `D`-channel permuted cubes.
//! It can run on assembled cubes (cube assembly + the strategy `Auto`
//! resolves to) or cube-free (`Conv2dRows::forward_eval_gathered`: one GEMM
//! per series for the per-dimension responses, then a gather-add per
//! sample). This bin times both on one batch of permutations of one series
//! over kernel length ℓ, `D` and `n`, and prints where the gather wins. The
//! gate in `conv.rs` (`GATHER_MIN_LEN`) sits at the smallest ℓ that wins
//! everywhere.
//!
//! Run: `DCAM_THREADS=1 cargo run --release -p dcam-bench --bin cube_free_sweep`

use dcam_nn::layers::{assemble_cubes, Conv2dRows, ConvStrategy, Layer};
use dcam_nn::BatchArena;
use dcam_tensor::{SeededRng, Tensor};
use std::time::{Duration, Instant};

/// Permutations per forward (`DcamConfig::batch`).
const BATCH: usize = 8;
/// First-layer filters of the Tiny dCNN and of `e2e`'s `engine_long` model.
const C_OUT: usize = 6;

/// Median wall time of `f` over at least three calls and ~0.3 s.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    println!("| D | n | ℓ | auto strategy | cube path ms | gather ms | gather / cube |");
    println!("|---|---|---|---|---|---|---|");
    for d in [6usize, 20] {
        for n in [128usize, 8192] {
            let mut rng = SeededRng::new(7);
            let series: Vec<f32> = (0..d * n).map(|_| rng.normal()).collect();
            let perms: Vec<Vec<usize>> = (0..BATCH).map(|_| rng.permutation(d)).collect();
            let samples: Vec<(&[f32], &[usize])> =
                perms.iter().map(|p| (&series[..], &p[..])).collect();
            for len in [3usize, 5, 7, 9, 13, 17, 39] {
                let mut conv = Conv2dRows::same(d, C_OUT, len, &mut SeededRng::new(1));
                let strategy = conv.resolved_strategy(d, n);
                // Pin Auto's pick so `forward_eval` keeps the cube path.
                conv.set_strategy(strategy);
                let mut arena = BatchArena::new();
                let mut run = |gather: bool, arena: &mut BatchArena| {
                    let y: Tensor = if gather {
                        conv.forward_eval_gathered(&samples, arena)
                    } else {
                        let x = assemble_cubes(&samples, arena);
                        conv.forward_eval(x, arena)
                    };
                    arena.recycle(y);
                };
                let cube = time_ms(|| run(false, &mut arena));
                let gather = time_ms(|| run(true, &mut arena));
                let name = match strategy {
                    ConvStrategy::Fft => "fft",
                    ConvStrategy::Im2col => "im2col",
                    _ => "direct",
                };
                println!(
                    "| {d} | {n} | {len} | {name} | {cube:.3} | {gather:.3} | {:.2} |",
                    gather / cube
                );
            }
        }
    }
}
