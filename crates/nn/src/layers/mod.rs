//! Neural-network layers with explicit analytic backprop.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever the
//! matching `backward` needs (when `train` is true), `backward` consumes the
//! cache, accumulates parameter gradients in place and returns the gradient
//! with respect to the layer input. Layers compose through
//! [`container::Sequential`] and [`container::Residual`]; branching
//! architectures (InceptionTime, MTEX-CNN) wire layers by hand in `dcam`.

mod activation;
mod batchnorm;
mod container;
mod conv;
mod conv_fft;
mod dense;
mod dropout;
mod im2col;
mod pooling;

pub use activation::{Activation, Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm;
pub use container::{Residual, Sequential};
pub use conv::{Conv2dRows, ConvStrategy};
pub use dense::Dense;
pub use dropout::Dropout;
pub use pooling::{GlobalAvgPool, MaxPoolW};

use crate::arena::BatchArena;
use crate::Param;
use dcam_tensor::Tensor;

/// A differentiable network component.
///
/// The contract: a `backward` call must be preceded by a `forward` call with
/// `train == true` on the same instance; gradients of parameters accumulate
/// (callers zero them between optimizer steps via [`Layer::zero_grads`]).
pub trait Layer: Send {
    /// Computes the layer output. With `train == true` the layer caches the
    /// activations its backward pass requires.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output) backward, accumulating parameter gradients and returning the
    /// gradient w.r.t. the layer input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Evaluation-mode forward that *consumes* its input and recycles
    /// buffers through `arena` — the allocation-free inference path used by
    /// the batched explanation engine.
    ///
    /// Semantically identical to `forward(&x, false)` (layers override it
    /// only to reuse storage: in-place activations and batch-norm, the
    /// fused im2col+GEMM convolution); callers that still need the input
    /// afterwards must clone it first. The default implementation falls
    /// back to `forward` and returns the input's storage to the arena.
    fn forward_eval(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let y = self.forward(&x, false);
        arena.recycle(x);
        y
    }

    /// [`Layer::forward_eval`] of a batch of permuted dCAM cubes `C(S_T)`,
    /// each described by the `(series, permutation)` it is built from
    /// rather than materialised: `series` is one `D × n` row-major series
    /// and `perm[j]` the dimension in slot `j` (see [`assemble_cubes`]).
    /// Every sample must share one `(D, n)`.
    ///
    /// The default assembles the cubes into an arena buffer and runs
    /// `forward_eval` on them. [`Sequential`] hands the call to its first
    /// layer only; [`Conv2dRows`] overrides it to skip the cube for long
    /// kernels.
    fn forward_eval_cubes(
        &mut self,
        samples: &[(&[f32], &[usize])],
        arena: &mut BatchArena,
    ) -> Tensor {
        let x = assemble_cubes(samples, arena);
        self.forward_eval(x, arena)
    }

    /// Visits every trainable parameter in a construction-stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every non-trainable state buffer (e.g. batch-norm running
    /// statistics) in a construction-stable order. Buffers are part of a
    /// model's checkpoint but receive no gradients.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Visits every convolution layer in a construction-stable order.
    /// Containers forward the visitor; non-convolution leaves ignore it.
    /// Model-level tooling uses this to pin or inspect convolution
    /// execution strategies (e.g. the long-series `fft` path) without
    /// knowing the network's structure.
    fn visit_convs(&mut self, _f: &mut dyn FnMut(&mut Conv2dRows)) {}

    /// Visits the quantization state of every quantization-capable layer
    /// (convolution and dense) in a construction-stable order. Containers
    /// forward the visitor; other leaves ignore it. Model-level tooling
    /// uses this to select [`Precision`](crate::quant::Precision), drive
    /// calibration passes, and read or restore activation scales — see
    /// [`crate::quant`].
    fn visit_quant(&mut self, _f: &mut dyn FnMut(&mut crate::quant::QuantState)) {}

    /// Zeroes all accumulated parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Assembles the permuted cubes of `samples` (see
/// [`Layer::forward_eval_cubes`]) into one `(B, D, D, n)` batch drawn from
/// `arena`, by `D²` straight row copies per sample:
/// `C(S_T)[p, r, t] = T^(perm[(p+r) mod D])[t]`.
pub fn assemble_cubes(samples: &[(&[f32], &[usize])], arena: &mut BatchArena) -> Tensor {
    let (d, n) = cube_dims(samples);
    let plane = d * d * n;
    let mut buf = arena.take(samples.len() * plane);
    for ((series, perm), dst) in samples.iter().zip(buf.chunks_exact_mut(plane)) {
        for p in 0..d {
            for r in 0..d {
                let src_dim = perm[(p + r) % d];
                dst[(p * d + r) * n..(p * d + r + 1) * n]
                    .copy_from_slice(&series[src_dim * n..(src_dim + 1) * n]);
            }
        }
    }
    Tensor::from_vec(buf, &[samples.len(), d, d, n]).expect("cube batch shape")
}

/// The shared `(D, n)` of a non-empty batch of cube samples.
pub(crate) fn cube_dims(samples: &[(&[f32], &[usize])]) -> (usize, usize) {
    let (series, perm) = samples.first().expect("cube batch must not be empty");
    let d = perm.len();
    assert!(d > 0 && series.len() % d == 0, "series is not D × n");
    let n = series.len() / d;
    for (s, p) in samples {
        assert_eq!(
            (s.len(), p.len()),
            (d * n, d),
            "cube samples must share (D, n)"
        );
    }
    (d, n)
}
