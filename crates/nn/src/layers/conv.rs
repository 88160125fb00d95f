use super::conv_fft::{FftConv, FftGeom};
use super::im2col::{col2im_acc, im2col, im2col_panel, sample_threads, split_ranges, ConvGeom};
use super::{assemble_cubes, cube_dims, Layer};
use crate::arena::BatchArena;
use crate::parallel::{par_accumulate, par_chunk_zip};
use crate::quant::QuantState;
use crate::{init, Param};
use dcam_tensor::{
    dequantize_row, gemm_nn, gemm_nt, gemm_packed, gemm_packed_panel_batch, gemm_packed_strided_b,
    gemm_tn, k_groups, qgemm_i32, quantize_lane_into, weight_scale, PackedA, QuantizedWeights,
    SeededRng, Tensor, ACT_ZERO_POINT, GEMM_NR,
};
use std::sync::OnceLock;

/// How [`Conv2dRows`] executes (forward and backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvStrategy {
    /// Pick per call by problem size (the default): fft once the series is
    /// long enough for O(W log W) to win, im2col when the product is large
    /// enough to amortize patch-matrix construction, direct otherwise. The
    /// `DCAM_CONV_STRATEGY` environment variable (`direct` / `im2col` /
    /// `fft`) pins Auto layers globally — useful for benchmarking the
    /// paths against each other; unknown values panic at first use.
    Auto,
    /// The scalar sliding-window loops.
    Direct,
    /// im2col + packed GEMM: every kernel-tap window is unrolled into a
    /// patch matrix so the convolution runs as one GEMM per sample (see
    /// the `im2col` module's docs).
    Im2col,
    /// Frequency-domain convolution: per-row real-input FFTs, pointwise
    /// multiply against per-layer kernel spectra, inverse transform (see
    /// the `conv_fft` module's docs). O(W log W) instead of O(W·ℓ) — the
    /// long-series strategy.
    Fft,
}

impl ConvStrategy {
    /// Parses a `DCAM_CONV_STRATEGY` value.
    ///
    /// # Panics
    ///
    /// Panics on anything other than `auto`, `direct`, `im2col` or `fft` —
    /// a misspelled strategy in a CI matrix or benchmark script must fail
    /// loudly, not silently fall back to Auto.
    pub fn parse(value: &str) -> ConvStrategy {
        match value {
            "auto" => ConvStrategy::Auto,
            "direct" => ConvStrategy::Direct,
            "im2col" => ConvStrategy::Im2col,
            "fft" => ConvStrategy::Fft,
            other => panic!(
                "unknown DCAM_CONV_STRATEGY value {other:?}: expected one of \
                 auto | direct | im2col | fft"
            ),
        }
    }
}

/// Auto picks im2col once the GEMM inner dimension `C_in·ℓ` reaches this.
const IM2COL_MIN_K: usize = 12;
/// ... and the per-sample output plane `H·W_out` reaches this.
const IM2COL_MIN_COLS: usize = 32;
/// Auto never picks fft below this many kernel taps: the overlap-save
/// driver does ~log₂B ≈ 10 butterfly multiply-adds per sample regardless
/// of ℓ, so im2col's ℓ multiply-adds stay cheaper for short kernels at any
/// series length.
const FFT_MIN_LEN: usize = 13;
/// …and above it, picks fft once `(ℓ − FFT_MIN_LEN) · W_out` reaches this.
/// The measured crossover (AVX2 host, see PERF.md) tracks
/// `ℓ ≈ 13 + 36000/W` closely from W = 1024 through 32768: the excess taps
/// over the butterfly cost must amortize the transform's fixed per-call
/// overhead, which shrinks relative to im2col as the series grows.
const FFT_MIN_WORK: usize = 36_000;
/// Auto runs a dCAM first layer cube-free ([`Conv2dRows::forward_eval_gathered`])
/// from this many kernel taps up. The gather-add costs about as much as
/// ℓ ≈ 4 multiply-adds: at ℓ = 3 the shift-GEMM over the cube wins, from
/// ℓ = 5 the gather does (sweep in PERF.md).
const GATHER_MIN_LEN: usize = 5;
/// Floats of per-dimension responses one time block of the cube-free path
/// holds (512 KiB, inside L2), so every sample reads them from cache.
const GATHER_TILE: usize = 1 << 17;

fn env_strategy() -> Option<ConvStrategy> {
    static OVERRIDE: OnceLock<Option<ConvStrategy>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("DCAM_CONV_STRATEGY")
            .ok()
            .map(|v| ConvStrategy::parse(&v))
    })
}

/// Row-wise 2-D convolution: the single primitive behind CNN, cCNN and dCNN.
///
/// Input shape `(N, C_in, H, W)`; the kernel has extent `len` along the
/// *time* axis `W`, extent `1` along the *row* axis `H`, and reduces over all
/// `C_in` channels — i.e. the paper's kernels `(D, ℓ)` (CNN, `H = 1`),
/// `(1, ℓ, 1)` (cCNN, `C_in = 1`) and `(D, ℓ, 1)` (dCNN) are all instances:
///
/// ```text
/// out[n, co, h, w] = bias[co]
///   + Σ_ci Σ_l  x[n, ci, h, w·stride + l − padding] · weight[co, ci, l]
/// ```
///
/// Rows never mix: each row of the `C(T)` cube is convolved independently,
/// exactly as §4.2 of the paper requires ("convolute over each row of C(T)
/// independently").
///
/// Three execution strategies produce identical results (up to float
/// reassociation ≤ 1e-4, enforced by `tests/conv_strategies.rs`): the
/// direct sliding-window loops, an im2col + packed-GEMM path with a
/// per-layer scratch arena, and a frequency-domain fft path for long
/// series ([`ConvStrategy`]).
pub struct Conv2dRows {
    weight: Param,
    bias: Param,
    c_in: usize,
    c_out: usize,
    len: usize,
    stride: usize,
    pad_left: usize,
    pad_right: usize,
    strategy: ConvStrategy,
    /// Patch-matrix arena for the im2col path: `threads × col_len` f32
    /// (forward) or `threads × 2·col_len` (backward), grown on demand and
    /// reused across batches.
    scratch: Vec<f32>,
    /// Weight matrix prepacked for the fused inference path (`c_out ×
    /// c_in·ℓ`) and the cube-free path (`c_out·c_in × ℓ`); repacked at
    /// every call (a single copy), so it can never go stale across
    /// optimizer steps.
    packed_w: PackedA,
    /// Per-tap `(c_out × c_in)` weight slices prepacked for the shift-GEMM
    /// eval path; repacked per call like `packed_w`.
    packed_taps: Vec<PackedA>,
    /// Transform plan, kernel spectra and scratch for the fft strategy;
    /// kernel spectra are cached across calls keyed on `weight_version`,
    /// so mega-batches between weight mutations reuse them.
    fft: FftConv,
    /// Bumped on every [`Layer::visit_params`] call — the choke point all
    /// external weight mutation (optimizer steps, checkpoint restores,
    /// `copy_params`) flows through — so version-keyed caches like the fft
    /// kernel spectra can never go stale.
    weight_version: u64,
    cache_x: Option<Tensor>,
    /// Precision selection and calibrated activation scale for the int8
    /// inference path (see [`crate::quant`]).
    quant: QuantState,
    /// Per-tap quantized weights for the int8 path, keyed on
    /// `weight_version` like the fft spectra cache.
    qweights: Option<QuantConv>,
    /// Interleaved quantized-activation scratch for the int8 path (one
    /// sample's padded planes), grown on demand. The arena pools only
    /// f32 storage, so the byte/i32 scratch lives with the layer.
    qx: Vec<u8>,
    /// i32 accumulator scratch (`c_out × w`, one output row at a time).
    qacc: Vec<i32>,
}

/// Per-tap quantized weights with the per-output-channel scale shared
/// across taps — the invariant that lets all ℓ taps accumulate into one
/// i32 buffer before a single dequantization.
struct QuantConv {
    taps: Vec<QuantizedWeights>,
    /// Per-output-channel zero-point corrections, summed over taps.
    corr: Vec<i32>,
    /// Per-output-channel weight scales (computed over the full `c_in·ℓ`
    /// row).
    scales: Vec<f32>,
    version: u64,
}

impl Conv2dRows {
    /// Creates a convolution with Kaiming-initialized weights.
    ///
    /// `len` is the kernel's temporal extent ℓ; `padding` zeros are added on
    /// both ends of the time axis; `stride` subsamples the output.
    pub fn new(
        c_in: usize,
        c_out: usize,
        len: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(c_in > 0 && c_out > 0 && len > 0 && stride > 0);
        // padding < len keeps every output tap at least partially over the
        // input, which the edge-clipping index math below relies on.
        assert!(
            padding < len,
            "padding {padding} must be < kernel len {len}"
        );
        Conv2dRows::with_padding(c_in, c_out, len, stride, padding, padding, rng)
    }

    /// Convolution with asymmetric temporal padding.
    pub fn with_padding(
        c_in: usize,
        c_out: usize,
        len: usize,
        stride: usize,
        pad_left: usize,
        pad_right: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(c_in > 0 && c_out > 0 && len > 0 && stride > 0);
        assert!(
            pad_left < len && pad_right < len,
            "padding must be < kernel len {len}"
        );
        let fan_in = c_in * len;
        let weight = Param::new(init::kaiming(&[c_out, c_in, len], fan_in, rng));
        let bias = Param::new(Tensor::zeros(&[c_out]));
        Conv2dRows {
            weight,
            bias,
            c_in,
            c_out,
            len,
            stride,
            pad_left,
            pad_right,
            strategy: ConvStrategy::Auto,
            scratch: Vec::new(),
            packed_w: PackedA::new(),
            packed_taps: Vec::new(),
            fft: FftConv::new(),
            weight_version: 0,
            cache_x: None,
            quant: QuantState::default(),
            qweights: None,
            qx: Vec::new(),
            qacc: Vec::new(),
        }
    }

    /// "Same" convolution: stride 1, output width = input width for any
    /// kernel length (even kernels pad one extra zero on the right).
    pub fn same(c_in: usize, c_out: usize, len: usize, rng: &mut SeededRng) -> Self {
        Conv2dRows::with_padding(c_in, c_out, len, 1, (len - 1) / 2, len / 2, rng)
    }

    /// Output temporal length for an input of temporal length `w`.
    pub fn out_width(&self, w: usize) -> usize {
        let padded = w + self.pad_left + self.pad_right;
        assert!(padded >= self.len, "input too short for kernel");
        (padded - self.len) / self.stride + 1
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.c_out
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.c_in
    }

    /// Kernel temporal extent ℓ.
    pub fn kernel_len(&self) -> usize {
        self.len
    }

    /// Pins the execution strategy (default: [`ConvStrategy::Auto`]).
    pub fn set_strategy(&mut self, strategy: ConvStrategy) {
        self.strategy = strategy;
    }

    /// The configured execution strategy.
    pub fn strategy(&self) -> ConvStrategy {
        self.strategy
    }

    fn check_input(&self, x: &Tensor) -> (usize, usize, usize) {
        let d = x.dims();
        assert_eq!(d.len(), 4, "Conv2dRows expects (N, C, H, W), got {d:?}");
        assert_eq!(
            d[1], self.c_in,
            "channel mismatch: got {}, want {}",
            d[1], self.c_in
        );
        (d[0], d[2], d[3])
    }

    fn geom(&self, h: usize, w: usize, wo: usize) -> ConvGeom {
        ConvGeom {
            c_in: self.c_in,
            l: self.len,
            s: self.stride,
            pad_left: self.pad_left,
            h,
            w,
            wo,
        }
    }

    /// Resolves the strategy for this call's geometry; never returns
    /// [`ConvStrategy::Auto`].
    fn resolve(&self, h: usize, wo: usize) -> ConvStrategy {
        let strategy = match self.strategy {
            ConvStrategy::Auto => env_strategy().unwrap_or(ConvStrategy::Auto),
            pinned => pinned,
        };
        match strategy {
            ConvStrategy::Auto => {
                if self.len > FFT_MIN_LEN && (self.len - FFT_MIN_LEN) * wo >= FFT_MIN_WORK {
                    ConvStrategy::Fft
                } else if self.c_in * self.len >= IM2COL_MIN_K && h * wo >= IM2COL_MIN_COLS {
                    ConvStrategy::Im2col
                } else {
                    ConvStrategy::Direct
                }
            }
            pinned => pinned,
        }
    }

    /// The execution strategy this layer would use for an input of `h`
    /// rows and temporal length `w` — [`ConvStrategy::Auto`] (and the
    /// `DCAM_CONV_STRATEGY` override) resolved against the layer's size
    /// heuristic. Lets callers (benchmarks, the explanation engine's
    /// introspection endpoints) see which path a geometry actually takes.
    pub fn resolved_strategy(&self, h: usize, w: usize) -> ConvStrategy {
        self.resolve(h, self.out_width(w))
    }

    fn fft_geom(&self, h: usize, w: usize, wo: usize) -> FftGeom {
        FftGeom {
            c_in: self.c_in,
            c_out: self.c_out,
            l: self.len,
            s: self.stride,
            pl: self.pad_left,
            h,
            w,
            wo,
        }
    }

    // ---- fft strategy ----------------------------------------------------

    fn forward_fft(&mut self, x: &Tensor, n: usize, h: usize, w: usize, wo: usize) -> Tensor {
        let geom = self.fft_geom(h, w, wo);
        let mut out = Tensor::zeros(&[n, self.c_out, h, wo]);
        self.fft.forward(
            &geom,
            n,
            self.weight_version,
            self.weight.value.data(),
            self.bias.value.data(),
            x.data(),
            out.data_mut(),
        );
        out
    }

    /// The fft strategy on the allocation-free inference path: same driver
    /// as [`Self::forward_fft`], output drawn from — and input returned
    /// to — `arena`. The transform plan and kernel spectra live in the
    /// layer, so steady-state serving allocates nothing.
    fn forward_eval_fft(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let (n, h, w) = self.check_input(&x);
        let wo = self.out_width(w);
        let geom = self.fft_geom(h, w, wo);
        let mut out_buf = arena.take(n * self.c_out * h * wo);
        self.fft.forward(
            &geom,
            n,
            self.weight_version,
            self.weight.value.data(),
            self.bias.value.data(),
            x.data(),
            &mut out_buf,
        );
        let dims = [n, self.c_out, h, wo];
        arena.recycle(x);
        Tensor::from_vec(out_buf, &dims).expect("conv eval shape")
    }

    fn backward_fft(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        n: usize,
        h: usize,
        w: usize,
        wo: usize,
    ) -> Tensor {
        let geom = self.fft_geom(h, w, wo);
        let mut grad_x = Tensor::zeros(&[n, self.c_in, h, w]);
        let version = self.weight_version;
        let Conv2dRows {
            fft, weight, bias, ..
        } = self;
        fft.backward(
            &geom,
            n,
            version,
            weight.value.data(),
            x.data(),
            grad_out.data(),
            grad_x.data_mut(),
            weight.grad.data_mut(),
            bias.grad.data_mut(),
        );
        grad_x
    }

    // ---- direct strategy -------------------------------------------------

    fn forward_direct(&self, x: &Tensor, n: usize, h: usize, w: usize, wo: usize) -> Tensor {
        let (c_in, c_out, l, s, p) = (self.c_in, self.c_out, self.len, self.stride, self.pad_left);
        let mut out = Tensor::zeros(&[n, c_out, h, wo]);
        let xd = x.data();
        let wd = self.weight.value.data();
        let bd = self.bias.value.data();
        let sample_out = c_out * h * wo;

        par_chunk_zip(out.data_mut(), sample_out, &|ni, chunk| {
            let x_sample = &xd[ni * c_in * h * w..(ni + 1) * c_in * h * w];
            for co in 0..c_out {
                let w_k = &wd[co * c_in * l..(co + 1) * c_in * l];
                let b = bd[co];
                for hi in 0..h {
                    let o_row = &mut chunk[(co * h + hi) * wo..(co * h + hi + 1) * wo];
                    for (wi, o) in o_row.iter_mut().enumerate() {
                        // valid kernel tap range: 0 <= wi*s + li - p < w
                        let start = wi * s;
                        let l_lo = p.saturating_sub(start);
                        let l_hi = l.min(w + p - start);
                        let mut acc = b;
                        for ci in 0..c_in {
                            let x_row = &x_sample[(ci * h + hi) * w..(ci * h + hi + 1) * w];
                            let w_row = &w_k[ci * l..(ci + 1) * l];
                            let base = start + l_lo - p;
                            let span = l_hi - l_lo;
                            let xs = &x_row[base..base + span];
                            let ws = &w_row[l_lo..l_hi];
                            for (xv, wv) in xs.iter().zip(ws) {
                                acc += xv * wv;
                            }
                        }
                        *o = acc;
                    }
                }
            }
        });
        out
    }

    fn backward_direct(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        n: usize,
        h: usize,
        w: usize,
        wo: usize,
    ) -> Tensor {
        let (c_in, c_out, l, s, p) = (self.c_in, self.c_out, self.len, self.stride, self.pad_left);
        let xd = x.data();
        let gd = grad_out.data();
        let wd = self.weight.value.data();

        // grad wrt input: disjoint per sample -> parallel chunks.
        let mut grad_x = Tensor::zeros(&[n, c_in, h, w]);
        par_chunk_zip(grad_x.data_mut(), c_in * h * w, &|ni, gx| {
            let g_sample = &gd[ni * c_out * h * wo..(ni + 1) * c_out * h * wo];
            for co in 0..c_out {
                let w_k = &wd[co * c_in * l..(co + 1) * c_in * l];
                for hi in 0..h {
                    let g_row = &g_sample[(co * h + hi) * wo..(co * h + hi + 1) * wo];
                    for (wi, &g) in g_row.iter().enumerate() {
                        if g == 0.0 {
                            continue;
                        }
                        let start = wi * s;
                        let l_lo = p.saturating_sub(start);
                        let l_hi = l.min(w + p - start);
                        for ci in 0..c_in {
                            let gx_row = &mut gx[(ci * h + hi) * w..(ci * h + hi + 1) * w];
                            let w_row = &w_k[ci * l..(ci + 1) * l];
                            let base = start + l_lo - p;
                            let span = l_hi - l_lo;
                            for (gxv, wv) in
                                gx_row[base..base + span].iter_mut().zip(&w_row[l_lo..l_hi])
                            {
                                *gxv += g * wv;
                            }
                        }
                    }
                }
            }
        });

        // grad wrt weight and bias: additive over samples -> per-thread
        // accumulators reduced once. Layout: [weight grads..., bias grads...].
        let w_len = c_out * c_in * l;
        let acc = par_accumulate(n, w_len + c_out, &|ni, acc| {
            let x_sample = &xd[ni * c_in * h * w..(ni + 1) * c_in * h * w];
            let g_sample = &gd[ni * c_out * h * wo..(ni + 1) * c_out * h * wo];
            let (gw, gb) = acc.split_at_mut(w_len);
            for co in 0..c_out {
                let gw_k = &mut gw[co * c_in * l..(co + 1) * c_in * l];
                for hi in 0..h {
                    let g_row = &g_sample[(co * h + hi) * wo..(co * h + hi + 1) * wo];
                    for (wi, &g) in g_row.iter().enumerate() {
                        if g == 0.0 {
                            continue;
                        }
                        gb[co] += g;
                        let start = wi * s;
                        let l_lo = p.saturating_sub(start);
                        let l_hi = l.min(w + p - start);
                        for ci in 0..c_in {
                            let x_row = &x_sample[(ci * h + hi) * w..(ci * h + hi + 1) * w];
                            let gw_row = &mut gw_k[ci * l..(ci + 1) * l];
                            let base = start + l_lo - p;
                            let span = l_hi - l_lo;
                            for (gwv, xv) in
                                gw_row[l_lo..l_hi].iter_mut().zip(&x_row[base..base + span])
                            {
                                *gwv += g * xv;
                            }
                        }
                    }
                }
            }
        });
        for (g, a) in self.weight.grad.data_mut().iter_mut().zip(&acc[..w_len]) {
            *g += a;
        }
        for (g, a) in self.bias.grad.data_mut().iter_mut().zip(&acc[w_len..]) {
            *g += a;
        }

        grad_x
    }

    // ---- im2col + GEMM strategy ------------------------------------------

    fn forward_im2col(&mut self, x: &Tensor, n: usize, h: usize, w: usize, wo: usize) -> Tensor {
        let geom = self.geom(h, w, wo);
        let col_len = geom.col_len();
        let threads = sample_threads(n);
        if self.scratch.len() < threads * col_len {
            self.scratch.resize(threads * col_len, 0.0);
        }
        let (c_out, c_in) = (self.c_out, self.c_in);
        let (col_rows, col_cols) = (geom.col_rows(), geom.col_cols());
        let sample_in = c_in * h * w;
        let sample_out = c_out * h * wo;
        let mut out = Tensor::zeros(&[n, c_out, h, wo]);
        let xd = x.data();
        let wd = self.weight.value.data();
        let bd = self.bias.value.data();

        let run = |range: std::ops::Range<usize>, out_chunk: &mut [f32], cols: &mut [f32]| {
            for (i, si) in range.enumerate() {
                let x_sample = &xd[si * sample_in..(si + 1) * sample_in];
                im2col(&geom, x_sample, cols);
                let y = &mut out_chunk[i * sample_out..(i + 1) * sample_out];
                gemm_nn(c_out, col_rows, col_cols, wd, cols, y, false);
                for (co, &b) in bd.iter().enumerate() {
                    if b != 0.0 {
                        for v in &mut y[co * h * wo..(co + 1) * h * wo] {
                            *v += b;
                        }
                    }
                }
            }
        };

        if threads <= 1 {
            run(0..n, out.data_mut(), &mut self.scratch[..col_len]);
        } else {
            let ranges = split_ranges(n, threads);
            std::thread::scope(|sc| {
                let mut out_rest = out.data_mut();
                let mut scratch_rest = &mut self.scratch[..];
                for range in ranges {
                    let (out_chunk, o_tail) = out_rest.split_at_mut(range.len() * sample_out);
                    out_rest = o_tail;
                    let (cols, s_tail) = scratch_rest.split_at_mut(col_len);
                    scratch_rest = s_tail;
                    let run = &run;
                    sc.spawn(move || run(range, out_chunk, cols));
                }
            });
        }
        out
    }

    /// The fused inference forward: weights prepacked once per call, im2col
    /// panels streamed straight into the GEMM's L1-resident scratch (the
    /// full patch matrix never exists), one batched GEMM call for the whole
    /// mega-batch, and the output buffer drawn from — and the input
    /// returned to — `arena`.
    fn forward_eval_fused(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let (n, h, w) = self.check_input(&x);
        let wo = self.out_width(w);
        let geom = self.geom(h, w, wo);
        let (c_out, c_in) = (self.c_out, self.c_in);
        let (col_rows, col_cols) = (geom.col_rows(), geom.col_cols());
        let sample_in = c_in * h * w;
        let sample_out = c_out * h * wo;
        self.packed_w
            .pack_nn(c_out, col_rows, self.weight.value.data());

        let mut out_buf = arena.take(n * sample_out);
        let xd = x.data();
        gemm_packed_panel_batch(
            &self.packed_w,
            col_cols,
            n,
            &|bi, jp, panel| {
                im2col_panel(&geom, &xd[bi * sample_in..(bi + 1) * sample_in], jp, panel)
            },
            &mut out_buf,
            sample_out,
            false,
        );
        let bd = self.bias.value.data();
        if bd.iter().any(|&b| b != 0.0) {
            for y in out_buf.chunks_mut(sample_out) {
                for (co, &b) in bd.iter().enumerate() {
                    if b != 0.0 {
                        for v in &mut y[co * h * wo..(co + 1) * h * wo] {
                            *v += b;
                        }
                    }
                }
            }
        }
        arena.recycle(x);
        Tensor::from_vec(out_buf, &[n, c_out, h, wo]).expect("conv eval shape")
    }

    /// Shift-GEMM inference forward for stride-1, width-preserving
    /// convolutions (every conv in the study's architectures): the patch
    /// matrix of kernel tap `ℓᵢ` is just the input planes shifted by
    /// `ℓᵢ − pad` along flattened time, so each tap is one strided-`B` GEMM
    /// reading the input **in place** — no cube→patch materialization at
    /// all. The flat shift pulls a neighbor row's edge values into the
    /// `ℓ − 1` columns at each `H`-row boundary (where the true patch holds
    /// padding zeros); a scalar pass subtracts exactly those terms.
    fn forward_eval_taps(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let (n, h, w) = self.check_input(&x);
        debug_assert_eq!(self.out_width(w), w);
        let (c_out, c_in, l, pl) = (self.c_out, self.c_in, self.len, self.pad_left);
        let hw = h * w;
        let sample_in = c_in * hw;
        let sample_out = c_out * hw;
        let wd = self.weight.value.data();
        if self.packed_taps.len() != l {
            self.packed_taps = (0..l).map(|_| PackedA::new()).collect();
        }
        for (li, pw) in self.packed_taps.iter_mut().enumerate() {
            pw.pack_strided(c_out, c_in, &wd[li..], c_in * l, l);
        }
        let mut out_buf = arena.take(n * sample_out);
        let xd = x.data();
        let bd = self.bias.value.data();
        let taps = &self.packed_taps;

        let run = |range: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            for (i, si) in range.enumerate() {
                let xs = &xd[si * sample_in..(si + 1) * sample_in];
                let y = &mut out_chunk[i * sample_out..(i + 1) * sample_out];
                for (li, pw) in taps.iter().enumerate() {
                    let s = li as isize - pl as isize;
                    let j_lo = s.min(0).unsigned_abs();
                    let j_hi = hw - s.max(0) as usize;
                    if li == 0 {
                        // First (overwriting) tap: zero the edge columns it
                        // does not cover so later taps can accumulate.
                        for co in 0..c_out {
                            y[co * hw..co * hw + j_lo].fill(0.0);
                            y[co * hw + j_hi..(co + 1) * hw].fill(0.0);
                        }
                    }
                    let b0 = (j_lo as isize + s) as usize;
                    gemm_packed_strided_b(pw, &xs[b0..], hw, j_hi - j_lo, y, hw, j_lo, li != 0);
                }
                // Row-boundary corrections: remove the neighbor-row terms
                // the flat shift read where the patch holds padding zeros.
                for li in 0..l {
                    let s = li as isize - pl as isize;
                    if s == 0 || h <= 1 {
                        continue;
                    }
                    let sa = s.unsigned_abs();
                    for hb in 1..h {
                        // Boundary between rows hb−1 and hb.
                        for t in 0..sa {
                            let (j, xcol) = if s > 0 {
                                ((hb - 1) * w + w - sa + t, hb * w + t)
                            } else {
                                (hb * w + t, hb * w + t - sa)
                            };
                            for co in 0..c_out {
                                let w_k = &wd[co * c_in * l..(co + 1) * c_in * l];
                                let mut acc = 0.0f32;
                                for ci in 0..c_in {
                                    acc += w_k[ci * l + li] * xs[ci * hw + xcol];
                                }
                                y[co * hw + j] -= acc;
                            }
                        }
                    }
                }
                for (co, &b) in bd.iter().enumerate() {
                    if b != 0.0 {
                        for v in &mut y[co * hw..(co + 1) * hw] {
                            *v += b;
                        }
                    }
                }
            }
        };

        let threads = sample_threads(n);
        if threads <= 1 {
            run(0..n, &mut out_buf);
        } else {
            let ranges = split_ranges(n, threads);
            std::thread::scope(|sc| {
                let mut out_rest = &mut out_buf[..];
                for range in ranges {
                    let (out_chunk, tail) = out_rest.split_at_mut(range.len() * sample_out);
                    out_rest = tail;
                    let run = &run;
                    sc.spawn(move || run(range, out_chunk));
                }
            });
        }
        arena.recycle(x);
        Tensor::from_vec(out_buf, &[n, c_out, h, w]).expect("conv eval shape")
    }

    /// True when [`Layer::forward_eval_cubes`] takes the cube-free path:
    /// the layer is unpinned `Auto` (no [`Conv2dRows::set_strategy`], no
    /// `DCAM_CONV_STRATEGY` pin), stride 1, f32, reads `D`-channel cubes,
    /// and its kernel is long enough for the gather to win.
    fn gathers_cubes(&self, d: usize) -> bool {
        self.strategy == ConvStrategy::Auto
            && env_strategy().is_none_or(|s| s == ConvStrategy::Auto)
            && self.stride == 1
            && !self.quant.engaged()
            && !self.quant.calibrating
            && self.c_in == d
            && self.len >= GATHER_MIN_LEN
    }

    /// The cube-free dCAM first layer behind [`Layer::forward_eval_cubes`],
    /// run regardless of its gate (benchmarks and tests call it directly).
    ///
    /// Channel `p` of row `r` of a permuted cube is series row
    /// `perm[(p+r) mod D]`, so output row `r` is
    /// `bias + Σ_p U[co, p, perm[(p+r) mod D]]` with
    /// `U[co, p, dim] = conv(W[co, p, ·], T^dim)`. `U` depends on the series
    /// only, not on the permutation, so each run of consecutive samples
    /// sharing one series (by slice identity) computes it once per worker
    /// thread. It is built one time block at a time: per series row, one
    /// GEMM of `W`, viewed as `(C_out·D) × ℓ`, against the block's
    /// `ℓ × block` patch panels. Every sample of the run then gathers its
    /// output block from it, adding `D` rows of `U` per output row where
    /// the cube path does `D·ℓ` multiply-adds. Only one cache-sized block
    /// of `U` ever exists, and no cube does.
    ///
    /// # Panics
    ///
    /// Panics unless the layer has stride 1 and `D` input channels.
    pub fn forward_eval_gathered(
        &mut self,
        samples: &[(&[f32], &[usize])],
        arena: &mut BatchArena,
    ) -> Tensor {
        const NR: usize = GEMM_NR;
        let (d, n) = cube_dims(samples);
        assert_eq!(self.c_in, d, "cube channels: got {d}, want {}", self.c_in);
        assert_eq!(self.stride, 1, "the gathered path needs stride 1");
        let (c_out, c_in, l) = (self.c_out, self.c_in, self.len);
        let wo = self.out_width(n);
        let rows = c_out * c_in;
        // Time blocks of `bp` whole panels, as many as keep one block of U
        // for all D series rows within GATHER_TILE. The series' D rows are a
        // one-channel, D-row input padded to whole blocks, so patch panels
        // `(dim·blocks + tb)·bp ..` hold block `tb` of row `dim` (past
        // W_out: outputs nobody reads).
        let panels = wo.div_ceil(NR);
        let blocks = panels.div_ceil((GATHER_TILE / (d * rows * NR)).max(1));
        let bp = panels.div_ceil(blocks);
        let tb_len = bp * NR;
        let geom = ConvGeom {
            c_in: 1,
            wo: blocks * tb_len,
            ..self.geom(d, n, wo)
        };
        self.packed_w.pack_nn(rows, l, self.weight.value.data());

        let sample_out = c_out * d * wo;
        let mut out_buf = arena.take(samples.len() * sample_out);
        let threads = sample_threads(samples.len());
        let scratch_len = (d * rows + l) * tb_len;
        let mut scratch = arena.take(threads * scratch_len);
        let (pw, bd) = (&self.packed_w, self.bias.value.data());
        let run = |range: std::ops::Range<usize>, out_chunk: &mut [f32], scratch: &mut [f32]| {
            // `u[dim]` is the `rows × tb_len` block of U, `pb` its panels.
            let (u, pb) = scratch.split_at_mut(d * rows * tb_len);
            let mut i0 = range.start;
            while i0 < range.end {
                let series = samples[i0].0;
                let i1 = (i0..range.end)
                    .find(|&i| !std::ptr::eq(samples[i].0, series))
                    .unwrap_or(range.end);
                for tb in 0..blocks {
                    for (dim, u_dim) in u.chunks_exact_mut(rows * tb_len).enumerate() {
                        for (q, panel) in pb.chunks_exact_mut(l * NR).enumerate() {
                            im2col_panel(&geom, series, (dim * blocks + tb) * bp + q, panel);
                        }
                        gemm_packed(pw, tb_len, pb, u_dim, false);
                    }
                    let t0 = tb * tb_len;
                    let width = tb_len.min(wo - t0);
                    for (co, &b) in bd.iter().enumerate() {
                        for si in i0..i1 {
                            let perm = samples[si].1;
                            let y = &mut out_chunk[(si - range.start) * sample_out..][..sample_out];
                            for r in 0..d {
                                let row = (co * d + r) * wo + t0;
                                let dst = &mut y[row..row + width];
                                dst.fill(b);
                                let mut slot = r;
                                for p in 0..c_in {
                                    let src = (perm[slot] * rows + co * c_in + p) * tb_len;
                                    for (o, v) in dst.iter_mut().zip(&u[src..src + width]) {
                                        *o += v;
                                    }
                                    slot = if slot + 1 == d { 0 } else { slot + 1 };
                                }
                            }
                        }
                    }
                }
                i0 = i1;
            }
        };
        if threads <= 1 {
            run(0..samples.len(), &mut out_buf, &mut scratch);
        } else {
            std::thread::scope(|sc| {
                let mut out_rest = &mut out_buf[..];
                let mut scratch_rest = &mut scratch[..];
                for range in split_ranges(samples.len(), threads) {
                    let (out_chunk, tail) = out_rest.split_at_mut(range.len() * sample_out);
                    out_rest = tail;
                    let (s, s_tail) = scratch_rest.split_at_mut(scratch_len);
                    scratch_rest = s_tail;
                    let run = &run;
                    sc.spawn(move || run(range, out_chunk, s));
                }
            });
        }
        arena.give(scratch);
        Tensor::from_vec(out_buf, &[samples.len(), c_out, d, wo]).expect("conv gather shape")
    }

    /// True when this call should take the quantized kernels: the int8
    /// path is engaged ([`QuantState::engaged`]) and the geometry is a
    /// stride-1 "same" convolution — `pad_left + pad_right + 1 == len`
    /// makes the padded width equal `w + ℓ − 1`, so every output column
    /// reads ℓ consecutive padded columns and the whole layer runs as ℓ
    /// offset walks over one interleaved buffer. Every convolution in the
    /// study's architectures satisfies this; a layer that does not simply
    /// stays f32 (mixed precision is sound because the int8 path
    /// dequantizes at layer boundaries anyway).
    fn int8_eligible(&self, w: usize) -> bool {
        self.quant.engaged()
            && self.stride == 1
            && self.pad_left + self.pad_right + 1 == self.len
            && w >= self.len
    }

    /// Quantizes the weights for the int8 path: per-output-channel
    /// symmetric scales over the **full** `c_in·ℓ` row, then one packed
    /// `c_out × c_in` matrix per kernel tap sharing those scales.
    fn quantize_weights(&self) -> QuantConv {
        let (c_out, c_in, l) = (self.c_out, self.c_in, self.len);
        let wd = self.weight.value.data();
        let scales: Vec<f32> = (0..c_out)
            .map(|co| {
                let row = &wd[co * c_in * l..(co + 1) * c_in * l];
                weight_scale(row.iter().fold(0.0f32, |a, v| a.max(v.abs())))
            })
            .collect();
        let taps: Vec<QuantizedWeights> = (0..l)
            .map(|li| {
                QuantizedWeights::from_rows_with_scales(c_out, c_in, &scales, |co, ci| {
                    wd[(co * c_in + ci) * l + li]
                })
            })
            .collect();
        let corr: Vec<i32> = (0..c_out)
            .map(|co| taps.iter().map(|t| t.corr()[co]).sum())
            .collect();
        QuantConv {
            taps,
            corr,
            scales,
            version: self.weight_version,
        }
    }

    /// Quantized inference forward: quantize each sample's planes once
    /// into a zero-point-padded interleaved byte buffer, run one
    /// [`qgemm_i32`] per kernel tap per `H`-row into a shared i32
    /// accumulator (taps differ only in their column offset into the same
    /// buffer), then dequantize + bias into the arena-backed f32 output.
    ///
    /// Unlike the f32 taps path there are no row-boundary corrections:
    /// each `H`-row gets its own padded columns (value = zero point ⇒
    /// exactly zero contribution), so a tap shift can never read a
    /// neighbor row's values.
    fn forward_eval_int8(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let (n, h, w) = self.check_input(&x);
        debug_assert_eq!(self.out_width(w), w);
        let (c_out, c_in, l, pl) = (self.c_out, self.c_in, self.len, self.pad_left);
        let s_act = self
            .quant
            .act_scale
            .expect("int8 path requires calibration");
        let inv_s = 1.0 / s_act;
        if self
            .qweights
            .as_ref()
            .is_none_or(|q| q.version != self.weight_version)
        {
            self.qweights = Some(self.quantize_weights());
        }
        let hw = h * w;
        let g4 = k_groups(c_in);
        let wp = w + l - 1; // pl + pr + 1 == l ⇒ padded width
        let qx_len = g4 * h * wp * 4;
        self.qx.clear();
        self.qx.resize(qx_len, ACT_ZERO_POINT as u8);
        self.qacc.resize(c_out * w, 0);
        let mut out_buf = arena.take(n * c_out * hw);
        let xd = x.data();
        let bd = self.bias.value.data();
        let qc = self.qweights.as_ref().expect("just built");
        for si in 0..n {
            let xs = &xd[si * c_in * hw..(si + 1) * c_in * hw];
            if si > 0 {
                self.qx.fill(ACT_ZERO_POINT as u8);
            }
            for ci in 0..c_in {
                let (g, lane) = (ci / 4, ci % 4);
                for hi in 0..h {
                    let src = &xs[ci * hw + hi * w..ci * hw + hi * w + w];
                    let base = ((g * h + hi) * wp + pl) * 4 + lane;
                    quantize_lane_into(src, inv_s, &mut self.qx[base..]);
                }
            }
            let y = &mut out_buf[si * c_out * hw..(si + 1) * c_out * hw];
            for hi in 0..h {
                for (li, tap) in qc.taps.iter().enumerate() {
                    qgemm_i32(
                        tap,
                        &self.qx[hi * wp * 4..],
                        h * wp * 4,
                        li,
                        w,
                        &mut self.qacc,
                        w,
                        li != 0,
                    );
                }
                for co in 0..c_out {
                    dequantize_row(
                        &self.qacc[co * w..(co + 1) * w],
                        qc.corr[co],
                        qc.scales[co] * s_act,
                        bd[co],
                        &mut y[co * hw + hi * w..co * hw + hi * w + w],
                    );
                }
            }
        }
        arena.recycle(x);
        Tensor::from_vec(out_buf, &[n, c_out, h, w]).expect("conv int8 eval shape")
    }

    fn backward_im2col(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        n: usize,
        h: usize,
        w: usize,
        wo: usize,
    ) -> Tensor {
        let geom = self.geom(h, w, wo);
        let col_len = geom.col_len();
        let threads = sample_threads(n);
        if self.scratch.len() < threads * 2 * col_len {
            self.scratch.resize(threads * 2 * col_len, 0.0);
        }
        let (c_out, c_in) = (self.c_out, self.c_in);
        let (col_rows, col_cols) = (geom.col_rows(), geom.col_cols());
        let sample_in = c_in * h * w;
        let sample_out = c_out * h * wo;
        let w_len = c_out * col_rows;
        let mut grad_x = Tensor::zeros(&[n, c_in, h, w]);
        let xd = x.data();
        let gd = grad_out.data();
        let wd = self.weight.value.data();

        // One pass per sample serves all three gradients: the patch matrix P
        // feeds dW += G·Pᵀ, then the same scratch pair holds dP = Wᵀ·G for
        // the col2im scatter back onto grad_x.
        let run = |range: std::ops::Range<usize>,
                   gx_chunk: &mut [f32],
                   scratch: &mut [f32]|
         -> Vec<f32> {
            let (p_cols, d_cols) = scratch.split_at_mut(col_len);
            let mut acc = vec![0.0f32; w_len + c_out];
            for (i, si) in range.enumerate() {
                let x_sample = &xd[si * sample_in..(si + 1) * sample_in];
                let g_sample = &gd[si * sample_out..(si + 1) * sample_out];
                im2col(&geom, x_sample, p_cols);
                let (aw, ab) = acc.split_at_mut(w_len);
                gemm_nt(c_out, col_cols, col_rows, g_sample, p_cols, aw, true);
                for (co, b) in ab.iter_mut().enumerate() {
                    *b += g_sample[co * col_cols..(co + 1) * col_cols]
                        .iter()
                        .sum::<f32>();
                }
                gemm_tn(col_rows, c_out, col_cols, wd, g_sample, d_cols, false);
                col2im_acc(
                    &geom,
                    d_cols,
                    &mut gx_chunk[i * sample_in..(i + 1) * sample_in],
                );
            }
            acc
        };

        let partials: Vec<Vec<f32>> = if threads <= 1 {
            vec![run(
                0..n,
                grad_x.data_mut(),
                &mut self.scratch[..2 * col_len],
            )]
        } else {
            let ranges = split_ranges(n, threads);
            std::thread::scope(|sc| {
                let mut gx_rest = grad_x.data_mut();
                let mut scratch_rest = &mut self.scratch[..];
                let mut handles = Vec::with_capacity(ranges.len());
                for range in ranges {
                    let (gx_chunk, g_tail) = gx_rest.split_at_mut(range.len() * sample_in);
                    gx_rest = g_tail;
                    let (scratch, s_tail) = scratch_rest.split_at_mut(2 * col_len);
                    scratch_rest = s_tail;
                    let run = &run;
                    handles.push(sc.spawn(move || run(range, gx_chunk, scratch)));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("conv worker panicked"))
                    .collect()
            })
        };

        for acc in partials {
            for (g, a) in self.weight.grad.data_mut().iter_mut().zip(&acc[..w_len]) {
                *g += a;
            }
            for (g, a) in self.bias.grad.data_mut().iter_mut().zip(&acc[w_len..]) {
                *g += a;
            }
        }
        grad_x
    }
}

impl Layer for Conv2dRows {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (n, h, w) = self.check_input(x);
        if self.quant.calibrating && !train {
            self.quant
                .record(x.data().iter().fold(0.0f32, |a, v| a.max(v.abs())));
        }
        let wo = self.out_width(w);
        let out = match self.resolve(h, wo) {
            ConvStrategy::Im2col => self.forward_im2col(x, n, h, w, wo),
            ConvStrategy::Fft => self.forward_fft(x, n, h, w, wo),
            _ => self.forward_direct(x, n, h, w, wo),
        };
        if train {
            self.cache_x = Some(x.clone());
        }
        out
    }

    fn forward_eval(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let (_, h, w) = self.check_input(&x);
        if self.quant.calibrating {
            self.quant
                .record(x.data().iter().fold(0.0f32, |a, v| a.max(v.abs())));
        }
        if self.int8_eligible(w) {
            return self.forward_eval_int8(x, arena);
        }
        let wo = self.out_width(w);
        match self.resolve(h, wo) {
            ConvStrategy::Im2col => {
                if self.stride == 1 && wo == w && w >= self.len {
                    self.forward_eval_taps(x, arena)
                } else {
                    self.forward_eval_fused(x, arena)
                }
            }
            ConvStrategy::Fft => self.forward_eval_fft(x, arena),
            _ => {
                let y = self.forward(&x, false);
                arena.recycle(x);
                y
            }
        }
    }

    fn forward_eval_cubes(
        &mut self,
        samples: &[(&[f32], &[usize])],
        arena: &mut BatchArena,
    ) -> Tensor {
        if self.gathers_cubes(cube_dims(samples).0) {
            return self.forward_eval_gathered(samples, arena);
        }
        let x = assemble_cubes(samples, arena);
        self.forward_eval(x, arena)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("backward without cached forward");
        let (n, h, w) = self.check_input(&x);
        let wo = self.out_width(w);
        assert_eq!(
            grad_out.dims(),
            &[n, self.c_out, h, wo],
            "grad_out shape mismatch"
        );
        match self.resolve(h, wo) {
            ConvStrategy::Im2col => self.backward_im2col(&x, grad_out, n, h, w, wo),
            ConvStrategy::Fft => self.backward_fft(&x, grad_out, n, h, w, wo),
            _ => self.backward_direct(&x, grad_out, n, h, w, wo),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Assume the visitor mutates: optimizer steps, checkpoint restores
        // and `copy_params` all arrive here, and a spurious bump only costs
        // one spectra recompute on the next fft-strategy call.
        self.weight_version = self.weight_version.wrapping_add(1);
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_convs(&mut self, f: &mut dyn FnMut(&mut Conv2dRows)) {
        f(self);
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut QuantState)) {
        f(&mut self.quant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_same_padding() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2dRows::same(3, 5, 3, &mut rng);
        let x = Tensor::zeros(&[2, 3, 4, 10]);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[2, 5, 4, 10]);
    }

    #[test]
    fn output_shape_stride_two() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2dRows::new(1, 2, 4, 2, 0, &mut rng);
        let x = Tensor::zeros(&[1, 1, 1, 12]);
        let y = conv.forward(&x, false);
        // (12 - 4) / 2 + 1 = 5
        assert_eq!(y.dims(), &[1, 2, 1, 5]);
    }

    #[test]
    fn known_convolution_values() {
        // 1 in-channel, 1 out-channel, kernel [1, 2, 3], no padding.
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2dRows::new(1, 1, 3, 1, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 1, 3]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, 2.0, 1.0], &[1, 1, 1, 4]).unwrap();
        let y = conv.forward(&x, false);
        // [1*1 + 0*2 + 2*3, 0*1 + 2*2 + 1*3] + 0.5 = [7.5, 7.5]
        assert_eq!(y.data(), &[7.5, 7.5]);
    }

    #[test]
    fn rows_do_not_mix() {
        // With two rows, zeroing one row of input must zero that output row
        // only (bias set to zero). Tolerance instead of exact zero: the fft
        // strategy packs two real rows per complex transform, and the
        // Hermitian split of an all-zero row paired with a nonzero one
        // leaves ~1e-19 cancellation residue — noise, not leakage.
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2dRows::same(1, 1, 3, &mut rng);
        conv.bias.value.fill(0.0);
        let mut x = Tensor::zeros(&[1, 1, 2, 6]);
        for w in 0..6 {
            x.set(&[0, 0, 1, w], 1.0).unwrap(); // only row 1 nonzero
        }
        let y = conv.forward(&x, false);
        for w in 0..6 {
            assert!(y.at(&[0, 0, 0, w]).unwrap().abs() < 1e-6, "row 0 leaked");
            assert!(
                y.at(&[0, 0, 1, w]).unwrap().abs() > 1e-3,
                "row 1 lost signal"
            );
        }
    }

    #[test]
    fn channels_are_reduced() {
        // Both input channels must contribute to the single output channel.
        let mut rng = SeededRng::new(2);
        let mut conv = Conv2dRows::new(2, 1, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1]).unwrap();
        conv.bias.value.fill(0.0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap();
        let y = conv.forward(&x, false);
        // out[w] = 1*x0[w] + 10*x1[w]
        assert_eq!(y.data(), &[31.0, 42.0]);
    }

    #[test]
    fn same_padding_preserves_width_for_even_kernels() {
        // Regression: ResNet uses kernel 8; symmetric len/2 padding grew the
        // output by one column and broke residual adds.
        let mut rng = SeededRng::new(9);
        for len in [2usize, 3, 4, 5, 8] {
            let mut conv = Conv2dRows::same(1, 1, len, &mut rng);
            let x = Tensor::zeros(&[1, 1, 1, 13]);
            let y = conv.forward(&x, false);
            assert_eq!(y.dims(), &[1, 1, 1, 13], "kernel {len}");
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = SeededRng::new(3);
        let mut conv = Conv2dRows::same(1, 1, 3, &mut rng);
        let g = Tensor::zeros(&[1, 1, 1, 4]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conv.backward(&g);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn strategies_agree_on_forward_and_gradients() {
        // Full equivalence sweep lives in tests/conv_strategies.rs; this is
        // the smoke check that both paths are actually wired in.
        let mut rng = SeededRng::new(4);
        let x = Tensor::uniform(&[3, 4, 2, 17], -1.0, 1.0, &mut rng);
        let g = Tensor::uniform(&[3, 6, 2, 17], -1.0, 1.0, &mut rng);
        let mut results = Vec::new();
        for strategy in [
            ConvStrategy::Direct,
            ConvStrategy::Im2col,
            ConvStrategy::Fft,
        ] {
            let mut rng_c = SeededRng::new(7);
            let mut conv = Conv2dRows::same(4, 6, 5, &mut rng_c);
            conv.set_strategy(strategy);
            let y = conv.forward(&x, true);
            let gx = conv.backward(&g);
            results.push((y, gx, conv.weight.grad.clone(), conv.bias.grad.clone()));
        }
        let (y_d, gx_d, gw_d, gb_d) = &results[0];
        for (name, (y, gx, gw, gb)) in ["im2col", "fft"].iter().zip(&results[1..]) {
            assert!(y_d.allclose(y, 1e-4), "{name} forward mismatch");
            assert!(gx_d.allclose(gx, 1e-4), "{name} grad-input mismatch");
            assert!(gw_d.allclose(gw, 1e-3), "{name} grad-weight mismatch");
            assert!(gb_d.allclose(gb, 1e-3), "{name} grad-bias mismatch");
        }
    }

    #[test]
    fn forward_eval_matches_forward() {
        use crate::arena::BatchArena;
        let mut rng = SeededRng::new(11);
        let x = Tensor::uniform(&[5, 4, 3, 33], -1.0, 1.0, &mut rng);
        for strategy in [
            ConvStrategy::Direct,
            ConvStrategy::Im2col,
            ConvStrategy::Fft,
        ] {
            let mut conv = Conv2dRows::same(4, 6, 5, &mut SeededRng::new(7));
            conv.bias.value = Tensor::uniform(&[6], -0.5, 0.5, &mut rng);
            conv.set_strategy(strategy);
            let want = conv.forward(&x, false);
            let mut arena = BatchArena::new();
            let got = conv.forward_eval(x.clone(), &mut arena);
            assert!(got.allclose(&want, 1e-5), "{strategy:?} first call");
            assert!(arena.pooled() > 0, "input buffer was not recycled");
            // Steady state: pooled buffers are reused, result unchanged.
            let got2 = conv.forward_eval(x.clone(), &mut arena);
            assert!(got2.allclose(&want, 1e-5), "{strategy:?} second call");
        }
    }

    #[test]
    fn int8_eval_tracks_f32_within_quantization_error() {
        use crate::arena::BatchArena;
        use crate::quant::Precision;
        let mut rng = SeededRng::new(21);
        // Odd and even kernels, multi-row planes, multi-sample batch.
        for len in [3usize, 4, 5] {
            let x = Tensor::uniform(&[3, 5, 4, 19], -1.2, 1.2, &mut rng);
            let mut conv = Conv2dRows::same(5, 7, len, &mut SeededRng::new(13));
            conv.bias.value = Tensor::uniform(&[7], -0.3, 0.3, &mut rng);
            let want = conv.forward(&x, false);

            conv.visit_quant(&mut |q| {
                q.precision = Precision::Int8;
                q.calibrating = true;
            });
            let mut arena = BatchArena::new();
            let _ = conv.forward_eval(x.clone(), &mut arena);
            conv.visit_quant(&mut |q| q.finish_calibration());
            assert!(conv.int8_eligible(19), "same conv must be eligible");

            let got = conv.forward_eval(x.clone(), &mut arena);
            assert_eq!(got.dims(), want.dims());
            let worst = got
                .data()
                .iter()
                .zip(want.data())
                .fold(0.0f32, |a, (x, y)| a.max((x - y).abs()));
            assert!(worst < 0.08, "len={len}: worst abs error {worst}");
            // Steady state reuses the quantized weights + scratch.
            let got2 = conv.forward_eval(x.clone(), &mut arena);
            assert!(
                got2.allclose(&got, 0.0),
                "len={len}: int8 must be deterministic"
            );
        }
    }

    #[test]
    fn int8_path_disengages_for_non_same_geometry() {
        use crate::quant::Precision;
        let mut rng = SeededRng::new(22);
        // Strided conv: not eligible, silently stays f32.
        let mut conv = Conv2dRows::new(3, 4, 5, 2, 2, &mut SeededRng::new(5));
        conv.visit_quant(&mut |q| {
            q.precision = Precision::Int8;
            q.act_scale = Some(0.01);
        });
        assert!(!conv.int8_eligible(32));
        let x = Tensor::uniform(&[2, 3, 3, 32], -1.0, 1.0, &mut rng);
        let want = conv.forward(&x, false);
        let mut arena = crate::arena::BatchArena::new();
        let got = conv.forward_eval(x, &mut arena);
        assert!(got.allclose(&want, 1e-5));
    }

    #[test]
    fn forward_eval_taps_handles_even_kernels_and_single_row() {
        use crate::arena::BatchArena;
        let mut rng = SeededRng::new(13);
        // Even kernel → asymmetric same-padding; h = 1 has no row
        // boundaries; h = 5 exercises the wrap corrections; kernel 8 is the
        // ResNet tap count (shift reaches 4 columns past the row edge).
        for (c_in, c_out, len, h, w) in [
            (3usize, 5usize, 4usize, 5usize, 19usize),
            (2, 4, 8, 1, 21),
            (4, 8, 8, 6, 16),
        ] {
            let x = Tensor::uniform(&[3, c_in, h, w], -1.0, 1.0, &mut rng);
            let mut conv = Conv2dRows::same(c_in, c_out, len, &mut SeededRng::new(14));
            conv.set_strategy(ConvStrategy::Im2col);
            let want = conv.forward(&x, false);
            let mut arena = BatchArena::new();
            let got = conv.forward_eval(x, &mut arena);
            assert!(
                got.allclose(&want, 1e-5),
                "c_in {c_in} c_out {c_out} len {len} h {h} w {w}"
            );
        }
    }

    /// Two series and one permutation per sample; sample 2 belongs to the
    /// second series, so the batch straddles them.
    fn cube_batch(d: usize, n: usize, rng: &mut SeededRng) -> (Vec<Vec<f32>>, Vec<Vec<usize>>) {
        let series = (0..2)
            .map(|_| (0..d * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect())
            .collect();
        let perms = (0..4).map(|_| rng.permutation(d)).collect();
        (series, perms)
    }

    #[test]
    fn gathered_cubes_match_assembled_cubes() {
        use crate::arena::BatchArena;
        let mut rng = SeededRng::new(31);
        // Odd and even kernels (asymmetric same-padding), a kernel longer
        // than the series, and a short kernel the gate would refuse.
        for (d, len, n) in [
            (2usize, 13usize, 40usize),
            (3, 14, 33),
            (6, 39, 64),
            (3, 9, 5),
            (4, 3, 17),
        ] {
            let (series, perms) = cube_batch(d, n, &mut rng);
            let samples: Vec<(&[f32], &[usize])> = [0, 0, 1, 0]
                .iter()
                .zip(&perms)
                .map(|(&s, p)| (&series[s][..], &p[..]))
                .collect();
            let mut conv = Conv2dRows::same(d, 5, len, &mut SeededRng::new(len as u64));
            conv.bias.value = Tensor::uniform(&[5], -0.5, 0.5, &mut rng);
            let mut arena = BatchArena::new();
            let got = conv.forward_eval_gathered(&samples, &mut arena);
            conv.set_strategy(ConvStrategy::Im2col);
            let cubes = assemble_cubes(&samples, &mut arena);
            let want = conv.forward_eval(cubes, &mut arena);
            assert_eq!(got.dims(), want.dims());
            let scale = want.data().iter().fold(1.0f32, |a, v| a.max(v.abs()));
            assert!(got.allclose(&want, 1e-5 * scale), "d {d} len {len} n {n}");
        }
    }

    #[test]
    fn cube_gate_needs_unpinned_long_f32_kernels() {
        use crate::quant::Precision;
        let mut rng = SeededRng::new(32);
        let short = Conv2dRows::same(6, 4, GATHER_MIN_LEN - 1, &mut rng);
        let mut long = Conv2dRows::same(6, 4, 39, &mut rng);
        let strided = Conv2dRows::new(6, 4, 39, 2, 19, &mut rng);
        assert!(!short.gathers_cubes(6));
        assert!(!strided.gathers_cubes(6));
        assert!(!long.gathers_cubes(5), "channel count must match D");
        let unpinned = matches!(
            std::env::var("DCAM_CONV_STRATEGY").as_deref(),
            Err(_) | Ok("auto")
        );
        assert_eq!(long.gathers_cubes(6), unpinned);
        long.visit_quant(&mut |q| {
            q.precision = Precision::Int8;
            q.act_scale = Some(0.01);
        });
        assert!(!long.gathers_cubes(6), "int8 keeps the cube path");
        long.visit_quant(&mut |q| q.precision = Precision::F32);
        long.set_strategy(ConvStrategy::Fft);
        assert!(!long.gathers_cubes(6), "a pin keeps the cube path");
    }

    #[test]
    fn forward_eval_handles_stride_and_asymmetric_padding() {
        use crate::arena::BatchArena;
        let mut rng = SeededRng::new(12);
        let x = Tensor::uniform(&[2, 3, 2, 21], -1.0, 1.0, &mut rng);
        let mut conv = Conv2dRows::with_padding(3, 5, 4, 2, 1, 3, &mut SeededRng::new(8));
        conv.set_strategy(ConvStrategy::Im2col);
        let want = conv.forward(&x, false);
        let mut arena = BatchArena::new();
        let got = conv.forward_eval(x, &mut arena);
        assert!(got.allclose(&want, 1e-5));
    }

    #[test]
    fn fft_kernel_spectra_cache_tracks_weight_mutations() {
        use crate::arena::BatchArena;
        let mut rng = SeededRng::new(21);
        let x = Tensor::uniform(&[2, 3, 2, 40], -1.0, 1.0, &mut rng);
        let mut conv = Conv2dRows::same(3, 4, 5, &mut SeededRng::new(22));
        conv.set_strategy(ConvStrategy::Fft);
        let mut arena = BatchArena::new();
        let y1 = conv.forward_eval(x.clone(), &mut arena);
        // Unchanged weights: the cached spectra are reused bit-for-bit.
        let y2 = conv.forward_eval(x.clone(), &mut arena);
        assert_eq!(y1.data(), y2.data(), "cached call must be deterministic");
        // Mutating params through visit_params — the optimizer / checkpoint
        // / copy_params path — must invalidate the cache.
        conv.visit_params(&mut |p| p.value.scale_in_place(2.0));
        let y3 = conv.forward_eval(x.clone(), &mut arena);
        let mut fresh = Conv2dRows::same(3, 4, 5, &mut SeededRng::new(22));
        fresh.visit_params(&mut |p| p.value.scale_in_place(2.0));
        fresh.set_strategy(ConvStrategy::Fft);
        let want = fresh.forward(&x, false);
        assert!(y3.allclose(&want, 1e-5), "stale kernel spectra were served");
    }

    #[test]
    fn auto_heuristic_picks_by_size() {
        let mut rng = SeededRng::new(5);
        let small = Conv2dRows::same(1, 4, 3, &mut rng);
        let big = Conv2dRows::same(16, 32, 3, &mut rng);
        let long = Conv2dRows::same(1, 8, 63, &mut rng);
        match std::env::var("DCAM_CONV_STRATEGY").as_deref() {
            // The CI matrix pins Auto layers globally; the heuristic is not
            // reachable then — assert the pin wins for every geometry.
            Ok("direct") => {
                for conv in [&small, &big, &long] {
                    assert_eq!(conv.resolve(1, 64), ConvStrategy::Direct);
                }
            }
            Ok("im2col") => {
                for conv in [&small, &big, &long] {
                    assert_eq!(conv.resolve(1, 64), ConvStrategy::Im2col);
                }
            }
            Ok("fft") => {
                for conv in [&small, &big, &long] {
                    assert_eq!(conv.resolve(1, 64), ConvStrategy::Fft);
                }
            }
            _ => {
                // Tiny kernel / tiny plane -> direct; wide channel-tap
                // product and plane -> im2col; long series with a long
                // kernel -> fft.
                assert_eq!(small.resolve(1, 8), ConvStrategy::Direct);
                assert_eq!(big.resolve(16, 64), ConvStrategy::Im2col);
                assert_eq!(long.resolved_strategy(1, 32768), ConvStrategy::Fft);
                // ...but the same long kernel on a short series stays on
                // the O(W·ℓ) paths.
                assert_ne!(long.resolved_strategy(1, 128), ConvStrategy::Fft);
            }
        }
    }

    #[test]
    fn strategy_parser_accepts_known_values() {
        assert_eq!(ConvStrategy::parse("auto"), ConvStrategy::Auto);
        assert_eq!(ConvStrategy::parse("direct"), ConvStrategy::Direct);
        assert_eq!(ConvStrategy::parse("im2col"), ConvStrategy::Im2col);
        assert_eq!(ConvStrategy::parse("fft"), ConvStrategy::Fft);
    }

    #[test]
    fn strategy_parser_panics_on_unknown_values() {
        for bad in ["ffft", "IM2COL", "winograd", ""] {
            let result = std::panic::catch_unwind(|| ConvStrategy::parse(bad));
            let err = result.expect_err("parse must reject {bad:?}");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("unknown DCAM_CONV_STRATEGY") && msg.contains("im2col"),
                "panic message must name the variable and the valid values, got {msg:?}"
            );
        }
    }
}
