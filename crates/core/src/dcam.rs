//! dCAM: the Dimension-wise Class Activation Map (paper §4.4, Defs. 1–3).
//!
//! Pipeline for one instance `T` and class `C_j`:
//!
//! 1. sample `k` random dimension permutations `S_T ∈ Σ_T` (§4.4.1);
//! 2. forward each `C(S_T)` through the trained d-architecture (no
//!    retraining) and compute the row-wise CAM of the cube;
//! 3. re-index each CAM by `idx` into `M(CAM(C(S_T))) ∈ R^(D,D,n)` — entry
//!    `[d, p, t]` is the activation dimension `d` received when sitting at
//!    within-row position `p` (Def. 2);
//! 4. average into `M̄_{C_j}(T)` (§4.4.2), counting `n_g`, the number of
//!    permutations the model classified correctly — the paper's proxy for
//!    explanation quality (§4.6);
//! 5. extract `dCAM[d, t] = σ²_p(M̄[d, ·, t]) · μ(M̄[·, ·, t])` with
//!    `μ = Σ_{d,p} M̄[d,p,t] / (2D)` (Def. 3): positions whose activation
//!    *varies* with placement expose discriminant subsequences, while the
//!    global mean filters irrelevant temporal windows.

use crate::arch::{GapClassifier, InputEncoding};
use crate::cam::weighted_map_batch;
use dcam_nn::par_accumulate;
use dcam_series::{cube, MultivariateSeries};
use dcam_tensor::{argmax, SeededRng, Tensor};

/// dCAM computation parameters.
#[derive(Debug, Clone)]
pub struct DcamConfig {
    /// Number of random permutations `k` (paper default: 100).
    pub k: usize,
    /// Forward mini-batch size for permutation evaluation.
    pub batch: usize,
    /// Average only over correctly classified permutations (the authors'
    /// reference implementation); when `false`, all `k` contribute (§4.4.2).
    pub only_correct: bool,
    /// Include the identity permutation as the first of the `k`.
    pub include_identity: bool,
    /// Permutation sampling seed.
    pub seed: u64,
}

impl Default for DcamConfig {
    fn default() -> Self {
        DcamConfig {
            k: 100,
            batch: 8,
            only_correct: true,
            include_identity: true,
            seed: 0,
        }
    }
}

/// Result of a dCAM computation.
#[derive(Debug, Clone)]
pub struct DcamResult {
    /// The dimension-wise class activation map `(D, n)` (Def. 3).
    pub dcam: Tensor,
    /// The averaged permutation summary `M̄ ∈ (D, D, n)`:
    /// `[d, p, t]` = mean activation of dimension `d` at position `p`.
    pub mbar: Tensor,
    /// `μ(M̄)` per timestamp — the paper's approximation of the plain CAM.
    pub mu: Vec<f32>,
    /// Number of permutations classified as the target class.
    pub ng: usize,
    /// Number of permutations evaluated (`k`).
    pub k: usize,
}

impl DcamResult {
    /// `n_g / k`, the explanation-quality proxy of §4.6/§5.6.
    pub fn ng_ratio(&self) -> f32 {
        if self.k == 0 {
            0.0
        } else {
            self.ng as f32 / self.k as f32
        }
    }
}

/// Samples the `k` dimension permutations of one dCAM computation —
/// identical for every engine so batched and per-instance runs agree.
pub(crate) fn sample_perms(d: usize, cfg: &DcamConfig) -> Vec<Vec<usize>> {
    let mut rng = SeededRng::new(cfg.seed);
    let mut perms: Vec<Vec<usize>> = Vec::with_capacity(cfg.k);
    if cfg.include_identity {
        perms.push((0..d).collect());
    }
    while perms.len() < cfg.k {
        perms.push(rng.permutation(d));
    }
    perms
}

/// Running `M`-transformation sums of one dCAM computation: permutations
/// that count toward the configured result (`contrib`) and the rest, so the
/// `contributors == 0` fallback can reuse the already-computed
/// contributions without re-running any forward.
pub(crate) struct MAccumulator {
    d: usize,
    n: usize,
    m_contrib: Vec<f32>,
    m_rest: Vec<f32>,
    /// Number of permutations classified as the target class so far.
    pub ng: usize,
    /// Number of permutations accumulated so far.
    pub seen: usize,
}

impl MAccumulator {
    pub fn new(d: usize, n: usize) -> Self {
        let plane_m = d * d * n;
        MAccumulator {
            d,
            n,
            m_contrib: vec![0.0f32; plane_m],
            m_rest: vec![0.0f32; plane_m],
            ng: 0,
            seen: 0,
        }
    }

    /// Folds one batch of per-permutation CAMs (`cam` holds `D·n` rows per
    /// sample) into the running sums; `correct[bi]` is whether sample `bi`
    /// was classified as the target class. The `M` re-indexing is
    /// parallelized across the batch's permutations.
    pub fn add_batch(
        &mut self,
        batch_perms: &[Vec<usize>],
        cam: &[f32],
        correct: &[bool],
        only_correct: bool,
    ) {
        let (d, n) = (self.d, self.n);
        let plane_m = d * d * n;
        let bs = batch_perms.len();
        debug_assert_eq!(cam.len(), bs * d * n);
        debug_assert_eq!(correct.len(), bs);
        self.ng += correct.iter().filter(|&&c| c).count();
        self.seen += bs;

        // Single-threaded (or single-sample) fast path: accumulate straight
        // into the running sums — no thread-local temporary, no zeroing or
        // merge pass over the 2·D²·n accumulator per batch. The scatter is
        // grouped so each `[dim, p]` run of the (cache-exceeding) target is
        // streamed once per *batch*, summing every sample's contribution
        // into it, instead of once per sample.
        if dcam_nn::thread_count() <= 1 || bs == 1 {
            let slots: Vec<Vec<usize>> = batch_perms
                .iter()
                .map(|perm| {
                    let mut slot_of = vec![0usize; d];
                    for (j, &dim) in perm.iter().enumerate() {
                        slot_of[dim] = j;
                    }
                    slot_of
                })
                .collect();
            for (target, wants_contrib) in [(&mut self.m_contrib, true), (&mut self.m_rest, false)]
            {
                let group: Vec<usize> = (0..bs)
                    .filter(|&bi| (correct[bi] || !only_correct) == wants_contrib)
                    .collect();
                if group.is_empty() {
                    continue;
                }
                for dim in 0..d {
                    for p in 0..d {
                        let dst_base = (dim * d + p) * n;
                        let dst = &mut target[dst_base..dst_base + n];
                        for &bi in &group {
                            let r = cube::idx(slots[bi][dim], p, d);
                            let src = &cam[bi * d * n + r * n..bi * d * n + (r + 1) * n];
                            for (t, &v) in dst.iter_mut().zip(src) {
                                *t += v;
                            }
                        }
                    }
                }
            }
            return;
        }

        // Original dim `dim` sits in slot `j` (perm[j] = dim); at position p
        // it appears in row (j - p) mod D. Accumulator: [contrib | rest].
        let acc = par_accumulate(bs, 2 * plane_m, &|bi, acc| {
            let perm = &batch_perms[bi];
            let cam = &cam[bi * d * n..(bi + 1) * d * n];
            let counts = correct[bi] || !only_correct;
            let (contrib, rest) = acc.split_at_mut(plane_m);
            let target = if counts { contrib } else { rest };
            let mut slot_of = vec![0usize; d];
            for (j, &dim) in perm.iter().enumerate() {
                slot_of[dim] = j;
            }
            for dim in 0..d {
                let j = slot_of[dim];
                for p in 0..d {
                    let r = cube::idx(j, p, d);
                    let src = &cam[r * n..(r + 1) * n];
                    let dst_base = (dim * d + p) * n;
                    for (t, &v) in target[dst_base..dst_base + n].iter_mut().zip(src) {
                        *t += v;
                    }
                }
            }
        });
        for (m, a) in self.m_contrib.iter_mut().zip(&acc[..plane_m]) {
            *m += a;
        }
        for (m, a) in self.m_rest.iter_mut().zip(&acc[plane_m..]) {
            *m += a;
        }
    }

    /// Merges, averages and extracts the Definition-3 map (§4.4.2–§4.4.3),
    /// applying the all-permutations fallback when nothing contributed.
    pub fn finalize(self, only_correct: bool, k: usize) -> DcamResult {
        let (d, n, ng) = (self.d, self.n, self.ng);
        let contributors = if only_correct { ng } else { self.seen };
        // Fall back to all permutations if none were classified correctly:
        // an all-zero M̄ would make the result meaningless and the paper's
        // n_g proxy already signals the low quality to the caller.
        let mut m_sum = self.m_contrib;
        let denom = if contributors > 0 {
            contributors
        } else {
            for (c, r) in m_sum.iter_mut().zip(&self.m_rest) {
                *c += r;
            }
            self.seen
        };

        for m in &mut m_sum {
            *m /= denom as f32;
        }
        let mbar = Tensor::from_vec(m_sum, &[d, d, n]).expect("mbar shape");

        // μ(M̄)_t = Σ_{d,p} M̄[d,p,t] / (2D)  (Def. 3 / §4.4.3).
        let mut mu = vec![0.0f32; n];
        for dim in 0..d {
            for p in 0..d {
                let base = (dim * d + p) * n;
                for (m, &v) in mu.iter_mut().zip(&mbar.data()[base..base + n]) {
                    *m += v;
                }
            }
        }
        for m in &mut mu {
            *m /= (2 * d) as f32;
        }

        // dCAM[d, t] = Var_p(M̄[d, ·, t]) · μ_t.
        let mut dcam = Tensor::zeros(&[d, n]);
        for dim in 0..d {
            for t in 0..n {
                let mut mean = 0.0f32;
                for p in 0..d {
                    mean += mbar.data()[(dim * d + p) * n + t];
                }
                mean /= d as f32;
                let mut var = 0.0f32;
                for p in 0..d {
                    let v = mbar.data()[(dim * d + p) * n + t] - mean;
                    var += v * v;
                }
                var /= d as f32;
                dcam.data_mut()[dim * n + t] = var * mu[t];
            }
        }

        DcamResult {
            dcam,
            mbar,
            mu,
            ng,
            k,
        }
    }
}

/// Computes the dCAM of `series` for `class` with a trained d-architecture.
///
/// The classifier must use the [`InputEncoding::Dcnn`] encoding (dCNN,
/// dResNet or dInceptionTime). The model is only evaluated — never
/// retrained — exactly as in §4.4.2.
///
/// Implementation: a batched permutation engine. The cube of a permuted
/// series satisfies `C(S_T)[p, r, t] = T^(perm[(p+r) mod D])[t]`, so the
/// engine hands the model `(series, permutation)` pairs
/// ([`GapClassifier::forward_cubes_with_features_eval`]). A long-kernel
/// first convolution never builds the cubes: it convolves each series row
/// with each kernel channel once and gathers every cube row from those
/// responses. Any other first layer gets the cubes assembled by `D²`
/// straight row copies into one reused arena buffer. CAMs for the whole
/// batch come from [`weighted_map_batch`] reading the feature tensor in
/// place, and the `M`-transformation re-indexing is parallelized across the
/// permutations of a batch inside [`par_accumulate`].
///
/// ```
/// use dcam::arch::{cnn, InputEncoding, ModelScale};
/// use dcam::dcam::{compute_dcam, DcamConfig};
/// use dcam_series::MultivariateSeries;
/// use dcam_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let mut model = cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut rng);
/// let series = MultivariateSeries::from_rows(&[vec![0.1; 16], vec![0.2; 16], vec![0.3; 16]]);
/// let cfg = DcamConfig { k: 5, only_correct: false, ..Default::default() };
/// let result = compute_dcam(&mut model, &series, 0, &cfg);
/// assert_eq!(result.dcam.dims(), &[3, 16]);   // one row per dimension
/// assert_eq!(result.mbar.dims(), &[3, 3, 16]); // the averaged M̄ cube
/// assert!(result.ng <= result.k);
/// ```
pub fn compute_dcam(
    model: &mut GapClassifier,
    series: &MultivariateSeries,
    class: usize,
    cfg: &DcamConfig,
) -> DcamResult {
    assert_eq!(
        model.encoding(),
        InputEncoding::Dcnn,
        "dCAM requires a d-architecture (C(T) cube encoding)"
    );
    assert!(cfg.k >= 1, "need at least one permutation");
    let d = series.n_dims();
    let n = series.len();

    // The k permutations (slot j of permutation holds original dim perm[j]).
    let perms = sample_perms(d, cfg);

    let sd = series.tensor().data();
    let mut acc = MAccumulator::new(d, n);

    let batch = cfg.batch.max(1);
    let mut arena = dcam_nn::BatchArena::default();
    let mut cam_buf: Vec<f32> = Vec::new();

    let mut start = 0;
    while start < perms.len() {
        let end = (start + batch).min(perms.len());
        let batch_perms = &perms[start..end];
        let bs = end - start;

        // The allocation-free inference path: reuses pooled buffers across
        // batches and is the path where a `Precision::Int8` model's
        // quantized convolution kernels engage. The first layer builds
        // the permuted cubes itself, or skips them (long kernels).
        let samples: Vec<(&[f32], &[usize])> =
            batch_perms.iter().map(|perm| (sd, &perm[..])).collect();
        let (features, logits) = model.forward_cubes_with_features_eval(&samples, &mut arena);
        let k_classes = logits.dims()[1];

        // Row-wise CAMs of the whole batch, read from features in place.
        cam_buf.resize(bs * d * n, 0.0);
        weighted_map_batch(&features, model.class_weights(), class, &mut cam_buf);

        let correct: Vec<bool> = (0..bs)
            .map(|bi| argmax(&logits.data()[bi * k_classes..(bi + 1) * k_classes]) == Some(class))
            .collect();

        acc.add_batch(batch_perms, &cam_buf, &correct, cfg.only_correct);
        arena.recycle(features);
        start = end;
    }

    acc.finalize(cfg.only_correct, cfg.k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{cnn, ModelScale};

    fn toy_series(d: usize, n: usize, seed: u64) -> MultivariateSeries {
        let mut rng = SeededRng::new(seed);
        let rows: Vec<Vec<f32>> = (0..d)
            .map(|_| (0..n).map(|_| rng.normal()).collect())
            .collect();
        MultivariateSeries::from_rows(&rows)
    }

    fn toy_model(d: usize, seed: u64) -> GapClassifier {
        let mut rng = SeededRng::new(seed);
        cnn(InputEncoding::Dcnn, d, 2, ModelScale::Tiny, &mut rng)
    }

    #[test]
    fn shapes_and_counters() {
        let s = toy_series(4, 10, 0);
        let mut model = toy_model(4, 1);
        let cfg = DcamConfig {
            k: 6,
            only_correct: false,
            ..Default::default()
        };
        let r = compute_dcam(&mut model, &s, 0, &cfg);
        assert_eq!(r.dcam.dims(), &[4, 10]);
        assert_eq!(r.mbar.dims(), &[4, 4, 10]);
        assert_eq!(r.mu.len(), 10);
        assert_eq!(r.k, 6);
        assert!(r.ng <= 6);
        assert!((0.0..=1.0).contains(&r.ng_ratio()));
    }

    #[test]
    fn deterministic_under_seed() {
        let s = toy_series(3, 8, 2);
        let mut m1 = toy_model(3, 3);
        let mut m2 = toy_model(3, 3);
        let cfg = DcamConfig {
            k: 5,
            only_correct: false,
            ..Default::default()
        };
        let r1 = compute_dcam(&mut m1, &s, 1, &cfg);
        let r2 = compute_dcam(&mut m2, &s, 1, &cfg);
        assert!(r1.dcam.allclose(&r2.dcam, 1e-5));
        assert_eq!(r1.ng, r2.ng);
    }

    #[test]
    fn identity_permutation_matches_direct_cam() {
        // With k = 1 and only the identity permutation, M̄[d][p] is the CAM
        // row idx(d, p), so mu equals (sum of all CAM rows) * D / (2D) ...
        // verify the re-indexing against a direct computation.
        let s = toy_series(3, 6, 4);
        let mut model = toy_model(3, 5);
        let cfg = DcamConfig {
            k: 1,
            only_correct: false,
            include_identity: true,
            ..Default::default()
        };
        let r = compute_dcam(&mut model, &s, 0, &cfg);
        let direct = crate::cam::cam(&mut model, &s, 0);
        // M̄[d, p, t] must equal CAM row (d - p) mod D at t.
        for dim in 0..3 {
            for p in 0..3 {
                let row = cube::idx(dim, p, 3);
                for t in 0..6 {
                    let want = direct.map.at(&[row, t]).unwrap();
                    let got = r.mbar.at(&[dim, p, t]).unwrap();
                    assert!(
                        (want - got).abs() < 1e-5,
                        "dim {dim} p {p} t {t}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn dimension_permutation_equivariance() {
        // dCAM of a permuted series must be (approximately) the permuted
        // dCAM: the method should not depend on which slot a dimension
        // occupies. Holds exactly when both runs use the same permutation
        // *sets*; with only_correct=false and shared seed the sampled
        // permutations differ, so we use all D! permutations of a small D.
        let d = 3;
        let s = toy_series(d, 6, 6);
        let mut model = toy_model(d, 7);
        // Enumerate all 6 permutations manually via seeds: instead, use k
        // large enough that the sampled sets approximate Σ_T.
        let cfg = DcamConfig {
            k: 120,
            only_correct: false,
            include_identity: false,
            seed: 9,
            ..Default::default()
        };
        let r_orig = compute_dcam(&mut model, &s, 0, &cfg);
        let perm = vec![2, 0, 1];
        let s_perm = s.permute_dims(&perm);
        let r_perm = compute_dcam(&mut model, &s_perm, 0, &cfg);
        // r_perm slot j corresponds to original dim perm[j].
        for (j, &dim) in perm.iter().enumerate() {
            let a: f32 = (0..6).map(|t| r_perm.dcam.at(&[j, t]).unwrap()).sum();
            let b: f32 = (0..6).map(|t| r_orig.dcam.at(&[dim, t]).unwrap()).sum();
            let denom = a.abs().max(b.abs()).max(1e-3);
            assert!(
                (a - b).abs() / denom < 0.35,
                "slot {j} (dim {dim}): {a} vs {b}"
            );
        }
    }

    /// The seed's unbatched implementation, kept as a test oracle: one
    /// `permute_dims` + `cube()` + `stack` + per-sample feature copy per
    /// permutation. The batched engine must reproduce it within float noise.
    fn compute_dcam_reference(
        model: &mut GapClassifier,
        series: &MultivariateSeries,
        class: usize,
        cfg: &DcamConfig,
    ) -> (Tensor, usize) {
        use dcam_nn::trainer::stack;
        let d = series.n_dims();
        let n = series.len();
        let mut rng = SeededRng::new(cfg.seed);
        let mut perms: Vec<Vec<usize>> = Vec::new();
        if cfg.include_identity {
            perms.push((0..d).collect());
        }
        while perms.len() < cfg.k {
            perms.push(rng.permutation(d));
        }
        let mut m_acc = Tensor::zeros(&[d, d, n]);
        let mut contributors = 0usize;
        for chunk in perms.chunks(cfg.batch.max(1)) {
            let cubes: Vec<Tensor> = chunk
                .iter()
                .map(|p| cube::cube(&series.permute_dims(p)))
                .collect();
            let refs: Vec<&Tensor> = cubes.iter().collect();
            let xb = stack(&refs);
            let (features, logits) = model.forward_with_features(&xb);
            let nf = features.dims()[1];
            let k_classes = logits.dims()[1];
            let plane = d * n;
            for (bi, perm) in chunk.iter().enumerate() {
                let row = &logits.data()[bi * k_classes..(bi + 1) * k_classes];
                let correct = argmax(row) == Some(class);
                if cfg.only_correct && !correct {
                    continue;
                }
                contributors += 1;
                let f_sample = Tensor::from_vec(
                    features.data()[bi * nf * plane..(bi + 1) * nf * plane].to_vec(),
                    &[1, nf, d, n],
                )
                .unwrap();
                let cam_rows = crate::cam::weighted_map(&f_sample, model.class_weights(), class);
                let mut slot_of = vec![0usize; d];
                for (j, &dim) in perm.iter().enumerate() {
                    slot_of[dim] = j;
                }
                for dim in 0..d {
                    let j = slot_of[dim];
                    for p in 0..d {
                        let r = cube::idx(j, p, d);
                        let src = &cam_rows.data()[r * n..(r + 1) * n];
                        let dst = (dim * d + p) * n;
                        for (acc, &v) in m_acc.data_mut()[dst..dst + n].iter_mut().zip(src) {
                            *acc += v;
                        }
                    }
                }
            }
        }
        m_acc.scale_in_place(1.0 / contributors.max(1) as f32);
        (m_acc, contributors)
    }

    #[test]
    fn batched_engine_matches_unbatched_reference() {
        for (d, n, k, only_correct) in [(4, 12, 7, false), (5, 9, 10, true), (3, 16, 5, false)] {
            let s = toy_series(d, n, 11);
            let mut m1 = toy_model(d, 13);
            let mut m2 = toy_model(d, 13);
            let cfg = DcamConfig {
                k,
                batch: 3,
                only_correct,
                include_identity: true,
                seed: 21,
            };
            let r = compute_dcam(&mut m1, &s, 0, &cfg);
            let (mbar_ref, contributors) = compute_dcam_reference(&mut m2, &s, 0, &cfg);
            if contributors > 0 {
                assert!(
                    r.mbar.allclose(&mbar_ref, 1e-4),
                    "mbar mismatch (d {d} n {n} k {k} only_correct {only_correct})"
                );
            }
        }
    }

    #[test]
    fn only_correct_fallback_equals_all_permutations_run() {
        // A fresh (untrained) model rarely classifies anything as class 3 of
        // 4 — and the fallback must then equal an only_correct=false run
        // without re-running any forwards.
        let s = toy_series(4, 10, 30);
        let mut rng = SeededRng::new(31);
        let mut model = cnn(InputEncoding::Dcnn, 4, 4, ModelScale::Tiny, &mut rng);
        let class = (0..4)
            .find(|&c| {
                let cfg = DcamConfig {
                    k: 8,
                    only_correct: false,
                    ..Default::default()
                };
                compute_dcam(&mut model, &s, c, &cfg).ng == 0
            })
            .expect("some class is never predicted by the untrained model");
        let cfg_oc = DcamConfig {
            k: 8,
            only_correct: true,
            ..Default::default()
        };
        let cfg_all = DcamConfig {
            k: 8,
            only_correct: false,
            ..Default::default()
        };
        let r_fallback = compute_dcam(&mut model, &s, class, &cfg_oc);
        let r_all = compute_dcam(&mut model, &s, class, &cfg_all);
        assert_eq!(r_fallback.ng, 0);
        assert!(r_fallback.mbar.allclose(&r_all.mbar, 1e-5));
        assert!(r_fallback.dcam.allclose(&r_all.dcam, 1e-5));
    }

    #[test]
    fn rejects_non_d_architecture() {
        let mut rng = SeededRng::new(8);
        let mut model = cnn(InputEncoding::Cnn, 3, 2, ModelScale::Tiny, &mut rng);
        let s = toy_series(3, 8, 9);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute_dcam(&mut model, &s, 0, &DcamConfig::default());
        }));
        assert!(r.is_err());
    }
}
