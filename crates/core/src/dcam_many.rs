//! Cross-instance batched dCAM: one explanation engine for many concurrent
//! requests.
//!
//! [`crate::dcam::compute_dcam`] batches the `k` permuted forwards *within*
//! one instance; an explanation server handling `N` concurrent requests
//! still pays `N` separate streams of forwards, re-traversing the model
//! weights (and re-paying every per-forward setup cost) once per instance.
//! [`compute_dcam_many`] packs the permuted cubes of *multiple* instances
//! into shared forward **mega-batches** and runs them through the
//! allocation-free fused inference path (`Layer::forward_eval`): weights
//! are prepacked once per layer per mega-batch, im2col patches are written
//! directly in the GEMM's panel layout, activations ping-pong between
//! arena buffers, and per-request CAMs are scattered back out through the
//! existing `M`-transformation. Requests keep their individual target
//! classes and their individual `only_correct` fallback; results come back
//! in submission order.
//!
//! [`DcamBatcher`] adds the queueing layer an explanation server needs: it
//! buffers submitted requests (grouped by series geometry) and flushes them
//! through the engine when the configured policy says so.

use crate::arch::{GapClassifier, InputEncoding};
use crate::cam::weighted_map_batch_classes;
use crate::dcam::{sample_perms, DcamConfig, DcamResult, MAccumulator};
use dcam_nn::BatchArena;
use dcam_series::MultivariateSeries;
use dcam_tensor::argmax;
use std::time::{Duration, Instant};

/// One explanation request: explain `series` for `class`.
#[derive(Debug, Clone, Copy)]
pub struct DcamRequest<'a> {
    /// The instance to explain.
    pub series: &'a MultivariateSeries,
    /// The class whose activation map is extracted.
    pub class: usize,
}

/// Configuration of the cross-instance engine.
#[derive(Debug, Clone)]
pub struct DcamManyConfig {
    /// Per-instance dCAM semantics (`k`, `only_correct`, `include_identity`,
    /// `seed`). Each request is computed exactly as a `compute_dcam` call
    /// with this config would; `dcam.batch` is superseded by [`max_batch`].
    ///
    /// [`max_batch`]: DcamManyConfig::max_batch
    pub dcam: DcamConfig,
    /// Forward mega-batch capacity in permuted cubes. One mega-batch may
    /// span several requests (and a request may span several mega-batches);
    /// larger values amortize per-forward costs until the mega-batch's
    /// activations outgrow the cache — on a single-core AVX-512 box the
    /// sweet spot for the D=20, n=128 benchmark shape is 4–8 cubes.
    pub max_batch: usize,
}

impl Default for DcamManyConfig {
    fn default() -> Self {
        DcamManyConfig {
            dcam: DcamConfig::default(),
            max_batch: 8,
        }
    }
}

/// Computes the dCAM of every request with one shared stream of forward
/// mega-batches. Results are returned in request order and match
/// per-instance [`crate::dcam::compute_dcam`] (same `dcam` config) to float
/// noise — including each request's own `only_correct` fallback.
///
/// All requests must share the model's dimension count `D` and one series
/// length `n` (a mega-batch is a single `(B, D, D, n)` tensor);
/// [`DcamBatcher`] groups mixed-geometry traffic before calling this.
pub fn compute_dcam_many(
    model: &mut GapClassifier,
    requests: &[DcamRequest<'_>],
    cfg: &DcamManyConfig,
) -> Vec<DcamResult> {
    let mut arena = BatchArena::new();
    compute_dcam_many_with_arena(model, requests, cfg, &mut arena)
}

/// [`compute_dcam_many`] with a caller-owned [`BatchArena`], so a serving
/// loop ([`DcamBatcher`]) reuses the same activation buffers across flushes.
pub fn compute_dcam_many_with_arena(
    model: &mut GapClassifier,
    requests: &[DcamRequest<'_>],
    cfg: &DcamManyConfig,
    arena: &mut BatchArena,
) -> Vec<DcamResult> {
    assert_eq!(
        model.encoding(),
        InputEncoding::Dcnn,
        "dCAM requires a d-architecture (C(T) cube encoding)"
    );
    assert!(cfg.dcam.k >= 1, "need at least one permutation");
    if requests.is_empty() {
        return Vec::new();
    }
    let d = requests[0].series.n_dims();
    let n = requests[0].series.len();
    for (i, r) in requests.iter().enumerate() {
        assert_eq!(
            (r.series.n_dims(), r.series.len()),
            (d, n),
            "request {i}: all requests of one mega-batch run must share (D, n)"
        );
    }

    // Every request samples the same permutation set a per-instance
    // `compute_dcam` with this config would (the seed is part of the
    // config), so batched and sequential runs are comparable term by term.
    let perms = sample_perms(d, &cfg.dcam);
    let k = perms.len();
    let only_correct = cfg.dcam.only_correct;

    let mut accs: Vec<MAccumulator> = requests.iter().map(|_| MAccumulator::new(d, n)).collect();
    let max_batch = cfg.max_batch.max(1);
    let total = requests.len() * k;
    let mut cam_buf: Vec<f32> = Vec::new();
    let mut classes: Vec<usize> = Vec::new();

    let mut w0 = 0usize;
    while w0 < total {
        let w1 = (w0 + max_batch).min(total);
        let bs = w1 - w0;

        // The mega-batch: work item w is permutation `w % k` of request
        // `w / k`, so requests occupy contiguous segments.
        let samples: Vec<(&[f32], &[usize])> = (w0..w1)
            .map(|w| (requests[w / k].series.tensor().data(), &perms[w % k][..]))
            .collect();
        classes.clear();
        classes.extend((w0..w1).map(|w| requests[w / k].class));

        let (features, logits) = model.forward_cubes_with_features_eval(&samples, arena);
        let k_classes = logits.dims()[1];

        // Per-request-class CAMs of the whole mega-batch, read in place.
        cam_buf.resize(bs * d * n, 0.0);
        weighted_map_batch_classes(&features, model.class_weights(), &classes, &mut cam_buf);

        let correct: Vec<bool> = (0..bs)
            .map(|bi| {
                argmax(&logits.data()[bi * k_classes..(bi + 1) * k_classes]) == Some(classes[bi])
            })
            .collect();

        // Scatter each request's contiguous segment into its accumulator.
        let mut s0 = 0usize;
        while s0 < bs {
            let inst = (w0 + s0) / k;
            let seg_end = (((inst + 1) * k).min(w1)) - w0;
            let p0 = (w0 + s0) % k;
            let p1 = p0 + (seg_end - s0);
            accs[inst].add_batch(
                &perms[p0..p1],
                &cam_buf[s0 * d * n..seg_end * d * n],
                &correct[s0..seg_end],
                only_correct,
            );
            s0 = seg_end;
        }

        arena.recycle(features);
        w0 = w1;
    }

    accs.into_iter()
        .map(|acc| acc.finalize(only_correct, k))
        .collect()
}

/// Ticket identifying a request submitted to a [`DcamBatcher`].
pub type Ticket = u64;

/// Request-packing front end for an explanation server.
///
/// `submit` buffers requests; once [`DcamBatcherConfig::max_pending`]
/// instances are waiting, the batcher flushes them through
/// [`compute_dcam_many`] (per series-geometry group, sharing one arena
/// across flushes) and hands back `(ticket, result)` pairs in submission
/// order. [`DcamBatcher::flush`] drains whatever is pending — the
/// "serve the stragglers" path a server runs on a timer.
///
/// For a serving loop that decides flushes itself (the asynchronous
/// explanation service), [`DcamBatcher::push`] buffers without flushing
/// and [`DcamBatcher::should_flush`] / [`DcamBatcher::next_deadline`]
/// expose the policy, including the [`DcamBatcherConfig::max_wait`]
/// partial-batch deadline.
///
/// ```
/// use dcam::arch::{cnn, InputEncoding, ModelScale};
/// use dcam::dcam_many::{DcamBatcher, DcamBatcherConfig, DcamManyConfig};
/// use dcam::DcamConfig;
/// use dcam_series::MultivariateSeries;
/// use dcam_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let mut model = cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut rng);
/// let cfg = DcamBatcherConfig {
///     many: DcamManyConfig {
///         dcam: DcamConfig { k: 4, only_correct: false, ..Default::default() },
///         max_batch: 4,
///     },
///     max_pending: 2, // auto-flush every two submissions
///     max_wait: None,
/// };
/// let mut batcher = DcamBatcher::new(cfg);
/// let series = MultivariateSeries::from_rows(&[vec![0.5; 12], vec![0.1; 12], vec![0.9; 12]]);
/// let (t0, none_yet) = batcher.submit(&mut model, &series, 0);
/// assert!(none_yet.is_empty()); // still filling
/// let (t1, served) = batcher.submit(&mut model, &series, 1);
/// let tickets: Vec<_> = served.iter().map(|(t, _)| *t).collect();
/// assert_eq!(tickets, vec![t0, t1]); // submission order
/// ```
pub struct DcamBatcher {
    cfg: DcamBatcherConfig,
    pending: Vec<(Ticket, MultivariateSeries, usize)>,
    arena: BatchArena,
    next_ticket: Ticket,
    /// When the oldest buffered request was pushed — the anchor of the
    /// [`DcamBatcherConfig::max_wait`] flush deadline.
    first_pending_since: Option<Instant>,
}

/// Flush policy of a [`DcamBatcher`].
#[derive(Debug, Clone)]
pub struct DcamBatcherConfig {
    /// Engine configuration (per-instance semantics + mega-batch capacity).
    pub many: DcamManyConfig,
    /// Auto-flush threshold: `submit` flushes as soon as this many
    /// instances are buffered. `1` degenerates to immediate per-request
    /// service (lowest latency), larger values trade latency for
    /// throughput.
    pub max_pending: usize,
    /// Flush deadline: once the oldest buffered request has waited this
    /// long, [`DcamBatcher::should_flush`] turns true even for a partial
    /// batch. `None` leaves flushing purely count-driven
    /// ([`max_pending`]) / caller-driven ([`DcamBatcher::flush`]). The
    /// batcher never flushes spontaneously — a serving loop polls
    /// [`DcamBatcher::should_flush`] / [`DcamBatcher::next_deadline`]
    /// (see [`crate::service::DcamService`]).
    ///
    /// [`max_pending`]: DcamBatcherConfig::max_pending
    pub max_wait: Option<Duration>,
}

impl Default for DcamBatcherConfig {
    fn default() -> Self {
        DcamBatcherConfig {
            many: DcamManyConfig::default(),
            max_pending: 16,
            max_wait: None,
        }
    }
}

impl DcamBatcher {
    /// Creates an empty batcher with the given flush policy.
    pub fn new(cfg: DcamBatcherConfig) -> Self {
        assert!(cfg.max_pending >= 1, "max_pending must be at least 1");
        DcamBatcher {
            cfg,
            pending: Vec::new(),
            arena: BatchArena::new(),
            next_ticket: 0,
            first_pending_since: None,
        }
    }

    /// Number of buffered, not-yet-served requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Buffers one request without flushing, taking ownership of the
    /// series (no clone). The serving loop that drives the batcher decides
    /// when to call [`DcamBatcher::flush`], typically by polling
    /// [`DcamBatcher::should_flush`].
    pub fn push(&mut self, series: MultivariateSeries, class: usize) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if self.pending.is_empty() {
            self.first_pending_since = Some(Instant::now());
        }
        self.pending.push((ticket, series, class));
        ticket
    }

    /// True once the flush policy is satisfied: [`max_pending`] requests
    /// are buffered, or the oldest buffered request has waited
    /// [`max_wait`] (when configured).
    ///
    /// [`max_pending`]: DcamBatcherConfig::max_pending
    /// [`max_wait`]: DcamBatcherConfig::max_wait
    pub fn should_flush(&self) -> bool {
        if self.pending.len() >= self.cfg.max_pending {
            return true;
        }
        matches!(self.next_deadline(), Some(deadline) if Instant::now() >= deadline)
    }

    /// The instant at which the [`max_wait`] policy will demand a flush:
    /// oldest buffered request's push time + `max_wait`. `None` while the
    /// batcher is empty or when no `max_wait` is configured. A serving
    /// loop sleeps until this deadline when its request queue runs dry.
    ///
    /// [`max_wait`]: DcamBatcherConfig::max_wait
    pub fn next_deadline(&self) -> Option<Instant> {
        Some(self.first_pending_since? + self.cfg.max_wait?)
    }

    /// Drops buffered requests whose ticket fails the predicate, returning
    /// how many were removed. The explanation service uses this to discard
    /// cancelled requests *before* a flush, so the engine never assembles
    /// cubes (or runs forwards) for callers that already hung up. The
    /// `max_wait` deadline anchor is left untouched unless the batcher
    /// empties — a surviving request can only flush earlier, never later,
    /// than its policy promised.
    pub fn retain(&mut self, mut keep: impl FnMut(Ticket) -> bool) -> usize {
        let before = self.pending.len();
        self.pending.retain(|(t, _, _)| keep(*t));
        if self.pending.is_empty() {
            self.first_pending_since = None;
        }
        before - self.pending.len()
    }

    /// Buffers one request and returns its ticket, plus any results an
    /// auto-flush produced (empty while the batcher is still filling).
    pub fn submit(
        &mut self,
        model: &mut GapClassifier,
        series: &MultivariateSeries,
        class: usize,
    ) -> (Ticket, Vec<(Ticket, DcamResult)>) {
        let ticket = self.push(series.clone(), class);
        let results = if self.pending.len() >= self.cfg.max_pending {
            self.flush(model)
        } else {
            Vec::new()
        };
        (ticket, results)
    }

    /// Serves everything buffered, returning `(ticket, result)` pairs in
    /// submission order. Requests are grouped by series geometry `(D, n)`
    /// so mixed-length traffic still batches within each group.
    pub fn flush(&mut self, model: &mut GapClassifier) -> Vec<(Ticket, DcamResult)> {
        let pending = std::mem::take(&mut self.pending);
        self.first_pending_since = None;
        if pending.is_empty() {
            return Vec::new();
        }
        // Group by geometry, preserving submission order within each group.
        type Group<'a> = Vec<&'a (Ticket, MultivariateSeries, usize)>;
        let mut groups: Vec<((usize, usize), Group<'_>)> = Vec::new();
        for req in &pending {
            let key = (req.1.n_dims(), req.1.len());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(req),
                None => groups.push((key, vec![req])),
            }
        }
        let mut out: Vec<(Ticket, DcamResult)> = Vec::new();
        for (_, group) in groups {
            let requests: Vec<DcamRequest<'_>> = group
                .iter()
                .map(|(_, series, class)| DcamRequest {
                    series,
                    class: *class,
                })
                .collect();
            let results =
                compute_dcam_many_with_arena(model, &requests, &self.cfg.many, &mut self.arena);
            out.extend(group.iter().map(|(t, _, _)| *t).zip(results));
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{cnn, ModelScale};
    use crate::dcam::compute_dcam;
    use dcam_tensor::{SeededRng, Tensor};

    fn toy_series(d: usize, n: usize, seed: u64) -> MultivariateSeries {
        let mut rng = SeededRng::new(seed);
        let rows: Vec<Vec<f32>> = (0..d)
            .map(|_| (0..n).map(|_| rng.normal()).collect())
            .collect();
        MultivariateSeries::from_rows(&rows)
    }

    fn toy_model(d: usize, classes: usize, seed: u64) -> GapClassifier {
        let mut rng = SeededRng::new(seed);
        cnn(InputEncoding::Dcnn, d, classes, ModelScale::Tiny, &mut rng)
    }

    /// 1e-5 agreement, relative to the values' magnitude: the batched
    /// engine's fused forward reassociates float sums (tap-major instead of
    /// patch-row-major), so large activation maps accumulate proportionally
    /// large — but still relatively tiny — differences.
    fn close(a: &Tensor, b: &Tensor) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(&x, &y)| (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0))
    }

    #[test]
    fn matches_sequential_compute_dcam() {
        let d = 4;
        let series: Vec<MultivariateSeries> = (0..3).map(|i| toy_series(d, 12, 40 + i)).collect();
        let classes = [0usize, 1, 0];
        let dcam_cfg = DcamConfig {
            k: 7,
            only_correct: false,
            seed: 5,
            ..Default::default()
        };
        let mut m_seq = toy_model(d, 2, 9);
        let want: Vec<DcamResult> = series
            .iter()
            .zip(&classes)
            .map(|(s, &c)| compute_dcam(&mut m_seq, s, c, &dcam_cfg))
            .collect();

        let mut m_many = toy_model(d, 2, 9);
        let requests: Vec<DcamRequest<'_>> = series
            .iter()
            .zip(&classes)
            .map(|(series, &class)| DcamRequest { series, class })
            .collect();
        // max_batch 5 deliberately misaligned with k = 7: mega-batches span
        // request boundaries.
        let cfg = DcamManyConfig {
            dcam: dcam_cfg,
            max_batch: 5,
        };
        let got = compute_dcam_many(&mut m_many, &requests, &cfg);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(close(&g.dcam, &w.dcam), "request {i}: dcam");
            assert!(close(&g.mbar, &w.mbar), "request {i}: mbar");
            assert_eq!(g.ng, w.ng, "request {i}: ng");
        }
    }

    #[test]
    fn empty_request_list_is_fine() {
        let mut model = toy_model(3, 2, 1);
        let got = compute_dcam_many(&mut model, &[], &DcamManyConfig::default());
        assert!(got.is_empty());
    }

    #[test]
    fn rejects_mixed_geometry() {
        let mut model = toy_model(3, 2, 2);
        let a = toy_series(3, 8, 0);
        let b = toy_series(3, 9, 1);
        let reqs = [
            DcamRequest {
                series: &a,
                class: 0,
            },
            DcamRequest {
                series: &b,
                class: 0,
            },
        ];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute_dcam_many(&mut model, &reqs, &DcamManyConfig::default());
        }));
        assert!(r.is_err());
    }

    #[test]
    fn batcher_flushes_at_max_pending_in_submission_order() {
        let d = 3;
        let mut model = toy_model(d, 2, 3);
        let cfg = DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: DcamConfig {
                    k: 4,
                    only_correct: false,
                    ..Default::default()
                },
                max_batch: 6,
            },
            max_pending: 3,
            max_wait: None,
        };
        let mut batcher = DcamBatcher::new(cfg);
        let series: Vec<MultivariateSeries> = (0..3).map(|i| toy_series(d, 10, 60 + i)).collect();

        let (t0, r0) = batcher.submit(&mut model, &series[0], 0);
        assert!(r0.is_empty());
        let (t1, r1) = batcher.submit(&mut model, &series[1], 1);
        assert!(r1.is_empty());
        assert_eq!(batcher.pending(), 2);
        let (t2, r2) = batcher.submit(&mut model, &series[2], 0);
        assert_eq!(batcher.pending(), 0, "auto-flush at max_pending");
        let tickets: Vec<Ticket> = r2.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, vec![t0, t1, t2]);
    }

    #[test]
    fn batcher_groups_mixed_lengths_and_keeps_order() {
        let d = 3;
        let mut model = toy_model(d, 2, 4);
        let cfg = DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: DcamConfig {
                    k: 3,
                    only_correct: false,
                    ..Default::default()
                },
                max_batch: 4,
            },
            max_pending: 100,
            max_wait: None,
        };
        let mut batcher = DcamBatcher::new(cfg.clone());
        let short = toy_series(d, 8, 70);
        let long = toy_series(d, 14, 71);
        let (ta, _) = batcher.submit(&mut model, &short, 0);
        let (tb, _) = batcher.submit(&mut model, &long, 1);
        let (tc, _) = batcher.submit(&mut model, &short, 1);
        let results = batcher.flush(&mut model);
        let tickets: Vec<Ticket> = results.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, vec![ta, tb, tc], "submission order preserved");
        assert_eq!(results[0].1.dcam.dims(), &[d, 8]);
        assert_eq!(results[1].1.dcam.dims(), &[d, 14]);
        assert_eq!(results[2].1.dcam.dims(), &[d, 8]);
        assert!(batcher.flush(&mut model).is_empty(), "nothing left");

        // Each grouped result matches its individual computation.
        let mut m2 = toy_model(d, 2, 4);
        let direct = compute_dcam(&mut m2, &long, 1, &cfg.many.dcam);
        assert!(close(&results[1].1.dcam, &direct.dcam));
    }
}
