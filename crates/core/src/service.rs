//! Asynchronous explanation service: the [`DcamBatcher`] engine behind a
//! request queue and worker threads that own the model.
//!
//! [`crate::dcam_many::compute_dcam_many`] and [`DcamBatcher`] are
//! synchronous — whoever calls `flush` runs the forwards on their own
//! thread. A server cannot work that way: request handlers must return
//! immediately, batches should form from *concurrent* traffic, and exactly
//! one thread may drive a model (forwards take `&mut`). [`DcamService`]
//! supplies that missing layer:
//!
//! * callers hold a cheap, cloneable [`ServiceHandle`] and submit
//!   `(series, class?, options)` requests; each submission returns an
//!   [`ExplanationFuture`] that resolves to `Result<DcamResult,
//!   ServiceError>` (plain classification requests go through
//!   [`ServiceHandle::submit_classify`] and a [`ClassifyFuture`]);
//! * requests travel through a **bounded queue** whose full-queue
//!   behaviour is configurable ([`Backpressure`]: block, reject, or block
//!   with a timeout) and whose dequeue order is a pluggable
//!   [`QueuePolicy`] (strict FIFO, or round-robin-per-tenant fairness so
//!   one flooding tenant cannot starve the rest);
//! * dropping a future — or calling [`ResponseFuture::cancel`] — marks the
//!   request **cancelled**: workers skip the cube build for abandoned
//!   requests, both when popping them off the queue and when pruning a
//!   buffered batch right before a flush;
//! * one or more **worker threads** own a [`GapClassifier`] replica each
//!   (replicate a trained model with [`replicate_model`]) and drive a
//!   [`DcamBatcher`]: a flush fires when [`DcamBatcherConfig::max_pending`]
//!   requests are buffered or as soon as the queue runs dry — dispatch is
//!   work-conserving, and requests arriving during a flush form the next
//!   batch. An opt-in [`DcamBatcherConfig::max_wait`] instead holds a
//!   partial batch until its oldest request has waited that long;
//! * with [`DcamService::spawn_with_recovery`], a worker whose engine
//!   panics **re-spawns**: the batch in flight fails with
//!   [`ServiceError::WorkerLost`], then the worker rebuilds its model from
//!   a parameter checkpoint captured at spawn time, re-validates it with a
//!   probe-forward round-trip, and rejoins the rotation;
//! * [`DcamService::shutdown`] closes the queue, drains every request
//!   already submitted, joins the workers and returns the models;
//! * [`DcamService::stats`] (also [`ServiceHandle::stats`]) exposes queue
//!   depth, a batch-size histogram and latency percentiles for the bench
//!   harness and the HTTP `/stats` endpoint.
//!
//! # Example
//!
//! ```
//! use dcam::arch::{cnn, InputEncoding, ModelScale};
//! use dcam::service::{DcamService, ServiceConfig};
//! use dcam::DcamConfig;
//! use dcam_series::MultivariateSeries;
//! use dcam_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let model = cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut rng);
//! let mut cfg = ServiceConfig::default();
//! cfg.batcher.many.dcam = DcamConfig { k: 4, only_correct: false, ..Default::default() };
//!
//! let service = DcamService::spawn(vec![model], cfg);
//! let handle = service.handle();
//! let series = MultivariateSeries::from_rows(&[vec![0.5; 12], vec![-0.5; 12], vec![0.1; 12]]);
//! let future = handle.submit(&series, 1).unwrap();
//! let result = future.wait().unwrap();
//! assert_eq!(result.dcam.dims(), &[3, 12]);
//! let (_models, stats) = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

use crate::arch::{GapClassifier, InputEncoding};
use crate::dcam::DcamResult;
use crate::dcam_many::{DcamBatcher, DcamBatcherConfig, Ticket};
use dcam_nn::checkpoint::{self, Checkpoint};
use dcam_nn::Precision;
use dcam_series::MultivariateSeries;
use dcam_tensor::{argmax, SeededRng};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What [`ServiceHandle::submit`] does when the request queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitting thread until a slot frees up (or the service
    /// shuts down). Never loses requests; propagates load to producers.
    Block,
    /// Fail fast with [`ServiceError::QueueFull`]. The caller decides
    /// whether to retry, degrade, or drop.
    Reject,
    /// Block up to the given duration, then fail with
    /// [`ServiceError::SubmitTimeout`].
    Timeout(Duration),
}

/// Dequeue order of the shared request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Strict arrival order. One flooding caller occupies the whole queue
    /// and every later caller waits behind the flood.
    #[default]
    Fifo,
    /// Round-robin across tenants ([`RequestOptions::tenant`]): workers
    /// take one request per tenant in rotation, so a tenant submitting a
    /// burst of `B` requests delays a competing tenant's next request by
    /// at most one request per rotation turn, not by `B`. Requests with no
    /// tenant share one anonymous lane (which participates in the rotation
    /// as a single tenant). Arrival order is preserved *within* each
    /// tenant.
    FairPerTenant,
}

/// Per-request options of a [`ServiceHandle`] submission.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// The class whose activation map is extracted. `None` explains the
    /// model's *predicted* class for the instance (the worker runs one
    /// extra single-sample forward to determine it).
    pub class: Option<usize>,
    /// With `only_correct` dCAM semantics, a request whose `k` permutations
    /// are *all* misclassified normally falls back to averaging every
    /// permutation (`ng == 0` flags the low quality). Set this to turn
    /// that fallback into a per-request [`ServiceError::OnlyCorrectMiss`]
    /// instead.
    pub strict_only_correct: bool,
    /// Fairness key under [`QueuePolicy::FairPerTenant`]: requests sharing
    /// a key share one queue lane. Transports with string tenant ids hash
    /// them into this key (see `dcam-server`). Ignored under
    /// [`QueuePolicy::Fifo`].
    pub tenant: Option<u64>,
    /// Fault injection for tests and operational drills: the worker that
    /// picks this request up panics at flush time, exactly as an engine
    /// bug would. With [`DcamService::spawn_with_recovery`] the worker
    /// then re-spawns; without it the batch fails and the worker keeps
    /// serving. Transports must gate this behind an explicit opt-in.
    pub inject_panic: bool,
}

/// Everything that can go wrong with one explanation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The submitted series' dimension count does not match the model's.
    ShapeMismatch {
        /// Dimension count the service's models were built for.
        expected_dims: usize,
        /// Dimension count of the submitted series.
        got_dims: usize,
    },
    /// The submitted series has zero length — there is nothing to explain
    /// (and the forward path cannot run on an empty cube).
    EmptySeries,
    /// The requested class index is outside the model's class range.
    InvalidClass {
        /// The class requested.
        class: usize,
        /// Number of classes the model discriminates.
        n_classes: usize,
    },
    /// [`Backpressure::Reject`]: the queue was at capacity.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// [`Backpressure::Timeout`]: no queue slot freed up in time.
    SubmitTimeout {
        /// How long the submitter waited.
        waited: Duration,
    },
    /// The service is shutting down (or already shut down); the request
    /// was not accepted.
    ShuttingDown,
    /// [`RequestOptions::strict_only_correct`]: no permutation of this
    /// instance was classified as the target class, so under
    /// `only_correct` semantics there is no trustworthy map to return.
    OnlyCorrectMiss {
        /// Number of permutations evaluated.
        k: usize,
    },
    /// The request was cancelled (its future was dropped or
    /// [`ResponseFuture::cancel`] was called) before a worker served it.
    Cancelled,
    /// The worker serving this request died (panicked) before producing a
    /// result.
    WorkerLost,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ShapeMismatch {
                expected_dims,
                got_dims,
            } => write!(
                f,
                "series has {got_dims} dimensions, the service's models expect {expected_dims}"
            ),
            ServiceError::EmptySeries => write!(f, "series has zero length"),
            ServiceError::InvalidClass { class, n_classes } => {
                write!(f, "class {class} out of range (model has {n_classes})")
            }
            ServiceError::QueueFull { capacity } => {
                write!(f, "request queue at capacity ({capacity})")
            }
            ServiceError::SubmitTimeout { waited } => {
                write!(f, "no queue slot freed up within {waited:?}")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::OnlyCorrectMiss { k } => write!(
                f,
                "none of the {k} permutations was classified as the target class \
                 (strict only_correct)"
            ),
            ServiceError::Cancelled => write!(f, "request cancelled before it was served"),
            ServiceError::WorkerLost => write!(f, "worker thread died before answering"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Result of a [`ServiceHandle::submit_classify`] request.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Argmax class (lowest index wins ties).
    pub class: usize,
    /// Raw logits, one per class.
    pub logits: Vec<f32>,
}

/// The caller's side of one in-flight request: a one-shot channel plus a
/// cancellation flag shared with the serving worker.
///
/// [`wait`](ResponseFuture::wait) blocks until the worker answers,
/// [`try_get`](ResponseFuture::try_get) polls. **Dropping the future
/// cancels the request**: a worker that has not started the engine work yet
/// skips it entirely (tallied in [`ServiceStats::cancelled`]); work already
/// in flight completes and its answer is discarded. Call
/// [`cancel`](ResponseFuture::cancel) to signal abandonment while keeping
/// the future around.
pub struct ResponseFuture<T> {
    rx: mpsc::Receiver<Result<T, ServiceError>>,
    cancel: Arc<AtomicBool>,
}

/// Future of an explanation request ([`ServiceHandle::submit`] /
/// [`ServiceHandle::submit_with`]).
pub type ExplanationFuture = ResponseFuture<DcamResult>;

/// Future of a classification request ([`ServiceHandle::submit_classify`]).
pub type ClassifyFuture = ResponseFuture<Classification>;

/// Future of a batched classification request
/// ([`ServiceHandle::submit_classify_many`]).
pub type ClassifyManyFuture = ResponseFuture<Vec<Classification>>;

impl<T> ResponseFuture<T> {
    /// Blocks until the request is served (or its worker dies).
    pub fn wait(self) -> Result<T, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerLost))
    }

    /// Blocks up to `timeout`. `None` means the request is still in
    /// flight; the future remains usable.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::WorkerLost)),
        }
    }

    /// Non-blocking poll. `None` means the request is still in flight.
    pub fn try_get(&self) -> Option<Result<T, ServiceError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceError::WorkerLost)),
        }
    }

    /// Marks the request abandoned without consuming the future. Workers
    /// that have not started the engine work for it skip it; an answer
    /// already computed (or racing the flag) is still delivered.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }
}

impl<T> Drop for ResponseFuture<T> {
    /// Dropping the future abandons the request (see
    /// [`cancel`](ResponseFuture::cancel)).
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Release);
    }
}

/// Configuration of a [`DcamService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine + flush policy each worker drives: dCAM semantics and
    /// mega-batch capacity (`batcher.many`), the full-batch flush
    /// threshold (`batcher.max_pending`) and the optional partial-batch
    /// flush deadline (`batcher.max_wait`).
    ///
    /// The default (`max_wait: None`) is work-conserving: a worker flushes
    /// its partial batch as soon as the queue runs dry, so a lone request
    /// on an idle service pays no wait at all, and requests that arrive
    /// while the worker is busy queue up and form the next batch.
    /// Setting `max_wait` opts into holding a partial batch for more
    /// traffic until its oldest request has waited that long — a lone
    /// request then resolves after ~`max_wait` plus its engine time.
    pub batcher: DcamBatcherConfig,
    /// Bound of the shared request queue (requests accepted but not yet
    /// picked up by a worker). Must be at least 1.
    pub queue_capacity: usize,
    /// What `submit` does when the queue is full.
    pub backpressure: Backpressure,
    /// Dequeue order (strict FIFO, or per-tenant round-robin fairness).
    pub queue_policy: QueuePolicy,
    /// How many of the most recent request latencies the stats keep for
    /// the percentile estimates (a ring buffer; memory stays bounded no
    /// matter how long the service runs).
    pub latency_window: usize,
    /// Inference precision the worker models serve at. With
    /// [`Precision::Int8`], spawn calibrates any model that does not
    /// already carry activation scales (deterministic synthetic batch, so
    /// independently calibrated replicas agree) and switches every replica
    /// to the quantized path. The `DCAM_PRECISION` environment variable
    /// (`f32` / `int8`, read once per process) overrides this field.
    pub precision: Precision,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batcher: DcamBatcherConfig::default(),
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            queue_policy: QueuePolicy::Fifo,
            latency_window: 4096,
            precision: Precision::F32,
        }
    }
}

/// Why a worker flushed its batcher (tallied in [`ServiceStats`]).
#[derive(Debug, Clone, Copy)]
enum FlushReason {
    /// `max_pending` requests were buffered.
    Full,
    /// The oldest buffered request hit the `max_wait` deadline.
    Deadline,
    /// The request queue ran dry with requests buffered.
    QueueDrained,
    /// The service is shutting down; leftovers were drained.
    Shutdown,
}

/// A point-in-time snapshot of the service's counters, exposed for the
/// bench harness, the HTTP `/stats` endpoint, and operational monitoring.
/// `Default` is the all-zero snapshot of a service that has served
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue (explanations and classifications).
    pub submitted: u64,
    /// Explanation requests answered with `Ok`.
    pub completed: u64,
    /// Classification requests answered with `Ok`.
    pub classified: u64,
    /// Requests answered with a per-request error.
    pub failed: u64,
    /// Submissions refused at the queue (full / timeout / shutting down).
    pub rejected: u64,
    /// Requests skipped because their caller cancelled (dropped the
    /// future / closed the connection) before the engine work started.
    pub cancelled: u64,
    /// Workers rebuilt after an engine panic (checkpoint restore + probe
    /// re-validation; only under [`DcamService::spawn_with_recovery`]).
    pub worker_respawns: u64,
    /// Requests sitting in the queue right now.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Flushes triggered by a full batch (`max_pending`).
    pub flushes_full: u64,
    /// Flushes triggered by the `max_wait` deadline.
    pub flushes_deadline: u64,
    /// Flushes triggered by the queue running dry.
    pub flushes_drained: u64,
    /// Flushes triggered by shutdown draining.
    pub flushes_shutdown: u64,
    /// `hist[i]` counts flushes whose batch held `i + 1` requests; the
    /// last bucket also absorbs anything larger.
    pub batch_size_hist: Vec<u64>,
    /// Mean requests per flush.
    pub mean_batch: f64,
    /// Median submit→answer latency over the recent window.
    pub p50_latency: Duration,
    /// 99th-percentile submit→answer latency over the recent window.
    pub p99_latency: Duration,
    /// Mean submit→answer latency over *all* requests.
    pub mean_latency: Duration,
}

impl ServiceStats {
    /// Folds another snapshot into this one — the aggregate view a
    /// multi-model front end (the `dcam-server` registry) reports as its
    /// service total, also used to combine a model's successive
    /// generations across hot swaps. Counters, current queue depth and
    /// the batch-size histogram add exactly; `max_queue_depth` takes the
    /// worst of the two (two pools — or two generations of one pool —
    /// never queue the same request twice, and a sum would report a
    /// depth that never occurred); the latency summary is approximate
    /// (the underlying ring buffers are gone): percentiles take the
    /// worst of the two, the mean is weighted by each side's
    /// answered-request count.
    pub fn absorb(&mut self, other: &ServiceStats) {
        let self_n = self.completed + self.classified + self.failed;
        let other_n = other.completed + other.classified + other.failed;
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.classified += other.classified;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.cancelled += other.cancelled;
        self.worker_respawns += other.worker_respawns;
        self.queue_depth += other.queue_depth;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.flushes_full += other.flushes_full;
        self.flushes_deadline += other.flushes_deadline;
        self.flushes_drained += other.flushes_drained;
        self.flushes_shutdown += other.flushes_shutdown;
        if self.batch_size_hist.len() < other.batch_size_hist.len() {
            self.batch_size_hist.resize(other.batch_size_hist.len(), 0);
        }
        for (acc, &c) in self.batch_size_hist.iter_mut().zip(&other.batch_size_hist) {
            *acc += c;
        }
        let flushes: u64 = self.batch_size_hist.iter().sum();
        let served: u64 = self
            .batch_size_hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        self.mean_batch = if flushes == 0 {
            0.0
        } else {
            served as f64 / flushes as f64
        };
        self.p50_latency = self.p50_latency.max(other.p50_latency);
        self.p99_latency = self.p99_latency.max(other.p99_latency);
        if self_n + other_n > 0 {
            let weighted = self.mean_latency.as_secs_f64() * self_n as f64
                + other.mean_latency.as_secs_f64() * other_n as f64;
            self.mean_latency = Duration::from_secs_f64(weighted / (self_n + other_n) as f64);
        }
    }
}

/// Mutable half of the stats, behind the shared mutex.
struct StatsInner {
    submitted: u64,
    completed: u64,
    classified: u64,
    failed: u64,
    rejected: u64,
    cancelled: u64,
    worker_respawns: u64,
    max_queue_depth: usize,
    flushes_full: u64,
    flushes_deadline: u64,
    flushes_drained: u64,
    flushes_shutdown: u64,
    batch_size_hist: Vec<u64>,
    /// Ring buffer of recent latencies (µs).
    latencies_us: Vec<u64>,
    latency_next: usize,
    latency_count: u64,
    latency_sum_us: u64,
}

impl StatsInner {
    fn new(latency_window: usize, hist_buckets: usize) -> Self {
        StatsInner {
            submitted: 0,
            completed: 0,
            classified: 0,
            failed: 0,
            rejected: 0,
            cancelled: 0,
            worker_respawns: 0,
            max_queue_depth: 0,
            flushes_full: 0,
            flushes_deadline: 0,
            flushes_drained: 0,
            flushes_shutdown: 0,
            batch_size_hist: vec![0; hist_buckets.max(1)],
            latencies_us: Vec::with_capacity(latency_window.max(1)),
            latency_next: 0,
            latency_count: 0,
            latency_sum_us: 0,
        }
    }

    fn record_latency(&mut self, latency: Duration, window: usize) {
        let us = latency.as_micros() as u64;
        self.latency_count += 1;
        self.latency_sum_us += us;
        if self.latencies_us.len() < window.max(1) {
            self.latencies_us.push(us);
        } else {
            self.latencies_us[self.latency_next] = us;
            self.latency_next = (self.latency_next + 1) % self.latencies_us.len();
        }
    }

    fn record_flush(&mut self, batch: usize, reason: FlushReason) {
        let bucket = batch.saturating_sub(1).min(self.batch_size_hist.len() - 1);
        self.batch_size_hist[bucket] += 1;
        match reason {
            FlushReason::Full => self.flushes_full += 1,
            FlushReason::Deadline => self.flushes_deadline += 1,
            FlushReason::QueueDrained => self.flushes_drained += 1,
            FlushReason::Shutdown => self.flushes_shutdown += 1,
        }
    }

    fn snapshot(&self, queue_depth: usize) -> ServiceStats {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let percentile = |p: f64| -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            Duration::from_micros(sorted[idx])
        };
        let flushes: u64 = self.batch_size_hist.iter().sum();
        let served: u64 = self
            .batch_size_hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        ServiceStats {
            submitted: self.submitted,
            completed: self.completed,
            classified: self.classified,
            failed: self.failed,
            rejected: self.rejected,
            cancelled: self.cancelled,
            worker_respawns: self.worker_respawns,
            queue_depth,
            max_queue_depth: self.max_queue_depth,
            flushes_full: self.flushes_full,
            flushes_deadline: self.flushes_deadline,
            flushes_drained: self.flushes_drained,
            flushes_shutdown: self.flushes_shutdown,
            batch_size_hist: self.batch_size_hist.clone(),
            mean_batch: if flushes == 0 {
                0.0
            } else {
                served as f64 / flushes as f64
            },
            p50_latency: percentile(0.50),
            p99_latency: percentile(0.99),
            mean_latency: self
                .latency_sum_us
                .checked_div(self.latency_count)
                .map_or(Duration::ZERO, Duration::from_micros),
        }
    }
}

/// What a queued request wants from the worker, with its answer channel.
enum RequestKind {
    /// A dCAM explanation; batched through the [`DcamBatcher`].
    Explain {
        opts: RequestOptions,
        tx: mpsc::Sender<Result<DcamResult, ServiceError>>,
    },
    /// A plain classification; served immediately with one forward.
    Classify {
        tx: mpsc::Sender<Result<Classification, ServiceError>>,
    },
    /// A batched re-classification (the eval harness's masking sweeps);
    /// served in one `classify_many` pass through the mega-batch engine.
    /// The first series rides in [`QueuedRequest::series`]; `rest` holds
    /// the remainder, so the whole batch occupies one queue slot.
    ClassifyMany {
        rest: Vec<MultivariateSeries>,
        tx: mpsc::Sender<Result<Vec<Classification>, ServiceError>>,
    },
}

/// One request as it sits in the shared queue.
struct QueuedRequest {
    series: MultivariateSeries,
    kind: RequestKind,
    /// Set by the caller's future on drop/cancel; checked by workers
    /// before any engine work happens for this request.
    cancel: Arc<AtomicBool>,
    tenant: Option<u64>,
    enqueued_at: Instant,
}

impl QueuedRequest {
    /// Answers the request with an error, whatever its kind.
    fn fail(self, err: ServiceError) {
        match self.kind {
            RequestKind::Explain { tx, .. } => drop(tx.send(Err(err))),
            RequestKind::Classify { tx } => drop(tx.send(Err(err))),
            RequestKind::ClassifyMany { tx, .. } => drop(tx.send(Err(err))),
        }
    }
}

/// Lane key of requests submitted without a tenant.
const ANON_TENANT: u64 = u64::MAX;

/// The shared request queue with its pluggable dequeue policy.
///
/// Both policies run on the same structure — a list of per-key lanes —
/// so the push/pop paths stay branch-light: FIFO keeps everything in one
/// lane, fairness keeps one lane per tenant and rotates a cursor over
/// them. Lanes are removed as soon as they drain, so memory tracks the
/// *live* tenant set, not every tenant ever seen.
struct RequestQueue {
    policy: QueuePolicy,
    lanes: Vec<(u64, VecDeque<QueuedRequest>)>,
    /// Round-robin cursor into `lanes` (fair mode; pinned to 0 for FIFO).
    rr: usize,
    len: usize,
}

impl RequestQueue {
    fn new(policy: QueuePolicy) -> Self {
        RequestQueue {
            policy,
            lanes: Vec::new(),
            rr: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, req: QueuedRequest) {
        let key = match self.policy {
            QueuePolicy::Fifo => ANON_TENANT,
            QueuePolicy::FairPerTenant => req.tenant.unwrap_or(ANON_TENANT),
        };
        match self.lanes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, lane)) => lane.push_back(req),
            None => self.lanes.push((key, VecDeque::from([req]))),
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<QueuedRequest> {
        if self.lanes.is_empty() {
            return None;
        }
        if self.rr >= self.lanes.len() {
            self.rr = 0;
        }
        let lane = &mut self.lanes[self.rr].1;
        let req = lane.pop_front().expect("queue lanes are never empty");
        self.len -= 1;
        if lane.is_empty() {
            // Removing the drained lane leaves `rr` pointing at the next
            // lane in rotation.
            self.lanes.remove(self.rr);
        } else {
            self.rr += 1;
        }
        Some(req)
    }
}

/// Queue state behind the mutex.
struct QueueState {
    queue: RequestQueue,
    /// Set once by shutdown: no further submissions are accepted and
    /// workers exit after draining.
    closed: bool,
}

/// State shared between handles and workers.
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when a request is enqueued or the queue closes.
    not_empty: Condvar,
    /// Signalled when a request is dequeued or the queue closes.
    not_full: Condvar,
    stats: Mutex<StatsInner>,
    capacity: usize,
    latency_window: usize,
    expected_dims: usize,
    n_classes: usize,
    /// Effective inference precision (config field with the
    /// `DCAM_PRECISION` override applied) every worker model serves at.
    precision: Precision,
}

/// A poisoned mutex only means another thread panicked mid-update; the
/// queue holds plain data, so keep serving instead of cascading panics.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything a worker needs to rebuild itself after an engine panic: a
/// constructor for the architecture, the trained parameters, and a probe
/// input/output pair to verify the checkpoint round-trip before the
/// rebuilt model rejoins the rotation.
struct RecoverySpec {
    build: Box<dyn Fn() -> GapClassifier + Send + Sync>,
    checkpoint: Checkpoint,
    tag: String,
    probe: MultivariateSeries,
    probe_logits: Vec<f32>,
    /// Effective serving precision, re-applied to a rebuilt model *after*
    /// the probe validation (which always runs f32, matching the
    /// spawn-time probe capture).
    precision: Precision,
}

/// Probe geometry/seed for the checkpoint round-trip validation. The
/// length is arbitrary (any valid input exercises every layer); the seed
/// only needs to be fixed so spawn-time and respawn-time probes agree.
const PROBE_LEN: usize = 16;
const PROBE_SEED: u64 = 0xdca4;

/// Synthetic-calibration geometry/seed for int8 serving without a caller
/// supplied calibration set. Fixed so every replica — including workers
/// rebuilt after a panic — latches identical activation scales.
const CALIB_LEN: usize = 64;
const CALIB_SEED: u64 = 0xdcac;

/// The `DCAM_PRECISION` override (`f32` / `int8`), read once per process.
/// Panics on an unknown value — a typo must not silently serve the wrong
/// precision.
fn precision_pin() -> Option<Precision> {
    use std::sync::OnceLock;
    static PIN: OnceLock<Option<Precision>> = OnceLock::new();
    *PIN.get_or_init(|| match std::env::var("DCAM_PRECISION") {
        Ok(v) => Some(
            Precision::parse(&v)
                .unwrap_or_else(|| panic!("DCAM_PRECISION={v:?} is not \"f32\" or \"int8\"")),
        ),
        Err(_) => None,
    })
}

/// The precision a service configured with `cfg_precision` actually
/// serves at (the environment pin outranks the config).
fn effective_precision(cfg_precision: Precision) -> Precision {
    precision_pin().unwrap_or(cfg_precision)
}

/// Puts `model` into serving shape for `precision`: int8 models without
/// calibrated scales get the deterministic synthetic calibration pass,
/// then the precision is selected on every quantization-capable layer.
fn apply_precision(model: &mut GapClassifier, precision: Precision) {
    if precision == Precision::Int8 && !model.is_calibrated() {
        model.calibrate_int8_synthetic(CALIB_LEN, CALIB_SEED);
    }
    model.set_precision(precision);
}

fn probe_series(d: usize) -> MultivariateSeries {
    let mut rng = SeededRng::new(PROBE_SEED);
    let rows: Vec<Vec<f32>> = (0..d)
        .map(|_| (0..PROBE_LEN).map(|_| rng.normal()).collect())
        .collect();
    MultivariateSeries::from_rows(&rows)
}

impl RecoverySpec {
    /// Builds a fresh model, restores the trained checkpoint into it and
    /// verifies the probe forward reproduces the recorded logits. `None`
    /// when any step fails — the worker must then not rejoin.
    fn rebuild(&self) -> Option<GapClassifier> {
        let mut fresh = catch_unwind(AssertUnwindSafe(|| (self.build)())).ok()?;
        checkpoint::restore(&mut fresh, &self.checkpoint, &self.tag).ok()?;
        let logits = catch_unwind(AssertUnwindSafe(|| {
            fresh.logits_for(&self.probe).data().to_vec()
        }))
        .ok()?;
        let close = logits.len() == self.probe_logits.len()
            && logits
                .iter()
                .zip(&self.probe_logits)
                .all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0));
        if !close {
            return None;
        }
        // Precision is selected only after the f32 probe validated the
        // round-trip (the probe pair was captured before any quantization,
        // so comparing it under int8 would reject healthy rebuilds).
        catch_unwind(AssertUnwindSafe(move || {
            apply_precision(&mut fresh, self.precision);
            fresh
        }))
        .ok()
    }
}

/// Cheap, cloneable submission handle to a running [`DcamService`].
///
/// Handles stay valid after the service shuts down — submissions then fail
/// with [`ServiceError::ShuttingDown`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
    backpressure: Backpressure,
}

impl ServiceHandle {
    /// Submits one explanation request for an explicit target class.
    pub fn submit(
        &self,
        series: &MultivariateSeries,
        class: usize,
    ) -> Result<ExplanationFuture, ServiceError> {
        self.submit_with(
            series,
            RequestOptions {
                class: Some(class),
                ..Default::default()
            },
        )
    }

    /// Submits one explanation request with full per-request options.
    ///
    /// Validation (shape, non-empty series, class range) happens here, so
    /// malformed requests fail immediately instead of poisoning a worker's
    /// batch. The queue's [`Backpressure`] policy decides what happens
    /// when the queue is full.
    pub fn submit_with(
        &self,
        series: &MultivariateSeries,
        opts: RequestOptions,
    ) -> Result<ExplanationFuture, ServiceError> {
        self.validate(series)?;
        if let Some(class) = opts.class {
            if class >= self.shared.n_classes {
                return Err(ServiceError::InvalidClass {
                    class,
                    n_classes: self.shared.n_classes,
                });
            }
        }
        let tenant = opts.tenant;
        self.enqueue(series, tenant, |tx| RequestKind::Explain { opts, tx })
    }

    /// Submits one plain classification request: the worker answers with
    /// the model's logits and argmax class from a single forward, without
    /// going through the dCAM batcher. Shares the queue (and its
    /// backpressure, fairness and cancellation semantics) with the
    /// explanation traffic.
    pub fn submit_classify(
        &self,
        series: &MultivariateSeries,
    ) -> Result<ClassifyFuture, ServiceError> {
        self.submit_classify_with(series, None)
    }

    /// [`submit_classify`](ServiceHandle::submit_classify) with a fairness
    /// tenant key.
    pub fn submit_classify_with(
        &self,
        series: &MultivariateSeries,
        tenant: Option<u64>,
    ) -> Result<ClassifyFuture, ServiceError> {
        self.validate(series)?;
        self.enqueue(series, tenant, |tx| RequestKind::Classify { tx })
    }

    /// Submits a whole batch for re-classification in one request.
    ///
    /// The batch occupies a single queue slot and is served by one worker
    /// in one `classify_many` pass through the mega-batch engine, so a
    /// masking sweep of the eval harness costs one queue round-trip per
    /// masking level instead of one per instance. Every series is
    /// validated up front; results come back in submission order.
    pub fn submit_classify_many(
        &self,
        batch: &[MultivariateSeries],
        tenant: Option<u64>,
    ) -> Result<ClassifyManyFuture, ServiceError> {
        let (first, rest) = batch.split_first().ok_or(ServiceError::EmptySeries)?;
        for series in batch {
            self.validate(series)?;
        }
        let rest = rest.to_vec();
        self.enqueue(first, tenant, move |tx| RequestKind::ClassifyMany {
            rest,
            tx,
        })
    }

    fn validate(&self, series: &MultivariateSeries) -> Result<(), ServiceError> {
        if series.n_dims() != self.shared.expected_dims {
            return Err(ServiceError::ShapeMismatch {
                expected_dims: self.shared.expected_dims,
                got_dims: series.n_dims(),
            });
        }
        if series.is_empty() {
            return Err(ServiceError::EmptySeries);
        }
        Ok(())
    }

    /// Waits for a queue slot per the backpressure policy, then enqueues
    /// the request built by `kind` and returns its future.
    fn enqueue<T>(
        &self,
        series: &MultivariateSeries,
        tenant: Option<u64>,
        kind: impl FnOnce(mpsc::Sender<Result<T, ServiceError>>) -> RequestKind,
    ) -> Result<ResponseFuture<T>, ServiceError> {
        let mut state = lock_ignore_poison(&self.shared.state);
        let deadline = match self.backpressure {
            Backpressure::Timeout(t) => Some(Instant::now() + t),
            _ => None,
        };
        loop {
            if state.closed {
                self.count_rejected();
                return Err(ServiceError::ShuttingDown);
            }
            if state.queue.len() < self.shared.capacity {
                break;
            }
            match self.backpressure {
                Backpressure::Reject => {
                    self.count_rejected();
                    return Err(ServiceError::QueueFull {
                        capacity: self.shared.capacity,
                    });
                }
                Backpressure::Block => {
                    state = self
                        .shared
                        .not_full
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                Backpressure::Timeout(total) => {
                    let now = Instant::now();
                    let deadline = deadline.expect("deadline set for Timeout policy");
                    if now >= deadline {
                        self.count_rejected();
                        return Err(ServiceError::SubmitTimeout { waited: total });
                    }
                    state = self
                        .shared
                        .not_full
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0;
                }
            }
        }
        // Clone the series and allocate the result channel only once the
        // queue has admitted the request — rejections under overload stay
        // allocation-free.
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        state.queue.push(QueuedRequest {
            series: series.clone(),
            kind: kind(tx),
            cancel: Arc::clone(&cancel),
            tenant,
            enqueued_at: Instant::now(),
        });
        let depth = state.queue.len();
        drop(state);
        self.shared.not_empty.notify_one();

        let mut stats = lock_ignore_poison(&self.shared.stats);
        stats.submitted += 1;
        stats.max_queue_depth = stats.max_queue_depth.max(depth);
        drop(stats);

        Ok(ResponseFuture { rx, cancel })
    }

    /// The backpressure policy this handle submits under.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// Returns a handle submitting under a different backpressure policy.
    /// Per-handle only — the shared queue and every other handle are
    /// unaffected. Transports use this to bound `Block` submissions by
    /// their own request deadline, so a full queue cannot park a
    /// connection worker forever.
    pub fn with_backpressure(mut self, backpressure: Backpressure) -> Self {
        self.backpressure = backpressure;
        self
    }

    /// Number of requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        lock_ignore_poison(&self.shared.state).queue.len()
    }

    /// Snapshot of the service counters (same data as
    /// [`DcamService::stats`], reachable from transport code that only
    /// holds a handle).
    pub fn stats(&self) -> ServiceStats {
        let depth = lock_ignore_poison(&self.shared.state).queue.len();
        lock_ignore_poison(&self.shared.stats).snapshot(depth)
    }

    fn count_rejected(&self) {
        lock_ignore_poison(&self.shared.stats).rejected += 1;
    }
}

/// The running explanation service: a request queue plus worker threads
/// that own model replicas and drive [`DcamBatcher`] flushes.
///
/// See the [module docs](self) for the architecture and an example.
pub struct DcamService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<GapClassifier>>,
    backpressure: Backpressure,
}

impl DcamService {
    /// Starts the service with one worker thread per model in `models`.
    ///
    /// Every model must be a d-architecture ([`InputEncoding::Dcnn`]) with
    /// recorded input dimensions ([`GapClassifier::input_dims`] — the
    /// architecture constructors record them) and all models must agree on
    /// `(D, n_classes)`. To serve one trained model from several workers,
    /// replicate it first with [`replicate_model`].
    ///
    /// A worker whose engine panics fails the batch in flight
    /// ([`ServiceError::WorkerLost`]) and keeps serving with the same
    /// model; use [`DcamService::spawn_with_recovery`] to have it rebuild
    /// and re-validate the model instead.
    ///
    /// # Panics
    ///
    /// On an empty model list, a non-dCNN model, models disagreeing on
    /// geometry, `queue_capacity == 0`, or `batcher.max_pending == 0`
    /// (validated here, on the caller's thread, so a bad config cannot
    /// silently kill the workers at startup).
    pub fn spawn(models: Vec<GapClassifier>, cfg: ServiceConfig) -> Self {
        Self::spawn_inner(models, cfg, None)
    }

    /// [`DcamService::spawn`] plus worker re-spawn after an engine panic.
    ///
    /// At spawn time the first model's trained parameters are captured in
    /// an in-memory [`Checkpoint`] together with a probe input/output
    /// pair. When a worker's engine panics, the batch in flight fails with
    /// [`ServiceError::WorkerLost`] and the worker then **re-spawns**
    /// instead of continuing with a possibly-poisoned model: it constructs
    /// a fresh architecture with `build`, restores the checkpoint, and
    /// re-validates the round-trip by comparing the probe forward against
    /// the spawn-time logits. Only a model that passes rejoins the
    /// rotation (tallied in [`ServiceStats::worker_respawns`]); a worker
    /// whose rebuild fails exits instead of serving wrong answers.
    ///
    /// # Panics
    ///
    /// Everything [`DcamService::spawn`] panics on, plus a `build` closure
    /// that does not reconstruct the trained architecture (the checkpoint
    /// round-trip is validated once up front, on the caller's thread).
    pub fn spawn_with_recovery(
        mut models: Vec<GapClassifier>,
        cfg: ServiceConfig,
        build: impl Fn() -> GapClassifier + Send + Sync + 'static,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one worker model");
        let m0 = &mut models[0];
        let tag = m0.name().to_string();
        let snapshot = checkpoint::save(m0, tag.clone());
        let d = m0.input_dims().expect(
            "model must record its input dims (use the arch constructors or with_input_dims)",
        );
        let probe = probe_series(d);
        // Probe in f32 regardless of the serving precision: the rebuild
        // validation compares against these logits before re-quantizing.
        let saved_precision = m0.precision();
        m0.set_precision(Precision::F32);
        let probe_logits = m0.logits_for(&probe).data().to_vec();
        m0.set_precision(saved_precision);
        let spec = Arc::new(RecoverySpec {
            build: Box::new(build),
            checkpoint: snapshot,
            tag,
            probe,
            probe_logits,
            precision: effective_precision(cfg.precision),
        });
        assert!(
            spec.rebuild().is_some(),
            "recovery build closure must reconstruct the trained architecture \
             (checkpoint round-trip validation failed)"
        );
        Self::spawn_inner(models, cfg, Some(spec))
    }

    fn spawn_inner(
        mut models: Vec<GapClassifier>,
        cfg: ServiceConfig,
        recovery: Option<Arc<RecoverySpec>>,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one worker model");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be at least 1");
        assert!(
            cfg.batcher.max_pending >= 1,
            "batcher.max_pending must be at least 1"
        );
        let expected_dims = models[0].input_dims().expect(
            "model must record its input dims (use the arch constructors or with_input_dims)",
        );
        let n_classes = models[0].n_classes();
        for (i, m) in models.iter().enumerate() {
            assert_eq!(
                m.encoding(),
                InputEncoding::Dcnn,
                "worker model {i}: dCAM requires a d-architecture"
            );
            assert_eq!(
                (m.input_dims(), m.n_classes()),
                (Some(expected_dims), n_classes),
                "worker model {i}: all replicas must share (D, n_classes)"
            );
        }
        let precision = effective_precision(cfg.precision);
        for m in models.iter_mut() {
            apply_precision(m, precision);
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: RequestQueue::new(cfg.queue_policy),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            stats: Mutex::new(StatsInner::new(
                cfg.latency_window,
                cfg.batcher.max_pending.max(1),
            )),
            capacity: cfg.queue_capacity,
            latency_window: cfg.latency_window,
            expected_dims,
            n_classes,
            precision,
        });

        let workers = models
            .drain(..)
            .enumerate()
            .map(|(i, model)| {
                let shared = Arc::clone(&shared);
                let batcher_cfg = cfg.batcher.clone();
                let recovery = recovery.clone();
                std::thread::Builder::new()
                    .name(format!("dcam-service-{i}"))
                    .spawn(move || worker_loop(model, shared, batcher_cfg, recovery))
                    .expect("spawn service worker")
            })
            .collect();

        DcamService {
            shared,
            workers,
            backpressure: cfg.backpressure,
        }
    }

    /// A new submission handle (cheap: one `Arc` clone).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
            backpressure: self.backpressure,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        lock_ignore_poison(&self.shared.state).queue.len()
    }

    /// Series dimension count `D` every request must match.
    pub fn expected_dims(&self) -> usize {
        self.shared.expected_dims
    }

    /// Number of classes the served models discriminate.
    pub fn n_classes(&self) -> usize {
        self.shared.n_classes
    }

    /// The inference precision the worker models serve at
    /// ([`ServiceConfig::precision`] with the `DCAM_PRECISION` override
    /// applied).
    pub fn precision(&self) -> Precision {
        self.shared.precision
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let depth = lock_ignore_poison(&self.shared.state).queue.len();
        lock_ignore_poison(&self.shared.stats).snapshot(depth)
    }

    /// Graceful shutdown: stop accepting submissions, serve everything
    /// already queued or buffered, join the workers, and hand back the
    /// models plus the final stats. Futures of drained requests resolve
    /// normally. (A worker that exited after a failed re-spawn has no
    /// model to return, so the list can be shorter than the spawn list.)
    pub fn shutdown(mut self) -> (Vec<GapClassifier>, ServiceStats) {
        let models = self.shutdown_impl();
        let stats = self.stats();
        (models, stats)
    }

    fn shutdown_impl(&mut self) -> Vec<GapClassifier> {
        lock_ignore_poison(&self.shared.state).closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        self.workers
            .drain(..)
            .filter_map(|w| w.join().ok())
            .collect()
    }
}

impl Drop for DcamService {
    /// Dropping the service without [`DcamService::shutdown`] still drains
    /// the queue and joins the workers (the models are discarded).
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// What one ticket in a worker's batcher maps back to.
struct Waiter {
    tx: mpsc::Sender<Result<DcamResult, ServiceError>>,
    enqueued_at: Instant,
    strict_only_correct: bool,
    cancel: Arc<AtomicBool>,
}

/// What the worker decided to do after consulting the queue.
enum Step {
    /// A request was dequeued.
    Got(QueuedRequest),
    /// Flush whatever is buffered (deadline hit or queue drained).
    Flush(FlushReason),
    /// Queue closed and empty: drain leftovers and exit.
    Exit,
}

/// Everything one worker thread owns, bundled so an engine panic can swap
/// the whole serving state out in one place.
struct WorkerState {
    model: GapClassifier,
    batcher: DcamBatcher,
    /// Armed by a request with [`RequestOptions::inject_panic`]; makes the
    /// next flush panic inside the guarded engine region.
    pending_fault: bool,
}

fn worker_loop(
    model: GapClassifier,
    shared: Arc<Shared>,
    batcher_cfg: DcamBatcherConfig,
    recovery: Option<Arc<RecoverySpec>>,
) -> GapClassifier {
    let only_correct = batcher_cfg.many.dcam.only_correct;
    let max_pending = batcher_cfg.max_pending.max(1);
    let mut state = WorkerState {
        model,
        batcher: DcamBatcher::new(batcher_cfg.clone()),
        pending_fault: false,
    };
    let mut waiters: HashMap<Ticket, Waiter> = HashMap::new();

    loop {
        let step = {
            let mut qs = lock_ignore_poison(&shared.state);
            loop {
                if let Some(req) = qs.queue.pop() {
                    break Step::Got(req);
                }
                if qs.closed {
                    break Step::Exit;
                }
                if state.batcher.pending() > 0 {
                    // Queue dry with a partial batch: serve it right away,
                    // or — with an opt-in max_wait — wait for more traffic
                    // until the batch's deadline.
                    let Some(deadline) = state.batcher.next_deadline() else {
                        break Step::Flush(FlushReason::QueueDrained);
                    };
                    let now = Instant::now();
                    if now >= deadline {
                        break Step::Flush(FlushReason::Deadline);
                    }
                    let (guard, timeout) = shared
                        .not_empty
                        .wait_timeout(qs, deadline - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    qs = guard;
                    if timeout.timed_out() && qs.queue.len() == 0 {
                        break Step::Flush(FlushReason::Deadline);
                    }
                } else {
                    qs = shared
                        .not_empty
                        .wait(qs)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        };

        match step {
            Step::Got(req) => {
                shared.not_full.notify_one();
                // The caller abandoned the request while it sat in the
                // queue: skip every bit of engine work for it.
                if req.cancel.load(Ordering::Acquire) {
                    lock_ignore_poison(&shared.stats).cancelled += 1;
                    req.fail(ServiceError::Cancelled);
                    continue;
                }
                let QueuedRequest {
                    series,
                    kind,
                    cancel,
                    enqueued_at,
                    ..
                } = req;
                match kind {
                    RequestKind::Classify { tx } => {
                        // One guarded forward, answered immediately (no
                        // batching: a classify is ~k× cheaper than an
                        // explanation and never groups with the cubes).
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            state.model.logits_for(&series).data().to_vec()
                        }));
                        match outcome {
                            Ok(logits) => {
                                let class = argmax(&logits).unwrap_or(0);
                                let mut stats = lock_ignore_poison(&shared.stats);
                                stats.classified += 1;
                                stats.record_latency(
                                    Instant::now() - enqueued_at,
                                    shared.latency_window,
                                );
                                drop(stats);
                                let _ = tx.send(Ok(Classification { class, logits }));
                            }
                            Err(_) => {
                                lock_ignore_poison(&shared.stats).failed += 1;
                                let _ = tx.send(Err(ServiceError::WorkerLost));
                                if !recover_worker(
                                    &mut state,
                                    &mut waiters,
                                    &shared,
                                    &recovery,
                                    &batcher_cfg,
                                ) {
                                    return state.model;
                                }
                            }
                        }
                    }
                    RequestKind::ClassifyMany { rest, tx } => {
                        // Reassemble the batch (first instance rides the
                        // queue slot) and serve it in one guarded
                        // mega-batch pass.
                        let mut all = Vec::with_capacity(1 + rest.len());
                        all.push(series);
                        all.extend(rest);
                        let max_batch = batcher_cfg.many.max_batch.max(1);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            crate::classify::classify_many(&mut state.model, &all, max_batch)
                        }));
                        match outcome {
                            Ok(results) => {
                                let mut stats = lock_ignore_poison(&shared.stats);
                                stats.classified += results.len() as u64;
                                stats.record_latency(
                                    Instant::now() - enqueued_at,
                                    shared.latency_window,
                                );
                                drop(stats);
                                let _ = tx.send(Ok(results));
                            }
                            Err(_) => {
                                lock_ignore_poison(&shared.stats).failed += 1;
                                let _ = tx.send(Err(ServiceError::WorkerLost));
                                if !recover_worker(
                                    &mut state,
                                    &mut waiters,
                                    &shared,
                                    &recovery,
                                    &batcher_cfg,
                                ) {
                                    return state.model;
                                }
                            }
                        }
                    }
                    RequestKind::Explain { opts, tx } => {
                        if opts.inject_panic {
                            state.pending_fault = true;
                        }
                        // `None` class = explain the predicted class:
                        // resolve it with one guarded single-sample
                        // forward before batching.
                        let class = match opts.class {
                            Some(c) => c,
                            None => {
                                let predicted = catch_unwind(AssertUnwindSafe(|| {
                                    argmax(state.model.logits_for(&series).data()).unwrap_or(0)
                                }));
                                match predicted {
                                    Ok(c) => c,
                                    Err(_) => {
                                        lock_ignore_poison(&shared.stats).failed += 1;
                                        let _ = tx.send(Err(ServiceError::WorkerLost));
                                        if !recover_worker(
                                            &mut state,
                                            &mut waiters,
                                            &shared,
                                            &recovery,
                                            &batcher_cfg,
                                        ) {
                                            return state.model;
                                        }
                                        continue;
                                    }
                                }
                            }
                        };
                        let ticket = state.batcher.push(series, class);
                        waiters.insert(
                            ticket,
                            Waiter {
                                tx,
                                enqueued_at,
                                strict_only_correct: opts.strict_only_correct,
                                cancel,
                            },
                        );
                        if state.batcher.pending() >= max_pending
                            && !flush(
                                &mut state,
                                &mut waiters,
                                &shared,
                                only_correct,
                                FlushReason::Full,
                                &recovery,
                                &batcher_cfg,
                            )
                        {
                            return state.model;
                        }
                    }
                }
            }
            Step::Flush(reason) => {
                if !flush(
                    &mut state,
                    &mut waiters,
                    &shared,
                    only_correct,
                    reason,
                    &recovery,
                    &batcher_cfg,
                ) {
                    return state.model;
                }
            }
            Step::Exit => {
                if state.batcher.pending() > 0
                    && !flush(
                        &mut state,
                        &mut waiters,
                        &shared,
                        only_correct,
                        FlushReason::Shutdown,
                        &recovery,
                        &batcher_cfg,
                    )
                {
                    return state.model;
                }
                return state.model;
            }
        }
    }
}

/// Drops buffered requests whose callers cancelled (dropped their future
/// or closed their connection) after the worker buffered them: the flush
/// never assembles cubes for them. Tallied in [`ServiceStats::cancelled`].
fn prune_cancelled(
    state: &mut WorkerState,
    waiters: &mut HashMap<Ticket, Waiter>,
    shared: &Shared,
) {
    if waiters.values().all(|w| !w.cancel.load(Ordering::Acquire)) {
        return;
    }
    let dropped = state.batcher.retain(|t| {
        waiters
            .get(&t)
            .is_none_or(|w| !w.cancel.load(Ordering::Acquire))
    });
    if dropped > 0 {
        lock_ignore_poison(&shared.stats).cancelled += dropped as u64;
        waiters.retain(|_, w| {
            let cancelled = w.cancel.load(Ordering::Acquire);
            if cancelled {
                let _ = w.tx.send(Err(ServiceError::Cancelled));
            }
            !cancelled
        });
    }
}

/// Runs one batcher flush, maps tickets back to waiting futures, applies
/// the per-request `strict_only_correct` policy and records stats. A panic
/// inside the engine fails the affected requests instead of hanging them,
/// then re-spawns the worker when recovery is configured. Returns `false`
/// when the worker could not recover and must exit.
fn flush(
    state: &mut WorkerState,
    waiters: &mut HashMap<Ticket, Waiter>,
    shared: &Shared,
    only_correct: bool,
    reason: FlushReason,
    recovery: &Option<Arc<RecoverySpec>>,
    batcher_cfg: &DcamBatcherConfig,
) -> bool {
    prune_cancelled(state, waiters, shared);
    let batch = state.batcher.pending();
    if batch == 0 {
        return true;
    }
    let fault = std::mem::take(&mut state.pending_fault);
    let WorkerState { model, batcher, .. } = state;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if fault {
            panic!("injected worker fault (RequestOptions::inject_panic)");
        }
        batcher.flush(model)
    }));
    let now = Instant::now();
    let mut stats = lock_ignore_poison(&shared.stats);
    stats.record_flush(batch, reason);
    match outcome {
        Ok(results) => {
            for (ticket, result) in results {
                let Some(waiter) = waiters.remove(&ticket) else {
                    continue;
                };
                stats.record_latency(now - waiter.enqueued_at, shared.latency_window);
                let answer = if waiter.strict_only_correct && only_correct && result.ng == 0 {
                    stats.failed += 1;
                    Err(ServiceError::OnlyCorrectMiss { k: result.k })
                } else {
                    stats.completed += 1;
                    Ok(result)
                };
                // A dropped future is not an error: the caller gave up on
                // the answer, not on the service.
                let _ = waiter.tx.send(answer);
            }
            true
        }
        Err(_) => {
            // The engine panicked mid-flush; every request of this batch is
            // lost. Answer the waiters so their futures resolve.
            for (_, waiter) in waiters.drain() {
                stats.failed += 1;
                let _ = waiter.tx.send(Err(ServiceError::WorkerLost));
            }
            drop(stats);
            recover_worker(state, waiters, shared, recovery, batcher_cfg)
        }
    }
}

/// After an engine panic: rebuild the worker's model from the recovery
/// checkpoint and re-validate it before it rejoins. Without a recovery
/// spec ([`DcamService::spawn`]) the worker keeps its current model, as
/// the pre-recovery service did. Returns `false` when the rebuild failed
/// and the worker must exit.
fn recover_worker(
    state: &mut WorkerState,
    waiters: &mut HashMap<Ticket, Waiter>,
    shared: &Shared,
    recovery: &Option<Arc<RecoverySpec>>,
    batcher_cfg: &DcamBatcherConfig,
) -> bool {
    let Some(spec) = recovery else {
        return true;
    };
    match spec.rebuild() {
        Some(fresh) => {
            // Replacing the batcher drops whatever it had buffered, and the
            // fresh one reuses ticket numbers from zero — so any still-
            // registered waiters (a classify/predicted-class panic reaches
            // here without a flush having drained them) must resolve now,
            // before their tickets can collide with new requests.
            if !waiters.is_empty() {
                let mut stats = lock_ignore_poison(&shared.stats);
                for (_, waiter) in waiters.drain() {
                    stats.failed += 1;
                    let _ = waiter.tx.send(Err(ServiceError::WorkerLost));
                }
            }
            // The batcher (and its arena) may hold state the panic left
            // inconsistent; replace the whole serving state, not just the
            // model.
            state.model = fresh;
            state.batcher = DcamBatcher::new(batcher_cfg.clone());
            state.pending_fault = false;
            lock_ignore_poison(&shared.stats).worker_respawns += 1;
            true
        }
        None => false,
    }
}

/// Replicates a trained model into `n` identically-behaving instances: the
/// original plus `n - 1` fresh constructions with the trained parameters
/// copied in (via [`dcam_nn::checkpoint::copy_params`]). Use it to feed a
/// multi-worker [`DcamService::spawn`] from a single training run:
///
/// ```
/// use dcam::arch::{cnn, InputEncoding, ModelScale};
/// use dcam::service::replicate_model;
/// use dcam_tensor::SeededRng;
///
/// let build = || cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut SeededRng::new(9));
/// let trained = build(); // stand-in for a real training run
/// let models = replicate_model(trained, 3, build);
/// assert_eq!(models.len(), 3);
/// ```
///
/// # Panics
///
/// If `build` constructs a model whose parameter shapes differ from the
/// trained one, or if `n == 0`.
pub fn replicate_model(
    mut model: GapClassifier,
    n: usize,
    mut build: impl FnMut() -> GapClassifier,
) -> Vec<GapClassifier> {
    assert!(n >= 1, "need at least one model");
    let mut out = Vec::with_capacity(n);
    for _ in 1..n {
        let mut replica = build();
        dcam_nn::checkpoint::copy_params(&mut model, &mut replica)
            .expect("replica architecture must match the trained model");
        out.push(replica);
    }
    out.push(model);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{cnn, ModelScale};
    use crate::dcam::DcamConfig;
    use crate::dcam_many::DcamManyConfig;
    use dcam_tensor::SeededRng;

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

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            batcher: DcamBatcherConfig {
                many: DcamManyConfig {
                    dcam: DcamConfig {
                        k: 4,
                        only_correct: false,
                        ..Default::default()
                    },
                    max_batch: 4,
                },
                max_pending: 4,
                max_wait: Some(Duration::from_millis(5)),
            },
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            queue_policy: QueuePolicy::Fifo,
            latency_window: 128,
            precision: Precision::F32,
        }
    }

    /// Builds a throwaway queued request whose channels are dropped (only
    /// the queue mechanics are under test).
    fn dummy_request(tenant: Option<u64>, marker: usize) -> QueuedRequest {
        let (tx, _rx) = mpsc::channel();
        QueuedRequest {
            series: toy_series(1, marker + 1, 0),
            kind: RequestKind::Classify { tx },
            cancel: Arc::new(AtomicBool::new(false)),
            tenant,
            enqueued_at: Instant::now(),
        }
    }

    /// The service type must stay `Send`-assemblable: models move into
    /// worker threads, handles move into submitter threads.
    #[test]
    fn handle_is_send_and_clone() {
        fn assert_send<T: Send>(_: &T) {}
        let service = DcamService::spawn(vec![toy_model(3, 2, 1)], quick_cfg());
        let handle = service.handle();
        assert_send(&handle);
        let h2 = handle.clone();
        assert_eq!(h2.queue_depth(), 0);
    }

    #[test]
    fn submit_validates_before_queueing() {
        let service = DcamService::spawn(vec![toy_model(3, 2, 2)], quick_cfg());
        let handle = service.handle();
        let wrong_dims = toy_series(4, 10, 0);
        assert_eq!(
            handle.submit(&wrong_dims, 0).err(),
            Some(ServiceError::ShapeMismatch {
                expected_dims: 3,
                got_dims: 4
            })
        );
        assert_eq!(
            handle.submit_classify(&wrong_dims).err(),
            Some(ServiceError::ShapeMismatch {
                expected_dims: 3,
                got_dims: 4
            })
        );
        let ok_series = toy_series(3, 10, 1);
        assert_eq!(
            handle.submit(&ok_series, 7).err(),
            Some(ServiceError::InvalidClass {
                class: 7,
                n_classes: 2
            })
        );
        let empty = MultivariateSeries::from_rows(&[vec![], vec![], vec![]]);
        assert_eq!(
            handle.submit(&empty, 0).err(),
            Some(ServiceError::EmptySeries),
            "a zero-length series must be refused before it can poison a batch"
        );
        let (_, stats) = service.shutdown();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn int8_service_serves_and_reports_precision() {
        let mut cfg = quick_cfg();
        cfg.precision = Precision::Int8;
        // The DCAM_PRECISION pin outranks the config; under a pinned run
        // the service must report the pinned precision instead.
        let expected = match std::env::var("DCAM_PRECISION").as_deref() {
            Ok(v) => Precision::parse(v).unwrap(),
            Err(_) => Precision::Int8,
        };
        let service = DcamService::spawn(vec![toy_model(3, 2, 21)], cfg);
        assert_eq!(service.precision(), expected);
        let handle = service.handle();
        let series = toy_series(3, 16, 5);
        let classify = handle.submit_classify(&series).unwrap().wait().unwrap();
        assert_eq!(classify.logits.len(), 2);
        assert!(classify.logits.iter().all(|l| l.is_finite()));
        let explain = handle.submit(&series, 0).unwrap().wait().unwrap();
        assert_eq!(explain.dcam.dims(), &[3, 16]);
        assert!(explain.dcam.data().iter().all(|v| v.is_finite()));
        service.shutdown();
    }

    /// An int8 service's logits must track the f32 service's on the same
    /// model within quantization error — the serving-level version of the
    /// layer tests.
    #[test]
    fn int8_service_logits_track_f32_service() {
        if std::env::var("DCAM_PRECISION").is_ok() {
            // Both spawns would serve the pinned precision; the
            // comparison below needs one of each.
            return;
        }
        let series = toy_series(3, 20, 9);
        let f32_service = DcamService::spawn(vec![toy_model(3, 2, 22)], quick_cfg());
        let f32_logits = f32_service
            .handle()
            .submit_classify(&series)
            .unwrap()
            .wait()
            .unwrap()
            .logits;
        f32_service.shutdown();

        let mut cfg = quick_cfg();
        cfg.precision = Precision::Int8;
        let int8_service = DcamService::spawn(vec![toy_model(3, 2, 22)], cfg);
        let int8_logits = int8_service
            .handle()
            .submit_classify(&series)
            .unwrap()
            .wait()
            .unwrap()
            .logits;
        int8_service.shutdown();

        assert_eq!(f32_logits.len(), int8_logits.len());
        for (a, b) in int8_logits.iter().zip(&f32_logits) {
            assert!((a - b).abs() < 0.2, "int8 logit {a} vs f32 {b}");
        }
    }

    #[test]
    fn zero_max_pending_panics_on_spawn_not_in_workers() {
        let mut cfg = quick_cfg();
        cfg.batcher.max_pending = 0;
        let r = std::panic::catch_unwind(|| DcamService::spawn(vec![toy_model(3, 2, 8)], cfg));
        assert!(r.is_err(), "bad config must fail the caller, not a worker");
    }

    #[test]
    fn predicted_class_request_resolves() {
        let service = DcamService::spawn(vec![toy_model(3, 2, 3)], quick_cfg());
        let handle = service.handle();
        let series = toy_series(3, 12, 2);
        let future = handle
            .submit_with(
                &series,
                RequestOptions {
                    class: None,
                    ..Default::default()
                },
            )
            .unwrap();
        let result = future.wait().unwrap();
        assert_eq!(result.dcam.dims(), &[3, 12]);
    }

    #[test]
    fn classify_matches_direct_forward() {
        let service = DcamService::spawn(vec![toy_model(3, 2, 11)], quick_cfg());
        let handle = service.handle();
        let series = toy_series(3, 12, 6);
        let got = handle.submit_classify(&series).unwrap().wait().unwrap();
        let mut reference = toy_model(3, 2, 11);
        let want = reference.logits_for(&series);
        assert_eq!(got.logits.len(), 2);
        assert_eq!(Some(got.class), argmax(want.data()));
        for (a, b) in got.logits.iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-6, "logits must match: {a} vs {b}");
        }
        let (_, stats) = service.shutdown();
        assert_eq!(stats.classified, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn submits_after_shutdown_are_rejected() {
        let service = DcamService::spawn(vec![toy_model(3, 2, 4)], quick_cfg());
        let handle = service.handle();
        let (models, _) = service.shutdown();
        assert_eq!(models.len(), 1);
        let series = toy_series(3, 10, 3);
        assert_eq!(
            handle.submit(&series, 0).err(),
            Some(ServiceError::ShuttingDown)
        );
    }

    #[test]
    fn replicate_model_produces_identical_replicas() {
        let build = || toy_model(3, 2, 5);
        let mut trained = toy_model(3, 2, 6); // different seed than build()
        let series = toy_series(3, 10, 4);
        let want = trained.logits_for(&series);
        let models = replicate_model(trained, 3, build);
        assert_eq!(models.len(), 3);
        for mut m in models {
            assert!(m.logits_for(&series).allclose(&want, 1e-6));
        }
    }

    #[test]
    fn fifo_queue_ignores_tenants() {
        let mut q = RequestQueue::new(QueuePolicy::Fifo);
        q.push(dummy_request(Some(7), 0));
        q.push(dummy_request(None, 1));
        q.push(dummy_request(Some(9), 2));
        assert_eq!(q.len(), 3);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|r| r.series.len() - 1)
            .collect();
        assert_eq!(order, vec![0, 1, 2], "strict arrival order");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fair_queue_round_robins_across_tenants() {
        let mut q = RequestQueue::new(QueuePolicy::FairPerTenant);
        // Tenant 1 floods markers 0..4; tenant 2 and the anonymous lane
        // each add one late request.
        for marker in 0..4 {
            q.push(dummy_request(Some(1), marker));
        }
        q.push(dummy_request(Some(2), 4));
        q.push(dummy_request(None, 5));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|r| r.series.len() - 1)
            .collect();
        // One request per lane per rotation: the flood is interleaved.
        assert_eq!(order, vec![0, 4, 5, 1, 2, 3]);
    }

    #[test]
    fn fair_queue_preserves_order_within_a_tenant() {
        let mut q = RequestQueue::new(QueuePolicy::FairPerTenant);
        for marker in 0..5 {
            q.push(dummy_request(Some(3), marker));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|r| r.series.len() - 1)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn respawn_validation_fails_fast_on_wrong_builder() {
        // A builder with a different architecture cannot pass the
        // checkpoint round-trip; spawn_with_recovery must panic on the
        // caller's thread instead of arming a broken recovery path.
        let r = std::panic::catch_unwind(|| {
            DcamService::spawn_with_recovery(vec![toy_model(3, 2, 12)], quick_cfg(), || {
                toy_model(4, 2, 12)
            })
        });
        assert!(r.is_err());
    }
}
