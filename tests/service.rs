//! End-to-end tests of the asynchronous explanation service
//! (`dcam::service`): correctness under concurrent submission (every
//! result must match a per-instance `compute_dcam`, independent of how
//! requests interleave across workers and batches), graceful shutdown
//! draining, every backpressure policy, the default flush on a drained
//! queue and the opt-in `max_wait` partial-batch flush, and per-request
//! error propagation.

use dcam::arch::cnn;
use dcam::dcam::{compute_dcam, DcamConfig};
use dcam::dcam_many::{DcamBatcherConfig, DcamManyConfig};
use dcam::service::{
    replicate_model, Backpressure, DcamService, QueuePolicy, RequestOptions, ServiceConfig,
    ServiceError,
};
use dcam::{GapClassifier, InputEncoding, ModelScale, Precision};
use dcam_series::MultivariateSeries;
use dcam_tensor::{SeededRng, Tensor};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn toy_series(d: usize, n: usize, seed: u64) -> MultivariateSeries {
    let mut rng = SeededRng::new(seed);
    let rows: Vec<Vec<f32>> = (0..d)
        .map(|_| (0..n).map(|_| rng.normal()).collect())
        .collect();
    MultivariateSeries::from_rows(&rows)
}

fn toy_model(d: usize, classes: usize, seed: u64) -> GapClassifier {
    cnn(
        InputEncoding::Dcnn,
        d,
        classes,
        ModelScale::Tiny,
        &mut SeededRng::new(seed),
    )
}

/// 1e-5 agreement relative to magnitude (same tolerance as
/// `tests/batching.rs`: the engines only reassociate float sums).
fn close(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(&x, &y)| (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0))
}

fn service_cfg(dcam: DcamConfig, max_pending: usize, max_wait_ms: u64) -> ServiceConfig {
    ServiceConfig {
        batcher: DcamBatcherConfig {
            many: DcamManyConfig { dcam, max_batch: 8 },
            max_pending,
            max_wait: Some(Duration::from_millis(max_wait_ms)),
        },
        queue_capacity: 256,
        backpressure: Backpressure::Block,
        queue_policy: QueuePolicy::Fifo,
        latency_window: 512,
        precision: Precision::default(),
    }
}

/// The acceptance-criteria test: 16 concurrent submitter threads, two
/// workers sharing one trained parameter set, and every single result
/// checked against its own sequential `compute_dcam` — so correctness
/// cannot depend on submission order, batch composition, or which worker
/// served the request. Then a graceful shutdown, with the stats checked
/// for consistency.
#[test]
fn sixteen_concurrent_submitters_match_sequential() {
    let (d, n, n_classes) = (4usize, 12usize, 3usize);
    let model_seed = 17u64;
    let dcam_cfg = DcamConfig {
        k: 6,
        only_correct: false,
        seed: 5,
        ..Default::default()
    };

    let models = replicate_model(toy_model(d, n_classes, model_seed), 2, || {
        toy_model(d, n_classes, model_seed)
    });
    let service = DcamService::spawn(models, service_cfg(dcam_cfg.clone(), 4, 5));

    const SUBMITTERS: usize = 16;
    const PER_THREAD: usize = 2;
    let results: Vec<(u64, usize, dcam::DcamResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS as u64)
            .map(|t| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for r in 0..PER_THREAD as u64 {
                        let seed = 100 + t * 10 + r;
                        let class = ((t + r) % n_classes as u64) as usize;
                        let series = toy_series(d, n, seed);
                        let future = handle.submit(&series, class).expect("submit");
                        out.push((seed, class, future.wait().expect("explanation")));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    assert_eq!(results.len(), SUBMITTERS * PER_THREAD);

    // Every result equals its sequential computation on an identical model.
    let mut reference = toy_model(d, n_classes, model_seed);
    for (seed, class, got) in &results {
        let series = toy_series(d, n, *seed);
        let want = compute_dcam(&mut reference, &series, *class, &dcam_cfg);
        assert_eq!(got.ng, want.ng, "series seed {seed} ng");
        assert!(close(&got.dcam, &want.dcam), "series seed {seed} dcam");
        assert!(close(&got.mbar, &want.mbar), "series seed {seed} mbar");
    }

    let (models, stats) = service.shutdown();
    assert_eq!(models.len(), 2, "both workers return their model");
    assert_eq!(stats.submitted, (SUBMITTERS * PER_THREAD) as u64);
    assert_eq!(stats.completed, (SUBMITTERS * PER_THREAD) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queue_depth, 0, "shutdown drained the queue");
    let served: u64 = stats
        .batch_size_hist
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64 + 1) * c)
        .sum();
    assert_eq!(served, stats.completed, "histogram accounts every request");
    assert!(stats.mean_batch >= 1.0);
    assert!(stats.p50_latency <= stats.p99_latency);
}

/// Shutdown must serve — not drop — requests still sitting in the queue:
/// with a far-away deadline and an unreachable `max_pending`, nothing
/// would flush before `shutdown`, so every future below resolves only if
/// the drain path works.
#[test]
fn shutdown_drains_queued_requests() {
    let (d, n) = (3usize, 10usize);
    let dcam_cfg = DcamConfig {
        k: 4,
        only_correct: false,
        ..Default::default()
    };
    // max_pending 64 is never reached, max_wait 10 s never expires.
    let service = DcamService::spawn(
        vec![toy_model(d, 2, 23)],
        service_cfg(dcam_cfg.clone(), 64, 10_000),
    );
    let handle = service.handle();
    let futures: Vec<_> = (0..8u64)
        .map(|i| {
            let series = toy_series(d, n, 40 + i);
            (i, handle.submit(&series, (i % 2) as usize).unwrap())
        })
        .collect();
    let (_, stats) = service.shutdown();
    assert_eq!(stats.completed, 8);
    assert!(
        stats.flushes_shutdown >= 1,
        "draining must be attributed to shutdown: {stats:?}"
    );

    let mut reference = toy_model(d, 2, 23);
    for (i, future) in futures {
        let got = future.wait().expect("drained request resolves");
        let series = toy_series(d, n, 40 + i);
        let want = compute_dcam(&mut reference, &series, (i % 2) as usize, &dcam_cfg);
        assert!(close(&got.dcam, &want.dcam), "request {i}");
    }
}

/// The shipped default is work-conserving: a lone request on an idle
/// service flushes the moment the worker finds the queue dry, instead of
/// sitting out a batching deadline. Its submit→answer latency is then its
/// engine time plus dispatch, nowhere near a 10 ms wait.
#[test]
fn lone_request_on_default_config_flushes_when_queue_drains() {
    let (d, n) = (3usize, 12usize);
    let dcam_cfg = DcamConfig {
        k: 4,
        only_correct: false,
        ..Default::default()
    };
    let mut cfg = ServiceConfig::default();
    cfg.batcher.many.dcam = dcam_cfg.clone();
    let service = DcamService::spawn(vec![toy_model(d, 2, 47)], cfg);
    let series = toy_series(d, n, 120);
    let got = service
        .handle()
        .submit(&series, 1)
        .unwrap()
        .wait()
        .expect("lone request served");
    let (_, stats) = service.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.flushes_deadline, 0,
        "the default config has no batching deadline: {stats:?}"
    );
    assert_eq!(
        stats.flushes_drained, 1,
        "the lone request flushes when the queue drains: {stats:?}"
    );

    let mut reference = toy_model(d, 2, 47);
    let start = Instant::now();
    let want = compute_dcam(&mut reference, &series, 1, &dcam_cfg);
    let engine = start.elapsed();
    assert!(close(&got.dcam, &want.dcam));
    let overhead = stats.mean_latency.saturating_sub(engine);
    assert!(
        overhead < Duration::from_millis(5),
        "service overhead {overhead:?} (latency {:?}, engine {engine:?})",
        stats.mean_latency
    );
}

/// A partial batch must not wait forever: with `max_pending` far above the
/// traffic, the `max_wait` deadline (or the queue running dry) is the only
/// thing that can flush — the futures resolving at all proves the
/// deadline-driven path, without shutdown's help.
#[test]
fn max_wait_flushes_partial_batch() {
    let (d, n) = (3usize, 10usize);
    let dcam_cfg = DcamConfig {
        k: 4,
        only_correct: false,
        ..Default::default()
    };
    let service = DcamService::spawn(
        vec![toy_model(d, 2, 29)],
        service_cfg(dcam_cfg, 100, 20), // max_pending unreachable, 20 ms deadline
    );
    let handle = service.handle();
    let futures: Vec<_> = (0..3u64)
        .map(|i| handle.submit(&toy_series(d, n, 60 + i), 0).unwrap())
        .collect();
    for (i, future) in futures.into_iter().enumerate() {
        let result = future
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("request {i} not flushed by deadline"));
        assert_eq!(result.expect("request served").dcam.dims(), &[d, n]);
    }
    let stats = service.stats();
    assert!(
        stats.flushes_deadline >= 1,
        "partial batch must flush on the max_wait deadline: {stats:?}"
    );
    assert_eq!(stats.flushes_full, 0, "max_pending was never reached");
    assert_eq!(stats.completed, 3);
}

/// `Backpressure::Reject`: a burst far above `capacity + in-flight` must
/// bounce some submissions with `QueueFull` while every *accepted* request
/// still completes. The worker is kept busy by heavyweight requests
/// (k = 300 permutations each), so the burst outpaces the drain by orders
/// of magnitude.
#[test]
fn reject_backpressure_bounces_excess_load() {
    let (d, n) = (5usize, 24usize);
    let dcam_cfg = DcamConfig {
        k: 300,
        only_correct: false,
        ..Default::default()
    };
    let cfg = ServiceConfig {
        batcher: DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: dcam_cfg,
                max_batch: 8,
            },
            max_pending: 1, // flush (and stay busy) from the first request
            max_wait: None,
        },
        queue_capacity: 2,
        backpressure: Backpressure::Reject,
        queue_policy: QueuePolicy::Fifo,
        latency_window: 64,
        precision: Precision::default(),
    };
    let service = DcamService::spawn(vec![toy_model(d, 2, 31)], cfg);
    let handle = service.handle();

    let series = toy_series(d, n, 70);
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..24 {
        match handle.submit(&series, 0) {
            Ok(future) => accepted.push(future),
            Err(ServiceError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(
        rejected > 0,
        "24 instant submissions into a 2-slot queue served at ~10 ms/request must overflow"
    );
    for (i, future) in accepted.into_iter().enumerate() {
        assert!(future.wait().is_ok(), "accepted request {i} must complete");
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected as u64);
}

/// `Backpressure::Timeout`: same overload, but submitters wait a bounded
/// 1 ms for a slot; the ones that give up get `SubmitTimeout`. Each flush
/// evaluates k = 2000 permutations (tens of milliseconds), so twelve
/// back-to-back submissions with ~1 ms patience each cannot all drain.
#[test]
fn timeout_backpressure_gives_up_after_deadline() {
    let (d, n) = (6usize, 32usize);
    let patience = Duration::from_millis(1);
    let cfg = ServiceConfig {
        batcher: DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: DcamConfig {
                    k: 2000,
                    only_correct: false,
                    ..Default::default()
                },
                max_batch: 8,
            },
            max_pending: 1,
            max_wait: None,
        },
        queue_capacity: 1,
        backpressure: Backpressure::Timeout(patience),
        queue_policy: QueuePolicy::Fifo,
        latency_window: 64,
        precision: Precision::default(),
    };
    let service = DcamService::spawn(vec![toy_model(d, 2, 37)], cfg);
    let handle = service.handle();
    let series = toy_series(d, n, 80);
    let mut timed_out = 0usize;
    let mut accepted = Vec::new();
    for _ in 0..12 {
        match handle.submit(&series, 0) {
            Ok(f) => accepted.push(f),
            Err(ServiceError::SubmitTimeout { waited }) => {
                assert_eq!(waited, patience);
                timed_out += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(
        timed_out > 0,
        "a 1 ms patience cannot absorb k=2000 flushes"
    );
    for future in accepted {
        assert!(future.wait().is_ok());
    }
}

/// `Backpressure::Block` never loses or refuses a request: concurrent
/// submitters pushing through a 1-slot queue all eventually complete.
#[test]
fn block_backpressure_serves_everything() {
    let (d, n) = (3usize, 10usize);
    let cfg = ServiceConfig {
        batcher: DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: DcamConfig {
                    k: 3,
                    only_correct: false,
                    ..Default::default()
                },
                max_batch: 4,
            },
            max_pending: 2,
            max_wait: Some(Duration::from_millis(2)),
        },
        queue_capacity: 1,
        backpressure: Backpressure::Block,
        queue_policy: QueuePolicy::Fifo,
        latency_window: 64,
        precision: Precision::default(),
    };
    let service = DcamService::spawn(vec![toy_model(d, 2, 41)], cfg);
    let served: usize = std::thread::scope(|scope| {
        (0..4u64)
            .map(|t| {
                let handle = service.handle();
                scope.spawn(move || {
                    (0..5u64)
                        .map(|i| {
                            let series = toy_series(d, n, 200 + t * 10 + i);
                            let future = handle.submit(&series, 0).expect("block never refuses");
                            future.wait().expect("request served");
                        })
                        .count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .sum()
    });
    assert_eq!(served, 20);
    let (_, stats) = service.shutdown();
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.rejected, 0);
}

/// `strict_only_correct` turns the all-misclassified fallback into a
/// per-request error — while a non-strict request for the same dead class
/// (even in the same batch) still gets the fallback map.
#[test]
fn strict_only_correct_miss_propagates_as_error() {
    let (d, n, n_classes) = (4usize, 10usize, 4usize);
    let cfg_all = DcamConfig {
        k: 6,
        only_correct: false,
        ..Default::default()
    };
    let mut probe = toy_model(d, n_classes, 43);
    let series = toy_series(d, n, 90);
    let dead = (0..n_classes)
        .find(|&c| compute_dcam(&mut probe, &series, c, &cfg_all).ng == 0)
        .expect("untrained Tiny model never predicts some class");

    let dcam_cfg = DcamConfig {
        k: 6,
        only_correct: true,
        ..Default::default()
    };
    let service = DcamService::spawn(
        vec![toy_model(d, n_classes, 43)],
        service_cfg(dcam_cfg, 4, 5),
    );
    let handle = service.handle();
    let strict = handle
        .submit_with(
            &series,
            RequestOptions {
                class: Some(dead),
                strict_only_correct: true,
                ..Default::default()
            },
        )
        .unwrap();
    let lenient = handle.submit(&series, dead).unwrap();
    assert_eq!(
        strict.wait().err(),
        Some(ServiceError::OnlyCorrectMiss { k: 6 }),
        "strict request must surface the miss"
    );
    let fallback = lenient.wait().expect("lenient request gets the fallback");
    assert_eq!(fallback.ng, 0);
    let (_, stats) = service.shutdown();
    assert_eq!((stats.completed, stats.failed), (1, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: whatever the geometry, dCAM parameters, flush policy and
    /// worker count, results delivered through the async service equal
    /// sequential per-instance `compute_dcam` to 1e-5 relative.
    #[test]
    fn service_results_match_sequential_compute_dcam(
        d in 3usize..=5,
        n in 8usize..=16,
        k in 3usize..=8,
        max_pending in 1usize..=6,
        max_wait_ms in 1u64..=8,
        n_workers in 1usize..=2,
        only_correct in any::<bool>(),
        model_seed in 0u64..1000,
        series_seed in 0u64..1000,
    ) {
        let n_classes = 3;
        let dcam_cfg = DcamConfig {
            k,
            only_correct,
            seed: model_seed ^ series_seed,
            ..Default::default()
        };
        let models = replicate_model(
            toy_model(d, n_classes, model_seed),
            n_workers,
            || toy_model(d, n_classes, model_seed),
        );
        let service = DcamService::spawn(
            models,
            service_cfg(dcam_cfg.clone(), max_pending, max_wait_ms),
        );
        let handle = service.handle();
        let jobs: Vec<(MultivariateSeries, usize)> = (0..5u64)
            .map(|i| (toy_series(d, n, series_seed + i), (i as usize) % n_classes))
            .collect();
        let futures: Vec<_> = jobs
            .iter()
            .map(|(series, class)| handle.submit(series, *class).unwrap())
            .collect();
        let got: Vec<_> = futures.into_iter().map(|f| f.wait().unwrap()).collect();
        service.shutdown();

        let mut reference = toy_model(d, n_classes, model_seed);
        for (i, ((series, class), got)) in jobs.iter().zip(&got).enumerate() {
            let want = compute_dcam(&mut reference, series, *class, &dcam_cfg);
            prop_assert_eq!(got.ng, want.ng, "job {} ng", i);
            prop_assert!(close(&got.dcam, &want.dcam), "job {} dcam", i);
            prop_assert!(close(&got.mbar, &want.mbar), "job {} mbar", i);
        }
    }
}

/// Cancelling requests (dropping the future / `cancel()`) after the worker
/// buffered them must skip the engine work entirely: the flush machinery
/// prunes them before building any cube, so no flush is ever recorded.
#[test]
fn cancellation_before_flush_skips_engine_work() {
    let dcam_cfg = DcamConfig {
        k: 8,
        only_correct: false,
        ..Default::default()
    };
    // A long max_wait guarantees the worker buffers the requests and then
    // sits on the flush deadline — the window in which we cancel.
    let service = DcamService::spawn(vec![toy_model(3, 2, 31)], service_cfg(dcam_cfg, 100, 400));
    let handle = service.handle();
    let futures: Vec<_> = (0..3)
        .map(|i| handle.submit(&toy_series(3, 10, 70 + i), 0).unwrap())
        .collect();
    // Let the worker drain the queue into its batcher.
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(handle.queue_depth(), 0, "worker buffered the requests");
    for f in &futures {
        f.cancel();
    }
    // The prune at the flush deadline resolves the futures as Cancelled.
    for f in futures {
        assert_eq!(f.wait().err(), Some(ServiceError::Cancelled));
    }
    let (_, stats) = service.shutdown();
    assert_eq!(stats.cancelled, 3);
    assert_eq!(stats.completed, 0);
    assert_eq!(
        stats.flushes_full
            + stats.flushes_deadline
            + stats.flushes_drained
            + stats.flushes_shutdown,
        0,
        "no engine flush may run for a fully-cancelled batch"
    );
    assert!(
        stats.batch_size_hist.iter().all(|&c| c == 0),
        "no batch was ever assembled"
    );
}

/// A request cancelled while still *queued* is skipped when the worker
/// pops it.
#[test]
fn cancellation_in_queue_is_skipped_on_pop() {
    let dcam_cfg = DcamConfig {
        k: 64,
        only_correct: false,
        ..Default::default()
    };
    // max_pending 1: the first request keeps the worker busy in a flush
    // while the second sits in the queue and gets cancelled there.
    let service = DcamService::spawn(vec![toy_model(4, 2, 32)], service_cfg(dcam_cfg, 1, 1));
    let handle = service.handle();
    let busy = handle.submit(&toy_series(4, 64, 80), 0).unwrap();
    let doomed = handle.submit(&toy_series(4, 64, 81), 0).unwrap();
    doomed.cancel();
    assert!(busy.wait().is_ok());
    assert_eq!(doomed.wait().err(), Some(ServiceError::Cancelled));
    let (_, stats) = service.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

/// Fairness: a tenant submitting two requests behind a 24-deep flood from
/// a competing tenant must not wait for the whole flood. Under FIFO it
/// would (the flood completes first); under `FairPerTenant` the rotation
/// serves it within a couple of turns.
#[test]
fn fair_queue_bounds_wait_behind_a_saturating_tenant() {
    let dcam_cfg = DcamConfig {
        k: 16,
        only_correct: false,
        ..Default::default()
    };
    let run = |policy: QueuePolicy| -> usize {
        let mut cfg = service_cfg(dcam_cfg.clone(), 1, 1);
        cfg.queue_policy = policy;
        let service = DcamService::spawn(vec![toy_model(3, 2, 33)], cfg);
        let handle = service.handle();
        let flood: Vec<_> = (0..24)
            .map(|i| {
                handle
                    .submit_with(
                        &toy_series(3, 64, 100 + i),
                        RequestOptions {
                            class: Some(0),
                            tenant: Some(1),
                            ..Default::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        let latecomers: Vec<_> = (0..2)
            .map(|i| {
                handle
                    .submit_with(
                        &toy_series(3, 64, 200 + i),
                        RequestOptions {
                            class: Some(1),
                            tenant: Some(2),
                            ..Default::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        for f in latecomers {
            f.wait().expect("latecomer served");
        }
        // How much of the flood was already served when the late tenant
        // finished?
        let flood_done = flood.iter().filter(|f| f.try_get().is_some()).count();
        drop(flood);
        service.shutdown();
        flood_done
    };

    let fifo_done = run(QueuePolicy::Fifo);
    let fair_done = run(QueuePolicy::FairPerTenant);
    assert_eq!(
        fifo_done, 24,
        "FIFO serves the entire flood before the late tenant"
    );
    assert!(
        fair_done < 12,
        "fair rotation must serve the late tenant well before the flood \
         drains (flood_done = {fair_done})"
    );
}
