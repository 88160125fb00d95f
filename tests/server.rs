//! End-to-end loopback tests of the `dcam-server` HTTP front end: wire
//! round-trips must equal direct `compute_dcam` calls, malformed requests
//! must get structured 4xx bodies (including unknown/invalid model names),
//! overload must surface as 503 + `Retry-After`, a client disconnect must
//! cancel its request before the engine works on it, an injected worker
//! panic must be survived via re-spawn, and a model hot swap under load
//! must drop nothing.

use dcam::arch::{cnn, ArchDescriptor, ArchFamily};
use dcam::dcam::{compute_dcam, DcamConfig};
use dcam::dcam_many::{DcamBatcherConfig, DcamManyConfig};
use dcam::registry::{checkpoint_model, save_checkpoint, ModelRegistry};
use dcam::service::{Backpressure, DcamService, QueuePolicy, ServiceConfig};
use dcam::{GapClassifier, InputEncoding, ModelScale, Precision};
use dcam_series::MultivariateSeries;
use dcam_server::{serve, serve_registry, DcamServer, HttpClient, ServerConfig};
use dcam_tensor::SeededRng;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// JSON body `{"series": [[...], ...], ...extra}` for a series.
fn payload(series: &MultivariateSeries, extra: &[(&str, Value)]) -> String {
    let rows: Vec<Vec<f32>> = (0..series.n_dims())
        .map(|d| series.dim(d).to_vec())
        .collect();
    let mut fields = vec![("series".to_string(), rows.to_value())];
    fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    serde_json::to_string(&Value::Object(fields)).expect("serialize payload")
}

/// Flattens the `"dcam"` rows of an explain response.
fn dcam_of(resp_body: &Value) -> Vec<f32> {
    resp_body
        .get("dcam")
        .and_then(Value::as_array)
        .expect("dcam rows")
        .iter()
        .flat_map(|row| row.as_array().expect("dcam row").iter())
        .map(|x| x.as_f64().expect("sample") as f32)
        .collect()
}

fn error_code(resp_body: &str) -> String {
    serde_json::parse(resp_body)
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("code")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no structured error in {resp_body:?}"))
}

/// Same relative tolerance as `tests/batching.rs`: the engines only
/// reassociate float sums, and the JSON wire round-trips f32 exactly.
fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0))
}

/// The acceptance-criteria test: concurrent HTTP connections get maps
/// equal to sequential `compute_dcam`, and `/v1/classify` equals a direct
/// forward.
#[test]
fn concurrent_explains_match_sequential_compute_dcam() {
    let (d, n, classes, model_seed) = (4usize, 12usize, 3usize, 17u64);
    let dcam_cfg = DcamConfig {
        k: 6,
        only_correct: false,
        seed: 5,
        ..Default::default()
    };
    let service = DcamService::spawn(
        vec![toy_model(d, classes, model_seed)],
        service_cfg(dcam_cfg.clone(), 4, 5),
    );
    let server = serve(
        service,
        ServerConfig {
            conn_workers: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    const CONNECTIONS: usize = 4;
    const PER_CONN: usize = 2;
    let results: Vec<(u64, usize, Vec<f32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|t| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("connect");
                    (0..PER_CONN as u64)
                        .map(|r| {
                            let seed = 100 + t * 10 + r;
                            let class = ((t + r) % 3) as usize;
                            let series = toy_series(d, n, seed);
                            let body = payload(&series, &[("class", Value::Number(class as f64))]);
                            let resp = client.post("/v1/explain", &body).expect("post");
                            assert_eq!(resp.status, 200, "body: {}", resp.body);
                            (seed, class, dcam_of(&resp.json().expect("json")))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(results.len(), CONNECTIONS * PER_CONN);

    let mut reference = toy_model(d, classes, model_seed);
    for (seed, class, got) in &results {
        let series = toy_series(d, n, *seed);
        let want = compute_dcam(&mut reference, &series, *class, &dcam_cfg);
        assert!(
            close(got, want.dcam.data()),
            "series seed {seed}: HTTP dcam differs from sequential compute_dcam"
        );
    }

    // Classify round-trip on the same connection machinery.
    let series = toy_series(d, n, 999);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let resp = client
        .post("/v1/classify", &payload(&series, &[]))
        .expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let json = resp.json().expect("json");
    let want = reference.logits_for(&series);
    let got_logits: Vec<f32> = json
        .get("logits")
        .and_then(Value::as_array)
        .expect("logits")
        .iter()
        .map(|x| x.as_f64().expect("logit") as f32)
        .collect();
    assert_eq!(got_logits.len(), classes);
    for (a, b) in got_logits.iter().zip(want.data()) {
        assert!((a - b).abs() < 1e-6, "HTTP logits must match: {a} vs {b}");
    }
    assert_eq!(
        json.get("class").and_then(Value::as_usize),
        dcam_tensor::argmax(want.data()),
    );

    let (models, service_stats, server_stats) = server.shutdown();
    assert_eq!(models.len(), 1);
    assert_eq!(service_stats.completed as usize, CONNECTIONS * PER_CONN);
    assert_eq!(service_stats.classified, 1);
    assert_eq!(
        server_stats.responses_2xx as usize,
        CONNECTIONS * PER_CONN + 1
    );
    assert_eq!(server_stats.responses_5xx, 0);
}

#[test]
fn summary_mode_returns_per_dimension_ranking() {
    let (d, n) = (5usize, 10usize);
    let service = DcamService::spawn(
        vec![toy_model(d, 2, 3)],
        service_cfg(
            DcamConfig {
                k: 4,
                only_correct: false,
                ..Default::default()
            },
            1,
            2,
        ),
    );
    let server = serve(service, ServerConfig::default()).expect("bind");
    let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
    let body = payload(
        &toy_series(d, n, 1),
        &[("class", Value::Number(0.0)), ("top_k", Value::Number(2.0))],
    );
    let resp = client.post("/v1/explain", &body).expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let json = resp.json().expect("json");
    assert!(json.get("dcam").is_none(), "summary replaces the full map");
    let dims = json.get("dims").and_then(Value::as_array).expect("dims");
    assert_eq!(dims.len(), 2, "top_k truncates the ranking");
    let means: Vec<f64> = dims
        .iter()
        .map(|e| e.get("mean").and_then(Value::as_f64).expect("mean"))
        .collect();
    assert!(
        means[0] >= means[1],
        "ranking is sorted by mean, descending"
    );
    server.shutdown();
}

#[test]
fn malformed_and_wrong_shape_requests_get_structured_4xx() {
    let d = 3;
    let service = DcamService::spawn(
        vec![toy_model(d, 2, 4)],
        service_cfg(
            DcamConfig {
                k: 4,
                only_correct: false,
                ..Default::default()
            },
            4,
            5,
        ),
    );
    let server = serve(
        service,
        ServerConfig {
            max_body_bytes: 4096,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    // Broken JSON.
    let resp = client.post("/v1/explain", "{not json").expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "bad_json");

    // Series is not an array of rows.
    let resp = client
        .post("/v1/explain", r#"{"series": "nope"}"#)
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "bad_request");

    // Ragged rows.
    let resp = client
        .post("/v1/explain", r#"{"series": [[1, 2], [1]]}"#)
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "bad_request");

    // Samples that are not finite f32s: `1e999` overflows f64, `1e39`
    // overflows f32 only.
    for path in ["/v1/explain", "/v1/classify"] {
        for x in ["1e999", "1e39"] {
            let body = format!(r#"{{"series": [[1, {x}], [0, 0], [0, 0]]}}"#);
            let resp = client.post(path, &body).expect("post");
            assert_eq!(resp.status, 400, "{path} with {x}: {}", resp.body);
            assert_eq!(error_code(&resp.body), "bad_request");
        }
    }

    // Wrong dimension count (model expects 3).
    let resp = client
        .post(
            "/v1/explain",
            &payload(&toy_series(4, 8, 0), &[("class", Value::Number(0.0))]),
        )
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "shape_mismatch");

    // Zero-length series.
    let resp = client
        .post("/v1/explain", r#"{"series": [[], [], []]}"#)
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "empty_series");

    // Class out of range.
    let resp = client
        .post(
            "/v1/explain",
            &payload(&toy_series(d, 8, 0), &[("class", Value::Number(7.0))]),
        )
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "invalid_class");

    // Fault injection is opt-in per server.
    let resp = client
        .post(
            "/v1/explain",
            &payload(
                &toy_series(d, 8, 0),
                &[
                    ("class", Value::Number(0.0)),
                    ("inject_panic", Value::Bool(true)),
                ],
            ),
        )
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "fault_injection_disabled");

    // Unknown model → structured 404.
    let resp = client
        .post(
            "/v1/explain",
            &payload(
                &toy_series(d, 8, 0),
                &[
                    ("class", Value::Number(0.0)),
                    ("model", Value::String("ghost".into())),
                ],
            ),
        )
        .expect("post");
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp.body), "model_not_found");

    // Empty model name → 400.
    let resp = client
        .post(
            "/v1/explain",
            &payload(
                &toy_series(d, 8, 0),
                &[
                    ("class", Value::Number(0.0)),
                    ("model", Value::String(String::new())),
                ],
            ),
        )
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "invalid_model");

    // Oversized model name (> 64 bytes) → 400, on classify too.
    let resp = client
        .post(
            "/v1/classify",
            &payload(
                &toy_series(d, 8, 0),
                &[("model", Value::String("x".repeat(65)))],
            ),
        )
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.body), "invalid_model");

    // Wrong method / unknown route.
    let resp = client.get("/v1/explain").expect("get");
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = client.get("/v1/nope").expect("get");
    assert_eq!(resp.status, 404);

    // Oversized body (the connection closes after 413).
    let resp = client
        .post(
            "/v1/explain",
            &payload(&toy_series(d, 4096, 0), &[("class", Value::Number(0.0))]),
        )
        .expect("post");
    assert_eq!(resp.status, 413);
    assert_eq!(error_code(&resp.body), "payload_too_large");

    let (_, service_stats, server_stats) = server.shutdown();
    assert_eq!(
        service_stats.submitted, 0,
        "malformed requests must never reach the queue"
    );
    assert_eq!(server_stats.responses_4xx, 17);
}

#[test]
fn overload_gets_503_with_retry_after() {
    // One worker, a one-slot queue, Reject backpressure, and deliberately
    // slow requests: most of a concurrent burst must bounce with 503.
    let (d, n) = (6usize, 64usize);
    let mut cfg = service_cfg(
        DcamConfig {
            k: 200,
            only_correct: false,
            ..Default::default()
        },
        1,
        1,
    );
    cfg.queue_capacity = 1;
    cfg.backpressure = Backpressure::Reject;
    let service = DcamService::spawn(vec![toy_model(d, 2, 5)], cfg);
    let server = serve(
        service,
        ServerConfig {
            conn_workers: 8,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("connect");
                    let body = payload(&toy_series(d, n, t), &[("class", Value::Number(0.0))]);
                    let resp = client.post("/v1/explain", &body).expect("post");
                    if resp.status == 503 {
                        assert_eq!(error_code(&resp.body), "overloaded");
                        // The client surfaces Retry-After as a typed field
                        // (the server sends its configured default of 1 s).
                        assert_eq!(
                            resp.retry_after,
                            Some(1),
                            "503 must carry a parseable Retry-After"
                        );
                        assert!(resp.header("retry-after").is_some());
                    }
                    resp.status
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let rejected = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + rejected, 8, "unexpected statuses: {statuses:?}");
    assert!(ok >= 1, "some requests must be served: {statuses:?}");
    assert!(
        rejected >= 1,
        "an 8-deep burst against a 1-slot queue must shed load: {statuses:?}"
    );

    let (_, service_stats, server_stats) = server.shutdown();
    assert_eq!(service_stats.rejected as usize, rejected);
    assert_eq!(server_stats.backpressure_503 as usize, rejected);
}

#[test]
fn disconnect_cancels_pending_request() {
    // A long max_wait keeps the submitted request buffered in the worker's
    // batcher; the client hangs up before the flush deadline, so the prune
    // must discard the request without any engine work.
    let d = 3;
    let service = DcamService::spawn(
        vec![toy_model(d, 2, 6)],
        service_cfg(
            DcamConfig {
                k: 4,
                only_correct: false,
                ..Default::default()
            },
            100,
            400,
        ),
    );
    let server = serve(service, ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let mut doomed = HttpClient::connect(&addr).expect("connect");
    doomed
        .send_only(
            "POST",
            "/v1/explain",
            &payload(&toy_series(d, 10, 1), &[("class", Value::Number(0.0))]),
        )
        .expect("send");
    // Give the connection worker time to parse + submit, then vanish.
    std::thread::sleep(Duration::from_millis(60));
    drop(doomed);

    // The cancellation is observable in the stats once the flush deadline
    // passes and the prune runs.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.service_stats();
        if stats.cancelled >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cancellation never surfaced: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The service stays healthy for the next client.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let resp = client
        .post(
            "/v1/explain",
            &payload(&toy_series(d, 10, 2), &[("class", Value::Number(0.0))]),
        )
        .expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);

    let (_, service_stats, server_stats) = server.shutdown();
    assert_eq!(service_stats.cancelled, 1);
    assert_eq!(
        service_stats.completed, 1,
        "only the live client's request reaches the engine"
    );
    assert!(server_stats.disconnect_cancels >= 1);
}

#[test]
fn injected_worker_panic_respawns_and_service_recovers() {
    let d = 3;
    let build = move || toy_model(d, 2, 7);
    let service = DcamService::spawn_with_recovery(
        vec![build()],
        service_cfg(
            DcamConfig {
                k: 4,
                only_correct: false,
                ..Default::default()
            },
            1,
            2,
        ),
        build,
    );
    let server = serve(
        service,
        ServerConfig {
            enable_fault_injection: true,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    // The faulted request dies with the worker's batch...
    let resp = client
        .post(
            "/v1/explain",
            &payload(
                &toy_series(d, 10, 1),
                &[
                    ("class", Value::Number(0.0)),
                    ("inject_panic", Value::Bool(true)),
                ],
            ),
        )
        .expect("post");
    assert_eq!(resp.status, 500, "body: {}", resp.body);
    assert_eq!(error_code(&resp.body), "worker_lost");

    // ... and the re-spawned worker serves the next ones correctly.
    for seed in 2..5 {
        let series = toy_series(d, 10, seed);
        let resp = client
            .post(
                "/v1/explain",
                &payload(&series, &[("class", Value::Number(1.0))]),
            )
            .expect("post");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let got = dcam_of(&resp.json().expect("json"));
        let mut reference = build();
        let want = compute_dcam(
            &mut reference,
            &series,
            1,
            &DcamConfig {
                k: 4,
                only_correct: false,
                ..Default::default()
            },
        );
        assert!(
            close(&got, want.dcam.data()),
            "post-respawn answers must match a pristine model"
        );
    }

    let (_, service_stats, _) = server.shutdown();
    assert_eq!(service_stats.worker_respawns, 1);
    assert_eq!(service_stats.completed, 3);
    assert_eq!(service_stats.failed, 1);
}

fn tiny_desc(d: usize, classes: usize) -> ArchDescriptor {
    ArchDescriptor {
        family: ArchFamily::Cnn,
        encoding: InputEncoding::Dcnn,
        dims: d,
        classes,
        scale: ModelScale::Tiny,
    }
}

fn write_ckpt(label: &str, desc: &ArchDescriptor, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dcam-server-registry-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{label}-{seed}.ckpt"));
    save_checkpoint(&checkpoint_model(&mut desc.build(seed), desc), &path).unwrap();
    path
}

/// Boots a two-model registry server (`"live"` seed 80, `"swapme"` seed
/// 81, both D=3/2 classes) with the test's usual service config.
/// `prefix` keeps the checkpoint files of concurrently running tests
/// apart — tests share one temp dir and run in parallel.
fn two_model_server(prefix: &str, dcam_cfg: DcamConfig) -> (DcamServer, Arc<ModelRegistry>) {
    let desc = tiny_desc(3, 2);
    let cfg = ServiceConfig {
        batcher: DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: dcam_cfg,
                max_batch: 8,
            },
            max_pending: 4,
            max_wait: Some(Duration::from_millis(2)),
        },
        queue_capacity: 256,
        backpressure: Backpressure::Block,
        queue_policy: QueuePolicy::Fifo,
        latency_window: 512,
        precision: Precision::default(),
    };
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_from_checkpoint(
            "live",
            write_ckpt(&format!("{prefix}-live"), &desc, 80),
            cfg.clone(),
            1,
        )
        .unwrap();
    registry
        .register_from_checkpoint(
            "swapme",
            write_ckpt(&format!("{prefix}-swapme"), &desc, 81),
            cfg,
            1,
        )
        .unwrap();
    let server = serve_registry(
        Arc::clone(&registry),
        ServerConfig {
            conn_workers: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    (server, registry)
}

/// `GET /v1/models` lists both models with version, geometry, arch and
/// per-model stats; requests route by name and a missing name on a
/// multi-model registry is a structured 400.
#[test]
fn models_endpoint_lists_and_requests_route_by_name() {
    let dcam_cfg = DcamConfig {
        k: 4,
        only_correct: false,
        seed: 5,
        ..Default::default()
    };
    let (server, _registry) = two_model_server("list", dcam_cfg.clone());
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    // Listing.
    let resp = client.get("/v1/models").expect("get");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let json = resp.json().expect("json");
    let models = json
        .get("models")
        .and_then(Value::as_array)
        .expect("models");
    assert_eq!(models.len(), 2);
    let names: Vec<&str> = models
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, vec!["live", "swapme"], "sorted by name");
    for m in models {
        assert_eq!(m.get("version").and_then(Value::as_usize), Some(1));
        assert_eq!(m.get("dims").and_then(Value::as_usize), Some(3));
        assert_eq!(m.get("classes").and_then(Value::as_usize), Some(2));
        assert_eq!(m.get("workers").and_then(Value::as_usize), Some(1));
        assert_eq!(
            m.get("arch").and_then(Value::as_str),
            Some("family=cnn;enc=dcnn;d=3;classes=2;scale=tiny")
        );
        assert!(m.get("stats").is_some());
    }

    // Routed explain answers match the *named* model's weights.
    let series = toy_series(3, 12, 700);
    for (name, seed) in [("live", 80u64), ("swapme", 81)] {
        let resp = client
            .post(
                "/v1/explain",
                &payload(
                    &series,
                    &[
                        ("class", Value::Number(1.0)),
                        ("model", Value::String(name.into())),
                    ],
                ),
            )
            .expect("post");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let got = dcam_of(&resp.json().expect("json"));
        let mut reference = tiny_desc(3, 2).build(seed);
        let want = compute_dcam(&mut reference, &series, 1, &dcam_cfg);
        assert!(
            close(&got, want.dcam.data()),
            "model {name} must answer with its own weights"
        );
    }

    // Two models, no "default": an anonymous request is ambiguous.
    let resp = client
        .post(
            "/v1/explain",
            &payload(&series, &[("class", Value::Number(0.0))]),
        )
        .expect("post");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert_eq!(error_code(&resp.body), "model_required");

    // Swap of a ghost model → 404; geometry-mismatched checkpoint → 409;
    // garbage checkpoint path → 422.
    let resp = client
        .post("/v1/models/ghost/swap", r#"{"path": "/nonexistent"}"#)
        .expect("post");
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp.body), "model_not_found");
    let wrong_geo = write_ckpt("wrong-geo", &tiny_desc(5, 2), 99);
    let resp = client
        .post(
            "/v1/models/live/swap",
            &serde_json::to_string(&Value::Object(vec![(
                "path".into(),
                Value::String(wrong_geo.display().to_string()),
            )]))
            .unwrap(),
        )
        .expect("post");
    assert_eq!(resp.status, 409, "body: {}", resp.body);
    assert_eq!(error_code(&resp.body), "geometry_mismatch");
    let resp = client
        .post("/v1/models/live/swap", r#"{"path": "/nonexistent"}"#)
        .expect("post");
    assert_eq!(resp.status, 422);
    assert_eq!(error_code(&resp.body), "bad_checkpoint");

    server.shutdown();
}

/// The acceptance-criteria e2e: while `"live"` serves a sustained stream
/// of `/v1/explain` requests, an HTTP swap of `"swapme"` causes **zero**
/// failed requests on `"live"`, and post-swap `"swapme"` answers equal
/// sequential `compute_dcam` on the new weights to 1e-5 relative.
#[test]
fn hot_swap_under_load_fails_nothing_and_serves_new_weights() {
    let dcam_cfg = DcamConfig {
        k: 4,
        only_correct: false,
        seed: 5,
        ..Default::default()
    };
    let (server, _registry) = two_model_server("hotswap", dcam_cfg.clone());
    let addr = server.addr().to_string();

    let stop = AtomicBool::new(false);
    let new_seed = 90u64;
    let new_ckpt = write_ckpt("swapme-v2", &tiny_desc(3, 2), new_seed);

    let live_served: u64 = std::thread::scope(|scope| {
        let stop = &stop;
        // Two persistent connections stream explanations at "live".
        let streams: Vec<_> = (0..2u64)
            .map(|t| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("connect");
                    let mut served = 0u64;
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let series = toy_series(3, 12, 5000 + t * 1000 + i);
                        let resp = client
                            .post(
                                "/v1/explain",
                                &payload(
                                    &series,
                                    &[
                                        ("class", Value::Number((i % 2) as f64)),
                                        ("model", Value::String("live".into())),
                                    ],
                                ),
                            )
                            .expect("live connection must not break");
                        assert_eq!(
                            resp.status, 200,
                            "no live request may fail during the swap: {}",
                            resp.body
                        );
                        served += 1;
                        i += 1;
                    }
                    served
                })
            })
            .collect();

        // Let the stream establish, then swap the *other* model live.
        std::thread::sleep(Duration::from_millis(50));
        let mut admin = HttpClient::connect(&addr).expect("connect");
        let body = serde_json::to_string(&Value::Object(vec![(
            "path".into(),
            Value::String(new_ckpt.display().to_string()),
        )]))
        .unwrap();
        let resp = admin.post("/v1/models/swapme/swap", &body).expect("swap");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let json = resp.json().expect("json");
        assert_eq!(json.get("version").and_then(Value::as_usize), Some(2));

        // Keep the load going a little past the swap, then stop.
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Release);
        streams.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(
        live_served >= 4,
        "the stream must have kept serving through the swap (served {live_served})"
    );

    // Post-swap: "swapme" answers with the new checkpoint's weights.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let series = toy_series(3, 12, 12345);
    let resp = client
        .post(
            "/v1/explain",
            &payload(
                &series,
                &[
                    ("class", Value::Number(0.0)),
                    ("model", Value::String("swapme".into())),
                ],
            ),
        )
        .expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let got = dcam_of(&resp.json().expect("json"));
    let mut reference = tiny_desc(3, 2).build(new_seed);
    let want = compute_dcam(&mut reference, &series, 0, &dcam_cfg);
    assert!(
        close(&got, want.dcam.data()),
        "post-swap explain must equal compute_dcam on the new weights"
    );

    // The listing reflects the bumped version; nothing failed anywhere.
    let resp = client.get("/v1/models").expect("get");
    let json = resp.json().expect("json");
    let models = json
        .get("models")
        .and_then(Value::as_array)
        .expect("models");
    let swapme = models
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("swapme"))
        .expect("swapme listed");
    assert_eq!(swapme.get("version").and_then(Value::as_usize), Some(2));

    let (_, service_stats, server_stats) = server.shutdown();
    assert_eq!(service_stats.failed, 0);
    assert_eq!(service_stats.rejected, 0);
    assert_eq!(server_stats.responses_5xx, 0);
    assert_eq!(server_stats.responses_4xx, 0);
}

/// Shutdown while idle returns every model and leaves consistent stats.
#[test]
fn graceful_shutdown_returns_models() {
    let service = DcamService::spawn(
        vec![toy_model(3, 2, 8)],
        service_cfg(
            DcamConfig {
                k: 4,
                only_correct: false,
                ..Default::default()
            },
            4,
            5,
        ),
    );
    let server: DcamServer = serve(service, ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");
    assert_eq!(client.get("/healthz").expect("get").status, 200);
    let stats_resp = client.get("/stats").expect("get");
    assert_eq!(stats_resp.status, 200);
    let json = stats_resp.json().expect("json");
    assert!(json.get("service").is_some() && json.get("server").is_some());
    let (models, _, server_stats) = server.shutdown();
    assert_eq!(models.len(), 1);
    assert_eq!(server_stats.responses_2xx, 2);
}

/// The admin-token gate on the swap operator endpoint: with a token
/// configured, a missing `X-Admin-Token` header is a structured 401, a
/// wrong one a 403 (and neither swaps anything); the right token swaps.
/// Read-only and inference endpoints stay open.
#[test]
fn swap_endpoint_honours_admin_token() {
    let dcam_cfg = DcamConfig {
        k: 4,
        only_correct: false,
        seed: 5,
        ..Default::default()
    };
    let desc = tiny_desc(3, 2);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_from_checkpoint(
            "guarded",
            write_ckpt("token-guarded", &desc, 70),
            service_cfg(dcam_cfg, 4, 2),
            1,
        )
        .unwrap();
    let server = serve_registry(
        Arc::clone(&registry),
        ServerConfig {
            admin_token: Some("s3cret".into()),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");
    let new_ckpt = write_ckpt("token-v2", &desc, 71);
    let body = serde_json::to_string(&Value::Object(vec![(
        "path".into(),
        Value::String(new_ckpt.display().to_string()),
    )]))
    .unwrap();

    // Missing token: 401, nothing swapped.
    let resp = client.post("/v1/models/guarded/swap", &body).expect("post");
    assert_eq!(resp.status, 401, "body: {}", resp.body);
    assert_eq!(error_code(&resp.body), "unauthorized");

    // Wrong token: 403, nothing swapped.
    let resp = client
        .request_headers_deadline(
            "POST",
            "/v1/models/guarded/swap",
            Some(&body),
            &[("x-admin-token", "wrong")],
            Duration::from_secs(5),
        )
        .expect("post");
    assert_eq!(resp.status, 403, "body: {}", resp.body);
    assert_eq!(error_code(&resp.body), "forbidden");

    // The model is still on version 1 and inference stayed open.
    let resp = client.get("/v1/models").expect("get");
    let versions: Vec<usize> = resp
        .json()
        .expect("json")
        .get("models")
        .and_then(Value::as_array)
        .expect("models")
        .iter()
        .filter_map(|m| m.get("version").and_then(Value::as_usize))
        .collect();
    assert_eq!(versions, vec![1], "failed auth must not swap");
    let series = toy_series(3, 12, 9);
    let resp = client
        .post(
            "/v1/explain",
            &payload(&series, &[("class", Value::Number(0.0))]),
        )
        .expect("post");
    assert_eq!(resp.status, 200, "inference needs no token: {}", resp.body);

    // The right token swaps.
    let resp = client
        .request_headers_deadline(
            "POST",
            "/v1/models/guarded/swap",
            Some(&body),
            &[("x-admin-token", "s3cret")],
            Duration::from_secs(5),
        )
        .expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(
        resp.json()
            .expect("json")
            .get("version")
            .and_then(Value::as_usize),
        Some(2)
    );
}
