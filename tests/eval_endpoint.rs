//! Loopback tests of the `/v1/eval` batch-evaluation endpoint: a served
//! job's report must equal the in-process harness to 1e-5 relative,
//! invalid occlusion geometry must be a structured 400 at submit time,
//! unknown job ids are 404s, queued jobs cancel immediately and running
//! jobs cancel at the next stage boundary, and the capacity bound answers
//! 503 until a slot frees up.

use dcam::service::{DcamService, ServiceConfig};
use dcam::{planted_dataset, planted_model, PlantedSpec};
use dcam_eval::{
    run_harness, EvalReport, ExplainerKind, HarnessConfig, LocalBackend, MaskStrategy,
};
use dcam_server::wire::eval_report_from_value;
use dcam_server::{serve, DcamServer, HttpClient, ServerConfig};
use serde::Value;
use std::time::{Duration, Instant};

/// Boots a loopback server whose single (`"default"`) model is the
/// planted fixture.
fn planted_server(cfg: ServerConfig) -> DcamServer {
    let service = DcamService::spawn(
        vec![planted_model(&PlantedSpec::default())],
        ServiceConfig::default(),
    );
    serve(service, cfg).expect("bind loopback listener")
}

/// The `POST /v1/eval` body for the planted dataset under `cfg`.
fn eval_body(cfg: &HarnessConfig) -> String {
    let data = planted_dataset(&PlantedSpec::default());
    let series = Value::Array(
        data.samples
            .iter()
            .map(|s| {
                Value::Array(
                    (0..s.n_dims())
                        .map(|j| {
                            Value::Array(
                                s.dim(j).iter().map(|&x| Value::Number(x as f64)).collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    let labels = Value::Array(
        data.labels
            .iter()
            .map(|&l| Value::Number(l as f64))
            .collect(),
    );
    let methods = Value::Array(
        cfg.methods
            .iter()
            .map(|m| Value::String(m.name().into()))
            .collect(),
    );
    let k_grid = Value::Array(
        cfg.k_grid
            .iter()
            .map(|&f| Value::Number(f as f64))
            .collect(),
    );
    let fields = vec![
        ("series".to_string(), series),
        ("labels".to_string(), labels),
        ("methods".to_string(), methods),
        ("k_grid".to_string(), k_grid),
        (
            "mask".to_string(),
            Value::String(cfg.strategy.name().into()),
        ),
        ("seed".to_string(), Value::Number(cfg.seed as f64)),
        (
            "occlusion".to_string(),
            Value::Object(vec![
                (
                    "window".to_string(),
                    Value::Number(cfg.occlusion.window as f64),
                ),
                (
                    "stride".to_string(),
                    Value::Number(cfg.occlusion.stride as f64),
                ),
                (
                    "baseline".to_string(),
                    Value::Number(cfg.occlusion.baseline as f64),
                ),
            ]),
        ),
    ];
    serde_json::to_string(&Value::Object(fields)).expect("serialize eval body")
}

fn submit(client: &mut HttpClient, body: &str) -> (u16, Value) {
    let resp = client.post("/v1/eval", body).expect("submit round trip");
    let v = resp.json().expect("JSON submit response");
    (resp.status, v)
}

fn job_id(v: &Value) -> usize {
    v.get("id")
        .and_then(Value::as_usize)
        .expect("submit response carries a job id")
}

fn job_status(client: &mut HttpClient, id: usize) -> Value {
    let resp = client
        .get(&format!("/v1/eval/{id}"))
        .expect("poll round trip");
    assert_eq!(
        resp.status, 200,
        "poll answered {}: {}",
        resp.status, resp.body
    );
    resp.json().expect("JSON status body")
}

fn status_name(v: &Value) -> String {
    v.get("status")
        .and_then(Value::as_str)
        .expect("status field")
        .to_string()
}

/// Polls until the job leaves the queued/running states.
fn wait_finished(client: &mut HttpClient, id: usize) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let v = job_status(client, id);
        match status_name(&v).as_str() {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(25));
            }
            _ => return v,
        }
    }
}

fn error_code(body: &str) -> String {
    serde_json::parse(body)
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("code")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no structured error in {body:?}"))
}

fn rel_close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

fn assert_reports_match(served: &EvalReport, local: &EvalReport) {
    assert_eq!(served.n_instances, local.n_instances);
    assert!(rel_close(served.base_accuracy, local.base_accuracy));
    assert_eq!(served.methods.len(), local.methods.len());
    for (s, l) in served.methods.iter().zip(&local.methods) {
        assert_eq!(s.method, l.method);
        assert!(
            rel_close(s.deletion_auc, l.deletion_auc),
            "{}: served deletion AUC {} vs local {}",
            s.method.name(),
            s.deletion_auc,
            l.deletion_auc
        );
        assert!(
            rel_close(s.insertion_auc, l.insertion_auc),
            "{}: served insertion AUC {} vs local {}",
            s.method.name(),
            s.insertion_auc,
            l.insertion_auc
        );
        for (sc, lc) in [(&s.deletion, &l.deletion), (&s.insertion, &l.insertion)] {
            assert_eq!(sc.points.len(), lc.points.len());
            for (sp, lp) in sc.points.iter().zip(&lc.points) {
                assert!(rel_close(sp.frac, lp.frac));
                assert!(
                    rel_close(sp.accuracy, lp.accuracy),
                    "{}: served accuracy {} vs local {} at frac {}",
                    s.method.name(),
                    sp.accuracy,
                    lp.accuracy,
                    sp.frac
                );
            }
        }
    }
}

/// The acceptance-criteria test: a served `/v1/eval` job over all four
/// methods must reproduce the in-process harness report to 1e-5 relative,
/// and dCAM must beat the random baseline through the served path too.
#[test]
fn served_eval_report_matches_in_process_harness() {
    let server = planted_server(ServerConfig::default());
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    let cfg = HarnessConfig {
        methods: vec![
            ExplainerKind::Dcam,
            ExplainerKind::Occlusion,
            ExplainerKind::Knn,
            ExplainerKind::Random,
        ],
        ..Default::default()
    };

    let (status, v) = submit(&mut client, &eval_body(&cfg));
    assert_eq!(status, 202, "submit answered {status}: {v:?}");
    assert_eq!(status_name(&v), "queued");
    let id = job_id(&v);

    let done = wait_finished(&mut client, id);
    assert_eq!(status_name(&done), "done");
    let served = eval_report_from_value(done.get("report").expect("done job carries a report"))
        .expect("served report parses back");

    let spec = PlantedSpec::default();
    let mut model = planted_model(&spec);
    let ds = planted_dataset(&spec);
    let mut backend = LocalBackend::new(&mut model);
    let local = run_harness(&mut backend, &ds.samples, &ds.labels, &cfg, None).unwrap();
    assert_reports_match(&served, &local);

    let auc = |kind: ExplainerKind| {
        served
            .methods
            .iter()
            .find(|m| m.method == kind)
            .map(|m| m.deletion_auc)
            .unwrap()
    };
    assert!(
        auc(ExplainerKind::Dcam) < auc(ExplainerKind::Random),
        "served dCAM deletion AUC must beat the random baseline"
    );
}

/// Invalid occlusion geometry fails at submit time with a structured 400
/// (the typed `OcclusionError` surfaced over the wire), not as a `failed`
/// job on first poll.
#[test]
fn oversized_occlusion_window_is_a_structured_400() {
    let server = planted_server(ServerConfig::default());
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    let cfg = HarnessConfig {
        methods: vec![ExplainerKind::Occlusion],
        occlusion: dcam::OcclusionConfig {
            window: 64, // planted series are 32 samples long
            stride: 4,
            baseline: 0.0,
        },
        ..Default::default()
    };
    let resp = client.post("/v1/eval", &eval_body(&cfg)).unwrap();
    assert_eq!(resp.status, 400, "got {}: {}", resp.status, resp.body);
    assert_eq!(error_code(&resp.body), "bad_occlusion_window");
}

#[test]
fn unknown_job_ids_are_404s() {
    let server = planted_server(ServerConfig::default());
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    for (method, path, status, code) in [
        ("GET", "/v1/eval/9999", 404, "unknown_job"),
        ("DELETE", "/v1/eval/9999", 404, "unknown_job"),
        ("GET", "/v1/eval/not-a-number", 404, "unknown_job"),
        ("GET", "/v1/eval", 405, "method_not_allowed"),
        ("PUT", "/v1/eval/1", 405, "method_not_allowed"),
    ] {
        let resp = client.request(method, path, None).unwrap();
        assert_eq!(
            resp.status, status,
            "{method} {path} answered {}",
            resp.status
        );
        assert_eq!(error_code(&resp.body), code);
    }
}

/// Queue/cancel/capacity lifecycle against a deliberately slow first job:
/// queued jobs cancel immediately, submits beyond the capacity bound get
/// 503 until a cancellation frees a slot, a running job's cancellation
/// lands at the next stage boundary, and the runner survives to serve the
/// next job.
#[test]
fn eval_jobs_cancel_and_respect_capacity() {
    let server = planted_server(ServerConfig {
        eval_capacity: 3,
        ..Default::default()
    });
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();

    // Job 1 is heavy (dense grid, every method) so it occupies the runner
    // while the rest of the test manipulates the queue behind it.
    let heavy = HarnessConfig {
        methods: vec![
            ExplainerKind::Dcam,
            ExplainerKind::Occlusion,
            ExplainerKind::Knn,
            ExplainerKind::Random,
        ],
        k_grid: (0..=60).map(|i| i as f32 / 60.0).collect(),
        strategy: MaskStrategy::LocalInterp,
        ..Default::default()
    };
    let quick = HarnessConfig {
        methods: vec![ExplainerKind::Random],
        k_grid: vec![0.0, 0.5],
        ..Default::default()
    };

    let (status, v1) = submit(&mut client, &eval_body(&heavy));
    assert_eq!(status, 202);
    let id1 = job_id(&v1);
    let (status, v2) = submit(&mut client, &eval_body(&quick));
    assert_eq!(status, 202);
    let id2 = job_id(&v2);
    let (status, v3) = submit(&mut client, &eval_body(&quick));
    assert_eq!(status, 202);
    let id3 = job_id(&v3);

    // Three unfinished jobs fill the capacity bound: the next submit is
    // bounced with a Retry-After.
    let resp = client.post("/v1/eval", &eval_body(&quick)).unwrap();
    assert_eq!(resp.status, 503, "got {}: {}", resp.status, resp.body);
    assert!(resp.header("retry-after").is_some());

    // Cancelling the queued job 3 is immediate and frees a slot.
    let resp = client
        .request("DELETE", &format!("/v1/eval/{id3}"), None)
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(status_name(&resp.json().unwrap()), "cancelled");
    let (status, _) = submit(&mut client, &eval_body(&quick));
    assert_eq!(status, 202);

    // Cancelling job 1 (running by now, or queued if the runner has not
    // claimed it yet) converges to "cancelled" at a stage boundary.
    let resp = client
        .request("DELETE", &format!("/v1/eval/{id1}"), None)
        .unwrap();
    assert_eq!(resp.status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let v = job_status(&mut client, id1);
        match status_name(&v).as_str() {
            "cancelled" => break,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "cancellation never landed");
                std::thread::sleep(Duration::from_millis(25));
            }
            other => panic!("cancelled job 1 ended as {other:?}"),
        }
    }

    // The runner survives cancellation and still completes queued work.
    let done = wait_finished(&mut client, id2);
    assert_eq!(status_name(&done), "done");
}
