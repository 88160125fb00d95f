//! Acceptance tests for the `/v1/analyze` offline-job endpoint: the
//! served motif report must match the in-process pipeline, the planted
//! dimension must dominate the motif ranking, and the job lifecycle
//! (202/poll/cancel/503/404/400) must hold under the generic job store.

use dcam::dcam::DcamConfig;
use dcam::service::ServiceConfig;
use dcam::{planted_dataset, planted_model, DcamService, PlantedSpec};
use dcam_analyze::{mine_motifs, AnalyzeConfig, MotifReport};
use dcam_eval::LocalBackend;
use dcam_server::wire::motif_report_from_value;
use dcam_server::{serve, DcamServer, HttpClient, ServerConfig};
use serde::Value;
use std::time::{Duration, Instant};

/// The dCAM config both sides must share for bit-level parity: the test
/// service serves with it, and the local reference pipeline mirrors it.
fn shared_dcam() -> DcamConfig {
    DcamConfig {
        k: 8,
        only_correct: false,
        ..Default::default()
    }
}

fn spec() -> PlantedSpec {
    PlantedSpec {
        bump_dim: Some(2),
        ..Default::default()
    }
}

fn analyze_cfg() -> AnalyzeConfig {
    AnalyzeConfig {
        kmeans_iters: 4,
        dba_iters: 2,
        ..Default::default()
    }
}

fn boot(server_cfg: ServerConfig) -> DcamServer {
    let mut service_cfg = ServiceConfig::default();
    service_cfg.batcher.many.dcam = shared_dcam();
    let service = DcamService::spawn(vec![planted_model(&spec())], service_cfg);
    serve(service, server_cfg).expect("server boots on an ephemeral port")
}

/// The `POST /v1/analyze` body for the pinned-dim planted dataset.
fn submit_body(cfg: &AnalyzeConfig) -> String {
    let data = planted_dataset(&spec());
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
    serde_json::to_string(&Value::Object(vec![
        ("series".to_string(), series),
        ("labels".to_string(), labels),
        ("clusters".to_string(), Value::Number(cfg.clusters as f64)),
        (
            "kmeans_iters".to_string(),
            Value::Number(cfg.kmeans_iters as f64),
        ),
        ("dba_iters".to_string(), Value::Number(cfg.dba_iters as f64)),
        ("window".to_string(), Value::Number(cfg.window as f64)),
        (
            "top_windows".to_string(),
            Value::Number(cfg.top_windows as f64),
        ),
        ("seed".to_string(), Value::Number(cfg.seed as f64)),
    ]))
    .expect("body serializes")
}

fn submit(client: &mut HttpClient, body: &str) -> (u16, Value) {
    let resp = client.post("/v1/analyze", body).expect("submit succeeds");
    let v = resp.json().unwrap_or(Value::Null);
    (resp.status, v)
}

fn job_id(v: &Value) -> u64 {
    v.get("id")
        .and_then(Value::as_usize)
        .expect("submit response carries an id") as u64
}

/// Polls `GET /v1/analyze/{id}` until the job reaches a terminal status.
fn poll_until_terminal(client: &mut HttpClient, id: u64) -> (String, Value) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client
            .get(&format!("/v1/analyze/{id}"))
            .expect("poll succeeds");
        assert_eq!(resp.status, 200, "poll body: {}", resp.body);
        let v = resp.json().expect("poll body is JSON");
        let status = v
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        match status.as_str() {
            "done" | "failed" | "cancelled" => return (status, v),
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn rel_close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

/// Field-by-field parity check between the served and local reports,
/// exact on discrete structure and 1e-5-relative on scores.
fn assert_reports_match(served: &MotifReport, local: &MotifReport) {
    assert_eq!(
        (served.n_instances, served.dims, served.len),
        (local.n_instances, local.dims, local.len),
        "dataset geometry"
    );
    assert!(
        rel_close(served.base_accuracy, local.base_accuracy),
        "base accuracy: served {} vs local {}",
        served.base_accuracy,
        local.base_accuracy
    );
    assert_eq!(served.classes.len(), local.classes.len());
    for (s, l) in served.classes.iter().zip(&local.classes) {
        assert_eq!((s.class, s.n_instances), (l.class, l.n_instances));
        assert_eq!(s.windows.len(), l.windows.len(), "class {}", l.class);
        for (sw, lw) in s.windows.iter().zip(&l.windows) {
            assert_eq!(
                (sw.dim, sw.start, sw.len),
                (lw.dim, lw.start, lw.len),
                "class {} window placement",
                l.class
            );
            assert!(
                rel_close(sw.score, lw.score),
                "class {} window score: served {} vs local {}",
                l.class,
                sw.score,
                lw.score
            );
        }
        assert_eq!(s.dims.len(), l.dims.len());
        for (sd, ld) in s.dims.iter().zip(&l.dims) {
            assert_eq!((sd.dim, sd.clusters.len()), (ld.dim, ld.clusters.len()));
            for (sc, lc) in sd.clusters.iter().zip(&ld.clusters) {
                assert_eq!(sc.members, lc.members, "class {} dim {}", l.class, ld.dim);
                assert!(rel_close(sc.inertia, lc.inertia));
                for (sb, lb) in sc.barycenter.iter().zip(&lc.barycenter) {
                    assert!(
                        rel_close(*sb, *lb),
                        "class {} dim {} barycenter: {sb} vs {lb}",
                        l.class,
                        ld.dim
                    );
                }
            }
        }
    }
}

#[test]
fn served_report_matches_local_and_planted_dim_dominates() {
    let server = boot(ServerConfig::default());
    let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
    let cfg = analyze_cfg();

    let (status, v) = submit(&mut client, &submit_body(&cfg));
    assert_eq!(status, 202, "submit: {v:?}");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("queued"));
    let id = job_id(&v);

    let (status, v) = poll_until_terminal(&mut client, id);
    assert_eq!(status, "done", "job: {v:?}");
    let served = motif_report_from_value(v.get("report").expect("done job carries a report"))
        .expect("report parses");

    // Local reference run under the same dCAM config as the service.
    let mut model = planted_model(&spec());
    let data = planted_dataset(&spec());
    let mut backend = LocalBackend::new(&mut model).with_dcam(shared_dcam());
    let local =
        mine_motifs(&mut backend, &data.samples, &data.labels, &cfg, None).expect("local mining");

    assert_reports_match(&served, &local);

    // The planted discriminant lives on dimension 2: it must top class 1's
    // motif-window ranking.
    let class1 = served
        .classes
        .iter()
        .find(|c| c.class == 1)
        .expect("class 1 mined");
    let top = class1.windows.first().expect("class 1 has windows");
    assert_eq!(top.dim, 2, "windows: {:?}", class1.windows);

    server.shutdown();
}

#[test]
fn job_lifecycle_capacity_cancel_and_errors() {
    let server = boot(ServerConfig {
        analyze_capacity: 1,
        ..Default::default()
    });
    let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
    let cfg = analyze_cfg();
    let body = submit_body(&cfg);

    // Structured 400s at submit time: a window the series cannot hold.
    let bad = body.replacen("\"window\":8", "\"window\":0", 1);
    assert_ne!(bad, body, "test body must contain the window field");
    let resp = client.post("/v1/analyze", &bad).expect("bad submit");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    let code = resp
        .json()
        .ok()
        .and_then(|v| {
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_default();
    assert_eq!(code, "bad_request");

    // Unknown or malformed ids are structured 404s; methods the id route
    // does not take are 405s.
    for (method, path, status) in [
        ("GET", "/v1/analyze/999", 404),
        ("DELETE", "/v1/analyze/999", 404),
        ("GET", "/v1/analyze/not-a-number", 404),
        ("PUT", "/v1/analyze/1", 405),
    ] {
        let resp = client.request(method, path, None).expect("request");
        assert_eq!(resp.status, status, "{method} {path} body: {}", resp.body);
    }
    // Wrong method on the collection route.
    let resp = client.get("/v1/analyze").expect("GET collection");
    assert_eq!(resp.status, 405);

    // Capacity 1: while the first job is unfinished, a second submit is
    // bounced with 503 + Retry-After.
    let (status, v) = submit(&mut client, &body);
    assert_eq!(status, 202);
    let first = job_id(&v);
    let resp = client.post("/v1/analyze", &body).expect("second submit");
    assert_eq!(resp.status, 503, "body: {}", resp.body);
    assert!(resp.header("retry-after").is_some());

    let (status, _) = poll_until_terminal(&mut client, first);
    assert_eq!(status, "done");

    // Freed up: the next submit is accepted, and cancelling it right away
    // resolves to a terminal status without wedging anything. The cancel
    // may land while the job is queued (immediate) or running (flag
    // observed at the next stage boundary) — both must converge.
    let (status, v) = submit(&mut client, &body);
    assert_eq!(status, 202);
    let id = job_id(&v);
    let resp = client
        .request("DELETE", &format!("/v1/analyze/{id}"), None)
        .expect("cancel");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let (status, _) = poll_until_terminal(&mut client, id);
    assert!(
        status == "cancelled" || status == "done",
        "cancelled job ended as {status}"
    );

    // The per-store counters surface in /stats.
    let resp = client.get("/stats").expect("stats");
    assert_eq!(resp.status, 200);
    let v = resp.json().expect("stats JSON");
    let analyze = v
        .get("jobs")
        .and_then(|j| j.get("analyze"))
        .expect("jobs.analyze in /stats");
    let submitted = analyze
        .get("submitted")
        .and_then(Value::as_usize)
        .unwrap_or(0);
    assert!(submitted >= 2, "stats: {analyze:?}");

    // Shutdown must not stall on the cancelled/finished jobs.
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "shutdown stalled"
    );
}
