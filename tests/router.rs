//! Chaos end-to-end tests of the `dcam-router` fleet tier: an in-process
//! fleet of real `DcamServer` shards behind a real `Router`, all on
//! ephemeral loopback ports. The acceptance scenarios: killing a shard
//! mid-stream must cost **zero** client-visible failures and the shard
//! must rejoin after restart; a fleet with every replica down must answer
//! a structured 503 + `Retry-After` fast, never hang; injected shard
//! faults (erroring and stalling handlers) must fail over; and a rolling
//! model swap under sustained load must drop nothing, while a failing
//! shard aborts the rollout with a per-shard report; and a default-config
//! shard whose connection workers the router's own traffic holds must
//! still pass its health probes.

use dcam::arch::{ArchDescriptor, ArchFamily};
use dcam::dcam::{compute_dcam, DcamConfig};
use dcam::dcam_many::{DcamBatcherConfig, DcamManyConfig};
use dcam::registry::{checkpoint_model, save_checkpoint, ModelRegistry};
use dcam::service::{Backpressure, QueuePolicy, ServiceConfig};
use dcam::{InputEncoding, ModelScale, Precision};
use dcam_router::breaker::BreakerConfig;
use dcam_router::health::HealthConfig;
use dcam_router::placement::placement;
use dcam_router::retry::BackoffConfig;
use dcam_router::{serve_router, Router, RouterConfig};
use dcam_series::MultivariateSeries;
use dcam_server::{
    serve_registry, DcamServer, HttpClient, HttpResponse, ServerConfig, ServerFaults,
};
use dcam_tensor::SeededRng;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn toy_series(d: usize, n: usize, seed: u64) -> MultivariateSeries {
    let mut rng = SeededRng::new(seed);
    let rows: Vec<Vec<f32>> = (0..d)
        .map(|_| (0..n).map(|_| rng.normal()).collect())
        .collect();
    MultivariateSeries::from_rows(&rows)
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

fn dcam_cfg() -> DcamConfig {
    DcamConfig {
        k: 4,
        only_correct: false,
        seed: 5,
        ..Default::default()
    }
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        batcher: DcamBatcherConfig {
            many: DcamManyConfig {
                dcam: dcam_cfg(),
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
    }
}

fn write_ckpt(label: &str, desc: &ArchDescriptor, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dcam-router-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{label}-{seed}.ckpt"));
    save_checkpoint(&checkpoint_model(&mut desc.build(seed), desc), &path).unwrap();
    path
}

/// One in-process shard: a registry serving `"default"` (seed 80) behind
/// a `DcamServer`, with its fault switches and registry handed back so
/// tests can inject failures and restart the HTTP front on the same port.
struct Shard {
    server: Option<DcamServer>,
    registry: Arc<ModelRegistry>,
    faults: Arc<ServerFaults>,
    addr: String,
    admin_token: Option<String>,
}

impl Shard {
    fn boot(prefix: &str, admin_token: Option<&str>) -> Shard {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register_from_checkpoint(
                "default",
                write_ckpt(&format!("{prefix}-default"), &tiny_desc(3, 2), 80),
                service_cfg(),
                1,
            )
            .unwrap();
        let faults = Arc::new(ServerFaults::default());
        let server = serve_registry(
            Arc::clone(&registry),
            ServerConfig {
                conn_workers: 4,
                admin_token: admin_token.map(str::to_string),
                faults: Arc::clone(&faults),
                ..Default::default()
            },
        )
        .expect("bind shard");
        let addr = server.addr().to_string();
        Shard {
            server: Some(server),
            registry,
            faults,
            addr,
            admin_token: admin_token.map(str::to_string),
        }
    }

    /// SIGKILL-style: drops the HTTP front without draining. The
    /// registry's models keep running (as they would in a real crash the
    /// process dies entirely — for the router the observable effect is
    /// the same: connections refused).
    fn kill(&mut self) {
        self.server = None;
    }

    /// Restarts the HTTP front on the same port over the same registry.
    fn restart(&mut self) {
        assert!(self.server.is_none(), "restart wants a killed shard");
        let server = serve_registry(
            Arc::clone(&self.registry),
            ServerConfig {
                addr: self.addr.clone(),
                conn_workers: 4,
                admin_token: self.admin_token.clone(),
                faults: Arc::clone(&self.faults),
                ..Default::default()
            },
        )
        .expect("rebind shard on its old port");
        assert_eq!(server.addr().to_string(), self.addr);
        self.server = Some(server);
    }
}

/// A router with chaos-test-friendly (fast) failure-detection tuning.
fn boot_router(shards: &[&Shard], admin_token: Option<&str>) -> Router {
    serve_router(RouterConfig {
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        replicas: 2,
        conn_workers: 4,
        request_deadline: Duration::from_secs(8),
        upstream_timeout: Duration::from_millis(700),
        connect_timeout: Duration::from_millis(500),
        max_attempts: 6,
        backoff: BackoffConfig {
            base: Duration::from_millis(10),
            factor: 2.0,
            max: Duration::from_millis(80),
            jitter: 0.5,
        },
        health: HealthConfig {
            probe_interval: Duration::from_millis(40),
            probe_timeout: Duration::from_millis(250),
            fail_threshold: 2,
            recovery_threshold: 2,
        },
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(300),
        },
        rollout_deadline: Duration::from_secs(5),
        admin_token: admin_token.map(str::to_string),
        ..RouterConfig::default()
    })
    .expect("bind router")
}

fn explain_body(seed: u64, class: usize) -> String {
    let series = toy_series(3, 12, seed);
    let rows: Vec<Vec<f32>> = (0..3).map(|d| series.dim(d).to_vec()).collect();
    serde_json::to_string(&Value::Object(vec![
        ("series".into(), rows.to_value()),
        ("class".into(), Value::Number(class as f64)),
    ]))
    .unwrap()
}

fn error_code(resp: &HttpResponse) -> String {
    resp.json()
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("code")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no structured error in {:?}", resp.body))
}

/// The `/fleet` entry for one shard address.
fn fleet_entry(fleet: &Value, addr: &str) -> Value {
    fleet
        .get("fleet")
        .and_then(Value::as_array)
        .expect("fleet array")
        .iter()
        .find(|e| e.get("addr").and_then(Value::as_str) == Some(addr))
        .unwrap_or_else(|| panic!("no fleet entry for {addr}"))
        .clone()
}

/// Polls `/fleet` until `pred` holds for the shard's entry (or panics
/// after `timeout`).
fn await_fleet(
    router_addr: &str,
    shard_addr: &str,
    timeout: Duration,
    what: &str,
    pred: impl Fn(&Value) -> bool,
) {
    let deadline = Instant::now() + timeout;
    let mut client = HttpClient::connect(router_addr).expect("connect");
    loop {
        let resp = client.get("/fleet").expect("fleet");
        assert_eq!(resp.status, 200);
        let entry = fleet_entry(&resp.json().expect("json"), shard_addr);
        if pred(&entry) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "shard {shard_addr} never became {what}; last entry: {entry:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn healthy(entry: &Value) -> bool {
    entry.get("healthy").and_then(Value::as_bool) == Some(true)
}

/// Sets the stop flag when dropped, so a failed assertion (panic) in a
/// `thread::scope` body stops the load-generator threads instead of
/// deadlocking the scope's implicit join.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Basic routing: a routed explain equals direct `compute_dcam`, `/fleet`
/// and `/healthz` report the fleet, `/v1/models` fans out, and a 404 from
/// a shard (unknown model) passes through without counting as a shard
/// failure or being retried.
#[test]
fn routes_explains_and_reports_fleet() {
    let a = Shard::boot("route-a", None);
    let b = Shard::boot("route-b", None);
    let router = boot_router(&[&a, &b], None);
    let addr = router.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    let resp = client.post("/v1/explain", &explain_body(42, 1)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let got: Vec<f32> = resp
        .json()
        .unwrap()
        .get("dcam")
        .and_then(Value::as_array)
        .expect("dcam rows")
        .iter()
        .flat_map(|row| row.as_array().expect("row"))
        .map(|x| x.as_f64().expect("sample") as f32)
        .collect();
    let mut reference = tiny_desc(3, 2).build(80);
    let want = compute_dcam(&mut reference, &toy_series(3, 12, 42), 1, &dcam_cfg());
    assert_eq!(got.len(), want.dcam.data().len());
    assert!(
        got.iter()
            .zip(want.dcam.data())
            .all(|(&x, &y)| (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0)),
        "routed dcam differs from sequential compute_dcam"
    );

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health = health.json().unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(health.get("shards").and_then(Value::as_usize), Some(2));

    let fleet = client.get("/fleet").unwrap().json().unwrap();
    assert_eq!(fleet.get("status").and_then(Value::as_str), Some("ok"));
    for shard in [&a, &b] {
        let entry = fleet_entry(&fleet, &shard.addr);
        assert!(healthy(&entry), "freshly booted shard must be healthy");
        assert_eq!(entry.get("circuit").and_then(Value::as_str), Some("closed"));
    }
    let router_stats = fleet.get("router").expect("router counters");
    assert!(router_stats.get("requests").and_then(Value::as_usize) >= Some(1));

    let models = client.get("/v1/models").unwrap();
    assert_eq!(models.status, 200);
    let entries = models
        .json()
        .unwrap()
        .get("shards")
        .and_then(Value::as_array)
        .expect("shards array")
        .len();
    assert_eq!(entries, 2);

    // Unknown model: the shard's 404 passes through verbatim and is not a
    // shard failure (no retry, no breaker damage).
    let series = toy_series(3, 12, 1);
    let rows: Vec<Vec<f32>> = (0..3).map(|d| series.dim(d).to_vec()).collect();
    let body = serde_json::to_string(&Value::Object(vec![
        ("series".into(), rows.to_value()),
        ("class".into(), Value::Number(0.0)),
        ("model".into(), Value::String("nope".into())),
    ]))
    .unwrap();
    let resp = client.post("/v1/explain", &body).unwrap();
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    assert_eq!(error_code(&resp), "model_not_found");
    let fleet = client.get("/fleet").unwrap().json().unwrap();
    for shard in [&a, &b] {
        let entry = fleet_entry(&fleet, &shard.addr);
        assert_eq!(
            entry.get("proxy_failures").and_then(Value::as_usize),
            Some(0),
            "a 4xx pass-through must not count as a shard failure"
        );
    }
    router.shutdown();
}

/// The headline chaos scenario: under sustained `/v1/explain` load from
/// two client connections, SIGKILL-style killing one replica costs zero
/// client-visible failures; the fleet view marks the shard down within
/// the health-check threshold; restarting it brings it back (and resets
/// its breaker to closed).
#[test]
fn kill_one_shard_mid_stream_zero_failures_then_rejoins() {
    let mut a = Shard::boot("kill-a", None);
    let b = Shard::boot("kill-b", None);
    let router = boot_router(&[&a, &b], None);
    let addr = router.addr().to_string();

    // Kill the model's *primary* replica — the shard taking most traffic.
    let order = placement("default", &[a.addr.clone(), b.addr.clone()], 2);
    let (victim, survivor) = if order[0] == 0 {
        (&mut a, &b)
    } else {
        // Shadow: can't hold &mut a and &b uniformly, so swap roles.
        return kill_inner(b, a, router, addr);
    };
    let victim_addr = victim.addr.clone();
    let survivor_addr = survivor.addr.clone();
    run_kill_scenario(victim, &victim_addr, &survivor_addr, &router, &addr);
    router.shutdown();
}

fn kill_inner(mut victim: Shard, survivor: Shard, router: Router, addr: String) {
    let victim_addr = victim.addr.clone();
    let survivor_addr = survivor.addr.clone();
    run_kill_scenario(&mut victim, &victim_addr, &survivor_addr, &router, &addr);
    router.shutdown();
}

fn run_kill_scenario(
    victim: &mut Shard,
    victim_addr: &str,
    survivor_addr: &str,
    _router: &Router,
    router_addr: &str,
) {
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(&stop);
        for t in 0..2u64 {
            let addr = router_addr.to_string();
            let stop = &stop;
            let served = &served;
            scope.spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("connect");
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let resp = client
                        .post(
                            "/v1/explain",
                            &explain_body(7000 + t * 1000 + i, (i % 2) as usize),
                        )
                        .expect("router connection must never break");
                    assert_eq!(
                        resp.status, 200,
                        "zero client-visible failures allowed; got: {}",
                        resp.body
                    );
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // Let the stream establish, then kill the primary mid-stream.
        std::thread::sleep(Duration::from_millis(300));
        victim.kill();

        // The router must notice within the health-check threshold.
        await_fleet(
            router_addr,
            victim_addr,
            Duration::from_secs(5),
            "unhealthy",
            |e| !healthy(e),
        );

        // Keep the load running against the degraded fleet.
        std::thread::sleep(Duration::from_millis(300));

        // Restart: the shard must rejoin once health checks pass, with a
        // closed circuit breaker.
        victim.restart();
        await_fleet(
            router_addr,
            victim_addr,
            Duration::from_secs(5),
            "healthy again",
            |e| healthy(e) && e.get("circuit").and_then(Value::as_str) == Some("closed"),
        );

        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Release);
    });
    assert!(
        served.load(Ordering::Relaxed) > 20,
        "load generator barely ran: {} requests",
        served.load(Ordering::Relaxed)
    );

    // The whole drill must not have produced a single router-origin 503,
    // and the survivor must have carried traffic.
    let mut client = HttpClient::connect(router_addr).expect("connect");
    let fleet = client.get("/fleet").unwrap().json().unwrap();
    assert_eq!(
        fleet
            .get("router")
            .and_then(|r| r.get("unavailable_503"))
            .and_then(Value::as_usize),
        Some(0),
        "no request may have been answered 503 during the drill"
    );
    let survivor_entry = fleet_entry(&fleet, survivor_addr);
    assert!(
        survivor_entry.get("proxied_ok").and_then(Value::as_usize) > Some(0),
        "survivor never served: {survivor_entry:?}"
    );
}

/// Health probes must not starve behind the router's own traffic. A
/// default-config shard has two connection workers, and under two-connection
/// load the router's two pooled upstream connections hold both of them for
/// as long as the load runs. `/healthz` is answered without a connection
/// worker, so the probes keep passing and no request is answered
/// `503 no_healthy_replica`.
#[test]
fn default_shard_stays_healthy_under_two_connection_load() {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_from_checkpoint(
            "default",
            write_ckpt("probe-default", &tiny_desc(3, 2), 80),
            service_cfg(),
            1,
        )
        .unwrap();
    let shard = serve_registry(Arc::clone(&registry), ServerConfig::default()).expect("bind shard");
    let shard_addr = shard.addr().to_string();
    let router = serve_router(RouterConfig {
        shards: vec![shard_addr.clone()],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.addr().to_string();

    let stop = AtomicBool::new(false);
    let (served, refused) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(&stop);
        for t in 0..2u64 {
            let (addr, stop, served, refused) = (addr.clone(), &stop, &served, &refused);
            scope.spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("connect");
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let resp = client
                        .post(
                            "/v1/explain",
                            &explain_body(12_000 + t * 1000 + i, (i % 2) as usize),
                        )
                        .expect("router connection must not break");
                    let counter = if resp.status == 200 { served } else { refused };
                    counter.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // Several times the default prober's failure window (3 probes ×
        // (500 ms timeout + 200 ms interval)).
        std::thread::sleep(Duration::from_secs(6));
    });
    let (served, refused) = (served.into_inner(), refused.into_inner());
    assert!(served > 20, "load generator barely ran: {served} requests");
    assert_eq!(
        refused,
        0,
        "{refused} of {} requests refused",
        served + refused
    );

    let mut client = HttpClient::connect(&addr).expect("connect");
    let fleet = client.get("/fleet").unwrap().json().unwrap();
    assert!(healthy(&fleet_entry(&fleet, &shard_addr)), "{fleet:?}");
    assert_eq!(
        fleet
            .get("router")
            .and_then(|r| r.get("unavailable_503"))
            .and_then(Value::as_usize),
        Some(0)
    );
    router.shutdown();
    shard.shutdown();
}

/// Every replica down: requests get a *fast*, structured 503 with
/// `Retry-After` — both in the race window right after the crash (connect
/// errors burn attempts, not the full deadline) and once health checks
/// have marked the fleet down (no-healthy-replica fail-fast).
#[test]
fn all_replicas_down_is_a_fast_structured_503() {
    let mut a = Shard::boot("down-a", None);
    let mut b = Shard::boot("down-b", None);
    let router = boot_router(&[&a, &b], None);
    let addr = router.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    a.kill();
    b.kill();

    // Race window: health checkers may not have noticed yet. Connect
    // errors must exhaust the attempt budget quickly — well inside the
    // 8 s request deadline.
    let start = Instant::now();
    let resp = client.post("/v1/explain", &explain_body(1, 0)).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 503, "body: {}", resp.body);
    assert!(resp.retry_after.is_some(), "503 must carry Retry-After");
    assert!(
        elapsed < Duration::from_secs(6),
        "all-down 503 took {elapsed:?}"
    );

    // Once the fleet view is down, the answer is immediate.
    for shard_addr in [a.addr.clone(), b.addr.clone()] {
        await_fleet(
            &addr,
            &shard_addr,
            Duration::from_secs(5),
            "unhealthy",
            |e| !healthy(e),
        );
    }
    let start = Instant::now();
    let resp = client.post("/v1/explain", &explain_body(2, 0)).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(error_code(&resp), "no_healthy_replica");
    assert!(resp.retry_after.is_some());
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "known-down fleet must fail fast, took {:?}",
        start.elapsed()
    );

    let fleet = client.get("/fleet").unwrap().json().unwrap();
    assert_eq!(fleet.get("status").and_then(Value::as_str), Some("down"));
    router.shutdown();
}

/// Fault injection: a shard whose handlers answer 500 loses the request
/// to its replica (client still sees 200); a shard whose handlers stall
/// past the upstream timeout does too. Both leave failure marks on the
/// shard's fleet entry.
#[test]
fn injected_errors_and_stalls_fail_over() {
    let a = Shard::boot("fault-a", None);
    let b = Shard::boot("fault-b", None);
    let router = boot_router(&[&a, &b], None);
    let addr = router.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    let order = placement("default", &[a.addr.clone(), b.addr.clone()], 2);
    let primary = if order[0] == 0 { &a } else { &b };

    // Erroring handlers: 500s from the primary must fail over.
    primary.faults.fail_requests.store(true, Ordering::Relaxed);
    let resp = client.post("/v1/explain", &explain_body(10, 0)).unwrap();
    assert_eq!(resp.status, 200, "failover hid the fault: {}", resp.body);
    primary.faults.fail_requests.store(false, Ordering::Relaxed);

    // Stalling handlers: the upstream timeout (700 ms) must abandon the
    // stalled shard and fail over, inside the request deadline.
    primary.faults.stall_ms.store(3_000, Ordering::Relaxed);
    let start = Instant::now();
    let resp = client.post("/v1/explain", &explain_body(11, 1)).unwrap();
    assert_eq!(resp.status, 200, "stall failover failed: {}", resp.body);
    assert!(
        start.elapsed() < Duration::from_secs(6),
        "stall failover took {:?}",
        start.elapsed()
    );
    primary.faults.stall_ms.store(0, Ordering::Relaxed);

    let fleet = client.get("/fleet").unwrap().json().unwrap();
    let entry = fleet_entry(&fleet, &primary.addr);
    assert!(
        entry.get("proxy_failures").and_then(Value::as_usize) >= Some(1),
        "faults must be recorded on the shard entry: {entry:?}"
    );
    assert!(
        fleet
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Value::as_usize)
            >= Some(1)
    );
    router.shutdown();
}

/// Rollouts: the router walks the model's replica set in placement order
/// behind the admin-token gate, under sustained load, with zero failed
/// client requests; all shards report the new version. A shard whose
/// swap endpoint fails aborts the rollout with a per-shard report naming
/// the aborting shard.
#[test]
fn rolling_swap_under_load_and_abort_on_failure() {
    const TOKEN: &str = "fleet-secret";
    let a = Shard::boot("roll-a", Some(TOKEN));
    let b = Shard::boot("roll-b", Some(TOKEN));
    let router = boot_router(&[&a, &b], Some(TOKEN));
    let addr = router.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");
    let new_ckpt = write_ckpt("roll-v2", &tiny_desc(3, 2), 90);
    let swap_body = serde_json::to_string(&Value::Object(vec![(
        "path".into(),
        Value::String(new_ckpt.display().to_string()),
    )]))
    .unwrap();

    // The gate: no token → 401, wrong token → 403, nothing swapped.
    let resp = client.post("/v1/models/default/swap", &swap_body).unwrap();
    assert_eq!(resp.status, 401);
    assert_eq!(error_code(&resp), "unauthorized");
    let resp = client
        .request_headers_deadline(
            "POST",
            "/v1/models/default/swap",
            Some(&swap_body),
            &[("x-admin-token", "wrong")],
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(resp.status, 403);
    assert_eq!(error_code(&resp), "forbidden");

    // Rolling swap under sustained load: zero failed client requests.
    let stop = AtomicBool::new(false);
    let rollout: Value = std::thread::scope(|scope| {
        let stop = &stop;
        let _stop_guard = StopOnDrop(stop);
        let load = {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("connect");
                let mut i = 0u64;
                let mut served = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let resp = client
                        .post("/v1/explain", &explain_body(9000 + i, (i % 2) as usize))
                        .expect("load connection must not break");
                    assert_eq!(
                        resp.status, 200,
                        "no failed requests during rollout: {}",
                        resp.body
                    );
                    served += 1;
                    i += 1;
                }
                served
            })
        };
        std::thread::sleep(Duration::from_millis(150));
        let resp = client
            .request_headers_deadline(
                "POST",
                "/v1/models/default/swap",
                Some(&swap_body),
                &[("x-admin-token", TOKEN)],
                Duration::from_secs(15),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "rollout failed: {}", resp.body);
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Release);
        assert!(load.join().expect("load thread") > 5, "load barely ran");
        resp.json().unwrap()
    });
    assert_eq!(
        rollout.get("rolled_out").and_then(Value::as_bool),
        Some(true)
    );
    let reports = rollout
        .get("shards")
        .and_then(Value::as_array)
        .expect("per-shard report");
    assert_eq!(reports.len(), 2, "both replicas walked");
    for report in reports {
        assert_eq!(report.get("swapped").and_then(Value::as_bool), Some(true));
        assert_eq!(
            report.get("version").and_then(Value::as_usize),
            Some(2),
            "shards must serve the new version: {report:?}"
        );
    }
    // Placement order is the walk order.
    let order = placement("default", &[a.addr.clone(), b.addr.clone()], 2);
    let addrs = [&a.addr, &b.addr];
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            report.get("addr").and_then(Value::as_str),
            Some(addrs[order[i]].as_str()),
            "rollout must walk replicas in placement order"
        );
    }

    // Abort on first failure: fail the *second* replica's swap endpoint;
    // the first still swaps (to v3), the rollout reports the abort and
    // the failing shard stays on v2.
    let second = if order[1] == 0 { &a } else { &b };
    second.faults.fail_swap.store(true, Ordering::Relaxed);
    let newer_ckpt = write_ckpt("roll-v3", &tiny_desc(3, 2), 91);
    let swap_body_v3 = serde_json::to_string(&Value::Object(vec![(
        "path".into(),
        Value::String(newer_ckpt.display().to_string()),
    )]))
    .unwrap();
    let resp = client
        .request_headers_deadline(
            "POST",
            "/v1/models/default/swap",
            Some(&swap_body_v3),
            &[("x-admin-token", TOKEN)],
            Duration::from_secs(15),
        )
        .unwrap();
    assert_eq!(resp.status, 502, "aborted rollout is a 502: {}", resp.body);
    let aborted = resp.json().unwrap();
    assert_eq!(
        aborted.get("rolled_out").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        aborted.get("aborted_at").and_then(Value::as_str),
        Some(second.addr.as_str()),
        "the failing shard is named"
    );
    let reports = aborted
        .get("shards")
        .and_then(Value::as_array)
        .expect("per-shard report");
    assert_eq!(reports.len(), 2);
    assert_eq!(
        reports[0].get("swapped").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        reports[1].get("swapped").and_then(Value::as_bool),
        Some(false)
    );
    second.faults.fail_swap.store(false, Ordering::Relaxed);
    router.shutdown();
}
