//! The six workloads: their models, seeded input pools, the serving stack
//! each one boots, and one measured round of each.
//!
//! Everything here goes through the crates' public APIs only. The fixed
//! conditions (README "Fixed conditions") are constants of this file.

use crate::loadgen::{closed_round, open_round, pin_to, Core, OpenLoop, Pinned, Round};
use crate::trace::Recorder;
use dcam::arch::{cnn, GapClassifier, InputEncoding, ModelScale};
use dcam::dcam::{compute_dcam, DcamConfig, DcamResult};
use dcam::service::{DcamService, ServiceConfig, ServiceHandle};
use dcam_nn::layers::{BatchNorm, Conv2dRows, Dense, Relu, Sequential};
use dcam_router::health::HealthConfig;
use dcam_router::{serve_router, Router, RouterConfig};
use dcam_series::MultivariateSeries;
use dcam_server::{explain_payload, serve, DcamServer, HttpClient, ServerConfig};
use dcam_tensor::SeededRng;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Inputs per workload, cycled.
pub const POOL: usize = 64;
/// The class every explanation asks for.
pub const CLASS: usize = 0;
/// Load-generator connections of the HTTP workloads (≤ nproc on the box
/// this was sized on).
pub const CONNECTIONS: usize = 2;
/// Span name of one operation of a workload's own loop in the traced pass
/// (open loop: of the submit call — the request outlives it).
pub const OP_SPAN: &str = "workload.op";
/// `service_burst`: 8 requests every 250 ms (32 req/s offered), each held
/// to 500 ms from its due instant: a burst still running when the
/// next-but-one is due is a growing backlog. (One period was the first
/// choice; a burst needs ≈ 110 ms, and host stalls of 140 ms and more
/// tripped it about once in 25 runs of identical code.)
pub const BURST: OpenLoop = OpenLoop {
    burst: 8,
    period: Duration::from_millis(250),
    limit: Duration::from_millis(500),
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineShort,
    EngineInt8,
    EngineLong,
    ServiceBurst,
    HttpExplain,
    HttpClassify,
}

/// How much of the serving stack a run boots on top of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Engine,
    Service,
    Http,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::EngineShort,
        Workload::EngineInt8,
        Workload::EngineLong,
        Workload::ServiceBurst,
        Workload::HttpExplain,
        Workload::HttpClassify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineShort => "engine_short",
            Workload::EngineInt8 => "engine_int8",
            Workload::EngineLong => "engine_long",
            Workload::ServiceBurst => "service_burst",
            Workload::HttpExplain => "http_explain",
            Workload::HttpClassify => "http_classify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(D, n, k)`: series dimensions, series length, dCAM permutations.
    pub fn geometry(self) -> (usize, usize, usize) {
        match self {
            Workload::EngineLong => (6, 8192, 8),
            _ => (20, 128, 100),
        }
    }

    /// The tier the workload's own traffic enters at.
    pub fn level(self) -> Level {
        match self {
            Workload::EngineShort | Workload::EngineInt8 | Workload::EngineLong => Level::Engine,
            Workload::ServiceBurst => Level::Service,
            Workload::HttpExplain | Workload::HttpClassify => Level::Http,
        }
    }

    /// Operations the set-up warms the stack with: enough for every lazy
    /// initialisation (kernel dispatch, FFT plans, arenas, connection
    /// pools) to have happened before the first measured operation.
    fn warm_up_ops(self) -> usize {
        match self {
            Workload::HttpClassify => 16,
            Workload::ServiceBurst => BURST.burst,
            _ => 4,
        }
    }

    fn http_path(self) -> &'static str {
        match self {
            Workload::HttpClassify => "/v1/classify",
            _ => "/v1/explain",
        }
    }

    fn http_bodies(self, pool: &Pool) -> &[String] {
        match self {
            Workload::HttpClassify => &pool.classify_payloads,
            _ => &pool.explain_payloads,
        }
    }

    pub fn dcam_config(self) -> DcamConfig {
        DcamConfig {
            k: self.geometry().2,
            only_correct: false,
            ..Default::default()
        }
    }
}

fn random_series(d: usize, n: usize, rng: &mut SeededRng) -> MultivariateSeries {
    let rows: Vec<Vec<f32>> = (0..d)
        .map(|_| (0..n).map(|_| rng.normal()).collect())
        .collect();
    MultivariateSeries::from_rows(&rows)
}

/// The workload's model. Weights (and the int8 calibration set) use fixed
/// seeds: they are the deployment, `--seed` only drives the inputs.
pub fn build_model(workload: Workload) -> GapClassifier {
    let (d, n, _) = workload.geometry();
    match workload {
        Workload::EngineInt8 => {
            let mut model = cnn(
                InputEncoding::Dcnn,
                d,
                2,
                ModelScale::Small,
                &mut SeededRng::new(9),
            );
            let mut rng = SeededRng::new(90);
            let calib: Vec<MultivariateSeries> =
                (0..16).map(|_| random_series(d, n, &mut rng)).collect();
            model.calibrate_int8_on(&calib);
            model
        }
        // Two "same" convolutions with the InceptionTime-length kernel, so
        // Auto resolves both to the fft strategy at n = 8192.
        Workload::EngineLong => {
            let mut rng = SeededRng::new(5);
            let mut features = Sequential::new();
            for (c_in, c_out) in [(d, 6), (6, 8)] {
                features.add(Box::new(Conv2dRows::same(c_in, c_out, 39, &mut rng)));
                features.add(Box::new(BatchNorm::new(c_out)));
                features.add(Box::new(Relu::new()));
            }
            let head = Dense::new(8, 2, &mut rng);
            GapClassifier::new("dCNN-long", InputEncoding::Dcnn, features, head).with_input_dims(d)
        }
        _ => cnn(
            InputEncoding::Dcnn,
            d,
            2,
            ModelScale::Tiny,
            &mut SeededRng::new(1),
        ),
    }
}

/// The seeded inputs of one run.
pub struct Pool {
    pub series: Vec<MultivariateSeries>,
    /// `POST /v1/explain` bodies of the first `payloads` series.
    pub explain_payloads: Vec<String>,
    /// `POST /v1/classify` bodies of the same series.
    pub classify_payloads: Vec<String>,
}

impl Pool {
    /// `payloads` bounds how many request bodies are rendered (a long
    /// series is ≈ 1 MB of JSON; only the HTTP workloads need all 64).
    pub fn new(workload: Workload, seed: u64, payloads: usize) -> Pool {
        let (d, n, _) = workload.geometry();
        let mut rng = SeededRng::new(seed);
        let series: Vec<MultivariateSeries> =
            (0..POOL).map(|_| random_series(d, n, &mut rng)).collect();
        let rendered = &series[..payloads.min(POOL)];
        Pool {
            explain_payloads: rendered.iter().map(|s| explain_payload(s, CLASS)).collect(),
            classify_payloads: rendered.iter().map(classify_payload).collect(),
            series,
        }
    }
}

fn classify_payload(series: &MultivariateSeries) -> String {
    let rows: Vec<Vec<f32>> = (0..series.n_dims())
        .map(|d| series.dim(d).to_vec())
        .collect();
    serde_json::to_string(&Value::Object(vec![("series".into(), rows.to_value())]))
        .unwrap_or_default()
}

/// Shard and router of the HTTP tier, with the generator's connections.
///
/// Placement, where the thread may run on two cores or more: the shard
/// (service worker, connection workers) lives on the first, the router and
/// the thread that booted the tier — hence the generator threads it spawns —
/// on the second, as a router and its clients in front of a shard on another
/// machine would. Left to the scheduler, each boot settles into one of two
/// arrangements 7 % apart and keeps it (README "Placement").
pub struct HttpTier {
    pub shard: DcamServer,
    pub router: Router,
    /// Persistent connections to the router, one per generator thread.
    pub routed: Vec<HttpClient>,
    /// A persistent connection straight to the shard (traced pass only).
    pub direct: HttpClient,
    /// Keeps the booting thread on the router's core while the tier lives.
    /// Declared last: the thread is released once the tier is gone.
    _clients_core: Option<Pinned>,
}

/// One booted instance of the system under test.
pub struct Stack {
    pub workload: Workload,
    pub cfg: DcamConfig,
    /// The in-process replica: what the engine workloads measure, and what
    /// served answers are checked against.
    pub local: GapClassifier,
    /// Kept alive only at `Level::Service` (the HTTP tier owns it above).
    service: Option<DcamService>,
    pub handle: Option<ServiceHandle>,
    pub http: Option<HttpTier>,
}

impl Stack {
    /// Builds the model and boots the stack up to `level`, waits until the
    /// router reports the shard healthy, and warms it up. The caller times
    /// this: it is `setup_s`.
    pub fn boot(workload: Workload, level: Level, pool: &Pool) -> Stack {
        let local = build_model(workload);
        let cfg = workload.dcam_config();
        let mut stack = Stack {
            workload,
            cfg,
            local,
            service: None,
            handle: None,
            http: None,
        };
        // The shard's threads inherit the core this thread is on when they
        // are spawned (see `HttpTier`).
        let shard_core = (level >= Level::Http)
            .then(|| pin_to(Core::Nth(0)))
            .flatten();
        if level >= Level::Service {
            // Shipped defaults (as `dcam_server` uses them): max_pending 16,
            // max_wait 10 ms, Block; one worker.
            let mut service_cfg = ServiceConfig {
                precision: stack.local.precision(),
                ..ServiceConfig::default()
            };
            service_cfg.batcher.many.dcam = stack.cfg.clone();
            let service = DcamService::spawn(vec![build_model(workload)], service_cfg);
            stack.handle = Some(service.handle());
            stack.service = Some(service);
        }
        if level >= Level::Http {
            let service = stack.service.take().expect("service booted above");
            stack.http = Some(boot_http(service, shard_core));
        }
        stack.warm_up(pool);
        stack
    }

    fn warm_up(&mut self, pool: &Pool) {
        let workload = self.workload;
        let ops = workload.warm_up_ops();
        match workload.level() {
            Level::Engine => {
                for s in &pool.series[..ops] {
                    black_box(self.explain_local(s));
                }
            }
            Level::Service => {
                let handle = self.handle.as_ref().expect("service booted");
                let burst: Vec<_> = pool.series[..ops]
                    .iter()
                    .filter_map(|s| handle.submit(s, CLASS).ok())
                    .collect();
                for future in burst {
                    black_box(future.wait().is_ok());
                }
            }
            Level::Http => {
                let path = workload.http_path();
                let bodies = workload.http_bodies(pool);
                let http = self.http.as_mut().expect("http tier booted");
                for (i, body) in bodies.iter().take(ops).enumerate() {
                    let client = &mut http.routed[i % CONNECTIONS];
                    black_box(client.post(path, body).map(|r| r.status).unwrap_or(0));
                }
            }
        }
    }

    pub fn explain_local(&mut self, series: &MultivariateSeries) -> DcamResult {
        compute_dcam(&mut self.local, series, CLASS, &self.cfg)
    }

    /// One measured round of the workload's own loop. `len` bounds a
    /// closed-loop round, `bursts` an open-loop one; `next[t]` is generator
    /// thread `t`'s operation counter and `recs[t]` its span recorder.
    /// `clocked` reads the core clock on the calling thread between
    /// operations; pass it only when the workload's work runs on that core
    /// (the HTTP workloads, which use both, ignore it).
    pub fn round(
        &mut self,
        pool: &Pool,
        len: Duration,
        bursts: usize,
        clocked: bool,
        next: &mut [usize; CONNECTIONS],
        recs: &mut [Recorder; CONNECTIONS],
    ) -> Round {
        let workload = self.workload;
        match workload.level() {
            Level::Engine => {
                let rec = &mut recs[0];
                closed_round(len, &mut next[0], clocked, |i| {
                    let series = &pool.series[i % POOL];
                    let result = rec.span(OP_SPAN, i as u64, |_| self.explain_local(series));
                    let ok = result.k == self.cfg.k;
                    black_box(result);
                    ok
                })
            }
            Level::Service => {
                let handle = self.handle.as_ref().expect("service booted");
                // Open loop: a request's span would have to outlive the
                // generator's call, so the traced pass records the submit
                // call only; latencies come from the due-time accounting.
                let rec = &mut recs[0];
                open_round(
                    BURST,
                    bursts,
                    &mut next[0],
                    clocked,
                    |i| {
                        rec.span(OP_SPAN, i as u64, |_| {
                            handle.submit(&pool.series[i % POOL], CLASS).ok()
                        })
                    },
                    |future| future.try_get().map(|r| r.is_ok()),
                )
            }
            Level::Http => {
                let path = workload.http_path();
                let bodies = workload.http_bodies(pool);
                let http = self.http.as_mut().expect("http tier booted");
                let mut merged = Round::default();
                std::thread::scope(|scope| {
                    let generators: Vec<_> = http
                        .routed
                        .iter_mut()
                        .zip(next.iter_mut())
                        .zip(recs.iter_mut())
                        .enumerate()
                        .map(|(t, ((client, next), rec))| {
                            scope.spawn(move || {
                                // Each connection walks its own half of the
                                // pool so the two never send the same body
                                // at the same moment.
                                let offset = t * POOL / CONNECTIONS;
                                // The work runs on the stack's threads, on
                                // both vCPUs: wall clock only.
                                closed_round(len, next, false, |i| {
                                    let body = &bodies[(i + offset) % bodies.len()];
                                    rec.span(OP_SPAN, (i * CONNECTIONS + t) as u64, |_| {
                                        client
                                            .post(path, body)
                                            .is_ok_and(|r| r.status == 200 && !r.body.is_empty())
                                    })
                                })
                            })
                        })
                        .collect();
                    for g in generators {
                        merged.merge(g.join().expect("generator thread panicked"));
                    }
                });
                merged
            }
        }
    }

    /// Graceful teardown: router first, then the shard drains its service.
    pub fn shutdown(self) {
        if let Some(http) = self.http {
            drop(http.routed);
            drop(http.direct);
            http.router.shutdown();
            http.shard.shutdown();
        }
        if let Some(service) = self.service {
            service.shutdown();
        }
    }
}

/// Boots one shard and a router in front of it, and waits until the
/// router's prober has seen the shard healthy. `shard_core` is the pin the
/// service was spawned under, if any; the router and this thread move to the
/// next core.
fn boot_http(service: DcamService, shard_core: Option<Pinned>) -> HttpTier {
    // conn_workers 4, not the default 2: the router's two pooled upstream
    // connections otherwise pin both workers, `/healthz` probes time out
    // and the router answers 503 no_healthy_replica after a few seconds.
    let shard = serve(
        service,
        ServerConfig {
            conn_workers: 4,
            ..Default::default()
        },
    )
    .expect("bind shard listener");
    // `None` on a single core: everything then shares it, unplaced.
    let clients_core = shard_core.and_then(|shard_core| {
        drop(shard_core);
        pin_to(Core::Nth(1))
    });
    let router = serve_router(RouterConfig {
        shards: vec![shard.addr().to_string()],
        health: HealthConfig {
            probe_interval: Duration::from_millis(25),
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind router listener");
    let (mut routed, direct) = connect(&router, &shard);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(fleet) = fleet(&mut routed[0]) {
            let probed = fleet
                .get("fleet")
                .and_then(|f| f.as_array())
                .is_some_and(|shards| {
                    shards.iter().all(|s| {
                        s.get("healthy").and_then(Value::as_bool) == Some(true)
                            && s.get("probes").and_then(Value::as_f64) >= Some(1.0)
                    })
                });
            if probed {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "router never saw the shard healthy"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    HttpTier {
        shard,
        router,
        routed,
        direct,
        _clients_core: clients_core,
    }
}

/// Fresh generator connections: [`CONNECTIONS`] to the router, one to the
/// shard.
fn connect(router: &Router, shard: &DcamServer) -> (Vec<HttpClient>, HttpClient) {
    let router_addr = router.addr().to_string();
    let routed = (0..CONNECTIONS)
        .map(|_| HttpClient::connect(&router_addr).expect("connect to router"))
        .collect();
    let direct = HttpClient::connect(&shard.addr().to_string()).expect("connect to shard");
    (routed, direct)
}

impl HttpTier {
    /// Replaces every generator connection with a fresh one. Shard and
    /// router close keep-alive connections idle for 5 s, which the traced
    /// pass exceeds whenever it spends a while in-process.
    pub fn reconnect(&mut self) {
        (self.routed, self.direct) = connect(&self.router, &self.shard);
    }
}

/// The router's `GET /fleet` document.
pub fn fleet(client: &mut HttpClient) -> Option<Value> {
    let resp = client.get("/fleet").ok()?;
    (resp.status == 200).then(|| resp.json().ok()).flatten()
}
