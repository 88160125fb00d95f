//! `dcam-server` — a dependency-free HTTP/1.1 front end for the
//! [`dcam::service`] asynchronous explanation service.
//!
//! The paper positions dCAM as an explanation practitioners query per
//! instance; this crate is the network layer that makes the in-process
//! service queryable: a hand-rolled HTTP/1.1 server on
//! [`std::net::TcpListener`] (the build environment has no crates.io
//! access) exposing
//!
//! * `POST /v1/explain` — series payload plus optional `model` / class /
//!   `strict_only_correct` / `top_k` options, answered with the dCAM map
//!   or a per-dimension importance summary;
//! * `POST /v1/classify` — series payload (plus optional `model`),
//!   answered with logits and the argmax class;
//! * `GET /v1/models` — every registered model: name, version,
//!   architecture descriptor, geometry, worker count and per-model stats;
//! * `POST /v1/models/{name}/swap` — hot-swaps the named model to a
//!   binary checkpoint file on the server's filesystem (an operator API:
//!   expose it only on trusted networks), without interrupting the other
//!   models;
//! * `POST /v1/eval` — submits a perturbation-based
//!   explanation-faithfulness job (instances + labels + methods + k-grid)
//!   and answers 202 with a job id; `GET /v1/eval/{id}` polls its status
//!   and, once done, the per-method deletion/insertion report;
//!   `DELETE /v1/eval/{id}` cancels a queued or running job;
//! * `POST /v1/analyze` — submits a motif-mining job (instances plus
//!   labels plus clustering parameters) that batch-explains the dataset
//!   and clusters the per-(class, dimension) dCAM activation rows under
//!   DTW; same job lifecycle as `/v1/eval` (202 + id,
//!   `GET /v1/analyze/{id}` polls, `DELETE /v1/analyze/{id}` cancels at
//!   a stage boundary);
//! * `GET /healthz` — liveness probe;
//! * `GET /stats` — JSON dump of the aggregate [`ServiceStats`] plus the
//!   server-level counters ([`ServerStats`]).
//!
//! The server fronts a [`ModelRegistry`]: requests carry an optional
//! `"model"` name, resolved per request (omitted names fall back to the
//! single registered model, or the one literally named `"default"`).
//! Unknown models get a structured 404, invalid names a 400.
//! [`serve`] wraps a single [`DcamService`] into a one-entry registry
//! under the name `"default"`; [`serve_registry`] fronts a shared,
//! multi-model registry.
//!
//! Architecture: one **accept thread** pushes connections into a bounded
//! backlog; a pool of **connection workers** parses requests (keep-alive,
//! `Content-Length` framing, body-size cap) and submits them through the
//! resolved model's [`ServiceHandle`]. A worker serves one connection at a
//! time, so keep-alive clients (a router's pooled upstream connections)
//! can hold every worker; connections accepted then are read by the
//! accept thread first, which answers `GET /healthz` itself and hands
//! anything else to the backlog — liveness probes never wait for a
//! worker. Queue backpressure surfaces as
//! HTTP 503 with a `Retry-After` header, per-request deadlines as 504,
//! malformed payloads as structured 400 bodies. A client that disconnects
//! mid-request **cancels** its explanation (the service skips the cube
//! build), and [`DcamServer::shutdown`] performs a SIGTERM-style graceful
//! drain: stop accepting, finish queued connections and requests, then
//! drain every registered model and return the models and final stats.
//!
//! ```no_run
//! use dcam::arch::{cnn, InputEncoding, ModelScale};
//! use dcam::service::{DcamService, ServiceConfig};
//! use dcam_server::{serve, HttpClient, ServerConfig};
//! use dcam_tensor::SeededRng;
//!
//! let model = cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut SeededRng::new(7));
//! let service = DcamService::spawn(vec![model], ServiceConfig::default());
//! let server = serve(service, ServerConfig::default()).unwrap();
//!
//! let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
//! let resp = client
//!     .post("/v1/explain", r#"{"series": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "class": 1}"#)
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod wire;

pub use client::{
    explain_payload, explain_payload_for, ClientConfig, ClientError, HttpClient, HttpResponse,
};

use dcam::arch::GapClassifier;
use dcam::occlusion::occlusion_spans;
use dcam::registry::{ModelRegistry, RegistryError};
use dcam::service::{
    Backpressure, RequestOptions, ResponseFuture, ServiceConfig, ServiceError, ServiceHandle,
    ServiceStats,
};
use dcam::DcamService;
use dcam_analyze::{mine_motifs, MotifReport};
use dcam_eval::{run_harness, EvalReport, ExplainerKind, ServiceBackend};
use dcam_series::MultivariateSeries;
use http::{Conn, RecvError, Request};
use jobs::{JobStatus, JobStore};
use serde::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Test- and drill-only fault injection switches for one server. Shared
/// by handle ([`ServerConfig::faults`] is an `Arc`), so a chaos test can
/// flip a running shard into a failure mode — sick health checks, erroring
/// or stalling request handlers, failing swaps — and back, without
/// restarting it. All switches default to off and cost one relaxed atomic
/// load on the paths they guard.
#[derive(Debug, Default)]
pub struct ServerFaults {
    /// `GET /healthz` answers 500 — the shard looks sick to a router's
    /// health checker while everything else still works.
    pub fail_healthz: AtomicBool,
    /// `POST /v1/explain` and `/v1/classify` answer 500 without touching
    /// the service — a shard whose serving path is broken.
    pub fail_requests: AtomicBool,
    /// Every request a connection worker handles sleeps this many
    /// milliseconds before doing anything — a wedged or overloaded shard
    /// (drives client/router timeouts deterministically). Health probes
    /// the accept thread answers while every worker is busy do not stall.
    pub stall_ms: AtomicU64,
    /// `POST /v1/models/{name}/swap` answers 500 before the registry is
    /// touched — for rollout abort drills.
    pub fail_swap: AtomicBool,
}

/// Configuration of a [`DcamServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back with
    /// [`DcamServer::addr`]).
    pub addr: String,
    /// Connection-worker threads (each drives one connection at a time;
    /// the explanation work itself happens on the service's own workers).
    pub conn_workers: usize,
    /// Bound on accepted-but-unclaimed connections. The accept thread
    /// answers overflow with an immediate 503 instead of letting the
    /// kernel queue grow unbounded.
    pub conn_backlog: usize,
    /// Request bodies above this get a 413 and the connection closes.
    pub max_body_bytes: usize,
    /// End-to-end deadline per request (parse → submit → answer). A
    /// request that cannot be answered in time gets a 504 and its service
    /// work is cancelled.
    pub request_deadline: Duration,
    /// How long an idle keep-alive connection is held open.
    pub idle_keepalive: Duration,
    /// Value of the `Retry-After` header on backpressure 503s, seconds.
    pub retry_after_s: u32,
    /// Honour the `inject_panic` fault-injection field of explain
    /// requests (tests and ops drills only — never enable facing users).
    pub enable_fault_injection: bool,
    /// When set, `POST /v1/models/{name}/swap` — the operator API that
    /// loads server-side files — requires a matching `X-Admin-Token`
    /// header: missing token → structured 401, wrong token → 403. `None`
    /// leaves the endpoint open (trusted-network deployments only).
    pub admin_token: Option<String>,
    /// Fault-injection switches, shared with tests/drills via the `Arc`.
    pub faults: Arc<ServerFaults>,
    /// Bound on unfinished `/v1/eval` jobs (queued + running); submits
    /// beyond it get a 503. Evaluation re-classifies every instance once
    /// per method × grid point, so the bound keeps a burst of submits
    /// from pinning the runner thread for minutes.
    pub eval_capacity: usize,
    /// Bound on unfinished `/v1/analyze` jobs (queued + running). Mining
    /// explains every instance and then clusters per (class, dimension),
    /// so a single job already saturates the runner — the bound is small
    /// by default.
    pub analyze_capacity: usize,
    /// When set, every finished `/v1/eval` and `/v1/analyze` report is
    /// also written to this directory as `eval-{id}.json` /
    /// `analyze-{id}.json` (unique temp file + atomic rename, the same
    /// idiom as checkpoint saves) and survives a restart: `GET` answers
    /// for ids the in-memory store no longer knows fall back to the
    /// persisted report, and fresh job ids are reserved past anything
    /// already on disk so an old report is never shadowed. `None` keeps
    /// reports in memory only.
    pub jobs_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            conn_workers: 2,
            conn_backlog: 64,
            max_body_bytes: 8 * 1024 * 1024,
            request_deadline: Duration::from_secs(30),
            idle_keepalive: Duration::from_secs(5),
            retry_after_s: 1,
            enable_fault_injection: false,
            admin_token: None,
            faults: Arc::new(ServerFaults::default()),
            eval_capacity: 4,
            analyze_capacity: 2,
            jobs_dir: None,
        }
    }
}

/// Server-level counters (the transport's half of `GET /stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub connections_accepted: u64,
    /// Connections bounced with 503 because the backlog was full.
    pub connections_rejected: u64,
    /// Requests parsed off connections.
    pub requests: u64,
    /// Responses with status 2xx.
    pub responses_2xx: u64,
    /// Responses with status 4xx.
    pub responses_4xx: u64,
    /// Responses with status 5xx (including 503/504).
    pub responses_5xx: u64,
    /// 503s from service backpressure (subset of `responses_5xx`).
    pub backpressure_503: u64,
    /// 504s from the per-request deadline (subset of `responses_5xx`).
    pub deadline_504: u64,
    /// Requests whose client disconnected mid-flight; their service work
    /// was cancelled.
    pub disconnect_cancels: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    backpressure_503: AtomicU64,
    deadline_504: AtomicU64,
    disconnect_cancels: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            backpressure_503: self.backpressure_503.load(Ordering::Relaxed),
            deadline_504: self.deadline_504.load(Ordering::Relaxed),
            disconnect_cancels: self.disconnect_cancels.load(Ordering::Relaxed),
        }
    }

    fn count_status(&self, status: u16) {
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Accepted connections waiting for a connection worker, and the workers
/// waiting for a connection.
#[derive(Default)]
struct Backlog {
    conns: VecDeque<Conn>,
    idle_workers: usize,
}

impl Backlog {
    /// Whether a connection pushed now would be picked up right away.
    fn has_free_worker(&self) -> bool {
        self.conns.len() < self.idle_workers
    }
}

/// State shared by the accept thread and the connection workers.
struct Ctx {
    registry: Arc<ModelRegistry>,
    cfg: ServerConfig,
    counters: Counters,
    shutdown: AtomicBool,
    backlog: Mutex<Backlog>,
    conns_ready: Condvar,
    eval: JobKind<wire::EvalRequest, EvalReport>,
    analyze: JobKind<wire::AnalyzeRequest, MotifReport>,
}

/// One kind of background job (`/v1/eval`, `/v1/analyze`): what the shared
/// job path — routes, status, cancel, runner thread, persisted reports —
/// needs to know about it.
struct JobKind<S, R> {
    /// Route segment (`/v1/{name}`), persisted report prefix
    /// (`{name}-{id}.json`) and runner thread name.
    name: &'static str,
    store: JobStore<S, R>,
    /// `POST /v1/{name}`: parses and validates a spec (the checks differ
    /// per kind), then hands it to [`enqueue`].
    submit: fn(&mut Conn, &Request, &Ctx) -> After,
    /// The `report` field of a finished job's status body.
    report_value: fn(&R) -> Value,
    /// The work itself, on the runner thread.
    run: fn(&Ctx, S, &AtomicBool) -> Result<R, String>,
}

impl<S, R> JobKind<S, R> {
    fn status_body(&self, id: u64, status: &JobStatus<R>) -> String {
        let (report, error) = match status {
            JobStatus::Done(report) => (Some((self.report_value)(report)), None),
            JobStatus::Failed(msg) => (None, Some(msg.as_str())),
            _ => (None, None),
        };
        wire::job_status_body(id, status.name(), report, error)
    }
}

impl Ctx {
    /// Aggregate service stats across every registered model (each
    /// model's stats include its swap-retired generations, so these
    /// counters are monotonic for as long as the models stay registered).
    fn aggregate_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for info in self.registry.list() {
            total.absorb(&info.stats);
        }
        total
    }
}

/// A running explanation server.
///
/// Dropping it without [`DcamServer::shutdown`] stops the HTTP threads
/// but leaves the registry's models running — a shared registry may be
/// serving other fronts. (For a server built with [`serve`], dropping
/// the last `Arc` then drains the wrapped service anyway.)
pub struct DcamServer {
    ctx: Arc<Ctx>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Vec<JoinHandle<()>>,
    job_threads: Vec<JoinHandle<()>>,
    draining: bool,
}

/// Boots the HTTP front end over a single running [`DcamService`]: the
/// service is registered under the name `"default"` in a fresh
/// [`ModelRegistry`] (so requests that do not name a model keep working),
/// then served exactly like [`serve_registry`].
///
/// A checkpoint swap of this `"default"` entry re-spawns it with
/// [`ServiceConfig::default`] — register through a
/// [`ModelRegistry`] yourself to control the respawn config.
pub fn serve(service: DcamService, cfg: ServerConfig) -> io::Result<DcamServer> {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("default", service, "", ServiceConfig::default())
        .expect("fresh registry accepts the default model");
    serve_registry(registry, cfg)
}

/// Boots the HTTP front end over a [`ModelRegistry`]: binds `cfg.addr`,
/// starts the accept thread and `cfg.conn_workers` connection workers, and
/// returns immediately. The registry may be shared — models can be
/// registered, swapped and unregistered while the server runs, and the
/// HTTP swap endpoint drives the same registry.
pub fn serve_registry(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> io::Result<DcamServer> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let eval = JobKind {
        name: "eval",
        store: JobStore::new(cfg.eval_capacity),
        submit: handle_eval_submit,
        report_value: wire::eval_report_value,
        run: run_eval_job,
    };
    let analyze = JobKind {
        name: "analyze",
        store: JobStore::new(cfg.analyze_capacity),
        submit: handle_analyze_submit,
        report_value: wire::motif_report_value,
        run: run_analyze_job,
    };
    if let Some(dir) = cfg.jobs_dir.as_deref() {
        // A bad jobs directory should fail boot loudly, not surface as
        // silently non-durable reports later.
        std::fs::create_dir_all(dir)?;
        eval.store.reserve_through(max_persisted_id(dir, eval.name));
        analyze
            .store
            .reserve_through(max_persisted_id(dir, analyze.name));
    }
    let ctx = Arc::new(Ctx {
        registry,
        cfg: cfg.clone(),
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        backlog: Mutex::default(),
        conns_ready: Condvar::new(),
        eval,
        analyze,
    });
    let job_threads = vec![
        spawn_job_runner(&ctx, |ctx| &ctx.eval),
        spawn_job_runner(&ctx, |ctx| &ctx.analyze),
    ];
    let accept_thread = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("dcam-accept".into())
            .spawn(move || accept_loop(listener, &ctx))
            .expect("spawn accept thread")
    };
    let conn_threads = (0..cfg.conn_workers.max(1))
        .map(|i| {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("dcam-conn-{i}"))
                .spawn(move || conn_worker(&ctx))
                .expect("spawn connection worker")
        })
        .collect();
    Ok(DcamServer {
        ctx,
        addr,
        accept_thread: Some(accept_thread),
        conn_threads,
        job_threads,
        draining: false,
    })
}

impl DcamServer {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry this server routes into.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.ctx.registry
    }

    /// Server-level counters.
    pub fn server_stats(&self) -> ServerStats {
        self.ctx.counters.snapshot()
    }

    /// Aggregate service-level counters across every registered model
    /// (same snapshot `GET /stats` serves).
    pub fn service_stats(&self) -> ServiceStats {
        self.ctx.aggregate_stats()
    }

    /// SIGTERM-style graceful drain: stop accepting connections, let the
    /// connection workers finish every accepted request (in-flight
    /// keep-alive connections get `Connection: close` on their next
    /// response), then drain every registered model and return all the
    /// models plus the aggregate final stats. The registry is left empty.
    pub fn shutdown(mut self) -> (Vec<GapClassifier>, ServiceStats, ServerStats) {
        self.draining = true;
        self.stop_threads();
        let mut models = Vec::new();
        let mut stats: Option<ServiceStats> = None;
        for (_, m, s) in self.ctx.registry.shutdown_all() {
            models.extend(m);
            match &mut stats {
                Some(total) => total.absorb(&s),
                None => stats = Some(s),
            }
        }
        (
            models,
            stats.unwrap_or_default(),
            self.ctx.counters.snapshot(),
        )
    }

    fn stop_threads(&mut self) {
        self.ctx.shutdown.store(true, Ordering::Release);
        self.ctx.conns_ready.notify_all();
        self.ctx.eval.store.notify_shutdown();
        self.ctx.analyze.store.notify_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self
            .conn_threads
            .drain(..)
            .chain(self.job_threads.drain(..))
        {
            let _ = t.join();
        }
    }
}

impl Drop for DcamServer {
    /// Stops the HTTP threads only — the registry's models keep serving
    /// (a shared registry may be behind other fronts; an exclusively
    /// owned one drains when its last `Arc` drops). Call
    /// [`DcamServer::shutdown`] to also drain the models.
    fn drop(&mut self) {
        if !self.draining {
            self.stop_threads();
        }
    }
}

/// A connection the accept thread holds while every connection worker is
/// busy, until its next request shows whether it is a liveness probe.
struct Triaged {
    conn: Conn,
    /// When the connection arrived or its last probe was answered.
    since: Instant,
}

/// What a triaged connection's buffered bytes show.
enum Triage {
    /// Not enough bytes yet to tell.
    Undecided,
    /// A complete `GET /healthz` request.
    Probe(Request),
    /// Anything else: a connection worker's job.
    Work,
    /// The peer closed or the socket failed.
    Gone,
}

/// Request line prefix of the liveness probe the accept thread answers.
const PROBE_LINE: &[u8] = b"GET /healthz HTTP/1.";

/// Reads what the (non-blocking) connection has and classifies it.
fn triage(conn: &mut Conn, max_body: usize) -> Triage {
    let eof = match conn.fill() {
        Ok(n) => n == 0,
        Err(RecvError::Idle) => false,
        Err(_) => return Triage::Gone,
    };
    let buf = conn.buffered();
    let n = buf.len().min(PROBE_LINE.len());
    if buf[..n] != PROBE_LINE[..n] {
        return Triage::Work;
    }
    if n < PROBE_LINE.len() {
        return if eof { Triage::Gone } else { Triage::Undecided };
    }
    match conn.read_request(max_body) {
        Ok(req) => Triage::Probe(req),
        Err(RecvError::Idle) if !eof => Triage::Undecided,
        Err(RecvError::Idle | RecvError::Closed | RecvError::Io(_)) => Triage::Gone,
        // Malformed: the buffer is intact, a worker answers the 400/413.
        Err(RecvError::Bad(_) | RecvError::TooLarge { .. }) => Triage::Work,
    }
}

/// Queues a connection for the connection workers.
fn hand_off(ctx: &Ctx, mut conn: Conn) {
    if conn.stream().set_nonblocking(false).is_ok() {
        lock(&ctx.backlog).conns.push_back(conn);
        ctx.conns_ready.notify_one();
    }
}

/// One pass over the held connections: answers health probes in place and
/// hands everything else to the backlog as soon as it shows a non-probe
/// request line or a worker frees up. A connection silent past the
/// keep-alive window is closed, as a worker would close it; one stuck
/// mid-request goes to a worker, whose request deadline answers it.
fn triage_pass(held: &mut Vec<Triaged>, ctx: &Ctx) {
    let mut i = 0;
    while i < held.len() {
        match triage(&mut held[i].conn, ctx.cfg.max_body_bytes) {
            Triage::Probe(req) => {
                ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
                let (status, body) = health(ctx);
                match respond(&mut held[i].conn, ctx, status, &[], &body, req.close) {
                    After::KeepAlive => {
                        held[i].since = Instant::now();
                        i += 1;
                    }
                    After::Close => drop(held.swap_remove(i)),
                }
            }
            Triage::Undecided => {
                let stale = held[i].since.elapsed() >= ctx.cfg.idle_keepalive;
                if lock(&ctx.backlog).has_free_worker() || (stale && held[i].conn.has_partial()) {
                    hand_off(ctx, held.swap_remove(i).conn);
                } else if stale {
                    drop(held.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            Triage::Work => hand_off(ctx, held.swap_remove(i).conn),
            Triage::Gone => drop(held.swap_remove(i)),
        }
    }
}

fn accept_loop(listener: TcpListener, ctx: &Ctx) {
    // Connections accepted while every worker was busy (see `triage_pass`).
    // Dropped on shutdown, like connections that arrive after it: no
    // worker has started a request on them.
    let mut held: Vec<Triaged> = Vec::new();
    while !ctx.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                ctx.counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let mut backlog = lock(&ctx.backlog);
                if backlog.conns.len() + held.len() >= ctx.cfg.conn_backlog {
                    drop(backlog);
                    ctx.counters
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    // Answer on the accept thread: every connection worker
                    // is busy, so nobody else will.
                    let mut stream = stream;
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        &[("retry-after", ctx.cfg.retry_after_s.to_string())],
                        &wire::error_body("overloaded", "connection backlog full"),
                        true,
                    );
                } else if backlog.has_free_worker() {
                    backlog.conns.push_back(Conn::new(stream));
                    drop(backlog);
                    ctx.conns_ready.notify_one();
                } else if stream.set_nonblocking(true).is_ok() {
                    held.push(Triaged {
                        conn: Conn::new(stream),
                        since: Instant::now(),
                    });
                }
            }
            // Non-blocking accept: nothing pending, so look at the held
            // connections, then sleep briefly so shutdown stays responsive
            // without spinning a core.
            Err(_) => {
                triage_pass(&mut held, ctx);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn conn_worker(ctx: &Ctx) {
    loop {
        let conn = {
            let mut backlog = lock(&ctx.backlog);
            loop {
                if let Some(c) = backlog.conns.pop_front() {
                    break Some(c);
                }
                // Drain semantics: accepted connections are served even
                // after shutdown starts; only an *empty* backlog lets a
                // worker exit.
                if ctx.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                backlog.idle_workers += 1;
                backlog = ctx
                    .conns_ready
                    .wait_timeout(backlog, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
                backlog.idle_workers -= 1;
            }
        };
        let Some(conn) = conn else { return };
        handle_connection(conn, ctx);
    }
}

/// Whether the connection survives the response.
enum After {
    KeepAlive,
    Close,
}

fn handle_connection(mut conn: Conn, ctx: &Ctx) {
    // Short read timeout so the parse loop can poll the shutdown flag and
    // the idle deadline between reads.
    if conn
        .stream()
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let mut idle_deadline = Instant::now() + ctx.cfg.idle_keepalive;
    // Set once the first bytes of a request are in: a slow upload is
    // bounded by the request deadline (then 408), never by the shorter
    // idle-keep-alive deadline.
    let mut receive_deadline: Option<Instant> = None;
    loop {
        match conn.read_request(ctx.cfg.max_body_bytes) {
            Ok(req) => {
                receive_deadline = None;
                ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
                let want_close = req.close;
                match route(&mut conn, &req, ctx) {
                    After::KeepAlive if !want_close && !ctx.shutdown.load(Ordering::Acquire) => {
                        idle_deadline = Instant::now() + ctx.cfg.idle_keepalive;
                    }
                    _ => return,
                }
            }
            Err(RecvError::Idle) => {
                if conn.has_partial() {
                    let deadline = *receive_deadline
                        .get_or_insert_with(|| Instant::now() + ctx.cfg.request_deadline);
                    if Instant::now() >= deadline {
                        respond(
                            &mut conn,
                            ctx,
                            408,
                            &[],
                            &wire::error_body(
                                "request_timeout",
                                "request not received within the deadline",
                            ),
                            true,
                        );
                        return;
                    }
                } else {
                    receive_deadline = None;
                    if ctx.shutdown.load(Ordering::Acquire) || Instant::now() >= idle_deadline {
                        return;
                    }
                }
            }
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => return,
            Err(RecvError::Bad(msg)) => {
                respond(
                    &mut conn,
                    ctx,
                    400,
                    &[],
                    &wire::error_body("bad_request", &msg),
                    true,
                );
                return;
            }
            Err(RecvError::TooLarge { limit }) => {
                respond(
                    &mut conn,
                    ctx,
                    413,
                    &[],
                    &wire::error_body(
                        "payload_too_large",
                        &format!("request body exceeds {limit} bytes"),
                    ),
                    true,
                );
                return;
            }
        }
    }
}

/// Writes a response and tallies it. `close` is sticky during shutdown so
/// drained keep-alive clients are told to go away.
fn respond(
    conn: &mut Conn,
    ctx: &Ctx,
    status: u16,
    extra: &[(&str, String)],
    body: &str,
    close: bool,
) -> After {
    let close = close || ctx.shutdown.load(Ordering::Acquire);
    ctx.counters.count_status(status);
    match http::write_response(conn.stream(), status, extra, body, close) {
        Ok(()) if !close => After::KeepAlive,
        _ => After::Close,
    }
}

fn route(conn: &mut Conn, req: &Request, ctx: &Ctx) -> After {
    // Fault injection: a stalled shard stalls on *every* route, before any
    // of them get to answer.
    let stall = ctx.cfg.faults.stall_ms.load(Ordering::Relaxed);
    if stall > 0 {
        std::thread::sleep(Duration::from_millis(stall));
    }
    if ctx.cfg.faults.fail_requests.load(Ordering::Relaxed)
        && matches!(req.path.as_str(), "/v1/explain" | "/v1/classify")
    {
        return respond_error(
            conn,
            ctx,
            500,
            "injected_failure",
            "request path failing (injected fault)",
        );
    }
    // Job routes: `/v1/{kind}` and `/v1/{kind}/{id}`.
    if let Some(rest) = req.path.strip_prefix("/v1/") {
        let (segment, id) = rest
            .split_once('/')
            .map_or((rest, None), |(s, id)| (s, Some(id)));
        if segment == ctx.eval.name {
            return route_job(conn, req, ctx, &ctx.eval, id);
        }
        if segment == ctx.analyze.name {
            return route_job(conn, req, ctx, &ctx.analyze, id);
        }
    }
    // Model-admin routes: `/v1/models/{name}/swap`.
    if let Some(rest) = req.path.strip_prefix("/v1/models/") {
        if let Some(name) = rest.strip_suffix("/swap") {
            return if req.method == "POST" {
                handle_swap(conn, req, ctx, name)
            } else {
                method_not_allowed(conn, ctx, "POST")
            };
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let (status, body) = health(ctx);
            respond(conn, ctx, status, &[], &body, false)
        }
        ("GET", "/v1/models") => {
            let body = wire::models_body(&ctx.registry.list());
            respond(conn, ctx, 200, &[], &body, false)
        }
        ("GET", "/stats") => {
            let service = wire::service_stats_value(&ctx.aggregate_stats());
            let s = ctx.counters.snapshot();
            let server = Value::Object(vec![
                (
                    "connections_accepted".into(),
                    Value::Number(s.connections_accepted as f64),
                ),
                (
                    "connections_rejected".into(),
                    Value::Number(s.connections_rejected as f64),
                ),
                ("requests".into(), Value::Number(s.requests as f64)),
                (
                    "responses_2xx".into(),
                    Value::Number(s.responses_2xx as f64),
                ),
                (
                    "responses_4xx".into(),
                    Value::Number(s.responses_4xx as f64),
                ),
                (
                    "responses_5xx".into(),
                    Value::Number(s.responses_5xx as f64),
                ),
                (
                    "backpressure_503".into(),
                    Value::Number(s.backpressure_503 as f64),
                ),
                ("deadline_504".into(), Value::Number(s.deadline_504 as f64)),
                (
                    "disconnect_cancels".into(),
                    Value::Number(s.disconnect_cancels as f64),
                ),
            ]);
            let jobs = Value::Object(vec![
                (
                    ctx.eval.name.into(),
                    wire::job_counters_value(&ctx.eval.store.counters()),
                ),
                (
                    ctx.analyze.name.into(),
                    wire::job_counters_value(&ctx.analyze.store.counters()),
                ),
            ]);
            let body = serde_json::to_string(&Value::Object(vec![
                ("service".into(), service),
                ("server".into(), server),
                ("jobs".into(), jobs),
            ]))
            .unwrap_or_default();
            respond(conn, ctx, 200, &[], &body, false)
        }
        ("POST", "/v1/explain") => handle_explain(conn, req, ctx),
        ("POST", "/v1/classify") => handle_classify(conn, req, ctx),
        (_, "/healthz" | "/stats" | "/v1/models") => method_not_allowed(conn, ctx, "GET"),
        (_, "/v1/explain" | "/v1/classify") => method_not_allowed(conn, ctx, "POST"),
        (_, path) => respond_error(conn, ctx, 404, "not_found", &format!("no route for {path}")),
    }
}

/// Answers `status` with a structured error body, keeping the connection.
fn respond_error(conn: &mut Conn, ctx: &Ctx, status: u16, code: &str, message: &str) -> After {
    respond(
        conn,
        ctx,
        status,
        &[],
        &wire::error_body(code, message),
        false,
    )
}

/// A backpressure 503 with `Retry-After`.
fn respond_overloaded(conn: &mut Conn, ctx: &Ctx, message: &str) -> After {
    ctx.counters
        .backpressure_503
        .fetch_add(1, Ordering::Relaxed);
    respond(
        conn,
        ctx,
        503,
        &[("retry-after", ctx.cfg.retry_after_s.to_string())],
        &wire::error_body("overloaded", message),
        false,
    )
}

/// 405 naming the methods the route takes (`allow`, e.g. `"GET, DELETE"`).
fn method_not_allowed(conn: &mut Conn, ctx: &Ctx, allow: &str) -> After {
    let message = format!("use {}", allow.replace(", ", " or "));
    respond(
        conn,
        ctx,
        405,
        &[("allow", allow.into())],
        &wire::error_body("method_not_allowed", &message),
        false,
    )
}

/// Status and body of `GET /healthz`, on a connection worker or the accept
/// thread. Liveness must stay cheap: queue depths only, no latency
/// snapshots (those are /stats and /v1/models work).
fn health(ctx: &Ctx) -> (u16, String) {
    if ctx.cfg.faults.fail_healthz.load(Ordering::Relaxed) {
        return (
            500,
            wire::error_body("unhealthy", "health check failing (injected fault)"),
        );
    }
    let body = serde_json::to_string(&Value::Object(vec![
        ("status".into(), Value::String("ok".into())),
        ("models".into(), Value::Number(ctx.registry.len() as f64)),
        (
            "workers".into(),
            Value::Number(ctx.registry.total_workers() as f64),
        ),
        (
            "queue_depth".into(),
            Value::Number(ctx.registry.total_queue_depth() as f64),
        ),
    ]))
    .unwrap_or_default();
    (200, body)
}

fn parse_json_body(conn: &mut Conn, req: &Request, ctx: &Ctx) -> Result<Value, After> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Err(respond_error(
            conn,
            ctx,
            400,
            "bad_json",
            "request body is not UTF-8",
        ));
    };
    serde_json::parse(text).map_err(|e| respond_error(conn, ctx, 400, "bad_json", &e.to_string()))
}

/// The body parsed as JSON and then by `parse`; a body either step
/// rejects has been answered with a structured 400.
fn parse_request<T>(
    conn: &mut Conn,
    req: &Request,
    ctx: &Ctx,
    parse: fn(&Value) -> Result<T, String>,
) -> Result<T, After> {
    let value = parse_json_body(conn, req, ctx)?;
    parse(&value).map_err(|msg| respond_error(conn, ctx, 400, "bad_request", &msg))
}

/// Length-leaking but content-constant-time byte comparison: enough to
/// stop a byte-at-a-time timing oracle on the admin token.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

fn tenant_key(tenant: &str) -> u64 {
    let mut h = DefaultHasher::new();
    tenant.hash(&mut h);
    h.finish()
}

/// Maps a submit-time [`ServiceError`] onto an HTTP response.
fn respond_submit_error(conn: &mut Conn, ctx: &Ctx, err: ServiceError) -> After {
    match err {
        ServiceError::ShapeMismatch { .. } => {
            respond_error(conn, ctx, 400, "shape_mismatch", &err.to_string())
        }
        ServiceError::EmptySeries => {
            respond_error(conn, ctx, 400, "empty_series", &err.to_string())
        }
        ServiceError::InvalidClass { .. } => {
            respond_error(conn, ctx, 400, "invalid_class", &err.to_string())
        }
        ServiceError::QueueFull { .. } | ServiceError::SubmitTimeout { .. } => {
            respond_overloaded(conn, ctx, &err.to_string())
        }
        ServiceError::ShuttingDown => {
            let body = wire::error_body("shutting_down", &err.to_string());
            respond(conn, ctx, 503, &[], &body, true)
        }
        other => respond_error(conn, ctx, 500, "internal", &other.to_string()),
    }
}

/// Maps a [`RegistryError`] onto an HTTP response.
fn respond_registry_error(conn: &mut Conn, ctx: &Ctx, err: RegistryError) -> After {
    let (status, code) = match &err {
        RegistryError::UnknownModel { .. } => (404, "model_not_found"),
        RegistryError::InvalidName { .. } => (400, "invalid_model"),
        RegistryError::ModelRequired { .. } => (400, "model_required"),
        RegistryError::DuplicateModel { .. } => (409, "model_exists"),
        RegistryError::GeometryMismatch { .. } => (409, "geometry_mismatch"),
        RegistryError::Checkpoint(_) => (422, "bad_checkpoint"),
    };
    respond_error(conn, ctx, status, code, &err.to_string())
}

/// Resolves the model a request names (or the registry's default) into a
/// submission handle, with the server's deadline bound applied: a `Block`
/// backpressure policy would park a connection worker (or a job runner) on
/// a full queue with no deadline and no disconnect detection, so it is
/// rebound to a timeout. (In-process submitters keep whatever policy the
/// service was configured with — this only rebinds the server's handle.)
fn bounded_handle(ctx: &Ctx, model: Option<&str>) -> Result<ServiceHandle, RegistryError> {
    let (_, handle) = ctx.registry.resolve(model)?;
    Ok(match handle.backpressure() {
        Backpressure::Block => {
            handle.with_backpressure(Backpressure::Timeout(ctx.cfg.request_deadline))
        }
        _ => handle,
    })
}

/// [`bounded_handle`] for a request, answering registry errors.
fn resolve_handle(conn: &mut Conn, ctx: &Ctx, model: Option<&str>) -> Result<ServiceHandle, After> {
    bounded_handle(ctx, model).map_err(|e| respond_registry_error(conn, ctx, e))
}

/// `POST /v1/models/{name}/swap`: hot-swap the named model to the binary
/// checkpoint at the path given in the body. The swap happens on this
/// connection worker's thread — other connections (and every other model)
/// keep being served by the remaining workers meanwhile.
fn handle_swap(conn: &mut Conn, req: &Request, ctx: &Ctx, name: &str) -> After {
    // Operator gate: swap loads server-side files, so when an admin token
    // is configured the request must present it before anything is parsed.
    if let Some(expected) = ctx.cfg.admin_token.as_deref() {
        match req.header("x-admin-token") {
            None => {
                return respond_error(
                    conn,
                    ctx,
                    401,
                    "unauthorized",
                    "this operator endpoint requires the X-Admin-Token header",
                )
            }
            Some(got) if !constant_time_eq(got.as_bytes(), expected.as_bytes()) => {
                return respond_error(conn, ctx, 403, "forbidden", "X-Admin-Token does not match")
            }
            Some(_) => {}
        }
    }
    if ctx.cfg.faults.fail_swap.load(Ordering::Relaxed) {
        return respond_error(
            conn,
            ctx,
            500,
            "injected_failure",
            "swap failing (injected fault)",
        );
    }
    let value = match parse_json_body(conn, req, ctx) {
        Ok(v) => v,
        Err(after) => return after,
    };
    let Some(path) = value.get("path").and_then(Value::as_str) else {
        return respond_error(
            conn,
            ctx,
            400,
            "bad_request",
            "missing string field \"path\"",
        );
    };
    if let Err(e) = dcam::registry::validate_model_name(name) {
        return respond_registry_error(conn, ctx, e);
    }
    match ctx.registry.swap(name, path) {
        Ok(outcome) => {
            let body = wire::swap_body(name, outcome.version, &outcome.old_stats);
            respond(conn, ctx, 200, &[], &body, false)
        }
        Err(e) => respond_registry_error(conn, ctx, e),
    }
}

/// Outcome of awaiting a service future while watching the connection.
enum Awaited<T> {
    Done(Result<T, ServiceError>),
    /// The client hung up; the future was dropped (cancelling the work)
    /// and no response must be written.
    Disconnected,
    /// The per-request deadline passed; the future was dropped.
    DeadlineExceeded,
}

/// Waits for the worker's answer while polling the socket for an early
/// client disconnect, and enforcing the per-request deadline. Dropping
/// the future on either exit path marks the request cancelled, which the
/// service's workers observe before doing the cube build.
///
/// The answer is polled every 5 ms (pure futex wait — cheap and it bounds
/// added response latency); the disconnect probe costs three syscalls, so
/// it runs on a coarser interval — a hang-up is only worth noticing at
/// the timescale of the engine work it would cancel.
fn await_future<T>(conn: &mut Conn, ctx: &Ctx, future: ResponseFuture<T>) -> Awaited<T> {
    const PROBE_EVERY: Duration = Duration::from_millis(50);
    let deadline = Instant::now() + ctx.cfg.request_deadline;
    let mut next_probe = Instant::now() + PROBE_EVERY;
    loop {
        if let Some(result) = future.wait_timeout(Duration::from_millis(5)) {
            return Awaited::Done(result);
        }
        let now = Instant::now();
        if now >= next_probe {
            if conn.peer_closed() {
                ctx.counters
                    .disconnect_cancels
                    .fetch_add(1, Ordering::Relaxed);
                return Awaited::Disconnected;
            }
            next_probe = now + PROBE_EVERY;
        }
        if now >= deadline {
            ctx.counters.deadline_504.fetch_add(1, Ordering::Relaxed);
            return Awaited::DeadlineExceeded;
        }
    }
}

fn handle_explain(conn: &mut Conn, req: &Request, ctx: &Ctx) -> After {
    let parsed = match parse_request(conn, req, ctx, wire::parse_explain) {
        Ok(p) => p,
        Err(after) => return after,
    };
    if parsed.inject_panic && !ctx.cfg.enable_fault_injection {
        return respond_error(
            conn,
            ctx,
            400,
            "fault_injection_disabled",
            "this server does not honour inject_panic",
        );
    }
    let handle = match resolve_handle(conn, ctx, parsed.model.as_deref()) {
        Ok(h) => h,
        Err(after) => return after,
    };
    let series = MultivariateSeries::from_rows(&parsed.series);
    let opts = RequestOptions {
        class: parsed.class,
        strict_only_correct: parsed.strict_only_correct,
        tenant: parsed.tenant.as_deref().map(tenant_key),
        inject_panic: parsed.inject_panic,
    };
    let future = match handle.submit_with(&series, opts) {
        Ok(f) => f,
        Err(e) => return respond_submit_error(conn, ctx, e),
    };
    match await_future(conn, ctx, future) {
        Awaited::Done(Ok(result)) => {
            let body = wire::explain_body(&result, parsed.summary, parsed.top_k);
            respond(conn, ctx, 200, &[], &body, false)
        }
        Awaited::Done(Err(ServiceError::OnlyCorrectMiss { .. })) => respond_error(
            conn,
            ctx,
            422,
            "only_correct_miss",
            "no permutation was classified as the target class",
        ),
        Awaited::Done(Err(e)) => respond_error(conn, ctx, 500, "worker_lost", &e.to_string()),
        Awaited::Disconnected => After::Close,
        Awaited::DeadlineExceeded => {
            let body = wire::error_body("deadline_exceeded", "request deadline exceeded");
            respond(conn, ctx, 504, &[], &body, true)
        }
    }
}

/// `POST /v1/eval`: validate the job against the target model's geometry,
/// enqueue it, answer 202 with the job id. Validation happens here — not
/// in the runner — so a bad request is a structured 400 at submit time
/// instead of a `failed` job discovered on the first poll.
fn handle_eval_submit(conn: &mut Conn, req: &Request, ctx: &Ctx) -> After {
    let parsed = match parse_request(conn, req, ctx, wire::parse_eval) {
        Ok(p) => p,
        Err(after) => return after,
    };
    let name = match ctx.registry.resolve(parsed.model.as_deref()) {
        Ok((name, _)) => name,
        Err(e) => return respond_registry_error(conn, ctx, e),
    };
    if let Some(info) = ctx.registry.list().into_iter().find(|m| m.name == name) {
        for (i, rows) in parsed.series_list.iter().enumerate() {
            if rows.len() != info.dims {
                let msg = format!(
                    "instance {i} has {} dimensions, model \"{name}\" expects {}",
                    rows.len(),
                    info.dims
                );
                return respond_error(conn, ctx, 400, "shape_mismatch", &msg);
            }
        }
        if let Some((i, &l)) = parsed
            .labels
            .iter()
            .enumerate()
            .find(|(_, &l)| l >= info.n_classes)
        {
            let msg = format!(
                "labels[{i}] = {l} but model \"{name}\" has {} classes",
                info.n_classes
            );
            return respond_error(conn, ctx, 400, "invalid_class", &msg);
        }
    }
    if parsed.config.methods.contains(&ExplainerKind::Occlusion) {
        for (i, rows) in parsed.series_list.iter().enumerate() {
            let n = rows.first().map(Vec::len).unwrap_or(0);
            if let Err(e) = occlusion_spans(n, &parsed.config.occlusion) {
                let msg = format!("instance {i}: {e}");
                return respond_error(conn, ctx, 400, "bad_occlusion_window", &msg);
            }
        }
    }
    enqueue(conn, ctx, &ctx.eval, parsed)
}

/// Queues a validated job: 202 with its id, or a backpressure 503 while
/// its kind is at capacity.
fn enqueue<S, R: Clone>(conn: &mut Conn, ctx: &Ctx, kind: &JobKind<S, R>, spec: S) -> After {
    match kind.store.submit(spec) {
        Some(id) => respond(
            conn,
            ctx,
            202,
            &[],
            &wire::job_submitted_body(id, "queued"),
            false,
        ),
        None => respond_overloaded(conn, ctx, &format!("{} job queue is full", kind.name)),
    }
}

/// The on-disk location of a persisted job report.
fn report_path(dir: &Path, kind: &str, id: u64) -> PathBuf {
    dir.join(format!("{kind}-{id}.json"))
}

/// The highest job id with a persisted `{kind}-{id}.json` report in
/// `dir` (0 when there is none). Foreign files are ignored — the
/// directory is operator-owned and a stray file must not stop boot.
fn max_persisted_id(dir: &Path, kind: &str) -> u64 {
    let prefix = format!("{kind}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix(&prefix)?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

/// Writes a finished job's rendered `GET` body to
/// `{dir}/{kind}-{id}.json` through a unique temp file and an atomic
/// rename, so a crash mid-write can never leave a half-written report
/// where [`read_persisted_report`] would find it. Persistence failures
/// are logged and swallowed — the in-memory report still serves.
fn persist_report(dir: &Path, kind: &str, id: u64, body: &str) {
    let path = report_path(dir, kind, id);
    let tmp = dir.join(format!(".{kind}-{id}.json.tmp-{}", std::process::id()));
    let write = || -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, &path)
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        eprintln!(
            "dcam-server: cannot persist {kind} job {id} to {}: {e}",
            path.display()
        );
    }
}

/// A persisted report's body, verbatim — the fallback when the in-memory
/// store no longer knows the id (server restart, or eviction past the
/// retention bound).
fn read_persisted_report(dir: &Path, kind: &str, id: u64) -> Option<String> {
    std::fs::read_to_string(report_path(dir, kind, id)).ok()
}

/// Routes `/v1/{kind}` (`POST` submits) and `/v1/{kind}/{id}` (`GET`
/// polls, `DELETE` cancels) for one job kind; `id` is the path past
/// `/v1/{kind}/`, if any.
fn route_job<S, R: Clone>(
    conn: &mut Conn,
    req: &Request,
    ctx: &Ctx,
    kind: &JobKind<S, R>,
    id: Option<&str>,
) -> After {
    let Some(id) = id else {
        return if req.method == "POST" {
            (kind.submit)(conn, req, ctx)
        } else {
            method_not_allowed(conn, ctx, "POST")
        };
    };
    let Ok(id) = id.parse::<u64>() else {
        let msg = format!("no {} job \"{id}\"", kind.name);
        return respond_error(conn, ctx, 404, "unknown_job", &msg);
    };
    match req.method.as_str() {
        "GET" => job_status(conn, ctx, kind, id),
        "DELETE" => job_cancel(conn, ctx, kind, id),
        _ => method_not_allowed(conn, ctx, "GET, DELETE"),
    }
}

/// `GET /v1/{kind}/{id}`: job status, plus the report once done or the
/// failure message once failed. Ids unknown to the in-memory store fall
/// back to a report persisted under [`ServerConfig::jobs_dir`].
fn job_status<S, R: Clone>(conn: &mut Conn, ctx: &Ctx, kind: &JobKind<S, R>, id: u64) -> After {
    let body = match kind.store.status(id) {
        Some(status) => kind.status_body(id, &status),
        None => match ctx
            .cfg
            .jobs_dir
            .as_deref()
            .and_then(|dir| read_persisted_report(dir, kind.name, id))
        {
            Some(body) => body,
            None => {
                let msg = format!("no {} job {id}", kind.name);
                return respond_error(conn, ctx, 404, "unknown_job", &msg);
            }
        },
    };
    respond(conn, ctx, 200, &[], &body, false)
}

/// `DELETE /v1/{kind}/{id}`: cancel a queued or running job (idempotent on
/// finished ones); answers with the status after the cancel took effect.
fn job_cancel<S, R: Clone>(conn: &mut Conn, ctx: &Ctx, kind: &JobKind<S, R>, id: u64) -> After {
    match kind.store.cancel(id) {
        Some(status) => respond(
            conn,
            ctx,
            200,
            &[],
            &wire::job_submitted_body(id, status.name()),
            false,
        ),
        None => {
            let msg = format!("no {} job {id}", kind.name);
            respond_error(conn, ctx, 404, "unknown_job", &msg)
        }
    }
}

/// Starts the runner thread of the job kind `kind` picks out of `ctx`.
fn spawn_job_runner<S: Send + 'static, R: Clone + Send + 'static>(
    ctx: &Arc<Ctx>,
    kind: fn(&Ctx) -> &JobKind<S, R>,
) -> JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("dcam-{}-runner", kind(&ctx).name))
        .spawn(move || job_runner(&ctx, kind(&ctx)))
        .expect("spawn job runner thread")
}

/// A job kind's runner thread: drains its queue one job at a time,
/// re-resolving the target model per job (a swap between submit and run
/// works on the new generation — exactly what live traffic would see), and
/// persists each finished report when [`ServerConfig::jobs_dir`] is set.
fn job_runner<S, R: Clone>(ctx: &Ctx, kind: &JobKind<S, R>) {
    while let Some((id, spec, cancel)) = kind.store.next_job(&ctx.shutdown) {
        let result = (kind.run)(ctx, spec, &cancel);
        if let (Some(dir), Ok(report)) = (ctx.cfg.jobs_dir.as_deref(), &result) {
            let body = wire::job_status_body(id, "done", Some((kind.report_value)(report)), None);
            persist_report(dir, kind.name, id, &body);
        }
        kind.store.finish(id, result);
    }
}

/// A job's model as a service backend (deadline-bound like a request's,
/// so a runner never parks forever on a full queue either) and its
/// instances as series.
fn job_inputs(
    ctx: &Ctx,
    model: Option<&str>,
    series_list: &[Vec<Vec<f32>>],
) -> Result<(ServiceBackend, Vec<MultivariateSeries>), String> {
    let handle = bounded_handle(ctx, model).map_err(|e| e.to_string())?;
    let samples = series_list
        .iter()
        .map(|rows| MultivariateSeries::from_rows(rows))
        .collect();
    Ok((ServiceBackend::new(handle, None), samples))
}

fn run_eval_job(
    ctx: &Ctx,
    spec: wire::EvalRequest,
    cancel: &AtomicBool,
) -> Result<EvalReport, String> {
    let (mut backend, samples) = job_inputs(ctx, spec.model.as_deref(), &spec.series_list)?;
    run_harness(
        &mut backend,
        &samples,
        &spec.labels,
        &spec.config,
        Some(cancel),
    )
}

/// `POST /v1/analyze`: validate the mining job against the target model's
/// geometry, enqueue it, answer 202 with the job id. Like `/v1/eval`,
/// validation happens at submit time so bad requests are structured 400s
/// rather than `failed` jobs discovered on the first poll.
fn handle_analyze_submit(conn: &mut Conn, req: &Request, ctx: &Ctx) -> After {
    let parsed = match parse_request(conn, req, ctx, wire::parse_analyze) {
        Ok(p) => p,
        Err(after) => return after,
    };
    let name = match ctx.registry.resolve(parsed.model.as_deref()) {
        Ok((name, _)) => name,
        Err(e) => return respond_registry_error(conn, ctx, e),
    };
    // The pipeline needs one shared geometry: enforce it here (mining a
    // ragged dataset is a submit error, not a runtime failure).
    let n0 = parsed.series_list[0].first().map(Vec::len).unwrap_or(0);
    for (i, rows) in parsed.series_list.iter().enumerate() {
        let n = rows.first().map(Vec::len).unwrap_or(0);
        if rows.len() != parsed.series_list[0].len() || n != n0 {
            let msg = format!("instance {i} does not share instance 0's (dims, len) geometry");
            return respond_error(conn, ctx, 400, "shape_mismatch", &msg);
        }
    }
    if let Some(info) = ctx.registry.list().into_iter().find(|m| m.name == name) {
        if parsed.series_list[0].len() != info.dims {
            let msg = format!(
                "instances have {} dimensions, model \"{name}\" expects {}",
                parsed.series_list[0].len(),
                info.dims
            );
            return respond_error(conn, ctx, 400, "shape_mismatch", &msg);
        }
        if let Some((i, &l)) = parsed
            .labels
            .iter()
            .enumerate()
            .find(|(_, &l)| l >= info.n_classes)
        {
            let msg = format!(
                "labels[{i}] = {l} but model \"{name}\" has {} classes",
                info.n_classes
            );
            return respond_error(conn, ctx, 400, "invalid_class", &msg);
        }
    }
    enqueue(conn, ctx, &ctx.analyze, parsed)
}

fn run_analyze_job(
    ctx: &Ctx,
    spec: wire::AnalyzeRequest,
    cancel: &AtomicBool,
) -> Result<MotifReport, String> {
    let (mut backend, samples) = job_inputs(ctx, spec.model.as_deref(), &spec.series_list)?;
    mine_motifs(
        &mut backend,
        &samples,
        &spec.labels,
        &spec.config,
        Some(cancel),
    )
}

fn handle_classify(conn: &mut Conn, req: &Request, ctx: &Ctx) -> After {
    let parsed = match parse_request(conn, req, ctx, wire::parse_classify) {
        Ok(r) => r,
        Err(after) => return after,
    };
    let handle = match resolve_handle(conn, ctx, parsed.model.as_deref()) {
        Ok(h) => h,
        Err(after) => return after,
    };
    let series = MultivariateSeries::from_rows(&parsed.series);
    let tenant = parsed.tenant.as_deref().map(tenant_key);
    let future = match handle.submit_classify_with(&series, tenant) {
        Ok(f) => f,
        Err(e) => return respond_submit_error(conn, ctx, e),
    };
    match await_future(conn, ctx, future) {
        Awaited::Done(Ok(c)) => respond(conn, ctx, 200, &[], &wire::classify_body(&c), false),
        Awaited::Done(Err(e)) => respond_error(conn, ctx, 500, "worker_lost", &e.to_string()),
        Awaited::Disconnected => After::Close,
        Awaited::DeadlineExceeded => {
            let body = wire::error_body("deadline_exceeded", "request deadline exceeded");
            respond(conn, ctx, 504, &[], &body, true)
        }
    }
}
