//! The traced pass: per-layer metrics measured from the benchmark's own
//! files, by timing calls into each layer's public functions and reading
//! public stats snapshots. Nothing outside this package is instrumented.
//!
//! Every traced run boots the full stack (model → service → shard → router)
//! for the workload's model and geometry, so every per-layer metric is
//! defined on every workload. One "ladder" operation calls each layer once
//! on the same input, routed and direct, served and in-process alternating,
//! so the subtractions (`server.hop_ms`, `router.hop_us`,
//! `core.service.overhead_ms`) are like for like.

use crate::loadgen::{clock_speed, Round};
use crate::stats::{median, median_or_nan};
use crate::trace::{Recorder, Span};
use crate::verify::{verify, Verdict};
use crate::workloads::{
    build_model, fleet, Level, Pool, Stack, Workload, BURST, CLASS, CONNECTIONS, POOL,
};
use dcam::arch::GapClassifier;
use dcam::cam::weighted_map_batch;
use dcam::dcam_many::{compute_dcam_many, DcamManyConfig, DcamRequest};
use dcam_nn::layers::{Conv2dRows, Layer};
use dcam_nn::{BatchArena, Precision};
use dcam_series::cube::cube;
use dcam_series::MultivariateSeries;
use dcam_server::wire;
use dcam_tensor::{
    activation_scale, dequantize_row, gemm_packed_strided_b, k_groups, next_pow2, qgemm_i32,
    quantize_lane_into, spectra_mul_acc, FftPlan, FftScratch, PackedA, QuantizedWeights, SeededRng,
    Tensor,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Request bodies the ladder renders (it cycles through that many inputs).
pub const LADDER_INPUTS: usize = 4;
/// Instances of the `compute_dcam_many` probe.
const MANY: usize = 8;
/// Classify round trips per ladder operation, direct and routed each.
const CLASSIFY_PAIRS: usize = 10;
/// Registry lookups per `core.registry.resolve_x100` span.
const RESOLVES: usize = 100;
/// `op_id` of the first ladder operation (the workload's own operations
/// count up from 0).
const LADDER_OP_BASE: u64 = 1_000_000;
/// `op_id` of the one `nn.calibrate` span.
const CALIBRATE_OP: u64 = 2_000_000;

/// What a traced run hands back.
pub struct Traced {
    /// `(metric name, value)` for every per-layer metric, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Clock speed sampled at the start of each ladder operation, by
    /// `op_id`; per-layer times are span durations × this.
    pub speeds: BTreeMap<u64, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub verdict: Verdict,
    /// Free-text facts recorded beside the numbers (resolved strategies…).
    pub notes: Vec<(&'static str, String)>,
}

/// `(c_in, c_out, kernel length)` of the model's widest convolution
/// (largest `c_in · c_out · ℓ`); the kernel probes replay its shapes.
fn widest_conv(model: &mut GapClassifier) -> (usize, usize, usize) {
    let mut widest = (0, 0, 0);
    model.visit_convs(&mut |conv| {
        let shape = (conv.in_channels(), conv.out_channels(), conv.kernel_len());
        if shape.0 * shape.1 * shape.2 > widest.0 * widest.1 * widest.2 {
            widest = shape;
        }
    });
    widest
}

/// Kernel-level probes of one workload: operands shaped like one sample of
/// the widest convolution, allocated once.
struct KernelProbes {
    c_in: usize,
    c_out: usize,
    len: usize,
    h: usize,
    w: usize,
    x: Vec<f32>,
    out: Vec<f32>,
    taps: Vec<PackedA>,
    qtaps: Vec<QuantizedWeights>,
    qx: Vec<u8>,
    qacc: Vec<i32>,
    plan: FftPlan,
    scratch: FftScratch,
    kernel_spectra: (Vec<f32>, Vec<f32>),
    x_spectra: (Vec<f32>, Vec<f32>),
    y_spectra: (Vec<f32>, Vec<f32>),
    conv: Conv2dRows,
    conv_input: Tensor,
    arena: BatchArena,
}

impl KernelProbes {
    fn new(stack: &mut Stack) -> Self {
        let (workload, batch) = (stack.workload, stack.cfg.batch);
        let (c_in, c_out, len) = widest_conv(&mut stack.local);
        let (d, n, _) = workload.geometry();
        let (h, w) = (d, n);
        let mut rng = SeededRng::new(17);
        let weights = Tensor::uniform(&[c_out, c_in, len], -0.5, 0.5, &mut rng);
        let wd = weights.data();
        let x = Tensor::uniform(&[c_in, h, w], -1.0, 1.0, &mut rng).into_vec();

        let taps = (0..len)
            .map(|li| {
                let mut pa = PackedA::new();
                pa.pack_strided(c_out, c_in, &wd[li..], c_in * len, len);
                pa
            })
            .collect();
        let qtaps = (0..len)
            .map(|li| {
                QuantizedWeights::from_rows(c_out, c_in, |co, ci| wd[(co * c_in + ci) * len + li])
            })
            .collect();

        // One overlap-save block, sized as the fft strategy sizes it.
        let block = next_pow2((4 * len).max(1024)).min(next_pow2(w + len - 1));
        let plan = FftPlan::new(block);
        let bins = plan.bins();
        let mut scratch = FftScratch::new();
        let mut kernel_spectra = (
            vec![0.0; c_out * c_in * bins],
            vec![0.0; c_out * c_in * bins],
        );
        plan.real_spectra_into(
            wd,
            c_out * c_in,
            len,
            true,
            &mut kernel_spectra.0,
            &mut kernel_spectra.1,
            &mut scratch,
        );

        let mut conv = Conv2dRows::same(c_in, c_out, len, &mut rng);
        if workload == Workload::EngineInt8 {
            conv.visit_quant(&mut |q| {
                q.precision = Precision::Int8;
                q.act_scale = Some(activation_scale(1.0));
            });
        }
        KernelProbes {
            c_in,
            c_out,
            len,
            h,
            w,
            out: vec![0.0; c_out * h * w],
            taps,
            qtaps,
            qx: vec![0u8; k_groups(c_in) * h * (w + len - 1) * 4],
            qacc: vec![0i32; c_out * w],
            x_spectra: (vec![0.0; c_in * bins], vec![0.0; c_in * bins]),
            y_spectra: (vec![0.0; c_out * bins], vec![0.0; c_out * bins]),
            plan,
            scratch,
            kernel_spectra,
            conv_input: Tensor::uniform(&[batch, c_in, h, w], -1.0, 1.0, &mut rng),
            conv,
            arena: BatchArena::new(),
            x,
        }
    }

    /// Multiply-adds ×2 of one [`KernelProbes::gemm`] call.
    fn gemm_flops(&self) -> f64 {
        2.0 * (self.c_out * self.c_in * self.len * self.h * self.w) as f64
    }

    /// One sample of the f32 shift-GEMM convolution: one strided-B GEMM per
    /// kernel tap over the whole `H·W` plane.
    fn gemm(&mut self) {
        let hw = self.h * self.w;
        for (li, pa) in self.taps.iter().enumerate() {
            let n_eff = hw - li;
            gemm_packed_strided_b(pa, &self.x[li..], hw, n_eff, &mut self.out, hw, 0, li != 0);
        }
        black_box(&self.out);
    }

    /// One sample of the int8 convolution walk: quantize every input row
    /// into the interleaved buffer, one `qgemm_i32` per tap per `H`-row,
    /// dequantize every output row.
    fn qgemm(&mut self) {
        let (c_in, c_out, len, h, w) = (self.c_in, self.c_out, self.len, self.h, self.w);
        let (hw, wp) = (h * w, w + len - 1);
        for ci in 0..c_in {
            let (g, lane) = (ci / 4, ci % 4);
            for hi in 0..h {
                let src = &self.x[ci * hw + hi * w..ci * hw + (hi + 1) * w];
                let base = ((g * h + hi) * wp + len / 2) * 4 + lane;
                quantize_lane_into(src, 127.0, &mut self.qx[base..]);
            }
        }
        for hi in 0..h {
            for (li, tap) in self.qtaps.iter().enumerate() {
                qgemm_i32(
                    tap,
                    &self.qx[hi * wp * 4..],
                    h * wp * 4,
                    li,
                    w,
                    &mut self.qacc,
                    w,
                    li != 0,
                );
            }
            for co in 0..c_out {
                dequantize_row(
                    &self.qacc[co * w..(co + 1) * w],
                    self.qtaps[0].corr()[co],
                    self.qtaps[0].scales()[co] / 127.0,
                    0.0,
                    &mut self.out[co * hw + hi * w..co * hw + (hi + 1) * w],
                );
            }
        }
        black_box(&self.out);
    }

    /// One overlap-save block of the fft convolution for one `H`-row:
    /// forward transforms of the `c_in` segments, the `c_out × c_in`
    /// pointwise multiply-accumulates, inverse transforms of `c_out` rows.
    fn fft(&mut self) {
        let (c_in, c_out, bins, block) = (self.c_in, self.c_out, self.plan.bins(), self.plan.len());
        let seg = block.min(self.w);
        self.plan.real_spectra_into(
            &self.x,
            c_in,
            seg,
            false,
            &mut self.x_spectra.0,
            &mut self.x_spectra.1,
            &mut self.scratch,
        );
        self.y_spectra.0.fill(0.0);
        self.y_spectra.1.fill(0.0);
        for co in 0..c_out {
            for ci in 0..c_in {
                let k = (co * c_in + ci) * bins;
                spectra_mul_acc(
                    &self.x_spectra.0[ci * bins..(ci + 1) * bins],
                    &self.x_spectra.1[ci * bins..(ci + 1) * bins],
                    &self.kernel_spectra.0[k..k + bins],
                    &self.kernel_spectra.1[k..k + bins],
                    &mut self.y_spectra.0[co * bins..(co + 1) * bins],
                    &mut self.y_spectra.1[co * bins..(co + 1) * bins],
                );
            }
        }
        let out_len = seg.min(block - (self.len - 1));
        self.plan.real_inverse_into(
            &self.y_spectra.0,
            &self.y_spectra.1,
            c_out,
            &mut self.out,
            out_len,
            self.len - 1,
            1,
            &mut self.scratch,
        );
        black_box(&self.out);
    }

    /// The widest convolution's `forward_eval` on one batch (a clone of
    /// `conv_input`: the eval path consumes its input).
    fn conv_forward(&mut self, x: Tensor) {
        let y = self.conv.forward_eval(x, &mut self.arena);
        self.arena.recycle(y);
    }
}

/// Replays one explanation from public pieces, so the forwards and CAM
/// weightings inside it can be timed: `k` permuted cubes, forwarded
/// `DcamConfig::batch` at a time through the eval path, each batch weighted
/// into row-wise CAMs.
/// Returns the number of forwards.
fn replay_explain(
    stack: &mut Stack,
    series: &MultivariateSeries,
    arena: &mut BatchArena,
    rec: &mut Recorder,
    op: u64,
) -> usize {
    let (d, n, k) = stack.workload.geometry();
    let plane = d * d * n;
    let mut rng = SeededRng::new(stack.cfg.seed);
    let perms: Vec<Vec<usize>> = (0..k).map(|_| rng.permutation(d)).collect();
    let mut cam = Vec::new();
    let mut forwards = 0;
    for batch in perms.chunks(stack.cfg.batch) {
        let mut cubes = arena.take(batch.len() * plane);
        for (bi, perm) in batch.iter().enumerate() {
            let permuted = series.permute_dims(perm);
            let c = rec.span("series.cube", op, |_| cube(&permuted));
            cubes[bi * plane..(bi + 1) * plane].copy_from_slice(c.data());
        }
        let xb = Tensor::from_vec(cubes, &[batch.len(), d, d, n]).expect("cube batch shape");
        let (features, logits) = rec.span("nn.forward", op, |_| {
            stack.local.forward_with_features_eval(xb, arena)
        });
        forwards += 1;
        cam.resize(batch.len() * d * n, 0.0);
        rec.span("core.dcam.cam", op, |_| {
            weighted_map_batch(&features, stack.local.class_weights(), CLASS, &mut cam)
        });
        black_box((&cam, &logits));
        arena.recycle(features);
    }
    forwards
}

/// One ladder operation: every layer once, on pool input `i`.
fn ladder_op(
    stack: &mut Stack,
    pool: &Pool,
    probes: &mut KernelProbes,
    arena: &mut BatchArena,
    rec: &mut Recorder,
    op: u64,
    facts: &mut Facts,
) {
    let i = op as usize % LADDER_INPUTS;
    let series = &pool.series[i];
    let explain_body = &pool.explain_payloads[i];
    let classify_body = &pool.classify_payloads[i];
    let many_cfg = DcamManyConfig {
        dcam: stack.cfg.clone(),
        ..Default::default()
    };
    let ok200 = |r: Result<dcam_server::HttpResponse, dcam_server::ClientError>| {
        r.is_ok_and(|r| r.status == 200)
    };

    // Keep-alive connections idle for 5 s are closed by the far side, and
    // one ladder operation can spend longer than that in-process: start each
    // on fresh connections, with one untimed request down each path.
    let http = stack.http.as_mut().expect("http tier booted");
    http.reconnect();
    for client in [&mut http.direct, &mut http.routed[0]] {
        black_box(client.post("/v1/classify", classify_body).is_ok());
    }

    rec.span("ladder", op, |rec| {
        rec.span("tensor.gemm", op, |_| probes.gemm());
        rec.span("tensor.qgemm", op, |_| probes.qgemm());
        rec.span("tensor.fft", op, |_| probes.fft());
        let conv_input = probes.conv_input.clone();
        rec.span("nn.conv_fwd", op, |_| probes.conv_forward(conv_input));
        rec.span("nn.classify_fwd", op, |_| {
            black_box(stack.local.logits_for(series));
        });

        let result = rec.span("core.dcam.explain", op, |_| stack.explain_local(series));
        facts.ng_ratio = result.ng_ratio() as f64;
        facts.forwards = rec.span("core.dcam.replay", op, |rec| {
            replay_explain(stack, series, arena, rec, op)
        });
        rec.span("core.dcam_many", op, |_| {
            let requests: Vec<DcamRequest<'_>> = (0..MANY)
                .map(|j| DcamRequest {
                    series: &pool.series[(i + j) % pool.series.len()],
                    class: CLASS,
                })
                .collect();
            black_box(compute_dcam_many(&mut stack.local, &requests, &many_cfg));
        });

        let handle = stack.handle.as_ref().expect("service booted");
        let mut attempt = |ok: bool| {
            facts.attempted += 1;
            facts.failed += usize::from(!ok);
        };
        attempt(rec.span("core.service.lone", op, |_| {
            handle.submit(series, CLASS).and_then(|f| f.wait()).is_ok()
        }));
        attempt(rec.span("core.service.classify_lone", op, |_| {
            handle
                .submit_classify(series)
                .and_then(|f| f.wait())
                .is_ok()
        }));

        let http = stack.http.as_mut().expect("http tier booted");
        let registry = http.shard.registry();
        rec.span("core.registry.resolve_x100", op, |_| {
            for _ in 0..RESOLVES {
                black_box(registry.resolve(None).is_ok());
            }
        });
        rec.span("server.decode", op, |_| {
            let parsed = serde_json::parse(explain_body)
                .ok()
                .and_then(|v| wire::parse_explain(&v).ok());
            black_box(parsed.map(|p| MultivariateSeries::from_rows(&p.series)));
        });
        facts.response_bytes = rec.span("server.encode", op, |_| {
            wire::explain_body(&result, false, None).len()
        });
        facts.request_bytes = explain_body.len();

        // Alternate which tier goes first so neither always runs on the
        // caches the other just warmed.
        let routed_first = op % 2 == 1;
        for pass in 0..2 {
            if (pass == 0) == routed_first {
                attempt(rec.span("router.post", op, |_| {
                    ok200(http.routed[0].post("/v1/explain", explain_body))
                }));
            } else {
                attempt(rec.span("server.post", op, |_| {
                    ok200(http.direct.post("/v1/explain", explain_body))
                }));
            }
        }
        for _ in 0..CLASSIFY_PAIRS {
            attempt(rec.span("server.classify", op, |_| {
                ok200(http.direct.post("/v1/classify", classify_body))
            }));
            attempt(rec.span("router.classify", op, |_| {
                ok200(http.routed[0].post("/v1/classify", classify_body))
            }));
        }
    });
}

/// Counts and sizes the ladder notes on the side.
#[derive(Default)]
struct Facts {
    attempted: usize,
    failed: usize,
    forwards: usize,
    ng_ratio: f64,
    request_bytes: usize,
    response_bytes: usize,
}

/// The traced run of one workload: the workload's own loop with and without
/// the recorder (tracing overhead), then the ladder, then the stack's
/// counters and verification.
pub fn traced_pass(workload: Workload, seed: u64, seconds: f64) -> Traced {
    let payloads = if workload.level() == Level::Http {
        POOL
    } else {
        LADDER_INPUTS
    };
    let pool = Pool::new(workload, seed, payloads);
    let mut stack = Stack::boot(workload, Level::Http, &pool);
    let t0 = Instant::now();

    // The workload's own loop: untraced, traced, untraced, traced.
    let round_len = Duration::from_secs_f64(seconds / 8.0);
    let bursts = ((seconds / 8.0 / BURST.period.as_secs_f64()).round() as usize).max(1);
    let mut next = [0usize; CONNECTIONS];
    let mut own = [Round::default(), Round::default()];
    let mut recs = [true, false].map(|on| [(); CONNECTIONS].map(|_| Recorder::new(on, t0)));
    // Only the engine workloads are clocked here: this pass boots the whole
    // stack, which is not pinned to a core.
    let clocked = workload.level() == Level::Engine;
    for pass in 0..4 {
        let traced = pass % 2;
        let recs = &mut recs[1 - traced];
        own[traced].merge(stack.round(&pool, round_len, bursts, clocked, &mut next, recs));
    }
    let [traced_recs, _] = recs;
    let [mut rec, other] = traced_recs;
    rec.absorb(other);
    // At the reference clock where the loop is clocked, so that a clock
    // level change between passes does not read as tracing overhead.
    let p50 = |r: &Round| median_or_nan(&r.reference_ms);
    let overhead_share = p50(&own[1]) / p50(&own[0]) - 1.0;
    let raw_p50_ms = median_or_nan(&own[0].latencies_ms);
    // The service's counters describe the workload's own traffic; on the
    // engine workloads, which send it none, the ladder's lone requests.
    let service_stats = |stack: &Stack| stack.handle.as_ref().expect("service booted").stats();
    let own_service = (workload.level() > Level::Engine).then(|| service_stats(&stack));

    // The ladder: at least three operations, then until its half of the
    // run's time is used.
    let mut probes = KernelProbes::new(&mut stack);
    let mut arena = BatchArena::new();
    let mut facts = Facts::default();
    let ladder_start = Instant::now();
    let mut speeds = BTreeMap::new();
    let mut op = 0u64;
    while op < 3 || ladder_start.elapsed().as_secs_f64() < seconds / 2.0 {
        let op_id = LADDER_OP_BASE + op;
        speeds.insert(op_id, clock_speed());
        ladder_op(
            &mut stack,
            &pool,
            &mut probes,
            &mut arena,
            &mut rec,
            op_id,
            &mut facts,
        );
        op += 1;
    }
    let mut calibrated = build_model(workload);
    speeds.insert(CALIBRATE_OP, clock_speed());
    rec.span("nn.calibrate", CALIBRATE_OP, |_| {
        calibrated.calibrate_int8_on(&pool.series[..4])
    });
    let ladder_speed = median(&speeds.values().copied().collect::<Vec<_>>());

    stack.http.as_mut().expect("http tier booted").reconnect();
    let verdict = verify(&mut stack, &pool);
    let service = own_service.unwrap_or_else(|| service_stats(&stack));
    let http = stack.http.as_mut().expect("http tier booted");
    let server = http.shard.server_stats();
    let router_totals = fleet(&mut http.routed[0]);
    let router_count = |key: &str| {
        router_totals
            .as_ref()
            .and_then(|v| v.get("router")?.get(key)?.as_f64())
            .unwrap_or(f64::NAN)
    };
    let (d, n, _) = workload.geometry();
    let strategies = stack.local.resolved_conv_strategies(d, n);
    let conv_strategy = probes.conv.resolved_strategy(d, n);

    // Span durations in ms at the reference clock: each ladder operation's
    // spans by the clock speed sampled at its start.
    let spans = rec.spans();
    let span_ms =
        |s: &Span| s.dur_ns() as f64 / 1e6 * speeds.get(&s.op_id).copied().unwrap_or(ladder_speed);
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let med = |name| median_or_nan(&named(name).map(span_ms).collect::<Vec<_>>());
    // Forward time of one whole replayed explanation (its last batch may be
    // partial, so this is not forwards × the median forward).
    let mut forwards_by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in named("nn.forward") {
        *forwards_by_op.entry(s.op_id).or_default() += span_ms(s);
    }
    let forwards_ms = median_or_nan(&forwards_by_op.into_values().collect::<Vec<_>>());
    let explain_ms = med("core.dcam.explain");
    let forward_ms = med("nn.forward");
    let many_ms = med("core.dcam_many");
    let lone_ms = med("core.service.lone");
    let gemm_ms = med("tensor.gemm");
    let forwards = facts.forwards as f64;
    let metrics = vec![
        ("tensor.gemm_us", gemm_ms * 1e3),
        (
            "tensor.gemm_gflops",
            probes.gemm_flops() / (gemm_ms * 1e-3) / 1e9,
        ),
        ("tensor.qgemm_us", med("tensor.qgemm") * 1e3),
        ("tensor.fft_us", med("tensor.fft") * 1e3),
        ("nn.forward_ms", forward_ms),
        ("nn.forward_share", forwards_ms / explain_ms),
        ("nn.conv_fwd_ms", med("nn.conv_fwd")),
        ("nn.classify_fwd_us", med("nn.classify_fwd") * 1e3),
        (
            "nn.arena_pooled_mb",
            arena.pooled_elems() as f64 * 4.0 / 1e6,
        ),
        ("nn.calibrate_ms", med("nn.calibrate")),
        ("series.cube_us", med("series.cube") * 1e3),
        ("core.dcam.explain_ms", explain_ms),
        ("core.dcam.cam_us", med("core.dcam.cam") * 1e3),
        ("core.dcam.self_ms", explain_ms - forwards_ms),
        ("core.dcam.forwards_per_explain", forwards),
        ("core.dcam.ng_ratio", facts.ng_ratio),
        ("core.dcam_many.per_instance_ms", many_ms / MANY as f64),
        (
            "core.dcam_many.batch_gain",
            MANY as f64 * explain_ms / many_ms,
        ),
        ("core.service.lone_ms", lone_ms),
        ("core.service.overhead_ms", lone_ms - explain_ms),
        (
            "core.service.classify_lone_us",
            med("core.service.classify_lone") * 1e3,
        ),
        ("core.service.mean_batch", service.mean_batch),
        ("core.service.flush_full", service.flushes_full as f64),
        (
            "core.service.flush_deadline",
            service.flushes_deadline as f64,
        ),
        ("core.service.flush_drained", service.flushes_drained as f64),
        (
            "core.service.max_queue_depth",
            service.max_queue_depth as f64,
        ),
        ("core.service.rejected", service.rejected as f64),
        ("core.service.failed", service.failed as f64),
        (
            "core.registry.resolve_us",
            med("core.registry.resolve_x100") * 1e3 / RESOLVES as f64,
        ),
        ("server.decode_us", med("server.decode") * 1e3),
        ("server.encode_us", med("server.encode") * 1e3),
        ("server.request_bytes", facts.request_bytes as f64),
        ("server.response_bytes", facts.response_bytes as f64),
        ("server.hop_ms", med("server.post") - lone_ms),
        ("server.classify_rtt_us", med("server.classify") * 1e3),
        ("server.responses_5xx", server.responses_5xx as f64),
        ("server.backpressure_503", server.backpressure_503 as f64),
        (
            "router.hop_us",
            (med("router.classify") - med("server.classify")) * 1e3,
        ),
        ("router.retries", router_count("retries")),
        ("router.failovers", router_count("failovers")),
        (
            "loadgen.late_max_ms",
            own[0].late_max_ms.max(own[1].late_max_ms),
        ),
        ("loadgen.raw_p50_ms", raw_p50_ms),
        ("loadgen.clock_speed", ladder_speed),
        ("trace.overhead_share", overhead_share),
        ("verify.map_rel_err", verdict.map_rel_err),
    ];
    let notes = vec![
        ("resolved_conv_strategies", format!("{strategies:?}")),
        ("nn.conv_fwd_strategy", format!("{conv_strategy:?}")),
        (
            "nn.conv_fwd_shape",
            format!(
                "{:?} x batch {}",
                (probes.c_in, probes.c_out, probes.len),
                stack.cfg.batch
            ),
        ),
        ("ladder_ops", op.to_string()),
    ];
    let attempted = own[0].attempted() + own[1].attempted() + facts.attempted + verdict.checked;
    let failed = own[0].failed + own[1].failed + facts.failed + verdict.failed;
    let spans = rec.spans().to_vec();
    stack.shutdown();
    Traced {
        metrics,
        spans,
        speeds,
        attempted,
        failed,
        verdict,
        notes,
    }
}

/// Whether a per-layer value is one the run can stand behind: the counters
/// that must be zero are zero and nothing is NaN.
pub fn traced_ok(t: &Traced) -> bool {
    let zero = [
        "router.retries",
        "router.failovers",
        "core.service.failed",
        "core.service.rejected",
    ];
    t.metrics
        .iter()
        .all(|(name, v)| v.is_finite() && (!zero.contains(name) || *v == 0.0))
}
