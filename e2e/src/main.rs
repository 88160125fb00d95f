//! `e2e` — the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! # one run of one workload, as the benchmark driver calls it; the last
//! # line of stdout is the result object
//! e2e --workload engine_short --seed 1 --seconds 15 --trace 0|1
//!
//! # every workload, untraced then traced, each run in a child process; one
//! # `workload metric value unit` line per metric; summary.json and per-run
//! # run-*.json / trace-*.json under --out (default results/e2e)
//! e2e [--seed 1] [--seconds 15] [--out DIR] [--repeat 2] [--smoke]
//!
//! # only compare BENCHMARK.json (as built in) with what the binary prints
//! e2e --check-manifest
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics, which
//! layer metric should move which end-to-end metric, and the fixed
//! conditions.

mod layers;
mod loadgen;
mod manifest;
mod stats;
mod trace;
mod verify;
mod workloads;

use layers::{traced_ok, traced_pass, Traced};
use loadgen::{clock_speed, peak_rss_mb, pin_to, reset_peak_rss, Core, Round};
use manifest::{check_manifest, MetricDef, END_TO_END, PER_LAYER};
use serde::Value;
use stats::{
    median, percentile, quiet_quartile, quiet_round_median, relative_spread, tail_percentile,
    worsening,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use verify::{verify, Verdict};
use workloads::{Level, Pool, Stack, Workload, BURST, CONNECTIONS, POOL};

/// Rounds one run's measured time is cut into; `lat_p50_ms` and
/// `throughput_ops` are the second best of them (`stats::quiet_quartile`).
const ROUNDS: usize = 5;
/// Times the stack is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Environment pins that would silently change what is measured.
const FORBIDDEN_ENV: [&str; 3] = ["DCAM_CONV_STRATEGY", "DCAM_PRECISION", "DCAM_QGEMM_KERNEL"];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where detail documents go. A single-workload run writes none unless
    /// asked; a full run defaults to `results/e2e`.
    out: Option<PathBuf>,
    repeat: usize,
    /// 0.2 s rounds and a single set-up: drives everything quickly.
    smoke: bool,
    check_only: bool,
}

impl Args {
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        repeat: 1,
        smoke: false,
        check_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--repeat" => args.repeat = value()?.parse().map_err(|_| bad("repeat"))?,
            "--check-manifest" => args.check_only = true,
            "--smoke" => {
                args.smoke = true;
                args.seconds = 0.2 * ROUNDS as f64;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// Pins the fixed conditions: one compute thread, no strategy / precision /
/// kernel overrides. Must run before anything reads `DCAM_THREADS`.
fn fix_conditions() -> Result<(), String> {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the benchmark measures shipped defaults only"
            ));
        }
    }
    match std::env::var("DCAM_THREADS") {
        Ok(v) if v != "1" => Err(format!("DCAM_THREADS={v}; the benchmark is defined at 1")),
        _ => {
            std::env::set_var("DCAM_THREADS", "1");
            Ok(())
        }
    }
}

/// Latency and throughput of one run's rounds.
struct Summary {
    lat_p50_ms: f64,
    lat_p90_ms: f64,
    throughput_ops: f64,
    round_p50_ms: Vec<f64>,
    round_throughput: Vec<f64>,
}

/// Summarises `rounds` at the reference clock (`at_reference`) or as the
/// wall clock read them; the two agree on rounds that were not clocked.
fn summarise(rounds: &[Round], at_reference: bool) -> Summary {
    let per_round: Vec<&[f64]> = rounds
        .iter()
        .map(|r| {
            if at_reference {
                r.reference_ms.as_slice()
            } else {
                r.latencies_ms.as_slice()
            }
        })
        .collect();
    let pooled: Vec<f64> = per_round.concat();
    let round_throughput: Vec<f64> = rounds.iter().map(|r| r.throughput(at_reference)).collect();
    Summary {
        // NaN when nothing succeeded; the run then reports `correct: false`.
        lat_p50_ms: quiet_round_median(&per_round),
        lat_p90_ms: if pooled.is_empty() {
            f64::NAN
        } else {
            percentile(&pooled, 0.90)
        },
        throughput_ops: quiet_quartile(&round_throughput, true),
        round_p50_ms: per_round
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median(r))
            .collect(),
        round_throughput,
    }
}

/// One untraced run of one workload.
struct Measured {
    /// Values of [`END_TO_END`], in its order. On the engine workloads and
    /// on `service_burst` times are at the reference clock (see
    /// `loadgen::clock_speed`); on the HTTP workloads they are `wall_clock`.
    values: [f64; 5],
    /// The same figures as the wall clock read them.
    wall_clock: [f64; 5],
    samples: usize,
    attempted: usize,
    failed: usize,
    verdict: Verdict,
    late_max_ms: f64,
    /// Median clock speed of each round (1.0 where the clock is not read).
    round_speed: Vec<f64>,
    /// Per-round median latency and throughput behind `values`, for the
    /// spread `--repeat` prints.
    round_p50_ms: Vec<f64>,
    round_throughput: Vec<f64>,
}

fn measure(workload: Workload, seed: u64, seconds: f64, setups: usize) -> Measured {
    let payloads = if workload.level() == Level::Http {
        POOL
    } else {
        0
    };
    let pool = Pool::new(workload, seed, payloads);
    // An engine workload does all its work, set-up included, on this thread.
    // `service_burst` adds the service's single worker: both are pinned to
    // one core for the run, so that a reading taken here is a reading of
    // the core the worker runs on. The HTTP workloads use both cores
    // (`Stack::boot` places them) and the wall clock.
    let pinned = (workload.level() == Level::Service)
        .then(|| pin_to(Core::Current))
        .flatten();
    let clocked = workload.level() == Level::Engine || pinned.is_some();

    // Set up several times and report the median; keep the last stack.
    let (mut setup_wall_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut stack = None;
    for _ in 0..setups {
        if let Some(previous) = stack.take() {
            Stack::shutdown(previous);
        }
        let before = if clocked { clock_speed() } else { 1.0 };
        let t0 = Instant::now();
        stack = Some(Stack::boot(workload, workload.level(), &pool));
        let elapsed = t0.elapsed().as_secs_f64();
        let after = if clocked { clock_speed() } else { 1.0 };
        setup_wall_s.push(elapsed);
        setup_s.push(elapsed * (before + after) / 2.0);
    }
    let mut stack = stack.expect("at least one set-up");

    let round_len = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let bursts = ((round_len.as_secs_f64() / BURST.period.as_secs_f64()).round() as usize).max(1);
    let t0 = Instant::now();
    let mut quiet = [(); CONNECTIONS].map(|_| Recorder::new(false, t0));
    let mut next = [0usize; CONNECTIONS];
    let mut rounds: Vec<Round> = Vec::with_capacity(ROUNDS);
    let mut peak_mb = 0.0f64;
    for _ in 0..ROUNDS {
        reset_peak_rss();
        rounds.push(stack.round(&pool, round_len, bursts, clocked, &mut next, &mut quiet));
        peak_mb = peak_mb.max(peak_rss_mb());
    }
    let verdict = verify(&mut stack, &pool);
    stack.shutdown();
    drop(pinned);

    let reported = summarise(&rounds, true);
    let as_read = summarise(&rounds, false);
    let samples: usize = rounds.iter().map(|r| r.latencies_ms.len()).sum();
    let measured_failed: usize = rounds.iter().map(|r| r.failed).sum();
    Measured {
        values: [
            reported.lat_p50_ms,
            reported.lat_p90_ms,
            reported.throughput_ops,
            peak_mb,
            median(&setup_s),
        ],
        wall_clock: [
            as_read.lat_p50_ms,
            as_read.lat_p90_ms,
            as_read.throughput_ops,
            peak_mb,
            median(&setup_wall_s),
        ],
        samples,
        attempted: samples + measured_failed + verdict.checked,
        failed: measured_failed + verdict.failed,
        verdict,
        late_max_ms: rounds.iter().fold(0.0, |m, r| m.max(r.late_max_ms)),
        round_speed: rounds.iter().map(|r| r.speed).collect(),
        round_p50_ms: reported.round_p50_ms,
        round_throughput: reported.round_throughput,
    }
}

fn print_metric(workload: Workload, def: &MetricDef, value: f64) {
    println!("{} {} {value} {}", workload.name(), def.name, def.unit);
}

/// `{"name": {"value": v, "unit": u}, …}`; a value that is not finite
/// (only on a run that already failed) goes out as 0 so the line stays JSON.
fn metrics_value(defs: &[MetricDef], values: &[f64]) -> Value {
    Value::Object(
        defs.iter()
            .zip(values)
            .map(|(def, &v)| {
                let value = Value::Number(if v.is_finite() { v } else { 0.0 });
                let fields = vec![
                    ("value".into(), value),
                    ("unit".into(), Value::String(def.unit.into())),
                ];
                (def.name.to_string(), Value::Object(fields))
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Value) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(attempted.max(1) as f64)),
        ("failed".into(), Value::Number(failed as f64)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&doc).expect("value trees always print")
}

/// Looks every declared per-layer metric up in what the traced pass
/// produced; a metric missing on either side is a harness bug.
fn per_layer_values(t: &Traced) -> Result<Vec<f64>, String> {
    if let Some((extra, _)) = t
        .metrics
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|d| d.name == *n))
    {
        return Err(format!("traced pass produced undeclared metric {extra}"));
    }
    PER_LAYER
        .iter()
        .map(|def| {
            t.metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("traced pass did not produce {}", def.name))
        })
        .collect()
}

fn write_json(dir: &Path, file: &str, value: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    let text = serde_json::to_string(value).expect("value trees always print");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_measured(workload: Workload, m: &Measured) {
    for (def, &v) in END_TO_END.iter().zip(&m.values) {
        print_metric(workload, def, v);
    }
    println!(
        "{} fail_share {} ratio (attempted {} succeeded {} failed {}; {} latency samples, map_rel_err {:e}, round p50s {:.3?})",
        workload.name(),
        m.failed as f64 / m.attempted.max(1) as f64,
        m.attempted,
        m.attempted - m.failed,
        m.failed,
        m.samples,
        m.verdict.map_rel_err,
        m.round_p50_ms,
    );
    // The same run as the wall clock read it, beside the clock it ran at.
    let wall: Vec<String> = END_TO_END
        .iter()
        .zip(&m.wall_clock)
        .map(|(def, v)| format!("{} {v} {}", def.name, def.unit))
        .collect();
    let clock = if m.wall_clock == m.values {
        "clock not read: these are the reported values".to_string()
    } else {
        format!("clock_speed per round {:.3?}", m.round_speed)
    };
    println!(
        "{} wall_clock {} ({clock})",
        workload.name(),
        wall.join(", ")
    );
    if tail_percentile(m.samples) < 0.90 {
        eprintln!(
            "warning: {} made {} samples; lat_p90_ms has fewer than {} beyond it",
            workload.name(),
            m.samples,
            stats::MIN_BEYOND
        );
    }
}

fn print_traced(workload: Workload, t: &Traced, values: &[f64]) {
    for (def, &v) in PER_LAYER.iter().zip(values) {
        print_metric(workload, def, v);
    }
    for (key, note) in &t.notes {
        println!("{} note {key} = {note}", workload.name());
    }
}

/// What an untraced run leaves in `run-<workload>-untraced.json`.
fn measured_value(workload: Workload, m: &Measured) -> Value {
    let num = |v: f64| Value::Number(if v.is_finite() { v } else { 0.0 });
    let nums = |v: &[f64]| Value::Array(v.iter().map(|&x| num(x)).collect());
    Value::Object(vec![
        ("workload".into(), Value::String(workload.name().into())),
        ("end_to_end".into(), metrics_value(&END_TO_END, &m.values)),
        ("attempted".into(), num(m.attempted as f64)),
        ("failed".into(), num(m.failed as f64)),
        (
            "fail_share".into(),
            num(m.failed as f64 / m.attempted.max(1) as f64),
        ),
        ("latency_samples".into(), num(m.samples as f64)),
        ("map_rel_err".into(), num(m.verdict.map_rel_err)),
        ("loadgen_late_max_ms".into(), num(m.late_max_ms)),
        (
            "wall_clock".into(),
            metrics_value(&END_TO_END, &m.wall_clock),
        ),
        ("round_clock_speed".into(), nums(&m.round_speed)),
        ("round_p50_ms".into(), nums(&m.round_p50_ms)),
        ("round_throughput_ops".into(), nums(&m.round_throughput)),
    ])
}

/// What a traced run leaves in `run-<workload>-traced.json` (the spans go to
/// `trace-<workload>.json`).
fn traced_value(workload: Workload, t: &Traced, values: &[f64]) -> Value {
    let notes = t
        .notes
        .iter()
        .map(|(k, v)| (k.to_string(), Value::String(v.clone())))
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(workload.name().into())),
        ("per_layer".into(), metrics_value(&PER_LAYER, values)),
        ("attempted".into(), Value::Number(t.attempted as f64)),
        ("failed".into(), Value::Number(t.failed as f64)),
        ("notes".into(), Value::Object(notes)),
    ])
}

fn detail_file(workload: Workload, traced: bool) -> String {
    let pass = if traced { "traced" } else { "untraced" };
    format!("run-{}-{pass}.json", workload.name())
}

/// One run of one workload, the way the benchmark driver calls it.
fn driver_run(args: &Args, workload: Workload) -> Result<bool, String> {
    let (correct, line, detail) = if args.trace {
        let t = traced_pass(workload, args.seed, args.seconds);
        let values = per_layer_values(&t)?;
        print_traced(workload, &t, &values);
        if let Some(out) = &args.out {
            let file = format!("trace-{}.json", workload.name());
            let spans = trace::to_value(workload.name(), &t.spans, &t.speeds);
            write_json(out, &file, &spans)?;
        }
        let correct = t.verdict.failed == 0 && traced_ok(&t);
        let metrics = metrics_value(&PER_LAYER, &values);
        (
            correct,
            result_line(correct, t.attempted, t.failed, metrics),
            traced_value(workload, &t, &values),
        )
    } else {
        let m = measure(workload, args.seed, args.seconds, args.setups());
        print_measured(workload, &m);
        let correct = m.verdict.failed == 0 && m.values.iter().all(|v| v.is_finite() && *v > 0.0);
        let metrics = metrics_value(&END_TO_END, &m.values);
        (
            correct,
            result_line(correct, m.attempted, m.failed, metrics),
            measured_value(workload, &m),
        )
    };
    if let Some(out) = &args.out {
        write_json(out, &detail_file(workload, args.trace), &detail)?;
    }
    let problems = check_manifest();
    for p in &problems {
        eprintln!("manifest: {p}");
    }
    println!("{line}");
    Ok(correct && problems.is_empty())
}

/// The machine and the fixed conditions, for `summary.json`.
fn conditions_value(args: &Args) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let wanted = [
        "sse4_2",
        "avx",
        "avx2",
        "fma",
        "avx512f",
        "avx512bw",
        "avx512_vnni",
        "avx_vnni",
    ];
    let flags: Vec<Value> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| {
            l.split_whitespace()
                .filter(|f| wanted.contains(f))
                .collect::<Vec<_>>()
        })
        .unwrap_or_default()
        .into_iter()
        .map(|f| Value::String(f.into()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("nproc".into(), Value::Number(nproc as f64)),
        (
            "thread_count".into(),
            Value::Number(dcam_tensor::thread_count() as f64),
        ),
        ("cpu_flags".into(), Value::Array(flags)),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("seconds".into(), Value::Number(args.seconds)),
        ("rounds".into(), Value::Number(ROUNDS as f64)),
        ("setups".into(), Value::Number(args.setups() as f64)),
        (
            "generator_connections".into(),
            Value::Number(CONNECTIONS as f64),
        ),
        ("pool".into(), Value::Number(POOL as f64)),
    ])
}

/// What one workload produced in one set of a full run: whether both of its
/// runs succeeded, and the detail documents they left.
struct WorkloadResult {
    workload: Workload,
    ok: bool,
    untraced: Value,
    traced: Value,
}

impl WorkloadResult {
    fn end_to_end(&self, metric: &str) -> f64 {
        self.untraced
            .get("end_to_end")
            .and_then(|m| m.get(metric)?.get("value")?.as_f64())
            .unwrap_or(f64::NAN)
    }

    fn rounds(&self, key: &str) -> Vec<f64> {
        self.untraced
            .get(key)
            .and_then(Value::as_array)
            .map(|v| v.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    }
}

/// Runs one workload once in a process of its own — exactly what the
/// benchmark driver does, so a full run's numbers are the driver's numbers
/// (in one process `peak_rss_mb` would carry the previous workloads' heap).
/// The child's output passes through; its detail document comes back.
fn run_child(
    args: &Args,
    workload: Workload,
    traced: bool,
    out: &Path,
) -> Result<(bool, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(args.smoke.then_some("--smoke"))
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .status()
        .map_err(|e| format!("start {}: {e}", workload.name()))?;
    let path = out.join(detail_file(workload, traced));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let detail = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((status.success(), detail))
}

/// `--repeat`: per workload × end-to-end metric, how much worse the second
/// set read than the first, beside the per-round spread of the first.
/// Returns whether every difference stayed within its metric's bound.
fn compare_sets(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    let mut within = true;
    for (a, b) in first.iter().zip(second) {
        for def in &END_TO_END {
            let (x, y) = (a.end_to_end(def.name), b.end_to_end(def.name));
            let diff = worsening(x, y, def.higher_is_better);
            let spread = match def.name {
                "lat_p50_ms" => Some(relative_spread(&a.rounds("round_p50_ms"))),
                "throughput_ops" => Some(relative_spread(&a.rounds("round_throughput_ops"))),
                _ => None,
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let ok = diff <= bound;
            within &= ok;
            println!(
                "repeat {} {} first {x} second {y} worse_by {diff:+.4} bound {bound} round_spread {} {}",
                a.workload.name(),
                def.name,
                spread.map_or("-".to_string(), |s| format!("{s:.4}")),
                if ok { "ok" } else { "EXCEEDED" },
            );
        }
    }
    within
}

/// Every workload, untraced then traced, `--repeat` times.
fn full_run(args: &Args) -> Result<bool, String> {
    let out = args.out.clone().unwrap_or_else(|| "results/e2e".into());
    let mut ok = true;
    let mut sets: Vec<Vec<WorkloadResult>> = Vec::with_capacity(args.repeat);
    for set in 0..args.repeat {
        let dir = out.join(format!("set{set}"));
        let mut results = Vec::with_capacity(Workload::ALL.len());
        for workload in Workload::ALL {
            let (untraced_ok, untraced) = run_child(args, workload, false, &dir)?;
            let (traced_ok, traced) = run_child(args, workload, true, &dir)?;
            ok &= untraced_ok && traced_ok;
            results.push(WorkloadResult {
                workload,
                ok: untraced_ok && traced_ok,
                untraced,
                traced,
            });
        }
        sets.push(results);
    }
    if let [first, second, ..] = sets.as_slice() {
        ok &= compare_sets(first, second);
    }
    let set_value = |set: &Vec<WorkloadResult>| {
        Value::Array(
            set.iter()
                .map(|r| {
                    Value::Object(vec![
                        ("workload".into(), Value::String(r.workload.name().into())),
                        ("ok".into(), Value::Bool(r.ok)),
                        ("untraced".into(), r.untraced.clone()),
                        ("traced".into(), r.traced.clone()),
                    ])
                })
                .collect(),
        )
    };
    let summary = Value::Object(vec![
        ("conditions".into(), conditions_value(args)),
        (
            "sets".into(),
            Value::Array(sets.iter().map(set_value).collect()),
        ),
    ]);
    write_json(&out, "summary.json", &summary)?;
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.check_only {
        let problems = check_manifest();
        for p in &problems {
            eprintln!("manifest: {p}");
        }
        println!("manifest: {} problem(s)", problems.len());
        return Ok(problems.is_empty());
    }
    fix_conditions()?;
    match args.workload {
        Some(workload) => driver_run(args, workload),
        None => full_run(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: verification, repeatability or manifest check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` (0.2 s rounds, one set-up) drives all six workloads end to
    /// end, in this process: untraced run, traced pass, verification, and
    /// the detail documents a run leaves.
    #[test]
    fn smoke_drives_all_six_workloads() {
        fix_conditions().unwrap();
        let args = parse_args(&["--smoke".to_string()]).unwrap();
        for workload in Workload::ALL {
            let name = workload.name();
            let m = measure(workload, args.seed, args.seconds, args.setups());
            assert_eq!(m.failed, 0, "{name}: failed operations");
            assert_eq!(m.verdict.failed, 0, "{name}: verification");
            assert!(
                m.values.iter().all(|v| v.is_finite() && *v > 0.0),
                "{name}: {:?}",
                m.values
            );
            assert!(
                m.wall_clock.iter().all(|v| v.is_finite() && *v > 0.0),
                "{name}: {:?}",
                m.wall_clock
            );
            assert_eq!(m.round_speed.len(), ROUNDS);
            assert!(m.samples >= ROUNDS, "{name}: {} samples", m.samples);
            if workload == Workload::ServiceBurst {
                assert!(m.late_max_ms < 5.0, "generator late {}", m.late_max_ms);
            }
            let detail = measured_value(workload, &m);
            assert_eq!(
                detail
                    .get("round_p50_ms")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len),
                Some(ROUNDS)
            );

            let t = traced_pass(workload, args.seed, args.seconds);
            assert_eq!(t.failed, 0, "{name}: traced failures");
            assert!(traced_ok(&t), "{name}: {:?}", t.metrics);
            let values = per_layer_values(&t).unwrap();
            assert_eq!(values.len(), PER_LAYER.len());
            assert!(traced_value(workload, &t, &values).get("notes").is_some());
            // Spans for every layer the README lists.
            let totals = trace::totals_by_name(&t.spans);
            for layer in [
                "tensor.gemm",
                "tensor.qgemm",
                "tensor.fft",
                "nn.forward",
                "nn.conv_fwd",
                "nn.classify_fwd",
                "nn.calibrate",
                "series.cube",
                "core.dcam.explain",
                "core.dcam.replay",
                "core.dcam.cam",
                "core.dcam_many",
                "core.service.lone",
                "core.service.classify_lone",
                "core.registry.resolve_x100",
                "server.decode",
                "server.encode",
                "server.post",
                "server.classify",
                "router.post",
                "router.classify",
                "ladder",
                workloads::OP_SPAN,
            ] {
                assert!(totals.contains_key(layer), "{name}: no {layer} span");
            }
        }
    }

    #[test]
    fn reference_clock_figures_sit_beside_wall_clock_figures() {
        let round = |wall_ms: f64, speed: f64, n: usize| Round {
            latencies_ms: vec![wall_ms; n],
            reference_ms: vec![wall_ms * speed; n],
            wall_s: 1.0,
            reference_wall_s: speed,
            speed,
            ..Round::default()
        };
        // Two rounds of identical code: one at the reference clock, one on a
        // clock at 0.8 of it, where everything takes 1.25 × as long.
        let rounds = [round(8.0, 1.0, 50), round(10.0, 0.8, 40)];
        let as_read = summarise(&rounds, false);
        assert_eq!(as_read.round_p50_ms, [8.0, 10.0]);
        assert_eq!(as_read.round_throughput, [50.0, 40.0]);
        // Of two rounds the better one is reported (rank ⌈2/4⌉ = 1).
        assert_eq!((as_read.lat_p50_ms, as_read.throughput_ops), (8.0, 50.0));
        let at_reference = summarise(&rounds, true);
        assert_eq!(at_reference.round_p50_ms, [8.0, 8.0]);
        assert_eq!(at_reference.round_throughput, [50.0, 50.0]);
        assert_eq!(at_reference.lat_p90_ms, 8.0);
        // Rounds that were not clocked read the same both ways.
        let unclocked = [round(8.0, 1.0, 50), round(10.0, 1.0, 40)];
        assert_eq!(summarise(&unclocked, true).lat_p50_ms, 8.0);
        assert_eq!(summarise(&unclocked, true).throughput_ops, 50.0);
        assert!(summarise(&[Round::default()], true).lat_p50_ms.is_nan());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            metrics_value(&END_TO_END, &[1.5, 2.5, 3.5, 4.5, f64::NAN]),
        );
        let v = serde_json::parse(&line).unwrap();
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let lat = v.get("metrics").unwrap().get("lat_p50_ms").unwrap();
        assert_eq!(lat.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(lat.get("unit").and_then(Value::as_str), Some("ms"));
        // Non-finite values never break the line.
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = parse(&[
            "--workload",
            "http_classify",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::HttpClassify), 7, 3.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--repeat", "0"]).is_err());
        assert!(parse(&["--manifest", "BENCHMARK.json"]).is_err());
        let smoke = parse(&["--smoke"]).unwrap();
        assert_eq!((smoke.seconds, smoke.setups(), smoke.out), (1.0, 1, None));
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
