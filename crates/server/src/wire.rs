//! Wire format of the explanation API: JSON bodies in and out.
//!
//! Parsing is strict on purpose — unknown geometry, ragged rows, or
//! non-numeric samples get a message naming the offending field, which the
//! server wraps in a structured `{"error": {...}}` body. Responses are
//! built as [`serde::Value`] trees and printed through the vendored
//! `serde_json`.

use crate::jobs::JobCounters;
use dcam::dcam::DcamResult;
use dcam::occlusion::OcclusionConfig;
use dcam::registry::ModelInfo;
use dcam::service::{Classification, ServiceStats};
use dcam_analyze::{AnalyzeConfig, ClassMotifs, Cluster, DimClusters, MotifReport, MotifWindow};
use dcam_eval::{
    Curve, CurvePoint, EvalReport, ExplainerKind, HarnessConfig, MaskStrategy, MethodReport,
};
use serde::Value;

/// A parsed `POST /v1/explain` body.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// Per-dimension sample rows, `D × n`.
    pub series: Vec<Vec<f32>>,
    /// Registry model to route to; `None` uses the server's default.
    pub model: Option<String>,
    /// Target class; `None` explains the model's predicted class.
    pub class: Option<usize>,
    /// Turn the `only_correct` fallback into a per-request error.
    pub strict_only_correct: bool,
    /// Fairness key (hashed onto the service's tenant lanes).
    pub tenant: Option<String>,
    /// Return only the `top_k` most important dimensions (implies
    /// `summary`).
    pub top_k: Option<usize>,
    /// Return the per-dimension summary instead of the full `D × n` map.
    pub summary: bool,
    /// Fault injection (only honoured when the server enables it).
    pub inject_panic: bool,
}

/// The `series` field of a body: `D × n` rows of finite f32 samples.
fn series_rows(v: &Value) -> Result<Vec<Vec<f32>>, String> {
    rows_of(v.get("series").ok_or("missing field \"series\"")?)
}

/// One instance's per-dimension rows. A sample that is not finite once
/// narrowed to f32 (`1e999`, or `1e39` past `f32::MAX`) is rejected here
/// rather than poisoning the engine's arithmetic.
fn rows_of(series: &Value) -> Result<Vec<Vec<f32>>, String> {
    let rows = series
        .as_array()
        .ok_or("\"series\" must be an array of per-dimension rows")?;
    if rows.is_empty() {
        return Err("\"series\" must hold at least one dimension".into());
    }
    let mut out = Vec::with_capacity(rows.len());
    for (d, row) in rows.iter().enumerate() {
        let row = row
            .as_array()
            .ok_or_else(|| format!("series dimension {d} must be an array of numbers"))?;
        let mut samples = Vec::with_capacity(row.len());
        for (t, x) in row.iter().enumerate() {
            let x = x
                .as_f64()
                .ok_or_else(|| format!("series[{d}][{t}] is not a number"))?
                as f32;
            if !x.is_finite() {
                return Err(format!("series[{d}][{t}] is not a finite f32"));
            }
            samples.push(x);
        }
        if samples.len() != out.first().map_or(samples.len(), Vec::len) {
            return Err(format!(
                "ragged series: dimension {d} has {} samples, dimension 0 has {}",
                samples.len(),
                out.first().map_or(0, Vec::len)
            ));
        }
        out.push(samples);
    }
    Ok(out)
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

fn opt_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(f) => f
            .as_bool()
            .ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

fn opt_string(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("\"{key}\" must be a string")),
    }
}

/// Parses a `POST /v1/explain` body.
pub fn parse_explain(v: &Value) -> Result<ExplainRequest, String> {
    let series = series_rows(v)?;
    let top_k = opt_usize(v, "top_k")?;
    Ok(ExplainRequest {
        series,
        model: opt_string(v, "model")?,
        class: opt_usize(v, "class")?,
        strict_only_correct: opt_bool(v, "strict_only_correct")?,
        tenant: opt_string(v, "tenant")?,
        summary: opt_bool(v, "summary")? || top_k.is_some(),
        top_k,
        inject_panic: opt_bool(v, "inject_panic")?,
    })
}

/// A parsed `POST /v1/classify` body.
#[derive(Debug, Clone)]
pub struct ClassifyRequest {
    /// Per-dimension sample rows, `D × n`.
    pub series: Vec<Vec<f32>>,
    /// Registry model to route to; `None` uses the server's default.
    pub model: Option<String>,
    /// Fairness key (hashed onto the service's tenant lanes).
    pub tenant: Option<String>,
}

/// Parses a `POST /v1/classify` body.
pub fn parse_classify(v: &Value) -> Result<ClassifyRequest, String> {
    Ok(ClassifyRequest {
        series: series_rows(v)?,
        model: opt_string(v, "model")?,
        tenant: opt_string(v, "tenant")?,
    })
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

/// A structured error body: `{"error": {"code": ..., "message": ...}}`.
pub fn error_body(code: &str, message: &str) -> String {
    let v = obj(vec![(
        "error",
        obj(vec![
            ("code", Value::String(code.into())),
            ("message", Value::String(message.into())),
        ]),
    )]);
    serde_json::to_string(&v).unwrap_or_default()
}

/// The `POST /v1/explain` success body: the full `D × n` map, or — with
/// `summary`/`top_k` — a per-dimension importance summary (mean and max of
/// each dimension's dCAM row, sorted by mean, descending), plus the
/// explanation-quality proxy `ng/k` either way.
pub fn explain_body(result: &DcamResult, summary: bool, top_k: Option<usize>) -> String {
    let dims = result.dcam.dims();
    let (d, n) = (dims[0], dims[1]);
    let data = result.dcam.data();
    let mut fields = Vec::new();
    if summary {
        let mut rows: Vec<(usize, f64, f64)> = (0..d)
            .map(|dim| {
                let row = &data[dim * n..(dim + 1) * n];
                let mean = row.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
                let max = row.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x as f64));
                (dim, mean, max)
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows.truncate(top_k.unwrap_or(d));
        fields.push((
            "dims",
            Value::Array(
                rows.into_iter()
                    .map(|(dim, mean, max)| {
                        obj(vec![
                            ("dim", num(dim as f64)),
                            ("mean", num(mean)),
                            ("max", num(max)),
                        ])
                    })
                    .collect(),
            ),
        ));
    } else {
        fields.push((
            "dcam",
            Value::Array(
                (0..d)
                    .map(|dim| {
                        Value::Array(
                            data[dim * n..(dim + 1) * n]
                                .iter()
                                .map(|&x| num(x as f64))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    fields.push(("ng", num(result.ng as f64)));
    fields.push(("k", num(result.k as f64)));
    fields.push(("ng_ratio", num(result.ng_ratio() as f64)));
    serde_json::to_string(&obj(fields)).unwrap_or_default()
}

/// The `POST /v1/classify` success body.
pub fn classify_body(c: &Classification) -> String {
    let v = obj(vec![
        ("class", num(c.class as f64)),
        (
            "logits",
            Value::Array(c.logits.iter().map(|&x| num(x as f64)).collect()),
        ),
    ]);
    serde_json::to_string(&v).unwrap_or_default()
}

/// The `GET /v1/models` body: every registered model with its version,
/// architecture descriptor, geometry, serving precision and per-model
/// stats.
pub fn models_body(models: &[ModelInfo]) -> String {
    let v = obj(vec![(
        "models",
        Value::Array(
            models
                .iter()
                .map(|m| {
                    obj(vec![
                        ("name", Value::String(m.name.clone())),
                        ("version", num(m.version as f64)),
                        ("arch", Value::String(m.arch.clone())),
                        ("dims", num(m.dims as f64)),
                        ("classes", num(m.n_classes as f64)),
                        ("workers", num(m.workers as f64)),
                        ("precision", Value::String(m.precision.as_str().into())),
                        ("stats", service_stats_value(&m.stats)),
                    ])
                })
                .collect(),
        ),
    )]);
    serde_json::to_string(&v).unwrap_or_default()
}

/// The `POST /v1/models/{name}/swap` success body: the new version plus
/// what the drained previous generation had served.
pub fn swap_body(name: &str, version: u64, old_stats: &ServiceStats) -> String {
    let v = obj(vec![
        ("name", Value::String(name.to_string())),
        ("version", num(version as f64)),
        ("swapped", Value::Bool(true)),
        ("previous_generation", service_stats_value(old_stats)),
    ]);
    serde_json::to_string(&v).unwrap_or_default()
}

/// A parsed `POST /v1/eval` body.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// Registry model to evaluate; `None` uses the server's default.
    pub model: Option<String>,
    /// Instances, each `D × n` rows.
    pub series_list: Vec<Vec<Vec<f32>>>,
    /// True label per instance.
    pub labels: Vec<usize>,
    /// Harness parameters assembled from the optional body fields.
    pub config: HarnessConfig,
}

/// The dataset of a job body (`/v1/eval`, `/v1/analyze`): `series` as an
/// array of instances, and one entry of `labels` per instance.
#[allow(clippy::type_complexity)]
fn labelled_instances(v: &Value) -> Result<(Vec<Vec<Vec<f32>>>, Vec<usize>), String> {
    let instances = v
        .get("series")
        .ok_or("missing field \"series\"")?
        .as_array()
        .ok_or("\"series\" must be an array of instances")?;
    if instances.is_empty() {
        return Err("\"series\" must hold at least one instance".into());
    }
    let mut series_list = Vec::with_capacity(instances.len());
    for (i, inst) in instances.iter().enumerate() {
        series_list.push(rows_of(inst).map_err(|e| format!("instance {i}: {e}"))?);
    }
    let labels_v = v
        .get("labels")
        .ok_or("missing field \"labels\"")?
        .as_array()
        .ok_or("\"labels\" must be an array of class indices")?;
    let mut labels = Vec::with_capacity(labels_v.len());
    for (i, l) in labels_v.iter().enumerate() {
        labels.push(
            l.as_usize()
                .ok_or_else(|| format!("labels[{i}] is not a non-negative integer"))?,
        );
    }
    if labels.len() != series_list.len() {
        return Err(format!(
            "{} instances but {} labels",
            series_list.len(),
            labels.len()
        ));
    }
    Ok((series_list, labels))
}

/// Parses a `POST /v1/eval` body: `series` (array of instances), `labels`,
/// plus optional `model`, `methods`, `k_grid`, `mask`,
/// `occlusion: {window, stride, baseline}` and `seed` overriding the
/// [`HarnessConfig`] defaults.
pub fn parse_eval(v: &Value) -> Result<EvalRequest, String> {
    let (series_list, labels) = labelled_instances(v)?;
    let mut config = HarnessConfig::default();
    if let Some(m) = v.get("methods") {
        let arr = m
            .as_array()
            .ok_or("\"methods\" must be an array of names")?;
        let mut methods = Vec::with_capacity(arr.len());
        for name in arr {
            let name = name.as_str().ok_or("\"methods\" entries must be strings")?;
            methods.push(
                ExplainerKind::parse(name).ok_or_else(|| format!("unknown method \"{name}\""))?,
            );
        }
        if methods.is_empty() {
            return Err("\"methods\" must not be empty".into());
        }
        config.methods = methods;
    }
    if let Some(g) = v.get("k_grid") {
        let arr = g
            .as_array()
            .ok_or("\"k_grid\" must be an array of fractions")?;
        let mut grid = Vec::with_capacity(arr.len());
        for f in arr {
            let f = f.as_f64().ok_or("\"k_grid\" entries must be numbers")? as f32;
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err("k_grid fractions must lie in [0, 1]".into());
            }
            grid.push(f);
        }
        config.k_grid = grid;
    }
    if let Some(mask) = opt_string(v, "mask")? {
        config.strategy = MaskStrategy::parse(&mask)
            .ok_or_else(|| format!("unknown mask strategy \"{mask}\""))?;
    }
    if let Some(occ) = v.get("occlusion") {
        let mut cfg = OcclusionConfig::default();
        if let Some(w) = opt_usize(occ, "window")? {
            cfg.window = w;
        }
        if let Some(s) = opt_usize(occ, "stride")? {
            cfg.stride = s;
        }
        if let Some(b) = occ.get("baseline") {
            cfg.baseline =
                b.as_f64()
                    .ok_or("\"occlusion.baseline\" must be a number")? as f32;
        }
        config.occlusion = cfg;
    }
    if let Some(seed) = opt_usize(v, "seed")? {
        config.seed = seed as u64;
    }
    Ok(EvalRequest {
        model: opt_string(v, "model")?,
        series_list,
        labels,
        config,
    })
}

fn curve_value(c: &Curve) -> Value {
    Value::Array(
        c.points
            .iter()
            .map(|p| {
                obj(vec![
                    ("frac", num(p.frac as f64)),
                    ("accuracy", num(p.accuracy as f64)),
                ])
            })
            .collect(),
    )
}

/// An [`EvalReport`] as a JSON tree (the `report` field of
/// `GET /v1/eval/{id}`).
pub fn eval_report_value(r: &EvalReport) -> Value {
    obj(vec![
        ("n_instances", num(r.n_instances as f64)),
        ("base_accuracy", num(r.base_accuracy as f64)),
        (
            "methods",
            Value::Array(
                r.methods
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("method", Value::String(m.method.name().into())),
                            ("deletion_auc", num(m.deletion_auc as f64)),
                            ("insertion_auc", num(m.insertion_auc as f64)),
                            ("deletion", curve_value(&m.deletion)),
                            ("insertion", curve_value(&m.insertion)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn curve_from_value(v: &Value) -> Result<Curve, String> {
    let arr = v.as_array().ok_or("curve must be an array")?;
    let mut points = Vec::with_capacity(arr.len());
    for p in arr {
        points.push(CurvePoint {
            frac: p
                .get("frac")
                .and_then(Value::as_f64)
                .ok_or("curve point missing \"frac\"")? as f32,
            accuracy: p
                .get("accuracy")
                .and_then(Value::as_f64)
                .ok_or("curve point missing \"accuracy\"")? as f32,
        });
    }
    Ok(Curve { points })
}

/// Parses the JSON produced by [`eval_report_value`] back into an
/// [`EvalReport`] — the client half of the eval API (used by `dcam_eval`
/// to compare a served report against a local run).
pub fn eval_report_from_value(v: &Value) -> Result<EvalReport, String> {
    let methods_v = v
        .get("methods")
        .and_then(Value::as_array)
        .ok_or("report missing \"methods\"")?;
    let mut methods = Vec::with_capacity(methods_v.len());
    for m in methods_v {
        let name = m
            .get("method")
            .and_then(Value::as_str)
            .ok_or("method entry missing \"method\"")?;
        methods.push(MethodReport {
            method: ExplainerKind::parse(name)
                .ok_or_else(|| format!("unknown method \"{name}\" in report"))?,
            deletion: curve_from_value(m.get("deletion").ok_or("missing \"deletion\"")?)?,
            insertion: curve_from_value(m.get("insertion").ok_or("missing \"insertion\"")?)?,
            deletion_auc: m
                .get("deletion_auc")
                .and_then(Value::as_f64)
                .ok_or("missing \"deletion_auc\"")? as f32,
            insertion_auc: m
                .get("insertion_auc")
                .and_then(Value::as_f64)
                .ok_or("missing \"insertion_auc\"")? as f32,
        });
    }
    Ok(EvalReport {
        n_instances: v
            .get("n_instances")
            .and_then(Value::as_usize)
            .ok_or("report missing \"n_instances\"")?,
        base_accuracy: v
            .get("base_accuracy")
            .and_then(Value::as_f64)
            .ok_or("report missing \"base_accuracy\"")? as f32,
        methods,
    })
}

/// The accepted/cancelled body shared by the job endpoints
/// (`POST /v1/eval`, `POST /v1/analyze` and their `DELETE`s).
pub fn job_submitted_body(id: u64, status: &str) -> String {
    let v = obj(vec![
        ("id", num(id as f64)),
        ("status", Value::String(status.into())),
    ]);
    serde_json::to_string(&v).unwrap_or_default()
}

/// The `GET /v1/{eval,analyze}/{id}` body: status plus — once finished —
/// the report (as rendered by [`eval_report_value`] or
/// [`motif_report_value`]) or the failure message.
pub fn job_status_body(
    id: u64,
    status: &str,
    report: Option<Value>,
    error: Option<&str>,
) -> String {
    let mut fields = vec![
        ("id", num(id as f64)),
        ("status", Value::String(status.into())),
    ];
    if let Some(r) = report {
        fields.push(("report", r));
    }
    if let Some(e) = error {
        fields.push(("error", Value::String(e.into())));
    }
    serde_json::to_string(&obj(fields)).unwrap_or_default()
}

/// A parsed `POST /v1/analyze` body.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// Registry model to mine against; `None` uses the server's default.
    pub model: Option<String>,
    /// Instances, each `D × n` rows.
    pub series_list: Vec<Vec<Vec<f32>>>,
    /// True label per instance.
    pub labels: Vec<usize>,
    /// Mining parameters assembled from the optional body fields.
    pub config: AnalyzeConfig,
}

/// Parses a `POST /v1/analyze` body: `series` (array of instances) and
/// `labels`, plus optional `model`, `clusters`, `kmeans_iters`,
/// `dba_iters`, `band`, `window`, `top_windows`, `tol` and `seed`
/// overriding the [`AnalyzeConfig`] defaults.
pub fn parse_analyze(v: &Value) -> Result<AnalyzeRequest, String> {
    let (series_list, labels) = labelled_instances(v)?;
    let mut config = AnalyzeConfig::default();
    if let Some(c) = opt_usize(v, "clusters")? {
        if c == 0 {
            return Err("\"clusters\" must be at least 1".into());
        }
        config.clusters = c;
    }
    if let Some(i) = opt_usize(v, "kmeans_iters")? {
        config.kmeans_iters = i;
    }
    if let Some(i) = opt_usize(v, "dba_iters")? {
        config.dba_iters = i;
    }
    config.band = opt_usize(v, "band")?;
    if let Some(w) = opt_usize(v, "window")? {
        let n = series_list[0].first().map(Vec::len).unwrap_or(0);
        if w == 0 || w > n {
            return Err(format!(
                "\"window\" must lie in [1, {n}] for series of length {n}"
            ));
        }
        config.window = w;
    } else {
        // The default window must fit the submitted series.
        let n = series_list[0].first().map(Vec::len).unwrap_or(0);
        config.window = config.window.min(n.max(1));
    }
    if let Some(t) = opt_usize(v, "top_windows")? {
        config.top_windows = t;
    }
    if let Some(t) = v.get("tol") {
        config.tol = t.as_f64().ok_or("\"tol\" must be a number")? as f32;
    }
    if let Some(seed) = opt_usize(v, "seed")? {
        config.seed = seed as u64;
    }
    Ok(AnalyzeRequest {
        model: opt_string(v, "model")?,
        series_list,
        labels,
        config,
    })
}

fn motif_window_value(w: &MotifWindow) -> Value {
    obj(vec![
        ("dim", num(w.dim as f64)),
        ("start", num(w.start as f64)),
        ("len", num(w.len as f64)),
        ("score", num(w.score as f64)),
    ])
}

/// A [`MotifReport`] as a JSON tree (the `report` field of
/// `GET /v1/analyze/{id}`).
pub fn motif_report_value(r: &MotifReport) -> Value {
    obj(vec![
        ("n_instances", num(r.n_instances as f64)),
        ("dims", num(r.dims as f64)),
        ("len", num(r.len as f64)),
        ("base_accuracy", num(r.base_accuracy as f64)),
        (
            "classes",
            Value::Array(
                r.classes
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("class", num(c.class as f64)),
                            ("n_instances", num(c.n_instances as f64)),
                            (
                                "dims",
                                Value::Array(
                                    c.dims
                                        .iter()
                                        .map(|dc| {
                                            obj(vec![
                                                ("dim", num(dc.dim as f64)),
                                                (
                                                    "clusters",
                                                    Value::Array(
                                                        dc.clusters
                                                            .iter()
                                                            .map(|cl| {
                                                                obj(vec![
                                                                    (
                                                                        "barycenter",
                                                                        Value::Array(
                                                                            cl.barycenter
                                                                                .iter()
                                                                                .map(|&x| {
                                                                                    num(x as f64)
                                                                                })
                                                                                .collect(),
                                                                        ),
                                                                    ),
                                                                    (
                                                                        "members",
                                                                        num(cl.members as f64),
                                                                    ),
                                                                    (
                                                                        "inertia",
                                                                        num(cl.inertia as f64),
                                                                    ),
                                                                ])
                                                            })
                                                            .collect(),
                                                    ),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "windows",
                                Value::Array(c.windows.iter().map(motif_window_value).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn motif_window_from_value(v: &Value) -> Result<MotifWindow, String> {
    Ok(MotifWindow {
        dim: v
            .get("dim")
            .and_then(Value::as_usize)
            .ok_or("window missing \"dim\"")?,
        start: v
            .get("start")
            .and_then(Value::as_usize)
            .ok_or("window missing \"start\"")?,
        len: v
            .get("len")
            .and_then(Value::as_usize)
            .ok_or("window missing \"len\"")?,
        score: v
            .get("score")
            .and_then(Value::as_f64)
            .ok_or("window missing \"score\"")? as f32,
    })
}

/// Parses the JSON produced by [`motif_report_value`] back into a
/// [`MotifReport`] — the client half of the analyze API (used by
/// `dcam_analyze` to compare a served report against a local run).
pub fn motif_report_from_value(v: &Value) -> Result<MotifReport, String> {
    let classes_v = v
        .get("classes")
        .and_then(Value::as_array)
        .ok_or("report missing \"classes\"")?;
    let mut classes = Vec::with_capacity(classes_v.len());
    for c in classes_v {
        let dims_v = c
            .get("dims")
            .and_then(Value::as_array)
            .ok_or("class entry missing \"dims\"")?;
        let mut dims = Vec::with_capacity(dims_v.len());
        for dc in dims_v {
            let clusters_v = dc
                .get("clusters")
                .and_then(Value::as_array)
                .ok_or("dim entry missing \"clusters\"")?;
            let mut clusters = Vec::with_capacity(clusters_v.len());
            for cl in clusters_v {
                let bary_v = cl
                    .get("barycenter")
                    .and_then(Value::as_array)
                    .ok_or("cluster missing \"barycenter\"")?;
                let mut barycenter = Vec::with_capacity(bary_v.len());
                for x in bary_v {
                    barycenter.push(x.as_f64().ok_or("barycenter entries must be numbers")? as f32);
                }
                clusters.push(Cluster {
                    barycenter,
                    members: cl
                        .get("members")
                        .and_then(Value::as_usize)
                        .ok_or("cluster missing \"members\"")?,
                    inertia: cl
                        .get("inertia")
                        .and_then(Value::as_f64)
                        .ok_or("cluster missing \"inertia\"")? as f32,
                });
            }
            dims.push(DimClusters {
                dim: dc
                    .get("dim")
                    .and_then(Value::as_usize)
                    .ok_or("dim entry missing \"dim\"")?,
                clusters,
            });
        }
        let windows_v = c
            .get("windows")
            .and_then(Value::as_array)
            .ok_or("class entry missing \"windows\"")?;
        let mut windows = Vec::with_capacity(windows_v.len());
        for w in windows_v {
            windows.push(motif_window_from_value(w)?);
        }
        classes.push(ClassMotifs {
            class: c
                .get("class")
                .and_then(Value::as_usize)
                .ok_or("class entry missing \"class\"")?,
            n_instances: c
                .get("n_instances")
                .and_then(Value::as_usize)
                .ok_or("class entry missing \"n_instances\"")?,
            dims,
            windows,
        });
    }
    Ok(MotifReport {
        n_instances: v
            .get("n_instances")
            .and_then(Value::as_usize)
            .ok_or("report missing \"n_instances\"")?,
        dims: v
            .get("dims")
            .and_then(Value::as_usize)
            .ok_or("report missing \"dims\"")?,
        len: v
            .get("len")
            .and_then(Value::as_usize)
            .ok_or("report missing \"len\"")?,
        base_accuracy: v
            .get("base_accuracy")
            .and_then(Value::as_f64)
            .ok_or("report missing \"base_accuracy\"")? as f32,
        classes,
    })
}

/// One job store's [`JobCounters`] as a JSON tree (the per-endpoint
/// entries of the `jobs` object in `GET /stats`).
pub fn job_counters_value(c: &JobCounters) -> Value {
    obj(vec![
        ("submitted", num(c.submitted as f64)),
        ("done", num(c.done as f64)),
        ("failed", num(c.failed as f64)),
        ("cancelled", num(c.cancelled as f64)),
    ])
}

/// [`ServiceStats`] as a JSON tree (durations in milliseconds).
pub fn service_stats_value(s: &ServiceStats) -> Value {
    obj(vec![
        ("submitted", num(s.submitted as f64)),
        ("completed", num(s.completed as f64)),
        ("classified", num(s.classified as f64)),
        ("failed", num(s.failed as f64)),
        ("rejected", num(s.rejected as f64)),
        ("cancelled", num(s.cancelled as f64)),
        ("worker_respawns", num(s.worker_respawns as f64)),
        ("queue_depth", num(s.queue_depth as f64)),
        ("max_queue_depth", num(s.max_queue_depth as f64)),
        ("flushes_full", num(s.flushes_full as f64)),
        ("flushes_deadline", num(s.flushes_deadline as f64)),
        ("flushes_drained", num(s.flushes_drained as f64)),
        ("flushes_shutdown", num(s.flushes_shutdown as f64)),
        (
            "batch_size_hist",
            Value::Array(s.batch_size_hist.iter().map(|&c| num(c as f64)).collect()),
        ),
        ("mean_batch", num(s.mean_batch)),
        ("p50_latency_ms", num(s.p50_latency.as_secs_f64() * 1e3)),
        ("p99_latency_ms", num(s.p99_latency.as_secs_f64() * 1e3)),
        ("mean_latency_ms", num(s.mean_latency.as_secs_f64() * 1e3)),
    ])
}
