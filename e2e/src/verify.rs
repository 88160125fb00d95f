//! Output verification: every run checks that what it measured was right.
//!
//! * engine workloads: the measured model's maps of the first
//!   [`CHECKED`] inputs against a reference replica of the same weights,
//!   always f32 and pinned to another convolution path;
//! * served workloads: the served maps of the same inputs against
//!   in-process `compute_dcam` (labels against `logits_for` on
//!   `http_classify`, over the whole pool);
//! * once per run, the planted fixture's explanation must rank its planted
//!   dimension first.

use crate::workloads::{build_model, Level, Pool, Stack, Workload, CLASS, CONNECTIONS};
use dcam::dcam::compute_dcam;
use dcam::{planted_dataset, planted_model, DcamConfig, PlantedSpec, Precision};
use dcam_nn::layers::ConvStrategy;
use dcam_tensor::argmax;
use serde::Value;

/// Inputs whose maps are compared per run.
pub const CHECKED: usize = 4;
/// Largest relative L2 error of an f32 map against its reference.
pub const F32_TOLERANCE: f64 = 1e-4;
/// Largest relative L2 error of an int8 map against the f32 reference. The
/// error depends on the input: over 130 seeds the worst of a run's 4 maps
/// had median 0.019, p90 0.025 and maximum 0.070, so the 0.05 first chosen
/// from one input failed about one run in thirty. A broken int8 path (wrong
/// scale, wrong zero point) reads ≥ 0.5.
pub const INT8_TOLERANCE: f64 = 0.15;

/// What verification found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub checked: usize,
    pub failed: usize,
    /// Largest relative L2 error seen; on `http_classify` the share of
    /// labels that differ from in-process `logits_for`.
    pub map_rel_err: f64,
}

/// `‖a − b‖₂ / ‖b‖₂`; infinite when the shapes differ or anything is not
/// finite, so a malformed answer can never pass.
pub fn rel_l2(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() || a.iter().chain(b).any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        num += ((x - y) as f64).powi(2);
        den += (y as f64).powi(2);
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

/// The convolution path the reference replica is pinned to. `Direct` is the
/// scalar oracle, affordable only on the Tiny model (0.16 s per map; 2 s on
/// Small, seconds on the long model), so the other two pin `Im2col` — still
/// a different path from the one measured (int8 kernels resp. fft).
fn reference_strategy(workload: Workload) -> ConvStrategy {
    match workload {
        Workload::EngineInt8 | Workload::EngineLong => ConvStrategy::Im2col,
        _ => ConvStrategy::Direct,
    }
}

/// Verifies the stack's answers for the run's pool.
pub fn verify(stack: &mut Stack, pool: &Pool) -> Verdict {
    let workload = stack.workload;
    let mut verdict = Verdict::default();
    let mut record = |err: f64, tolerance: f64| {
        verdict.checked += 1;
        verdict.map_rel_err = verdict.map_rel_err.max(err);
        if err.is_nan() || err > tolerance {
            verdict.failed += 1;
        }
    };

    if workload == Workload::HttpClassify {
        let http = stack.http.as_mut().expect("http tier booted");
        let mut differing = 0usize;
        for (series, body) in pool.series.iter().zip(&pool.classify_payloads) {
            let want = argmax(stack.local.logits_for(series).data());
            let got = http.routed[0]
                .post("/v1/classify", body)
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| r.json().ok())
                .and_then(|v| v.get("class").and_then(Value::as_usize));
            if got.is_none() || got != want {
                differing += 1;
            }
        }
        let n = pool.classify_payloads.len();
        verdict.checked = n;
        verdict.failed = differing;
        verdict.map_rel_err = differing as f64 / n as f64;
    } else if workload.level() == Level::Engine {
        let mut reference = build_model(workload);
        reference.set_precision(Precision::F32);
        reference.set_conv_strategy(reference_strategy(workload));
        let tolerance = match stack.local.precision() {
            Precision::Int8 => INT8_TOLERANCE,
            Precision::F32 => F32_TOLERANCE,
        };
        for series in &pool.series[..CHECKED] {
            let want = compute_dcam(&mut reference, series, CLASS, &stack.cfg);
            let got = stack.explain_local(series);
            record(rel_l2(got.dcam.data(), want.dcam.data()), tolerance);
        }
    } else {
        for i in 0..CHECKED {
            let want = stack.explain_local(&pool.series[i]);
            let got: Option<Vec<f32>> = if workload == Workload::ServiceBurst {
                let handle = stack.handle.as_ref().expect("service booted");
                handle
                    .submit(&pool.series[i], CLASS)
                    .and_then(|f| f.wait())
                    .ok()
                    .map(|r| r.dcam.data().to_vec())
            } else {
                let http = stack.http.as_mut().expect("http tier booted");
                http.routed[i % CONNECTIONS]
                    .post("/v1/explain", &pool.explain_payloads[i])
                    .ok()
                    .filter(|r| r.status == 200)
                    .and_then(|r| r.json().ok())
                    .and_then(|v| map_from_json(&v))
            };
            let err = got.map_or(f64::INFINITY, |g| rel_l2(&g, want.dcam.data()));
            record(err, F32_TOLERANCE);
        }
    }

    if !planted_fixture_ranks_planted_dimension_first() {
        verdict.checked += 1;
        verdict.failed += 1;
    }
    verdict
}

/// The `dcam` rows of a `/v1/explain` body, flattened row-major.
fn map_from_json(v: &Value) -> Option<Vec<f32>> {
    let mut flat = Vec::new();
    for row in v.get("dcam")?.as_array()? {
        for cell in row.as_array()? {
            flat.push(cell.as_f64()? as f32);
        }
    }
    Some(flat)
}

/// The planted-weights fixture classifies by one bump in one dimension; its
/// dCAM must put that dimension on top. Guards the explanation itself (not
/// just agreement between two paths that could both be wrong).
fn planted_fixture_ranks_planted_dimension_first() -> bool {
    let spec = PlantedSpec::default();
    let mut model = planted_model(&spec);
    let ds = planted_dataset(&spec);
    let cfg = DcamConfig {
        k: 24,
        only_correct: false,
        ..Default::default()
    };
    let Some(idx) = ds.class_indices(1).into_iter().next() else {
        return false;
    };
    let Some(mask) = ds.masks.get(idx).and_then(|m| m.as_ref()) else {
        return false;
    };
    let row_sums =
        |data: &[f32]| -> Vec<f32> { data.chunks(spec.len).map(|row| row.iter().sum()).collect() };
    let planted = argmax(&row_sums(mask.tensor().data()));
    let result = compute_dcam(&mut model, &ds.samples[idx], 1, &cfg);
    planted.is_some() && argmax(&row_sums(result.dcam.data())) == planted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_l2_rejects_malformed_answers() {
        assert_eq!(rel_l2(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rel_l2(&[1.1, 2.0], &[1.0, 2.0]) - 0.1 / 5f64.sqrt()).abs() < 1e-6);
        assert_eq!(rel_l2(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(rel_l2(&[f32::NAN, 2.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(rel_l2(&[0.0], &[0.0]), 0.0);
        assert_eq!(rel_l2(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn planted_fixture_check_holds() {
        assert!(planted_fixture_ranks_planted_dimension_first());
    }
}
