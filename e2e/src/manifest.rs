//! The benchmark's declared surface — workloads, end-to-end metrics with
//! their bounds, per-layer metrics — and the check that `BENCHMARK.json`
//! declares exactly the same.

use crate::workloads::Workload;
use serde::Value;

/// `BENCHMARK.json` as it stood when this binary was built: the check needs
/// no path and cannot depend on the directory the binary is started from.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One declared metric. `bound` is the share by which an end-to-end metric
/// may worsen before a change counts as a regression; per-layer metrics
/// have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// Reported per workload by an untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("lat_p50_ms", "ms", false, 0.10),
    e2e("lat_p90_ms", "ms", false, 0.25),
    e2e("throughput_ops", "ops/s", true, 0.10),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Reported per workload by a traced run, in the order `layers.rs` fills
/// them.
pub const PER_LAYER: [MetricDef; 45] = [
    layer("tensor.gemm_us", "us"),
    layer_up("tensor.gemm_gflops", "gflop/s"),
    layer("tensor.qgemm_us", "us"),
    layer("tensor.fft_us", "us"),
    layer("nn.forward_ms", "ms"),
    layer("nn.forward_share", "ratio"),
    layer("nn.conv_fwd_ms", "ms"),
    layer("nn.classify_fwd_us", "us"),
    layer("nn.arena_pooled_mb", "MB"),
    layer("nn.calibrate_ms", "ms"),
    layer("series.cube_us", "us"),
    layer("core.dcam.explain_ms", "ms"),
    layer("core.dcam.cam_us", "us"),
    layer("core.dcam.self_ms", "ms"),
    layer("core.dcam.forwards_per_explain", "count"),
    layer_up("core.dcam.ng_ratio", "ratio"),
    layer("core.dcam_many.per_instance_ms", "ms"),
    layer_up("core.dcam_many.batch_gain", "ratio"),
    layer("core.service.lone_ms", "ms"),
    layer("core.service.overhead_ms", "ms"),
    layer("core.service.classify_lone_us", "us"),
    layer_up("core.service.mean_batch", "count"),
    layer("core.service.flush_full", "count"),
    layer("core.service.flush_deadline", "count"),
    layer("core.service.flush_drained", "count"),
    layer("core.service.max_queue_depth", "count"),
    layer("core.service.rejected", "count"),
    layer("core.service.failed", "count"),
    layer("core.registry.resolve_us", "us"),
    layer("server.decode_us", "us"),
    layer("server.encode_us", "us"),
    layer("server.request_bytes", "bytes"),
    layer("server.response_bytes", "bytes"),
    layer("server.hop_ms", "ms"),
    layer("server.classify_rtt_us", "us"),
    layer("server.responses_5xx", "count"),
    layer("server.backpressure_503", "count"),
    layer("router.hop_us", "us"),
    layer("router.retries", "count"),
    layer("router.failovers", "count"),
    layer("loadgen.late_max_ms", "ms"),
    layer("loadgen.raw_p50_ms", "ms"),
    layer_up("loadgen.clock_speed", "ratio"),
    layer("trace.overhead_share", "ratio"),
    layer("verify.map_rel_err", "ratio"),
];

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Compares one declared list against one section of the manifest, both
/// ways.
fn check_section(
    section: &str,
    declared: &[MetricDef],
    listed: &[Value],
    problems: &mut Vec<String>,
) {
    for def in declared {
        if !name_ok(def.name) {
            problems.push(format!(
                "{section}: name {:?} breaks the naming rule",
                def.name
            ));
        }
        let Some(entry) = listed
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(def.name))
        else {
            problems.push(format!(
                "{section}: {} is printed but not declared",
                def.name
            ));
            continue;
        };
        let unit = entry.get("unit").and_then(Value::as_str);
        if unit != Some(def.unit) {
            problems.push(format!(
                "{section}: {} unit {unit:?}, binary prints {:?}",
                def.name, def.unit
            ));
        }
        let better = entry.get("better").and_then(Value::as_str);
        let want = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        if better != Some(want) {
            problems.push(format!(
                "{section}: {} better {better:?}, binary means {want:?}",
                def.name
            ));
        }
        let bound = entry.get("bound").and_then(Value::as_f64);
        if bound != def.bound {
            problems.push(format!(
                "{section}: {} bound {bound:?}, binary holds {:?}",
                def.name, def.bound
            ));
        }
    }
    for entry in listed {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>");
        if !declared.iter().any(|d| d.name == name) {
            problems.push(format!("{section}: {name} is declared but never printed"));
        }
    }
}

/// Every workload and metric the binary prints is declared in the manifest
/// with the same unit, direction and bound, and the other way round.
/// Returns the list of mismatches (empty when they agree).
pub fn check_manifest() -> Vec<String> {
    check_manifest_text(MANIFEST)
}

fn check_manifest_text(text: &str) -> Vec<String> {
    let doc = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("manifest is not JSON: {e}")],
    };
    let mut problems = Vec::new();
    let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap_or(&[]);

    let workloads = list("workloads");
    for w in Workload::ALL {
        let declared = workloads
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(w.name()));
        match declared {
            None => problems.push(format!("workloads: {} runs but is not declared", w.name())),
            Some(v)
                if v.get("why")
                    .and_then(Value::as_str)
                    .is_none_or(str::is_empty) =>
            {
                problems.push(format!("workloads: {} has no why", w.name()))
            }
            Some(_) => {}
        }
    }
    for v in workloads {
        let name = v.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        if Workload::parse(name).is_none() {
            problems.push(format!("workloads: {name} is declared but does not exist"));
        }
    }
    check_section("end_to_end", &END_TO_END, list("end_to_end"), &mut problems);
    check_section("per_layer", &PER_LAYER, list("per_layer"), &mut problems);
    for def in &END_TO_END {
        if def.bound.is_none_or(|b| !(0.0..=0.25).contains(&b)) {
            problems.push(format!("end_to_end: {} bound outside [0, 0.25]", def.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_manifest_matches_the_binary() {
        let problems = check_manifest();
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.extend(Workload::ALL.map(Workload::name));
        assert!(names.iter().all(|n| name_ok(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate name");
        assert!(!name_ok("bad name") && !name_ok("") && !name_ok(".dot"));
    }

    #[test]
    fn drift_is_reported_both_ways() {
        let text = MANIFEST;
        // Rename a declared metric: one printed-but-undeclared, one
        // declared-but-unprinted.
        let problems = check_manifest_text(&text.replace("\"lat_p50_ms\"", "\"lat_median_ms\""));
        assert!(problems
            .iter()
            .any(|p| p.contains("lat_p50_ms is printed but not declared")));
        assert!(problems
            .iter()
            .any(|p| p.contains("lat_median_ms is declared but never printed")));
        // A changed bound, a dropped workload and a broken file are caught too.
        let problems = check_manifest_text(&text.replace("\"bound\": 0.25}", "\"bound\": 0.05}"));
        assert!(problems.iter().any(|p| p.contains("bound")));
        let problems = check_manifest_text(&text.replace("\"engine_long\"", "\"engine_wide\""));
        assert!(problems
            .iter()
            .any(|p| p.contains("engine_long runs but is not declared")));
        assert!(problems
            .iter()
            .any(|p| p.contains("engine_wide is declared but does not exist")));
        assert!(!check_manifest_text("{").is_empty());
    }
}
