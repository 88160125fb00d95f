//! In-memory span recorder for the traced pass.
//!
//! Spans wrap the benchmark's own calls at each layer boundary; nothing
//! outside this package is instrumented. A span is `(name, start_ns, end_ns,
//! parent, op_id)`; spans of one operation share `op_id`, `parent` is the
//! index of the span that was open when this one started. Everything stays
//! in memory until the run ends and [`to_value`] renders it for `trace.json`.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the same span list) of the enclosing span.
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread recorder. Disabled recorders run the closure and record
/// nothing, so the untraced pass pays one branch per call site.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `t0` is the common time origin of every recorder of one run.
    pub fn new(enabled: bool, t0: Instant) -> Self {
        Recorder {
            enabled,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans started by `f` through the recorder it
    /// is handed become this span's children.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of a span is its duration minus the duration of its direct
/// children (children of one recorder never overlap: it is single-threaded).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// The `trace.json` document: the raw spans, the per-name totals, and the
/// clock speed sampled at the start of each ladder operation (by `op_id`).
pub fn to_value(workload: &str, spans: &[Span], speeds: &BTreeMap<u64, f64>) -> Value {
    let num = |n: u64| Value::Number(n as f64);
    let span_values = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| num(p as u64)),
                ),
                ("op_id".into(), num(s.op_id)),
            ])
        })
        .collect();
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("count".into(), num(t.count)),
                    ("total_ns".into(), num(t.total_ns)),
                    ("self_ns".into(), num(t.self_ns)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("totals".into(), Value::Object(totals)),
        (
            "clock_speed".into(),
            Value::Object(
                speeds
                    .iter()
                    .map(|(op, &s)| (op.to_string(), Value::Number(s)))
                    .collect(),
            ),
        ),
        ("spans".into(), Value::Array(span_values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // explain [0, 100) ⊃ forward [10, 40), forward [50, 80) ⊃ gemm [55, 60)
        let spans = vec![
            span("explain", 0, 100, None),
            span("forward", 10, 40, Some(0)),
            span("forward", 50, 80, Some(0)),
            span("gemm", 55, 60, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["explain"].total_ns, 100);
        assert_eq!(t["explain"].self_ns, 40); // grandchild not subtracted twice
        assert_eq!(t["forward"].count, 2);
        assert_eq!(t["forward"].total_ns, 60);
        assert_eq!(t["forward"].self_ns, 55);
        assert_eq!(t["gemm"].self_ns, 5);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("op", 7, |rec| {
            rec.span("child", 7, |_| ());
            rec.span("child", 7, |_| ());
        });
        rec.span("op", 8, |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[3].op_id, 8);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_absorb_rebases() {
        let mut off = Recorder::new(false, Instant::now());
        assert_eq!(off.span("x", 0, |_| 3), 3);
        assert!(off.spans().is_empty());

        let t0 = Instant::now();
        let mut a = Recorder::new(true, t0);
        a.span("a", 0, |_| ());
        let mut b = Recorder::new(true, t0);
        b.span("b", 1, |rec| rec.span("b.child", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
