//! In-memory span recorder for the traced run.
//!
//! Each call the benchmark makes into a layer's public function is one
//! span: name, trace id, start, end and parent. Spans stay in memory
//! until the run ends and are written out in one piece, so recording
//! costs two clock reads and a `Vec` push per call.

use std::collections::BTreeMap;
use std::time::Instant;
use upaq_json::{json, Value};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `"nn.forward"`.
    pub name: &'static str,
    /// The frame (or set-up step) this call served.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Free-form tag: the rung for forwards, the batch size for groups.
    pub tag: String,
}

impl Span {
    /// Wall duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans in call order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        self.begin_tagged(name, trace, parent, String::new())
    }

    /// [`Tracer::begin`] with a tag.
    pub fn begin_tagged(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        tag: String,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: 0,
            tag,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name` whose tag is `tag`
    /// (any tag when `tag` is `None`), in call order.
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::duration_s)
            .collect()
    }

    /// Per-span self time, seconds: the span's duration minus the part
    /// of it its children cover. Children of one parent run one after
    /// another on the replay thread, so their union is their sum.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.duration_s();
            }
        }
        self.spans
            .iter()
            .zip(child_s)
            .map(|(s, c)| (s.duration_s() - c).max(0.0))
            .collect()
    }

    /// Calls, total time and self time per span name, seconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self.self_times()) {
            let row = out.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.duration_s();
            row.2 += self_s;
        }
        out
    }

    /// The spans and the per-name table as one JSON document.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "trace": s.trace,
                    "parent": s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "tag": s.tag.clone(),
                })
            })
            .collect();
        let layers: Vec<(String, Value)> = self
            .by_name()
            .into_iter()
            .map(|(name, (calls, total_s, self_s))| {
                (
                    name.to_string(),
                    json!({"calls": calls, "total_s": total_s, "self_s": self_s}),
                )
            })
            .collect();
        json!({"layers": Value::Obj(layers), "spans": spans})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start_ns,
            end_ns,
            tag: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("group", None, 0, 10_000),
            span("fwd", Some(0), 1_000, 7_000),
            span("nms", Some(0), 7_000, 9_000),
            span("inner", Some(1), 2_000, 3_000),
        ];
        let self_s = t.self_times();
        assert!((self_s[0] - 2e-6).abs() < 1e-12);
        assert!((self_s[1] - 5e-6).abs() < 1e-12);
        assert!((self_s[2] - 2e-6).abs() < 1e-12);
        assert!((self_s[3] - 1e-6).abs() < 1e-12);
        let table = t.by_name();
        assert_eq!(table["fwd"].0, 1);
        assert!((table["group"].1 - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest_and_filter_by_tag() {
        let mut t = Tracer::new();
        let g = t.begin_tagged("group", 7, None, "4".into());
        t.time("fwd", 7, Some(g), || std::hint::black_box(1 + 1));
        t.end(g);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations("group", Some("4")).len(), 1);
        assert!(t.durations("group", Some("1")).is_empty());
        assert_eq!(t.durations("fwd", None).len(), 1);
    }
}
