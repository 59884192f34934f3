//! Spans recorded by the harness around its calls into each layer.
//!
//! The benchmark sees the program from outside: a span covers one call
//! the harness makes into a layer's public API, its parent is the harness
//! step that made the call. Spans stay in memory until the run ends.

use pgas_machine::json::Json;
use std::time::Instant;

/// At most this many direct calls are kept as spans under one parent; the
/// rest only count. A full-size ladder run issues two million calls from
/// one loop, and the trace is for reading where time goes, not for
/// recomputing the metrics (those use every call's sample).
pub const MAX_CALL_SPANS: u64 = 256;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Finished calls recorded directly under this span, kept or not.
    pub calls: u64,
    /// Time its children cover — spans and calls, kept or not (siblings
    /// never overlap: the harness is sequential).
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the part of it children cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.into(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, calls: 0, child_ns: 0 });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += self.spans[id].end_ns - self.spans[id].start_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Record a finished call (timed on a PE thread against
    /// [`Self::epoch`]) under the innermost open span, which counts it and
    /// keeps the first [`MAX_CALL_SPANS`].
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = *self.open.last().expect("a call is recorded inside an open span");
        self.spans[parent].calls += 1;
        self.spans[parent].child_ns += end_ns - start_ns;
        if self.spans[parent].calls <= MAX_CALL_SPANS {
            let parent = Some(parent);
            self.spans.push(Span { name, start_ns, end_ns, parent, calls: 0, child_ns: 0 });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document: every span with its parent and self time.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Object(vec![
                    ("id".into(), Json::uint(id)),
                    ("name".into(), Json::str(s.name)),
                    ("workload".into(), Json::str(self.workload.as_str())),
                    ("start_ns".into(), Json::int(s.start_ns as i64)),
                    ("end_ns".into(), Json::int(s.end_ns as i64)),
                    ("parent".into(), Json::opt_uint(s.parent)),
                    ("self_ns".into(), Json::int(s.self_ns() as i64)),
                    ("calls".into(), Json::int(s.calls as i64)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::str(self.workload.as_str())),
            ("max_call_spans".into(), Json::int(MAX_CALL_SPANS as i64)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new("w");
        let root = t.begin("rep");
        let rung = t.begin("rung");
        t.record("call", 10, 20);
        t.end(rung);
        let oracle = t.begin("oracle");
        t.end(oracle);
        t.end(root);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("rep", None), ("rung", Some(0)), ("call", Some(1)), ("oracle", Some(0))]
        );
        assert!(t.spans()[0].end_ns >= t.spans()[3].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut t = Tracer::new("w");
        let p = t.begin("p");
        t.record("call", 10, 30);
        t.record("call", 50, 90);
        let c = t.begin("c");
        t.end(c);
        t.end(p);
        let (parent, child) = (&t.spans()[p], &t.spans()[c]);
        let child_dur = child.end_ns - child.start_ns;
        assert_eq!(parent.child_ns, 60 + child_dur);
        assert_eq!(
            parent.self_ns(),
            (parent.end_ns - parent.start_ns).saturating_sub(60 + child_dur)
        );
        assert_eq!(child.self_ns(), child_dur);
    }

    #[test]
    fn a_span_counts_every_call_and_keeps_the_first_few() {
        let mut t = Tracer::new("w");
        let rung = t.begin("rung");
        for i in 0..MAX_CALL_SPANS + 10 {
            t.record("call", i, i + 1);
        }
        t.end(rung);
        assert_eq!(t.spans().len() as u64, 1 + MAX_CALL_SPANS);
        assert_eq!(t.spans()[rung].calls, MAX_CALL_SPANS + 10);
        assert_eq!(t.spans()[rung].child_ns, MAX_CALL_SPANS + 10, "unkept calls still cover time");
        let doc = pgas_machine::json::parse(&t.to_json().pretty()).expect("valid JSON");
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("calls").unwrap().as_i64(), Some(MAX_CALL_SPANS as i64 + 10));
        assert_eq!(spans[1].get("parent").unwrap().as_i64(), Some(0));
    }
}
