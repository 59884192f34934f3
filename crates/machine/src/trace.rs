//! Virtual-time execution tracing with causal flow links.
//!
//! When enabled, the communication layers record a span for every operation
//! (puts, gets, atomics, barriers, waits...) with begin/end in virtual
//! nanoseconds. Spans live in **per-PE buffers** — the hot path locks only
//! the issuing PE's own buffer, never a global one — and carry:
//!
//! - a deterministic id (`pe << 32 | seq`) and an optional parent id, so
//!   nested operations (e.g. the puts inside a collective) form a tree;
//! - a queue-wait vs. service-time breakdown from the NIC model
//!   ([`Span::queue_ns`] / [`Span::service_ns`]);
//! - the remote delivery window ([`Span::remote_begin`] / [`Span::remote_end`])
//!   for operations that land on a peer, which links an origin op to its
//!   remote completion — the raw material for chrome-trace *flow events* and
//!   for the critical-path profiler ([`crate::critpath`]).
//!
//! The export ([`chrome_trace_json`]) produces Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto) with process/thread name metadata, one row
//! per PE grouped by node, and flow arrows from each origin op to a
//! synthesized delivery slice on the peer's row.
//!
//! Whether a machine traces is the `trace` knob (see `crate::knobs`).

use crate::json::Json;
use parking_lot::Mutex;

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Put,
    Get,
    Amo,
    Quiet,
    Barrier,
    WaitUntil,
    Compute,
    Collective,
    /// Detection timeout + backoff charged after an injected transient fault.
    Retry,
    /// A fault event itself (PE death); zero-length marker span.
    Fault,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Put => "put",
            SpanKind::Get => "get",
            SpanKind::Amo => "amo",
            SpanKind::Quiet => "quiet",
            SpanKind::Barrier => "barrier",
            SpanKind::WaitUntil => "wait_until",
            SpanKind::Compute => "compute",
            SpanKind::Collective => "collective",
            SpanKind::Retry => "retry",
            SpanKind::Fault => "fault",
        }
    }
}

/// One traced operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub pe: usize,
    pub kind: SpanKind,
    /// Virtual begin/end, ns.
    pub begin: u64,
    pub end: u64,
    /// Communication peer, if any.
    pub peer: Option<usize>,
    /// Payload bytes, if any.
    pub bytes: usize,
    /// Deterministic span id (`pe << 32 | seq`, seq starts at 1); assigned by
    /// [`Tracer::record`]. 0 means "not yet recorded".
    pub id: u64,
    /// Id of the enclosing scope span (0 = top level). Assigned from the
    /// per-PE scope stack by [`Tracer::record`] unless already set.
    pub parent: u64,
    /// Time spent waiting behind earlier traffic on the NICs this op crossed.
    pub queue_ns: u64,
    /// Time the op actually occupied NIC lanes (service time).
    pub service_ns: u64,
    /// Remote delivery window begin (0 when the op has no remote side).
    pub remote_begin: u64,
    /// Remote delivery window end — the virtual time the payload landed on
    /// the peer. Quiet spans reuse this field for the completion target they
    /// waited on, which is how the critical-path walker pairs a quiet with
    /// the flow that bounded it.
    pub remote_end: u64,
    /// Team the issuing context was scoped to when the op ran (0 = the
    /// world team / no team scope). Lets flow analysis attribute traffic to
    /// a `form team`/`change team` region.
    pub team: u32,
    /// Serving-request id this span belongs to (0 = none). Stamped by
    /// [`Tracer::record`] from the PE's open request (see
    /// [`Tracer::begin_request`]), so every op a request caused — including
    /// its retries under a fault plan — can be folded back into that
    /// request's latency decomposition.
    pub req: u64,
}

impl Span {
    /// A plain span with no flow detail (the common constructor).
    pub fn op(
        pe: usize,
        kind: SpanKind,
        begin: u64,
        end: u64,
        peer: Option<usize>,
        bytes: usize,
    ) -> Span {
        Span {
            pe,
            kind,
            begin,
            end,
            peer,
            bytes,
            id: 0,
            parent: 0,
            queue_ns: 0,
            service_ns: 0,
            remote_begin: 0,
            remote_end: 0,
            team: 0,
            req: 0,
        }
    }
}

/// One served request's lifecycle markers, recorded by
/// [`Tracer::begin_request`] / [`Tracer::end_request`]: when it *arrived*
/// (was admitted by the open-loop virtual clock), when the PE actually
/// started serving it, and when it completed. The gap between arrival and
/// begin is real queueing delay — the generator admits by the virtual clock,
/// not by completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqRecord {
    /// Request id, `pe << 32 | seq` by convention (seq starts at 1).
    pub id: u64,
    /// PE that served the request.
    pub pe: usize,
    /// Open-loop arrival instant (virtual ns).
    pub arrival_ns: u64,
    /// Instant the PE began serving.
    pub begin_ns: u64,
    /// Completion instant.
    pub end_ns: u64,
    /// NIC queue-wait accumulated by the request's spans (live running sum;
    /// the authoritative per-request decomposition is
    /// `tailprof::req_paths`, which also resolves overlap).
    pub nic_ns: u64,
    /// NIC service time accumulated by the request's spans.
    pub wire_ns: u64,
    /// Synchronization stall accumulated (barriers, waits, unpaired quiets).
    pub sync_ns: u64,
    /// Fault detection/retry delay accumulated.
    pub fault_ns: u64,
}

#[derive(Debug, Default)]
struct PeBuf {
    spans: Vec<Span>,
    next_seq: u32,
    scope_stack: Vec<u64>,
    /// Open serving request on this PE (0 = none); stamped onto every span
    /// recorded while set.
    current_req: u64,
    /// Arrival/begin of the open request, carried until `end_request`.
    open_req: (u64, u64),
    /// Live phase sums of the open request: nic, wire, sync, fault.
    open_phase: [u64; 4],
    requests: Vec<ReqRecord>,
}

impl PeBuf {
    fn next_id(&mut self, pe: usize) -> u64 {
        self.next_seq += 1;
        ((pe as u64) << 32) | self.next_seq as u64
    }
}

/// Trace sink shared by all PEs of a machine; sharded per PE so recording
/// never contends across PEs.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    pes: Vec<Mutex<PeBuf>>,
}

impl Tracer {
    pub fn new(enabled: bool, num_pes: usize) -> Tracer {
        let pes = if enabled {
            (0..num_pes.max(1)).map(|_| Mutex::new(PeBuf::default())).collect()
        } else {
            Vec::new()
        };
        Tracer { enabled, pes }
    }

    /// Is tracing active? (Callers may skip span construction otherwise.)
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one span (no-op when disabled). Assigns the span's id and, if
    /// `span.parent` is unset, its parent from the PE's open scope stack.
    /// Returns the assigned id (0 when disabled).
    #[inline]
    pub fn record(&self, mut span: Span) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut buf = self.pes[span.pe].lock();
        span.id = buf.next_id(span.pe);
        if span.parent == 0 {
            span.parent = buf.scope_stack.last().copied().unwrap_or(0);
        }
        if span.req == 0 {
            span.req = buf.current_req;
        }
        if span.req != 0 && span.req == buf.current_req {
            // Keep the open request's live phase sums current so streaming
            // consumers can attribute tails without walking the span graph.
            let len = span.end.saturating_sub(span.begin);
            match span.kind {
                SpanKind::Put | SpanKind::Get | SpanKind::Amo => {
                    buf.open_phase[0] += span.queue_ns;
                    buf.open_phase[1] += span.service_ns;
                }
                SpanKind::Quiet => {
                    let nic = span.queue_ns.min(len);
                    buf.open_phase[0] += nic;
                    buf.open_phase[2] += len - nic;
                }
                SpanKind::Barrier | SpanKind::WaitUntil | SpanKind::Collective => {
                    buf.open_phase[2] += len;
                }
                SpanKind::Retry | SpanKind::Fault => {
                    buf.open_phase[3] += len;
                }
                SpanKind::Compute => {}
            }
        }
        let id = span.id;
        buf.spans.push(span);
        id
    }

    /// Mark `pe` as serving request `req_id` (admitted at `arrival_ns`,
    /// service beginning at `begin_ns`): every span recorded on `pe` until
    /// the matching [`Tracer::end_request`] is stamped with the id. No-op
    /// when disabled — request decomposition is part of the tracing layer.
    pub fn begin_request(&self, pe: usize, req_id: u64, arrival_ns: u64, begin_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut buf = self.pes[pe].lock();
        buf.current_req = req_id;
        buf.open_req = (arrival_ns, begin_ns);
        buf.open_phase = [0; 4];
    }

    /// Close the open request on `pe`, recording its [`ReqRecord`] with
    /// completion instant `end_ns`. No-op when disabled or no request open.
    pub fn end_request(&self, pe: usize, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut buf = self.pes[pe].lock();
        if buf.current_req == 0 {
            return;
        }
        let (arrival_ns, begin_ns) = buf.open_req;
        let id = buf.current_req;
        let [nic_ns, wire_ns, sync_ns, fault_ns] = buf.open_phase;
        buf.requests.push(ReqRecord {
            id,
            pe,
            arrival_ns,
            begin_ns,
            end_ns,
            nic_ns,
            wire_ns,
            sync_ns,
            fault_ns,
        });
        buf.current_req = 0;
        buf.open_req = (0, 0);
        buf.open_phase = [0; 4];
    }

    /// Take all recorded request records, merged across PEs and sorted by
    /// `(pe, id)` — a deterministic total order.
    pub fn drain_requests(&self) -> Vec<ReqRecord> {
        let mut reqs = Vec::new();
        for buf in &self.pes {
            reqs.append(&mut buf.lock().requests);
        }
        reqs.sort_by_key(|r| (r.pe, r.id));
        reqs
    }

    /// Peek all completed request records without consuming them, sorted by
    /// `(pe, id)` — the live-streaming counterpart of
    /// [`Tracer::drain_requests`]. Like [`Tracer::latest_per_pe`], this
    /// leaves the buffers intact for the end-of-run drain.
    pub fn live_requests(&self) -> Vec<ReqRecord> {
        let mut reqs = Vec::new();
        for buf in &self.pes {
            reqs.extend_from_slice(&buf.lock().requests);
        }
        reqs.sort_by_key(|r| (r.pe, r.id));
        reqs
    }

    /// Open a nesting scope on `pe` (e.g. at collective entry): reserves and
    /// returns the scope's span id; spans recorded on `pe` until the matching
    /// [`Tracer::end_scope`] become its children. Returns 0 when disabled.
    pub fn begin_scope(&self, pe: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut buf = self.pes[pe].lock();
        let id = buf.next_id(pe);
        buf.scope_stack.push(id);
        id
    }

    /// Close the innermost scope on `pe`, recording `span` as the scope span
    /// itself (it keeps the id reserved by [`Tracer::begin_scope`]).
    pub fn end_scope(&self, pe: usize, mut span: Span) {
        if !self.enabled {
            return;
        }
        let mut buf = self.pes[pe].lock();
        let id = buf.scope_stack.pop().expect("end_scope without begin_scope");
        span.pe = pe;
        span.id = id;
        span.parent = buf.scope_stack.last().copied().unwrap_or(0);
        buf.spans.push(span);
    }

    /// Peek each PE's most recently recorded span without consuming
    /// anything — the live-streaming view of "what is PE p doing right
    /// now". Returns an empty vec when tracing is disabled. Unlike
    /// [`Tracer::drain`] this leaves the buffers intact, so a stream
    /// sampling mid-run does not rob the end-of-run trace.
    pub fn latest_per_pe(&self) -> Vec<Option<Span>> {
        self.pes.iter().map(|buf| buf.lock().spans.last().copied()).collect()
    }

    /// Take all recorded spans, merged across PEs and sorted by
    /// `(begin, pe, id)` — a deterministic total order.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = Vec::new();
        for buf in &self.pes {
            spans.append(&mut buf.lock().spans);
        }
        spans.sort_by_key(|s| (s.begin, s.pe, s.id));
        spans
    }
}

/// Render spans in the Chrome trace-event JSON format: `pid` = node,
/// `tid` = PE, timestamps in microseconds.
///
/// Emits, in order: `M` metadata events naming each node's process and each
/// PE's thread; `X` complete events for the spans themselves (with queue/
/// service breakdown in `args` when present); and for every span with a
/// remote delivery window, a synthesized `deliver` slice on the peer's row
/// plus an `s`/`f` flow-event pair drawing the causal arrow origin → peer.
pub fn chrome_trace_json(spans: &[Span], cores_per_node: usize) -> String {
    chrome_trace_json_with_requests(spans, &[], cores_per_node)
}

/// [`chrome_trace_json`] plus a per-request view: every [`ReqRecord`] becomes
/// an async `b`/`e` slice pair (cat `request`, id = request id) spanning
/// arrival → completion on the serving PE's row, and every span stamped with
/// a request id gets an id-keyed flow arrow (cat `req`) from the request's
/// service begin to the span it caused — so a single slow request can be
/// eyeballed in Perfetto: its queueing delay, then arrows fanning out to the
/// ops (and retries) it triggered.
pub fn chrome_trace_json_with_requests(
    spans: &[Span],
    requests: &[ReqRecord],
    cores_per_node: usize,
) -> String {
    // cores_per_node = 0 means "node structure unknown": everything is one
    // node (pid 0), rather than the old behaviour of pid = pe.
    let node_of = |pe: usize| pe.checked_div(cores_per_node).unwrap_or(0);
    let mut events: Vec<Json> = Vec::new();

    let mut pes: Vec<usize> = spans
        .iter()
        .flat_map(|s| std::iter::once(s.pe).chain(s.peer.filter(|_| s.remote_end > 0)))
        .chain(requests.iter().map(|r| r.pe))
        .collect();
    pes.sort_unstable();
    pes.dedup();
    let mut nodes: Vec<usize> = pes.iter().map(|&pe| node_of(pe)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for node in nodes {
        events.push(Json::Object(vec![
            ("name".into(), Json::str("process_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::uint(node)),
            ("args".into(), Json::Object(vec![("name".into(), Json::Str(format!("node {node}")))])),
        ]));
    }
    for pe in pes {
        events.push(Json::Object(vec![
            ("name".into(), Json::str("thread_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::uint(node_of(pe))),
            ("tid".into(), Json::uint(pe)),
            ("args".into(), Json::Object(vec![("name".into(), Json::Str(format!("PE {pe}")))])),
        ]));
    }

    let us = |ns: u64| Json::float(ns as f64 / 1000.0);

    // Per-request async track: one b/e pair per request, keyed by request
    // id, spanning arrival -> completion on the serving PE's row.
    let mut req_begin: std::collections::BTreeMap<u64, (usize, u64)> = Default::default();
    for r in requests {
        req_begin.insert(r.id, (r.pe, r.begin_ns));
        events.push(Json::Object(vec![
            ("name".into(), Json::str("request")),
            ("cat".into(), Json::str("request")),
            ("ph".into(), Json::str("b")),
            ("id".into(), Json::uint(r.id as usize)),
            ("pid".into(), Json::uint(node_of(r.pe))),
            ("tid".into(), Json::uint(r.pe)),
            ("ts".into(), us(r.arrival_ns)),
            (
                "args".into(),
                Json::Object(vec![
                    (
                        "queue_ns".into(),
                        Json::uint(r.begin_ns.saturating_sub(r.arrival_ns) as usize),
                    ),
                    (
                        "latency_ns".into(),
                        Json::uint(r.end_ns.saturating_sub(r.arrival_ns) as usize),
                    ),
                ]),
            ),
        ]));
        events.push(Json::Object(vec![
            ("name".into(), Json::str("request")),
            ("cat".into(), Json::str("request")),
            ("ph".into(), Json::str("e")),
            ("id".into(), Json::uint(r.id as usize)),
            ("pid".into(), Json::uint(node_of(r.pe))),
            ("tid".into(), Json::uint(r.pe)),
            ("ts".into(), us(r.end_ns)),
        ]));
    }

    for s in spans {
        let mut args =
            vec![("peer".into(), Json::opt_uint(s.peer)), ("bytes".into(), Json::uint(s.bytes))];
        if s.queue_ns > 0 || s.service_ns > 0 {
            args.push(("queue_ns".into(), Json::uint(s.queue_ns as usize)));
            args.push(("service_ns".into(), Json::uint(s.service_ns as usize)));
        }
        if s.req != 0 {
            args.push(("req".into(), Json::uint(s.req as usize)));
        }
        events.push(Json::Object(vec![
            ("name".into(), Json::str(s.kind.label())),
            ("ph".into(), Json::str("X")),
            ("pid".into(), Json::uint(node_of(s.pe))),
            ("tid".into(), Json::uint(s.pe)),
            ("ts".into(), us(s.begin)),
            ("dur".into(), Json::float(s.end.saturating_sub(s.begin) as f64 / 1000.0)),
            ("args".into(), Json::Object(args)),
        ]));
        // Causal flow: origin op -> delivery slice on the peer's row.
        if let (Some(peer), true) = (s.peer, s.remote_end > s.remote_begin && s.id != 0) {
            events.push(Json::Object(vec![
                ("name".into(), Json::Str(format!("deliver {}", s.kind.label()))),
                ("ph".into(), Json::str("X")),
                ("pid".into(), Json::uint(node_of(peer))),
                ("tid".into(), Json::uint(peer)),
                ("ts".into(), us(s.remote_begin)),
                (
                    "dur".into(),
                    Json::float(s.remote_end.saturating_sub(s.remote_begin) as f64 / 1000.0),
                ),
                (
                    "args".into(),
                    Json::Object(vec![
                        ("origin_pe".into(), Json::uint(s.pe)),
                        ("bytes".into(), Json::uint(s.bytes)),
                    ]),
                ),
            ]));
            let flow = |ph: &str, pe: usize, ts: u64, bind_end: bool| {
                let mut fields = vec![
                    ("name".into(), Json::str("flow")),
                    ("cat".into(), Json::str("flow")),
                    ("ph".into(), Json::str(ph)),
                    ("id".into(), Json::uint(s.id as usize)),
                    ("pid".into(), Json::uint(node_of(pe))),
                    ("tid".into(), Json::uint(pe)),
                    ("ts".into(), us(ts)),
                ];
                if bind_end {
                    fields.push(("bp".into(), Json::str("e")));
                }
                Json::Object(fields)
            };
            events.push(flow("s", s.pe, s.begin, false));
            events.push(flow("f", peer, s.remote_end, true));
        }
        // Request causality: an arrow from the request's service begin to
        // each span it caused. Keyed by the span id under its own category
        // so request arrows never collide with the delivery flows above
        // (Chrome matches flow s/f pairs by (cat, id)).
        if s.req != 0 && s.id != 0 {
            if let Some(&(req_pe, req_begin_ns)) = req_begin.get(&s.req) {
                let req_flow = |ph: &str, pe: usize, ts: u64, bind_end: bool| {
                    let mut fields = vec![
                        ("name".into(), Json::str("req_flow")),
                        ("cat".into(), Json::str("req")),
                        ("ph".into(), Json::str(ph)),
                        ("id".into(), Json::uint(s.id as usize)),
                        ("pid".into(), Json::uint(node_of(pe))),
                        ("tid".into(), Json::uint(pe)),
                        ("ts".into(), us(ts)),
                    ];
                    if bind_end {
                        fields.push(("bp".into(), Json::str("e")));
                    }
                    Json::Object(fields)
                };
                events.push(req_flow("s", req_pe, req_begin_ns.min(s.begin), false));
                events.push(req_flow("f", s.pe, s.begin, true));
            }
        }
    }
    Json::Array(events).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pe: usize, kind: SpanKind, begin: u64, end: u64) -> Span {
        Span::op(pe, kind, begin, end, Some(1), 64)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 4);
        assert!(!t.enabled());
        assert_eq!(t.record(span(0, SpanKind::Put, 0, 10)), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn drain_sorts_by_begin() {
        let t = Tracer::new(true, 4);
        t.record(span(1, SpanKind::Get, 50, 70));
        t.record(span(0, SpanKind::Put, 10, 30));
        t.record(span(2, SpanKind::Amo, 20, 25));
        let spans = t.drain();
        assert_eq!(spans.len(), 3);
        assert!(spans.windows(2).all(|w| w[0].begin <= w[1].begin));
        assert!(t.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn latest_per_pe_peeks_without_consuming() {
        let t = Tracer::new(true, 2);
        t.record(span(0, SpanKind::Put, 0, 10));
        t.record(span(0, SpanKind::Get, 10, 20));
        let latest = t.latest_per_pe();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].unwrap().kind, SpanKind::Get);
        assert!(latest[1].is_none());
        assert_eq!(t.drain().len(), 2, "peek left the buffers intact");
        assert!(Tracer::new(false, 2).latest_per_pe().is_empty());
    }

    #[test]
    fn span_ids_are_deterministic_and_per_pe() {
        let t = Tracer::new(true, 4);
        let a = t.record(span(2, SpanKind::Put, 0, 10));
        let b = t.record(span(2, SpanKind::Put, 10, 20));
        let c = t.record(span(3, SpanKind::Get, 0, 5));
        assert_eq!(a, (2u64 << 32) | 1);
        assert_eq!(b, (2u64 << 32) | 2);
        assert_eq!(c, (3u64 << 32) | 1);
    }

    #[test]
    fn scopes_nest_children_under_parent() {
        let t = Tracer::new(true, 2);
        let scope = t.begin_scope(0);
        let child = t.record(span(0, SpanKind::Put, 5, 10));
        t.end_scope(0, span(0, SpanKind::Collective, 0, 20));
        let _top = t.record(span(0, SpanKind::Quiet, 20, 25));
        let spans = t.drain();
        let parent_span = spans.iter().find(|s| s.kind == SpanKind::Collective).unwrap();
        let child_span = spans.iter().find(|s| s.id == child).unwrap();
        let top_span = spans.iter().find(|s| s.kind == SpanKind::Quiet).unwrap();
        assert_eq!(parent_span.id, scope);
        assert_eq!(parent_span.parent, 0);
        assert_eq!(child_span.parent, scope);
        assert_eq!(top_span.parent, 0);
    }

    #[test]
    fn chrome_json_shape() {
        let spans =
            vec![span(0, SpanKind::Put, 1000, 3000), span(17, SpanKind::Barrier, 5000, 9000)];
        let json = chrome_trace_json(&spans, 16);
        assert!(json.contains("\"name\": \"put\""));
        assert!(json.contains("\"name\": \"barrier\""));
        assert!(json.contains("\"ph\": \"X\""));
        // PE 17 with 16 cores/node lives on node 1.
        assert!(json.contains("\"pid\": 1"));
        // 1000 ns -> 1.0 us.
        assert!(json.contains("\"ts\": 1.0"));
        // Metadata events label processes and threads.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"node 1\""));
        assert!(json.contains("\"PE 17\""));
        let parsed = crate::json::parse(&json).unwrap();
        let events = parsed.as_array().unwrap();
        let x_events =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).count();
        assert_eq!(x_events, 2);
    }

    #[test]
    fn zero_cores_per_node_maps_everything_to_node_zero() {
        let spans = vec![span(5, SpanKind::Put, 0, 10)];
        let json = chrome_trace_json(&spans, 0);
        // Previously pid was mislabelled as the PE index (5).
        assert!(json.contains("\"pid\": 0"));
        assert!(!json.contains("\"pid\": 5"));
    }

    #[test]
    fn flow_events_link_origin_to_delivery() {
        let t = Tracer::new(true, 4);
        let mut s = span(0, SpanKind::Put, 1000, 2000);
        s.peer = Some(2);
        s.queue_ns = 100;
        s.service_ns = 400;
        s.remote_begin = 2500;
        s.remote_end = 3000;
        t.record(s);
        let json = chrome_trace_json(&t.drain(), 2);
        assert!(json.contains("\"deliver put\""));
        assert!(json.contains("\"ph\": \"s\""));
        assert!(json.contains("\"ph\": \"f\""));
        assert!(json.contains("\"bp\": \"e\""));
        assert!(json.contains("\"queue_ns\": 100"));
        assert!(json.contains("\"service_ns\": 400"));
        let parsed = crate::json::parse(&json).unwrap();
        // Delivery slice lands on the peer's row (tid 2, node 1 of 2 cores).
        let deliver = parsed
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("deliver put"))
            .expect("deliver slice present");
        assert_eq!(deliver.get("tid").and_then(|v| v.as_i64()), Some(2));
        assert_eq!(deliver.get("pid").and_then(|v| v.as_i64()), Some(1));
    }

    #[test]
    fn request_markers_stamp_spans_and_record_lifecycle() {
        let t = Tracer::new(true, 2);
        let req = (2u64 << 32) | 1; // PE 2's request #1 id shape
        t.begin_request(0, req, 100, 150);
        t.record(span(0, SpanKind::Put, 150, 300));
        t.record(span(0, SpanKind::Get, 300, 500));
        t.end_request(0, 500);
        t.record(span(0, SpanKind::Compute, 500, 600));
        t.record(span(1, SpanKind::Put, 200, 250));
        let reqs = t.drain_requests();
        assert_eq!(
            reqs,
            vec![ReqRecord {
                id: req,
                pe: 0,
                arrival_ns: 100,
                begin_ns: 150,
                end_ns: 500,
                nic_ns: 0,
                wire_ns: 0,
                sync_ns: 0,
                fault_ns: 0,
            }]
        );
        let spans = t.drain();
        let tagged: Vec<_> = spans.iter().filter(|s| s.req == req).collect();
        assert_eq!(tagged.len(), 2, "only spans inside the request window are tagged");
        assert!(spans.iter().any(|s| s.kind == SpanKind::Compute && s.req == 0));
        assert!(spans.iter().any(|s| s.pe == 1 && s.req == 0), "other PEs unaffected");
        // Disabled tracer: markers are no-ops.
        let off = Tracer::new(false, 2);
        off.begin_request(0, req, 0, 0);
        off.end_request(0, 10);
        assert!(off.drain_requests().is_empty());
    }

    #[test]
    fn request_records_accumulate_live_phase_sums() {
        let t = Tracer::new(true, 1);
        t.begin_request(0, 1, 0, 10);
        let mut put = span(0, SpanKind::Put, 10, 100);
        put.queue_ns = 30;
        put.service_ns = 50;
        t.record(put);
        t.record(span(0, SpanKind::Barrier, 100, 160));
        t.record(span(0, SpanKind::Retry, 160, 300));
        t.record(span(0, SpanKind::Compute, 300, 350));
        // Peek mid-run: the request is still open, nothing visible yet.
        assert!(t.live_requests().is_empty());
        t.end_request(0, 350);
        let live = t.live_requests();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].nic_ns, 30);
        assert_eq!(live[0].wire_ns, 50);
        assert_eq!(live[0].sync_ns, 60);
        assert_eq!(live[0].fault_ns, 140);
        // Peeking left the record for the end-of-run drain.
        assert_eq!(t.drain_requests(), live);
        // A following request starts from zero.
        t.begin_request(0, 2, 400, 400);
        t.end_request(0, 450);
        let next = t.drain_requests();
        assert_eq!((next[0].nic_ns, next[0].fault_ns), (0, 0));
    }

    #[test]
    fn chrome_request_view_emits_async_slices_and_arrows() {
        let t = Tracer::new(true, 2);
        let req = (1u64 << 32) | 7;
        t.begin_request(0, req, 100, 150);
        t.record(span(0, SpanKind::Put, 150, 300));
        t.end_request(0, 500);
        let spans = t.drain();
        let reqs = t.drain_requests();
        let json = chrome_trace_json_with_requests(&spans, &reqs, 2);
        let parsed = crate::json::parse(&json).unwrap();
        let events = parsed.as_array().unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .collect::<Vec<_>>()
        };
        // One async b/e pair for the request, spanning arrival -> completion.
        let (b, e) = (phase("b"), phase("e"));
        assert_eq!((b.len(), e.len()), (1, 1));
        assert_eq!(b[0].get("cat").and_then(|v| v.as_str()), Some("request"));
        assert_eq!(b[0].get("id").and_then(|v| v.as_i64()), Some(req as i64));
        assert_eq!(b[0].get("ts").and_then(|v| v.as_f64()), Some(0.1));
        assert_eq!(e[0].get("ts").and_then(|v| v.as_f64()), Some(0.5));
        // One id-keyed arrow from the request to the span it caused.
        let req_flows: Vec<_> = events
            .iter()
            .filter(|ev| ev.get("cat").and_then(|v| v.as_str()) == Some("req"))
            .collect();
        assert_eq!(req_flows.len(), 2, "one s/f pair");
        assert!(json.contains("\"queue_ns\": 50"), "request args carry queueing delay");
        assert!(json.contains("\"latency_ns\": 400"));
        // Without requests the export is unchanged (golden compatibility).
        assert_eq!(chrome_trace_json(&spans, 2), chrome_trace_json_with_requests(&spans, &[], 2));
    }
}
