//! Hierarchical tracing spans with monotonic nanosecond timestamps.
//!
//! A [`Tracer`] records spans (intervals with an explicit parent) and point
//! events (timestamped records attached to a span). Timestamps are
//! nanoseconds since the tracer's creation `Instant`, so they are monotonic
//! and comparable across threads within one trace.
//!
//! Serialized form is the stable `knnta.trace.v1` schema:
//!
//! ```json
//! {
//!   "schema": "knnta.trace.v1",
//!   "spans": [
//!     {"id": 1, "parent": 0, "name": "query", "start_ns": 0,
//!      "end_ns": 12345, "attrs": {"k": 10, "backend": "paged"}}
//!   ],
//!   "events": [
//!     {"span": 2, "name": "pop", "ts_ns": 17,
//!      "attrs": {"key": 0.5, "stolen": false}}
//!   ]
//! }
//! ```
//!
//! `parent: 0` marks a root span. [`TraceDoc::validate`] rejects orphaned
//! spans, inverted intervals, children escaping their parent's interval, and
//! events outside their span.

use knnta_util::json::{escape_string, JsonValue};
use knnta_util::sync::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A span identifier; `SpanId::NONE` (0) means "no span / no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (used as the parent of root spans).
    pub const NONE: SpanId = SpanId(0);
}

/// An attribute value attached to a span or event.
///
/// Numbers are kept as `f64` — exact for every counter and timestamp this
/// stack records (integers up to 2^53) — so serialized documents round-trip
/// to equal in-process documents.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A numeric attribute.
    Num(f64),
    /// A string attribute.
    Str(String),
    /// A boolean attribute.
    Bool(bool),
}

impl AttrValue {
    /// The value as a `u64` (truncating), if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::Num(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Num(v as f64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Num(v as f64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Num(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Attribute list type used throughout the tracer.
pub type Attrs = Vec<(String, AttrValue)>;

struct SpanRec {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    attrs: Attrs,
}

struct EventRec {
    span: u64,
    name: String,
    ts_ns: u64,
    attrs: Attrs,
}

#[derive(Default)]
struct TraceBuf {
    spans: Vec<SpanRec>,
    events: Vec<EventRec>,
}

/// The span/event sink behind an enabled [`crate::Obs`].
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    buf: Mutex<TraceBuf>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer; its creation instant is timestamp 0.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            buf: Mutex::new(TraceBuf::default()),
        }
    }

    /// Nanoseconds since the tracer epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span starting now; close it with [`Tracer::end_span`].
    pub fn start_span(&self, name: &str, parent: SpanId) -> SpanId {
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        self.buf.lock().spans.push(SpanRec {
            id,
            parent: parent.0,
            name: name.to_string(),
            start_ns,
            end_ns: None,
            attrs: Vec::new(),
        });
        SpanId(id)
    }

    /// Closes an open span at the current timestamp (idempotent).
    pub fn end_span(&self, id: SpanId) {
        let end = self.now_ns();
        let mut buf = self.buf.lock();
        if let Some(rec) = buf.spans.iter_mut().rev().find(|s| s.id == id.0) {
            if rec.end_ns.is_none() {
                rec.end_ns = Some(end.max(rec.start_ns));
            }
        }
    }

    /// Appends attributes to a span (open or closed).
    pub fn set_attrs(&self, id: SpanId, attrs: Attrs) {
        let mut buf = self.buf.lock();
        if let Some(rec) = buf.spans.iter_mut().rev().find(|s| s.id == id.0) {
            rec.attrs.extend(attrs);
        }
    }

    /// Records a fully-formed span with explicit timestamps. Used for
    /// post-hoc recording, such as the synthetic per-phase breakdown spans
    /// a search lays out after it finishes.
    pub fn add_span(
        &self,
        name: &str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        attrs: Attrs,
    ) -> SpanId {
        let id = self.alloc_id();
        self.buf.lock().spans.push(SpanRec {
            id,
            parent: parent.0,
            name: name.to_string(),
            start_ns,
            end_ns: Some(end_ns.max(start_ns)),
            attrs,
        });
        SpanId(id)
    }

    /// Records a point event attached to `span` at `ts_ns`.
    pub fn add_event(&self, span: SpanId, name: &str, ts_ns: u64, attrs: Attrs) {
        self.buf.lock().events.push(EventRec {
            span: span.0,
            name: name.to_string(),
            ts_ns,
            attrs,
        });
    }

    /// Opens a span and returns a guard that closes it on drop.
    pub fn span<'a>(&'a self, name: &str, parent: SpanId) -> SpanGuard<'a> {
        let id = self.start_span(name, parent);
        SpanGuard {
            tracer: Some(self),
            id,
        }
    }

    /// A copy of everything recorded so far. Spans still open are closed at
    /// the snapshot timestamp in the copy (the live records stay open).
    pub fn snapshot(&self) -> TraceDoc {
        let now = self.now_ns();
        let buf = self.buf.lock();
        TraceDoc {
            schema: crate::TRACE_SCHEMA.to_string(),
            spans: buf
                .spans
                .iter()
                .map(|s| SpanDoc {
                    id: s.id,
                    parent: s.parent,
                    name: s.name.clone(),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns.unwrap_or_else(|| now.max(s.start_ns)),
                    attrs: s.attrs.clone(),
                })
                .collect(),
            events: buf
                .events
                .iter()
                .map(|e| EventDoc {
                    span: e.span,
                    name: e.name.clone(),
                    ts_ns: e.ts_ns,
                    attrs: e.attrs.clone(),
                })
                .collect(),
        }
    }
}

/// RAII guard for a span opened via [`Tracer::span`] / [`crate::Obs::span`];
/// closes the span when dropped.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: SpanId,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn noop() -> Self {
        Self {
            tracer: None,
            id: SpanId::NONE,
        }
    }

    /// The span's id ([`SpanId::NONE`] for a disabled guard).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Appends attributes to the span.
    pub fn set_attrs(&self, attrs: Attrs) {
        if let Some(t) = self.tracer {
            t.set_attrs(self.id, attrs);
        }
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.end_span(self.id);
        }
    }
}

/// One span in a [`TraceDoc`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDoc {
    /// Unique nonzero span id.
    pub id: u64,
    /// Parent span id; 0 for root spans.
    pub parent: u64,
    /// Span name (e.g. `query`, `worker`, `phase.tia`).
    pub name: String,
    /// Start, nanoseconds since trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since trace epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Attributes in recording order.
    pub attrs: Attrs,
}

impl SpanDoc {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One event in a [`TraceDoc`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventDoc {
    /// The span this event belongs to.
    pub span: u64,
    /// Event name (e.g. `pop`).
    pub name: String,
    /// Timestamp, nanoseconds since trace epoch.
    pub ts_ns: u64,
    /// Attributes in recording order.
    pub attrs: Attrs,
}

impl EventDoc {
    /// The attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A trace artifact: a tracer snapshot, or a parsed `knnta.trace.v1`
/// JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDoc {
    /// Schema identifier (`knnta.trace.v1`).
    pub schema: String,
    /// All spans in recording order.
    pub spans: Vec<SpanDoc>,
    /// All events in recording order.
    pub events: Vec<EventDoc>,
}

fn write_attrs(out: &mut String, attrs: &Attrs) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: ", escape_string(k));
        match v {
            AttrValue::Num(n) => {
                let n = if n.is_finite() { *n } else { 0.0 };
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", n as i64);
                } else {
                    let _ = write!(out, "{n:?}");
                }
            }
            AttrValue::Str(s) => out.push_str(&escape_string(s)),
            AttrValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
}

fn parse_attrs(v: Option<&JsonValue>) -> Result<Attrs, String> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let obj = v.as_obj().ok_or("attrs not an object")?;
    obj.iter()
        .map(|(k, val)| {
            let a = match val {
                JsonValue::Num(n) => AttrValue::Num(*n),
                JsonValue::Str(s) => AttrValue::Str(s.clone()),
                JsonValue::Bool(b) => AttrValue::Bool(*b),
                other => return Err(format!("attr {k} has unsupported type {other:?}")),
            };
            Ok((k.clone(), a))
        })
        .collect()
}

impl TraceDoc {
    /// The span with id `id`, if present.
    pub fn span(&self, id: u64) -> Option<&SpanDoc> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// All spans named `name`, in recording order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanDoc> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of span `id`, in recording order.
    pub fn children_of(&self, id: u64) -> impl Iterator<Item = &SpanDoc> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// Events attached to span `id`, in recording order.
    pub fn events_of(&self, id: u64) -> impl Iterator<Item = &EventDoc> {
        self.events.iter().filter(move |e| e.span == id)
    }

    /// Serializes to the `knnta.trace.v1` schema, one span/event per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", escape_string(crate::TRACE_SCHEMA));
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"attrs\": ",
                s.id,
                s.parent,
                escape_string(&s.name),
                s.start_ns,
                s.end_ns
            );
            write_attrs(&mut out, &s.attrs);
            out.push('}');
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"span\": {}, \"name\": {}, \"ts_ns\": {}, \"attrs\": ",
                e.span,
                escape_string(&e.name),
                e.ts_ns
            );
            write_attrs(&mut out, &e.attrs);
            out.push('}');
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a `knnta.trace.v1` document (round-trips [`TraceDoc::to_json`]).
    pub fn parse(s: &str) -> Result<TraceDoc, String> {
        let v = JsonValue::parse(s)?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema")?
            .to_string();
        let mut spans = Vec::new();
        for s in v
            .get("spans")
            .and_then(JsonValue::as_arr)
            .ok_or("missing spans array")?
        {
            let field = |key: &str| {
                s.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("span missing {key}"))
            };
            spans.push(SpanDoc {
                id: field("id")?,
                parent: field("parent")?,
                name: s
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("span missing name")?
                    .to_string(),
                start_ns: field("start_ns")?,
                end_ns: field("end_ns")?,
                attrs: parse_attrs(s.get("attrs"))?,
            });
        }
        let mut events = Vec::new();
        for e in v
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or("missing events array")?
        {
            events.push(EventDoc {
                span: e
                    .get("span")
                    .and_then(JsonValue::as_u64)
                    .ok_or("event missing span")?,
                name: e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("event missing name")?
                    .to_string(),
                ts_ns: e
                    .get("ts_ns")
                    .and_then(JsonValue::as_u64)
                    .ok_or("event missing ts_ns")?,
                attrs: parse_attrs(e.get("attrs"))?,
            });
        }
        Ok(TraceDoc {
            schema,
            spans,
            events,
        })
    }

    /// Structural validation: schema identifier, unique nonzero ids, no
    /// orphaned spans (every nonzero parent exists), `end >= start`, every
    /// child interval inside its parent's, every event attached to an
    /// existing span and timestamped within it.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != crate::TRACE_SCHEMA {
            return Err(format!("unexpected schema {:?}", self.schema));
        }
        let mut ids = std::collections::HashMap::new();
        for s in &self.spans {
            if s.id == 0 {
                return Err(format!("span {:?} has reserved id 0", s.name));
            }
            if ids.insert(s.id, s).is_some() {
                return Err(format!("duplicate span id {}", s.id));
            }
        }
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            if s.parent != 0 {
                let parent = ids
                    .get(&s.parent)
                    .ok_or_else(|| format!("orphaned span {} ({}): parent {} not in trace", s.id, s.name, s.parent))?;
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} [{}, {}]",
                        s.id, s.name, s.start_ns, s.end_ns, s.parent, parent.start_ns, parent.end_ns
                    ));
                }
            }
        }
        for e in &self.events {
            let span = ids
                .get(&e.span)
                .ok_or_else(|| format!("event {} attached to unknown span {}", e.name, e.span))?;
            if e.ts_ns < span.start_ns || e.ts_ns > span.end_ns {
                return Err(format!(
                    "event {} at {} outside span {} [{}, {}]",
                    e.name, e.ts_ns, e.span, span.start_ns, span.end_ns
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_closes_span_on_drop() {
        let t = Tracer::new();
        let root_id;
        {
            let root = t.span("query", SpanId::NONE);
            root_id = root.id();
            root.set_attrs(vec![("k".into(), 10u64.into())]);
            let child = t.span("phase.tia", root.id());
            t.add_event(child.id(), "lookup", t.now_ns(), vec![("hit".into(), true.into())]);
        }
        let doc = t.snapshot();
        assert_eq!(doc.spans.len(), 2);
        let root = doc.span(root_id.0).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(root.attr("k").and_then(AttrValue::as_u64), Some(10));
        doc.validate().unwrap();
    }

    #[test]
    fn snapshot_closes_open_spans_in_copy_only() {
        let t = Tracer::new();
        let id = t.start_span("open", SpanId::NONE);
        let doc = t.snapshot();
        assert!(doc.span(id.0).unwrap().end_ns >= doc.span(id.0).unwrap().start_ns);
        doc.validate().unwrap();
        t.end_span(id);
        t.snapshot().validate().unwrap();
    }

    #[test]
    fn synthetic_spans_and_events_round_trip() {
        let t = Tracer::new();
        let root = t.add_span("query", SpanId::NONE, 0, 1000, vec![("backend".into(), "paged".into())]);
        let worker = t.add_span(
            "worker",
            root,
            10,
            900,
            vec![("worker".into(), 1u64.into()), ("steals".into(), 2u64.into())],
        );
        t.add_event(
            worker,
            "pop",
            17,
            vec![
                ("key".into(), 0.5f64.into()),
                ("stolen".into(), false.into()),
            ],
        );
        let doc = t.snapshot();
        doc.validate().unwrap();
        let json = doc.to_json();
        let back = TraceDoc::parse(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back, doc);
        let ev = back.events_of(worker.0).next().unwrap();
        assert_eq!(ev.attr("key").and_then(AttrValue::as_f64), Some(0.5));
        assert_eq!(ev.attr("stolen").and_then(AttrValue::as_bool), Some(false));
    }

    #[test]
    fn empty_trace_round_trips() {
        let doc = Tracer::new().snapshot();
        let back = TraceDoc::parse(&doc.to_json()).unwrap();
        back.validate().unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn validate_rejects_orphans_and_escapes() {
        let t = Tracer::new();
        t.add_span("orphan", SpanId(999), 0, 10, vec![]);
        assert!(t.snapshot().validate().unwrap_err().contains("orphaned"));

        let t = Tracer::new();
        let root = t.add_span("root", SpanId::NONE, 100, 200, vec![]);
        t.add_span("child", root, 50, 150, vec![]);
        assert!(t.snapshot().validate().unwrap_err().contains("escapes"));

        let t = Tracer::new();
        let root = t.add_span("root", SpanId::NONE, 100, 200, vec![]);
        t.add_event(root, "late", 500, vec![]);
        assert!(t.snapshot().validate().unwrap_err().contains("outside"));

        let t = Tracer::new();
        t.add_event(SpanId(42), "nowhere", 0, vec![]);
        assert!(t.snapshot().validate().unwrap_err().contains("unknown span"));
    }

    #[test]
    fn validate_rejects_duplicate_and_zero_ids() {
        let mut doc = Tracer::new().snapshot();
        doc.spans.push(SpanDoc {
            id: 0,
            parent: 0,
            name: "zero".into(),
            start_ns: 0,
            end_ns: 1,
            attrs: vec![],
        });
        assert!(doc.validate().is_err());

        let t = Tracer::new();
        t.add_span("a", SpanId::NONE, 0, 1, vec![]);
        let mut doc = t.snapshot();
        let dup = doc.spans[0].clone();
        doc.spans.push(dup);
        assert!(doc.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let t = Tracer::new();
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }
}
