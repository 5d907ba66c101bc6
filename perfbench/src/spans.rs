//! The benchmark's own span recorder: one span around each call into a
//! layer, kept in memory and written as JSON when the run ends.
//!
//! Spans are recorded from outside the program (spans inside it are a later
//! change), only in the traced run, and never feed an end-to-end number. A
//! span has a name, a start and an end on the recorder's clock, a parent
//! (0 for a root) and the id of the operation it belongs to, so all spans
//! of one query share an id. A layer's self time is its span minus the part
//! its children cover.

use crate::report::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Operation id: the query's index in its stream, the epoch for writer
    /// spans, the tile for replay spans.
    pub op: u64,
    /// 1-based index of the parent span in the same recorder, 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of a recorded span; [`SpanRef::NONE`] is "no parent" and also
/// what a disabled recorder hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef(u32);

impl SpanRef {
    pub const NONE: SpanRef = SpanRef(0);
}

/// Single-threaded recorder; a workload with two benchmark threads gives
/// each its own and merges them with [`Recorder::absorb`].
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on the clock that started at `epoch` (share one epoch
    /// between recorders that will be merged).
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanRef,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        if !self.enabled {
            return SpanRef::NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent: parent.0,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        SpanRef(self.spans.len() as u32)
    }

    /// Times `f` and records it as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanRef,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, op, parent, start, Instant::now());
        out
    }

    /// Stretches a recorded span's end (a root closed after its children).
    pub fn close(&mut self, span: SpanRef, end: Instant) {
        if span != SpanRef::NONE {
            let ns = self.ns(end);
            let s = &mut self.spans[span.0 as usize - 1];
            s.end_ns = ns.max(s.start_ns);
        }
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, self time being the
    /// span's duration minus the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent as usize - 1];
                let covered = s
                    .end_ns
                    .min(p.end_ns)
                    .saturating_sub(s.start_ns.max(p.start_ns));
                child_ns[s.parent as usize - 1] += covered;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*kids);
        }
        out
    }

    /// The where-the-time-goes table, one line per span name.
    fn render_self_times(&self) -> Vec<String> {
        let table = self.self_times();
        let total_self: u64 = table.values().map(|v| v.2).sum();
        let mut lines = vec![format!(
            "{:<24} {:>9} {:>12} {:>12} {:>7}",
            "span", "count", "mean_us", "self_us", "self%"
        )];
        for (name, (count, total, own)) in table {
            lines.push(format!(
                "{name:<24} {count:>9} {:>12.3} {:>12.3} {:>6.1}%",
                total as f64 / count as f64 / 1e3,
                own as f64 / count as f64 / 1e3,
                100.0 * own as f64 / total_self.max(1) as f64
            ));
        }
        lines
    }

    /// Ends a traced run: the where-the-time-goes table goes into the
    /// ledger's notes and the spans, if asked for, to `trace_out`.
    pub fn report(&self, trace_out: Option<&Path>, ledger: &mut Ledger) {
        ledger.notes.extend(self.render_self_times());
        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(path, self.to_json()) {
                ledger.note(format!("could not write {}: {e}", path.display()));
            }
        }
    }

    /// `{"schema": "knnta.perf.spans.v1", "spans": [...]}`; a span's `i` is
    /// its 1-based position, which is what `parent` refers to.
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"schema\": \"knnta.perf.spans.v1\", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"i\": {}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.name,
                s.op,
                s.parent,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(true, t0);
        let root = r.add("query", 7, SpanRef::NONE, at(0), at(100));
        r.add("plan", 7, root, at(10), at(30));
        r.add("execute", 7, root, at(30), at(90));
        let t = r.self_times();
        assert_eq!(t["query"], (1, 100_000, 20_000));
        assert_eq!(t["plan"], (1, 20_000, 20_000));
        assert_eq!(t["execute"], (1, 60_000, 60_000));
    }

    #[test]
    fn every_span_has_a_parent_or_is_a_root_after_merging() {
        let t0 = Instant::now();
        let mut a = Recorder::new(true, t0);
        let ra = a.add("a.root", 1, SpanRef::NONE, t0, t0);
        a.add("a.child", 1, ra, t0, t0);
        let mut b = Recorder::new(true, t0);
        let rb = b.add("b.root", 2, SpanRef::NONE, t0, t0);
        b.add("b.child", 2, rb, t0, t0);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        for s in spans {
            if s.parent != 0 {
                let p = &spans[s.parent as usize - 1];
                assert_eq!(p.op, s.op, "spans of one operation share an id");
            }
        }
        assert_eq!(spans[3].parent, 3);
        let doc = knnta_util::json::JsonValue::parse(&a.to_json()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let s = r.time("x", 0, SpanRef::NONE, || 5);
        assert_eq!(s, 5);
        assert!(r.spans().is_empty());
    }
}
