//! Renders a per-phase breakdown table from a trace artifact, and a
//! `top`-style text view over live-telemetry snapshots.
//!
//! [`render_report`] backs `knnta report <trace.json>`: it aggregates the
//! synthetic `phase.*` spans the query path emits (filter scoring vs. TIA
//! aggregation vs. page I/O) into the per-phase cost decomposition the
//! paper reports (Fig. 12-style); groups the service pipeline spans
//! (`admit`/`tile`/`scatter`/`merge`, with a per-shard scatter table) and
//! the per-query `segment.*`
//! spans of sampled tail traces; then a per-span-name summary and, when a
//! metrics artifact is supplied, the counter table.
//!
//! [`render_top`] backs `knnta top <snapshot.json>`: window latency
//! quantiles, rates, and shard-health gauges from a `knnta.snapshot.v1`
//! document.

use crate::metrics::{MetricsDoc, SnapshotDoc};
use crate::trace::TraceDoc;
use std::fmt::Write as _;

/// The service pipeline spans grouped into their own report section
/// (in pipeline order).
const SERVICE_SPANS: [&str; 4] = ["admit", "tile", "scatter", "merge"];

/// Pretty-prints `ns` with an adaptive unit.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// One aggregated row of the report.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    count: u64,
    total_ns: u64,
}

fn aggregate<'a>(names: impl Iterator<Item = (&'a str, u64)>) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (name, ns) in names {
        match rows.iter_mut().find(|r| r.name == name) {
            Some(r) => {
                r.count += 1;
                r.total_ns += ns;
            }
            None => rows.push(Row {
                name: name.to_string(),
                count: 1,
                total_ns: ns,
            }),
        }
    }
    rows
}

/// Renders the human-readable report for `trace`, with the counter table
/// appended when `metrics` is given.
pub fn render_report(trace: &TraceDoc, metrics: Option<&MetricsDoc>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} spans, {} events ({})",
        trace.spans.len(),
        trace.events.len(),
        trace.schema
    );

    // Top-level work: every span whose name is a root-ish unit of work.
    let queries: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .collect();
    let total_ns: u64 = queries.iter().map(|s| s.duration_ns()).sum();
    let _ = writeln!(
        out,
        "root spans: {} (total {})",
        queries.len(),
        format_ns(total_ns)
    );

    // Fig. 12-style decomposition from the synthetic phase.* spans.
    let phases = aggregate(
        trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("phase."))
            .map(|s| (s.name.as_str(), s.duration_ns())),
    );
    if !phases.is_empty() {
        let phase_total: u64 = phases.iter().map(|r| r.total_ns).sum();
        out.push_str("\nper-phase breakdown:\n");
        let _ = writeln!(out, "  {:<14} {:>8} {:>12} {:>7}", "phase", "spans", "total", "share");
        for r in &phases {
            let share = if phase_total > 0 {
                100.0 * r.total_ns as f64 / phase_total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>12} {:>6.1}%",
                r.name.trim_start_matches("phase."),
                r.count,
                format_ns(r.total_ns),
                share
            );
        }
    }

    // Service pipeline decomposition (the PR 9 spans), in pipeline order
    // rather than lumped into the generic table.
    let service: Vec<Row> = SERVICE_SPANS
        .iter()
        .filter_map(|&phase| {
            let rows = aggregate(
                trace
                    .spans
                    .iter()
                    .filter(|s| s.name == phase)
                    .map(|s| (s.name.as_str(), s.duration_ns())),
            );
            rows.into_iter().next()
        })
        .collect();
    if !service.is_empty() {
        let service_total: u64 = service.iter().map(|r| r.total_ns).sum();
        out.push_str("\nservice phases:\n");
        let _ = writeln!(out, "  {:<14} {:>8} {:>12} {:>7}", "phase", "spans", "total", "share");
        for r in &service {
            let share = if service_total > 0 {
                100.0 * r.total_ns as f64 / service_total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>12} {:>6.1}%",
                r.name,
                r.count,
                format_ns(r.total_ns),
                share
            );
        }
    }

    // Scatter broken down by shard: execution count and total time. Both
    // the live `scatter` spans and the `segment.shard` spans of sampled
    // tail traces carry a `shard` attr.
    let mut shards: Vec<(u64, u64, u64)> = Vec::new(); // (shard, count, ns)
    for s in trace
        .spans
        .iter()
        .filter(|s| s.name == "scatter" || s.name == "segment.shard")
    {
        let Some(shard) = s.attr("shard").and_then(|a| a.as_u64()) else {
            continue;
        };
        match shards.iter_mut().find(|(id, ..)| *id == shard) {
            Some((_, count, ns)) => {
                *count += 1;
                *ns += s.duration_ns();
            }
            None => shards.push((shard, 1, s.duration_ns())),
        }
    }
    if !shards.is_empty() {
        shards.sort_by_key(|&(id, ..)| id);
        out.push_str("\nscatter by shard:\n");
        let _ = writeln!(out, "  {:<14} {:>8} {:>12}", "shard", "execs", "total");
        for (id, count, ns) in &shards {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>12}",
                format!("shard {id}"),
                count,
                format_ns(*ns)
            );
        }
    }

    // Per-query latency segments from sampled tail traces (the synthetic
    // `segment.*` trees the serving telemetry retains for slow queries).
    let segments = aggregate(
        trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("segment.") && s.name != "segment.shard")
            .map(|s| (s.name.as_str(), s.duration_ns())),
    );
    if !segments.is_empty() {
        let seg_total: u64 = segments.iter().map(|r| r.total_ns).sum();
        out.push_str("\nper-query segments:\n");
        let _ = writeln!(out, "  {:<14} {:>8} {:>12} {:>7}", "segment", "spans", "total", "share");
        for r in &segments {
            let share = if seg_total > 0 {
                100.0 * r.total_ns as f64 / seg_total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>12} {:>6.1}%",
                r.name.trim_start_matches("segment."),
                r.count,
                format_ns(r.total_ns),
                share
            );
        }
    }

    let others = aggregate(
        trace
            .spans
            .iter()
            .filter(|s| {
                !s.name.starts_with("phase.")
                    && !s.name.starts_with("segment.")
                    && !SERVICE_SPANS.contains(&s.name.as_str())
            })
            .map(|s| (s.name.as_str(), s.duration_ns())),
    );
    if !others.is_empty() {
        out.push_str("\nspans:\n");
        let _ = writeln!(out, "  {:<14} {:>8} {:>12}", "name", "count", "total");
        for r in &others {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>12}",
                r.name,
                r.count,
                format_ns(r.total_ns)
            );
        }
    }

    if let Some(m) = metrics {
        if !m.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, v) in &m.counters {
                let _ = writeln!(out, "  {name:<44} {v:>12}");
            }
        }
        for h in &m.histograms {
            let _ = writeln!(
                out,
                "  {:<44} {:>12} obs, mean {}",
                h.name,
                h.count,
                format_ns(if h.count > 0 { h.sum / h.count } else { 0 })
            );
        }
    }
    out
}

/// Pretty-prints `us` with an adaptive unit.
fn format_us(us: u64) -> String {
    format_ns(us.saturating_mul(1_000))
}

/// Renders the `knnta top` text view of a live-telemetry snapshot: window
/// histograms with their quantiles, windowed counter rates, and gauges
/// (per-shard health).
pub fn render_top(doc: &SnapshotDoc) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "snapshot: tick {} (window = last {} epochs, {})",
        doc.tick, doc.windows, doc.schema
    );
    if !doc.histograms.is_empty() {
        out.push_str("\nlatency (window):\n");
        let _ = writeln!(
            out,
            "  {:<40} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p95", "p99", "max"
        );
        for h in &doc.histograms {
            // Only `_us`-suffixed histograms are latencies; others (e.g.
            // the planner's calibration-ratio window) print raw values.
            let fmt = |v: u64| {
                if h.name.ends_with("_us") {
                    format_us(v)
                } else {
                    v.to_string()
                }
            };
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>10} {:>10} {:>10} {:>10}",
                h.name,
                h.count,
                fmt(h.p50),
                fmt(h.p95),
                fmt(h.p99),
                fmt(h.max)
            );
        }
    }
    if !doc.counters.is_empty() {
        out.push_str("\ncounters:\n");
        let _ = writeln!(out, "  {:<40} {:>10} {:>12}", "counter", "window", "lifetime");
        for c in &doc.counters {
            let _ = writeln!(out, "  {:<40} {:>10} {:>12}", c.name, c.window, c.lifetime);
        }
    }
    if !doc.gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for (name, v) in &doc.gauges {
            let _ = writeln!(out, "  {name:<40} {v:>10}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, Tracer};
    use crate::Registry;

    #[test]
    fn report_aggregates_phases_and_counters() {
        let t = Tracer::new();
        let q = t.add_span("query", SpanId::NONE, 0, 1_000_000, vec![]);
        t.add_span("phase.filter", q, 0, 600_000, vec![]);
        t.add_span("phase.tia", q, 600_000, 900_000, vec![]);
        t.add_span("phase.io", q, 900_000, 1_000_000, vec![]);
        let reg = Registry::new(1);
        reg.counter("knnta.core.search.node_accesses").add(42);
        let report = render_report(&t.snapshot(), Some(&reg.metrics()));
        assert!(report.contains("per-phase breakdown"));
        assert!(report.contains("filter"));
        assert!(report.contains("60.0%"));
        assert!(report.contains("tia"));
        assert!(report.contains("io"));
        assert!(report.contains("knnta.core.search.node_accesses"));
        assert!(report.contains("42"));
    }

    #[test]
    fn report_handles_empty_trace() {
        let report = render_report(&Tracer::new().snapshot(), None);
        assert!(report.contains("0 spans"));
    }

    #[test]
    fn report_groups_service_spans_by_phase_and_shard() {
        let t = Tracer::new();
        t.add_span("admit", SpanId::NONE, 0, 100_000, vec![("flush".into(), 1u64.into())]);
        t.add_span("tile", SpanId::NONE, 100_000, 150_000, vec![]);
        for (shard, start, end) in
            [(0u64, 150_000u64, 500_000u64), (1, 150_000, 400_000), (1, 400_000, 700_000)]
        {
            t.add_span("scatter", SpanId::NONE, start, end, vec![("shard".into(), shard.into())]);
        }
        t.add_span("merge", SpanId::NONE, 700_000, 750_000, vec![]);
        let report = render_report(&t.snapshot(), None);
        assert!(report.contains("service phases:"));
        assert!(report.contains("admit"));
        assert!(report.contains("scatter"));
        assert!(report.contains("scatter by shard:"));
        assert!(report.contains("execs"));
        assert!(report.contains("shard 0"));
        assert!(report.contains("shard 1"));
        // Shard 1 ran twice; service spans stay out of the generic table.
        assert!(!report.contains("\nspans:"));
    }

    #[test]
    fn report_groups_tail_trace_segments() {
        let t = Tracer::new();
        let root = t.add_span("served_query", SpanId::NONE, 0, 1_000_000, vec![]);
        t.add_span("segment.admit", root, 0, 200_000, vec![]);
        t.add_span("segment.queue", root, 200_000, 300_000, vec![]);
        let scatter = t.add_span("segment.scatter", root, 300_000, 900_000, vec![]);
        t.add_span(
            "segment.shard",
            scatter,
            300_000,
            900_000,
            vec![("shard".into(), 3u64.into())],
        );
        t.add_span("segment.merge", root, 900_000, 1_000_000, vec![]);
        let report = render_report(&t.snapshot(), None);
        assert!(report.contains("per-query segments:"));
        assert!(report.contains("admit"));
        assert!(report.contains("queue"));
        assert!(report.contains("scatter"));
        assert!(report.contains("merge"));
        assert!(report.contains("shard 3"));
        // 600µs of 1000µs total segment time.
        assert!(report.contains("60.0%"));
    }

    #[test]
    fn top_renders_snapshot_tables() {
        let w = Registry::new(4);
        let c = w.counter("knnta.service.answered");
        let h = w.histogram("knnta.service.window.e2e_us", &[100, 1_000]);
        let g = w.gauge("knnta.service.shard0.queue_depth");
        c.add(7);
        g.set(3);
        for v in [50, 800, 2_500] {
            h.record(v);
        }
        let top = render_top(&w.snapshot());
        assert!(top.contains("tick 0"));
        assert!(top.contains("last 4 epochs"));
        assert!(top.contains("knnta.service.window.e2e_us"));
        assert!(top.contains("knnta.service.answered"));
        assert!(top.contains("knnta.service.shard0.queue_depth"));
        // 7 window == 7 lifetime for a fresh registry.
        assert!(top.contains("7"));
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(5), "5 ns");
        assert_eq!(format_ns(1_500), "1.500 us");
        assert_eq!(format_ns(2_500_000), "2.500 ms");
        assert_eq!(format_ns(3_000_000_000), "3.000 s");
    }
}
