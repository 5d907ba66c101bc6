//! Always-on serving telemetry: sliding-window metrics, per-query latency
//! segments, per-shard health, and tail trace sampling.
//!
//! A [`ServiceTelemetry`] hangs off every [`crate::Service`]. Unlike the
//! opt-in [`knnta_core::Obs`] tracing (which records *everything* and is
//! therefore unusable on a process that runs for days), this layer is
//! bounded by construction and cheap enough to leave on:
//!
//! * every answered query costs a handful of atomic adds into
//!   [`Registry`] ring cells (one per latency segment) plus one mutex hop
//!   in the tail sampler — all on the single merger thread, off the shard
//!   hot paths;
//! * the window clock is the admission loop's flush counter
//!   ([`TelemetryConfig::advance_every_flushes`]), not wall-clock reads,
//!   so window contents are deterministic under seeded test clocks;
//! * full span trees survive only for queries over a quantile of the
//!   `e2e_us` window, in a bounded reservoir ([`knnta_obs::TailSampler`]).
//!
//! The window counters' lifetimes are the service's only event counts:
//! once it is quiescent, `W_SUBMITTED = W_ANSWERED + W_FAILURES`.
//!
//! End-to-end latency is decomposed into back-to-back segments measured
//! from the pipeline's own `Instant`s:
//!
//! ```text
//! submit ──admit──► flushed ──queue──► ──scatter──► all shards done ──merge──► answered
//!   t0               t1                               t2                        t3
//! ```
//!
//! `admit = t1 − t0` (per query), `scatter = max` shard execution time of
//! the flush (the critical path), `queue = (t2 − t1) − scatter` (time the
//! flush waited for worker dispatch), and `merge` is the remainder up to
//! `t3`, so the four segments always sum to the end-to-end latency.
//!
//! [`ServiceTelemetry::snapshot`] serializes the whole window state to the
//! stable `knnta.snapshot.v1` schema for `knnta serve --stats-out`,
//! `knnta top`, and `knnta slo`; [`ServiceTelemetry::tail_trace`] exports
//! the retained slow-query trees as one `knnta.trace.v1` document for
//! `knnta report`. See DESIGN.md §16.

use knnta_obs::trace::SpanDoc;
use knnta_obs::{
    bounds, AttrValue, Counter, Gauge, Histogram, Registry, SnapshotDoc, TailConfig, TailSampler,
    TraceDoc,
};
use knnta_util::sync::Mutex;
use std::sync::Arc;

/// Window histogram: end-to-end submit→answer latency (µs).
pub const W_E2E_US: &str = "knnta.service.window.e2e_us";
/// Window histogram: admission wait (submit→flush) latency (µs).
pub const W_ADMIT_US: &str = "knnta.service.window.admit_us";
/// Window histogram: worker-dispatch queueing latency (µs).
pub const W_QUEUE_US: &str = "knnta.service.window.queue_us";
/// Window histogram: scatter critical path (slowest shard execution, µs).
pub const W_SCATTER_US: &str = "knnta.service.window.scatter_us";
/// Window histogram: merge + answer-delivery latency (µs).
pub const W_MERGE_US: &str = "knnta.service.window.merge_us";
/// Window counter: queries accepted by [`crate::Service::submit`].
pub const W_SUBMITTED: &str = "knnta.service.window.submitted";
/// Window counter: queries answered (successfully) by the merger.
pub const W_ANSWERED: &str = "knnta.service.window.answered";
/// Window counter: admission flushes (locality tiles dispatched).
pub const W_FLUSHES: &str = "knnta.service.window.flushes";
/// Window counter: flushes triggered by size (vs deadline).
pub const W_FLUSH_FULL: &str = "knnta.service.window.flush_full";
/// Window counter: queries failed because a shard worker panicked on their
/// tile, one per ticket.
pub const W_FAILURES: &str = "knnta.service.window.failures";
/// Window counter: tail traces retained by the sampler.
pub const W_TAIL_KEPT: &str = "knnta.service.window.tail_kept";
/// Gauge: the tail sampler's current keep threshold (µs).
pub const G_TAIL_THRESHOLD_US: &str = "knnta.service.tail.threshold_us";
/// Gauge: shard load imbalance — slowest shard's busy-EWMA over the mean,
/// ×1000 (1000 = perfectly balanced).
pub const G_IMBALANCE_X1000: &str = "knnta.service.imbalance_x1000";

/// Per-shard busy-EWMA weight (×1000): `ewma ← 0.75·ewma + 0.25·exec`.
const EWMA_NEW_X1000: u64 = 250;

/// Epochs per sliding window.
const WINDOW_SLOTS: usize = 8;

/// Knobs for the always-on serving telemetry.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch. Off vends no-op handles everywhere (one branch per
    /// site) — the overhead-bench baseline, not a production mode.
    pub enabled: bool,
    /// The admission loop advances the window clock every this many
    /// flushes (the deterministic "admission clock").
    pub advance_every_flushes: u64,
    /// Tail-sampler policy.
    pub tail: TailConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            advance_every_flushes: 4,
            tail: TailConfig::default(),
        }
    }
}

/// Per-shard health handles.
struct ShardHealth {
    queue_depth: Gauge,
    busy_ewma_us: Gauge,
}

/// The live-telemetry sink of one [`crate::Service`].
pub struct ServiceTelemetry {
    windows: Registry,
    sampler: Option<TailSampler>,
    advance_every: u64,
    e2e: Histogram,
    admit: Histogram,
    queue: Histogram,
    scatter: Histogram,
    merge: Histogram,
    pub(crate) submitted: Counter,
    answered: Counter,
    flushes: Counter,
    flush_full: Counter,
    failures: Counter,
    tail_kept: Counter,
    tail_threshold: Gauge,
    imbalance: Gauge,
    shards: Vec<ShardHealth>,
    /// Per-shard busy EWMA state (µs), updated by the single merger
    /// thread; behind a mutex only so the struct stays `Sync`.
    ewma_us: Mutex<Vec<u64>>,
}

impl ServiceTelemetry {
    pub(crate) fn new(config: &TelemetryConfig, shard_count: usize) -> Arc<ServiceTelemetry> {
        let windows = if config.enabled {
            Registry::new(WINDOW_SLOTS)
        } else {
            Registry::default()
        };
        let hist = |name| windows.histogram(name, bounds::LATENCY_US);
        let e2e = hist(W_E2E_US);
        let sampler = config
            .enabled
            .then(|| TailSampler::new(config.tail.clone(), e2e.clone()));
        let shards = (0..shard_count)
            .map(|s| ShardHealth {
                queue_depth: windows.gauge(&format!("knnta.service.shard{s}.queue_depth")),
                busy_ewma_us: windows.gauge(&format!("knnta.service.shard{s}.busy_ewma_us")),
            })
            .collect();
        Arc::new(ServiceTelemetry {
            e2e,
            admit: hist(W_ADMIT_US),
            queue: hist(W_QUEUE_US),
            scatter: hist(W_SCATTER_US),
            merge: hist(W_MERGE_US),
            submitted: windows.counter(W_SUBMITTED),
            answered: windows.counter(W_ANSWERED),
            flushes: windows.counter(W_FLUSHES),
            flush_full: windows.counter(W_FLUSH_FULL),
            failures: windows.counter(W_FAILURES),
            tail_kept: windows.counter(W_TAIL_KEPT),
            tail_threshold: windows.gauge(G_TAIL_THRESHOLD_US),
            imbalance: windows.gauge(G_IMBALANCE_X1000),
            shards,
            ewma_us: Mutex::new(vec![0; shard_count]),
            sampler,
            advance_every: config.advance_every_flushes.max(1),
            windows,
        })
    }

    /// Whether this telemetry records anything.
    pub fn is_enabled(&self) -> bool {
        self.windows.is_enabled()
    }

    /// The sliding-window registry (for attaching more windowed metrics,
    /// e.g. the executor's planner-feedback ratio histogram).
    pub fn windows(&self) -> &Registry {
        &self.windows
    }

    /// A `knnta.snapshot.v1` snapshot of the live window (empty when
    /// disabled). Refreshes the tail-threshold gauge first so the snapshot
    /// is self-consistent.
    pub fn snapshot(&self) -> SnapshotDoc {
        if let Some(s) = &self.sampler {
            self.tail_threshold.set(s.threshold_us() as i64);
        }
        self.windows.snapshot()
    }

    /// The retained slow-query span trees merged into one `knnta.trace.v1`
    /// document (empty when disabled).
    pub fn tail_trace(&self) -> TraceDoc {
        match &self.sampler {
            Some(s) => s.export(),
            None => TraceDoc {
                schema: knnta_obs::TRACE_SCHEMA.to_string(),
                ..TraceDoc::default()
            },
        }
    }

    /// Tail traces retained over the service lifetime (the
    /// `tail_traces_kept` bench counter).
    pub fn tail_kept_ever(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.kept_ever())
    }

    /// The tail sampler's current keep threshold in microseconds: the
    /// configured quantile of the `e2e_us` window.
    pub fn tail_threshold_us(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.threshold_us())
    }

    /// Admission-clock hook: counts the flush and advances the window
    /// epoch every [`TelemetryConfig::advance_every_flushes`] flushes.
    pub(crate) fn on_flush(&self, flush_id: u64, filled: bool) {
        self.flushes.inc();
        if filled {
            self.flush_full.inc();
        }
        if flush_id % self.advance_every == 0 {
            self.windows.advance();
        }
    }

    /// Worker hook: current depth of a shard's task queue.
    pub(crate) fn set_queue_depth(&self, shard: usize, depth: usize) {
        if let Some(h) = self.shards.get(shard) {
            h.queue_depth.set(depth as i64);
        }
    }

    /// Merger hook: one ticket failed (a shard worker panicked on its tile).
    pub(crate) fn on_failure(&self) {
        self.failures.inc();
    }

    /// Merger hook: one flush's per-shard execution times (µs, indexed by
    /// shard). Folds them into the per-shard busy EWMAs and republishes
    /// the load-imbalance gauge (max EWMA over mean, ×1000).
    pub(crate) fn record_flush_execs(&self, execs_us: &[u64]) {
        if !self.windows.is_enabled() || self.shards.is_empty() {
            return;
        }
        let mut ewma = self.ewma_us.lock();
        for (shard, &exec) in execs_us.iter().enumerate() {
            let Some(cell) = ewma.get_mut(shard) else { continue };
            *cell = if *cell == 0 {
                exec
            } else {
                (*cell * (1000 - EWMA_NEW_X1000) + exec * EWMA_NEW_X1000) / 1000
            };
            self.shards[shard].busy_ewma_us.set(*cell as i64);
        }
        let max = ewma.iter().copied().max().unwrap_or(0);
        let mean = ewma.iter().copied().sum::<u64>() / ewma.len() as u64;
        if mean > 0 {
            self.imbalance.set((max * 1000 / mean) as i64);
        }
    }

    /// Merger hook: one answered query's latency decomposition. Records
    /// every segment into its window histogram and offers the query to the
    /// tail sampler, whose threshold reads the `e2e_us` window it just
    /// landed in (the span tree is built only if retained).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_query(
        &self,
        flush: u64,
        k: usize,
        total_us: u64,
        admit_us: u64,
        queue_us: u64,
        scatter_us: u64,
        merge_us: u64,
        shard_execs_us: &[u64],
    ) {
        if !self.windows.is_enabled() {
            return;
        }
        self.answered.inc();
        self.e2e.record(total_us);
        self.admit.record(admit_us);
        self.queue.record(queue_us);
        self.scatter.record(scatter_us);
        self.merge.record(merge_us);
        if let Some(sampler) = &self.sampler {
            let kept = sampler.offer(total_us, || {
                tail_trace_doc(
                    flush, k, total_us, admit_us, queue_us, scatter_us, merge_us, shard_execs_us,
                )
            });
            if kept {
                self.tail_kept.inc();
            }
        }
    }
}

impl std::fmt::Debug for ServiceTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceTelemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Builds the synthetic per-query span tree retained by the tail sampler:
/// a `served_query` root with back-to-back `segment.*` children (admit,
/// queue, scatter, merge) and per-shard `segment.shard` grandchildren
/// inside the scatter segment. All intervals are clamped to nest, so the
/// merged export always validates against `knnta.trace.v1`.
fn tail_trace_doc(
    flush: u64,
    k: usize,
    total_us: u64,
    admit_us: u64,
    queue_us: u64,
    scatter_us: u64,
    merge_us: u64,
    shard_execs_us: &[u64],
) -> TraceDoc {
    let total_ns = total_us.saturating_mul(1_000);
    let mut spans = vec![SpanDoc {
        id: 1,
        parent: 0,
        name: "served_query".to_string(),
        start_ns: 0,
        end_ns: total_ns,
        attrs: vec![
            ("flush".to_string(), AttrValue::from(flush)),
            ("k".to_string(), AttrValue::from(k as u64)),
            ("latency_us".to_string(), AttrValue::from(total_us)),
        ],
    }];
    let mut next_id = 2u64;
    let mut t = 0u64;
    let mut scatter_interval = (0u64, 0u64);
    for (name, us) in [
        ("segment.admit", admit_us),
        ("segment.queue", queue_us),
        ("segment.scatter", scatter_us),
        ("segment.merge", merge_us),
    ] {
        let end = t.saturating_add(us.saturating_mul(1_000)).min(total_ns);
        if name == "segment.scatter" {
            scatter_interval = (t, end);
        }
        spans.push(SpanDoc {
            id: next_id,
            parent: 1,
            name: name.to_string(),
            start_ns: t,
            end_ns: end,
            attrs: vec![],
        });
        t = end;
        next_id += 1;
    }
    let scatter_id = 4; // third segment child
    for (shard, &exec_us) in shard_execs_us.iter().enumerate() {
        let end = scatter_interval
            .0
            .saturating_add(exec_us.saturating_mul(1_000))
            .min(scatter_interval.1);
        spans.push(SpanDoc {
            id: next_id,
            parent: scatter_id,
            name: "segment.shard".to_string(),
            start_ns: scatter_interval.0,
            end_ns: end,
            attrs: vec![
                ("shard".to_string(), AttrValue::from(shard as u64)),
                ("exec_us".to_string(), AttrValue::from(exec_us)),
            ],
        });
        next_id += 1;
    }
    TraceDoc {
        schema: knnta_obs::TRACE_SCHEMA.to_string(),
        spans,
        events: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = ServiceTelemetry::new(
            &TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            },
            2,
        );
        assert!(!t.is_enabled());
        t.on_flush(1, true);
        t.record_query(1, 10, 500, 100, 100, 200, 100, &[200]);
        t.record_flush_execs(&[10, 20]);
        assert_eq!(t.snapshot(), SnapshotDoc::default());
        assert!(t.tail_trace().spans.is_empty());
        assert_eq!(t.tail_kept_ever(), 0);
    }

    #[test]
    fn record_query_fills_windows_and_tail() {
        let t = ServiceTelemetry::new(&TelemetryConfig::default(), 2);
        for i in 0..20u64 {
            let total = 200 + i * 50;
            t.record_query(1, 10, total, 40, 10, total - 80, 30, &[total - 80, 50]);
        }
        t.record_flush_execs(&[900, 100]);
        let doc = t.snapshot();
        doc.validate().unwrap();
        let e2e = doc.histogram(W_E2E_US).unwrap();
        assert_eq!(e2e.count, 20);
        assert!(e2e.p50 <= e2e.p95 && e2e.p95 <= e2e.p99);
        assert_eq!(doc.counter(W_ANSWERED).unwrap().window, 20);
        assert!(doc.gauge("knnta.service.shard0.busy_ewma_us").unwrap() > 0);
        assert!(doc.gauge(G_IMBALANCE_X1000).unwrap() >= 1000);
        // Early offers land in the warmup window: the tail kept something.
        assert!(t.tail_kept_ever() > 0);
        let tail = t.tail_trace();
        tail.validate().unwrap();
        assert!(tail.spans.iter().any(|s| s.name == "served_query"));
        assert!(tail.spans.iter().any(|s| s.name == "segment.scatter"));
        assert!(tail.spans.iter().any(|s| s.name == "segment.shard"));
    }

    #[test]
    fn segments_nest_and_sum_to_total() {
        let doc = tail_trace_doc(7, 5, 1_000, 300, 100, 500, 100, &[500, 200]);
        doc.validate().unwrap();
        let root = doc.spans_named("served_query").next().unwrap();
        assert_eq!(root.duration_ns(), 1_000_000);
        let seg_total: u64 = doc
            .spans
            .iter()
            .filter(|s| s.name.starts_with("segment.") && s.name != "segment.shard")
            .map(|s| s.duration_ns())
            .sum();
        assert_eq!(seg_total, root.duration_ns());
        // Shard children nest inside the scatter segment.
        let scatter = doc.spans_named("segment.scatter").next().unwrap();
        for sh in doc.spans.iter().filter(|s| s.name == "segment.shard") {
            assert!(sh.start_ns >= scatter.start_ns && sh.end_ns <= scatter.end_ns);
        }
    }

    #[test]
    fn flush_clock_advances_windows() {
        let t = ServiceTelemetry::new(
            &TelemetryConfig {
                advance_every_flushes: 2,
                ..TelemetryConfig::default()
            },
            1,
        );
        t.on_flush(1, false);
        assert_eq!(t.windows().tick(), 0);
        t.on_flush(2, false);
        assert_eq!(t.windows().tick(), 1);
        t.on_flush(3, true);
        t.on_flush(4, true);
        assert_eq!(t.windows().tick(), 2);
        let doc = t.snapshot();
        assert_eq!(doc.counter(W_FLUSHES).unwrap().lifetime, 4);
        assert_eq!(doc.counter(W_FLUSH_FULL).unwrap().lifetime, 2);
    }
}
