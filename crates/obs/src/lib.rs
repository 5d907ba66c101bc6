//! # knnta-obs — unified tracing + metrics for the kNNTA stack
//!
//! The paper's evaluation (Sections 6 and 8) reasons in node accesses,
//! buffer behaviour, and per-phase cost. This crate gives every layer of the
//! reproduction one way to report those numbers:
//!
//! * [`AccessStats`] — the shared atomic access counters that were previously
//!   private to `pagestore`; they remain the *oracle* accounting (schedule
//!   invariant, bit-identical across backends and thread counts).
//! * [`metrics`] — the one lock-cheap registry of named counters, gauges
//!   and fixed-bucket histograms, each counter and histogram a ring of
//!   epoch cells. Registration takes a mutex once per name; the returned
//!   handles are plain atomics. Names follow
//!   `knnta.<crate>.<subsystem>.<name>`. Its lifetime view serializes to
//!   `knnta.metrics.v1`, its sliding-window view (for long-running serving
//!   processes) to `knnta.snapshot.v1`.
//! * [`trace`] — hierarchical spans with monotonic nanosecond timestamps and
//!   point events, serialized to the stable `knnta.trace.v1` JSON schema.
//! * [`report`] — renders a per-phase breakdown table (filter vs. TIA
//!   aggregation vs. page I/O, echoing the paper's Fig. 12-style
//!   decomposition) from a parsed trace, and a `top`-style view over live
//!   snapshots.
//! * [`sample`] — tail trace sampling: a bounded, deterministic reservoir
//!   of span trees for queries over a window latency quantile.
//! * [`bounds`] — the shared default bucket-bound tables.
//!
//! Everything hangs off an [`Obs`] handle. A disabled handle
//! ([`Obs::disabled`]) carries no allocation at all: every metric handle it
//! vends is a no-op and every span call returns immediately, so the query
//! path with observability off is byte-identical to a build without it
//! (guarded by the `obs_overhead` fixture test and bench group).

#![warn(missing_docs)]

pub mod bounds;
pub mod metrics;
pub mod report;
pub mod sample;
mod stats;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsDoc, Registry, SnapshotDoc, WindowHistDoc};
pub use report::{format_ns, render_report, render_top};
pub use sample::{KeptTrace, TailConfig, TailSampler};
pub use stats::{AccessStats, StatsSnapshot};
pub use trace::{AttrValue, SpanGuard, SpanId, TraceDoc, Tracer};

use std::sync::Arc;

/// Schema identifier emitted in every trace artifact.
pub const TRACE_SCHEMA: &str = "knnta.trace.v1";
/// Schema identifier emitted in every metrics artifact.
pub const METRICS_SCHEMA: &str = "knnta.metrics.v1";
/// Schema identifier emitted in every live-telemetry snapshot artifact.
pub const SNAPSHOT_SCHEMA: &str = "knnta.snapshot.v1";

struct ObsCore {
    /// One slot, never advanced: every reading is a lifetime total.
    metrics: Registry,
    tracer: Tracer,
}

/// Shared observability handle.
///
/// Cloning clones the `Arc`; a disabled handle is a `None` and costs one
/// branch per instrumentation site. All sinks are `Send + Sync`.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl Obs {
    /// A no-op handle: every metric/span call is a cheap branch-and-return.
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// A live handle with a fresh metrics registry and tracer.
    pub fn enabled() -> Self {
        Self {
            core: Some(Arc::new(ObsCore {
                metrics: Registry::new(1),
                tracer: Tracer::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Registers (or fetches) the counter `name`. No-op handle when disabled.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.core {
            Some(c) => c.metrics.counter(name),
            None => Counter::default(),
        }
    }

    /// Registers (or fetches) the gauge `name`. No-op handle when disabled.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.core {
            Some(c) => c.metrics.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Registers (or fetches) the histogram `name` with the given inclusive
    /// bucket upper bounds (an overflow bucket is added automatically).
    /// No-op handle when disabled; bounds of an already-registered histogram
    /// win.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match &self.core {
            Some(c) => c.metrics.histogram(name, bounds),
            None => Histogram::default(),
        }
    }

    /// The tracer, if enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.core.as_deref().map(|c| &c.tracer)
    }

    /// Nanoseconds since this handle's tracer epoch (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.core {
            Some(c) => c.tracer.now_ns(),
            None => 0,
        }
    }

    /// Opens a span; the returned guard closes it on drop (or explicitly via
    /// [`SpanGuard::finish`]). `parent` of [`SpanId::NONE`] makes a root span.
    pub fn span(&self, name: &str, parent: SpanId) -> SpanGuard<'_> {
        match &self.core {
            Some(c) => c.tracer.span(name, parent),
            None => SpanGuard::noop(),
        }
    }

    /// Appends a point event to `span` stamped `now` (no-op when disabled).
    pub fn event(&self, span: SpanId, name: &str, attrs: Vec<(String, AttrValue)>) {
        if let Some(c) = &self.core {
            let ts = c.tracer.now_ns();
            c.tracer.add_event(span, name, ts, attrs);
        }
    }

    /// The current trace as an in-process document (empty when disabled).
    pub fn trace_snapshot(&self) -> TraceDoc {
        match &self.core {
            Some(c) => c.tracer.snapshot(),
            None => TraceDoc::default(),
        }
    }

    /// The current trace serialized to the `knnta.trace.v1` schema.
    pub fn trace_json(&self) -> String {
        self.trace_snapshot().to_json()
    }

    /// The current metrics as an in-process document (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsDoc {
        match &self.core {
            Some(c) => c.metrics.metrics(),
            None => MetricsDoc::default(),
        }
    }

    /// The current metrics serialized to the `knnta.metrics.v1` schema.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("knnta.test.x");
        c.inc();
        c.add(10);
        assert_eq!(c.lifetime(), 0);
        let g = obs.gauge("knnta.test.g");
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = obs.histogram("knnta.test.h", &[1, 2]);
        h.record(5);
        let span = obs.span("root", SpanId::NONE);
        assert_eq!(span.id(), SpanId::NONE);
        obs.event(span.id(), "e", vec![]);
        drop(span);
        assert!(obs.trace_snapshot().spans.is_empty());
        assert!(obs.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn enabled_handle_shares_sinks_across_clones() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.counter("knnta.test.shared").add(3);
        assert_eq!(obs.counter("knnta.test.shared").lifetime(), 3);
        assert_eq!(Obs::enabled().counter("knnta.test.shared").lifetime(), 0);
    }
}
