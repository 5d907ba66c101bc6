//! Tail trace sampling: keep full span trees only for the slowest queries.
//!
//! Tracing every query on a long-running server is unbounded memory; tracing
//! none loses exactly the forensics that matter. [`TailSampler`] splits the
//! difference: each answered query *offers* its latency plus a lazy span-tree
//! builder, and the sampler retains the tree only when the latency clears a
//! **rolling quantile threshold** — the quantile of the owner's window
//! latency [`Histogram`] (the service's `e2e_us` window, advanced by its
//! admission clock; no wall-clock reads), into which the owner records
//! every offered latency before offering it. Retention is a bounded
//! reservoir of the worst `capacity` queries, with a total order on
//! `(latency, seq)` so eviction — and therefore the whole kept set — is a
//! deterministic function of the offered stream and the window (property-
//! tested under `KNNTA_PROP_SEED` replay).
//!
//! The trace builder closure runs only when the offer is accepted, so the
//! fast path pays one quantile walk and a comparison — never a span-tree
//! allocation.

use crate::metrics::Histogram;
use crate::trace::TraceDoc;
use knnta_util::sync::Mutex;

/// Tail-sampler policy knobs.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Max retained traces (the reservoir bound).
    pub capacity: usize,
    /// Window latency quantile a query must reach to be kept.
    pub quantile: f64,
    /// Offers before the threshold filter engages; during warmup every
    /// offer is eligible (the reservoir bound still applies).
    pub warmup: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            capacity: 32,
            quantile: 0.95,
            warmup: 64,
        }
    }
}

/// One retained slow-query trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KeptTrace {
    /// Offer sequence number (1-based, total order across the stream).
    pub seq: u64,
    /// The query's end-to-end latency in microseconds.
    pub latency_us: u64,
    /// The full span tree for the query.
    pub trace: TraceDoc,
}

#[derive(Debug)]
struct SamplerCore {
    seq: u64,
    kept: Vec<KeptTrace>,
    kept_ever: u64,
}

/// The bounded, deterministic slow-query reservoir. All methods are
/// thread-safe; offers are serialized by one mutex (they arrive from the
/// single merger thread in practice).
#[derive(Debug)]
pub struct TailSampler {
    config: TailConfig,
    latency: Histogram,
    core: Mutex<SamplerCore>,
}

impl TailSampler {
    /// A sampler with the given policy (`capacity ≥ 1`, `quantile` in
    /// `(0, 1]`) whose keep threshold is that quantile of `latency`.
    pub fn new(config: TailConfig, latency: Histogram) -> Self {
        assert!(config.capacity >= 1, "reservoir needs capacity");
        assert!(
            config.quantile > 0.0 && config.quantile <= 1.0,
            "quantile must be in (0, 1]"
        );
        Self {
            config,
            latency,
            core: Mutex::new(SamplerCore {
                seq: 0,
                kept: Vec::new(),
                kept_ever: 0,
            }),
        }
    }

    /// The current keep threshold in microseconds: the configured quantile
    /// of the latency window (0 while the window is empty).
    pub fn threshold_us(&self) -> u64 {
        self.latency.quantile(self.config.quantile)
    }

    /// Offers one answered query, whose latency the owner has already
    /// recorded into the window. Returns `true` (and invokes `make_trace`)
    /// iff the trace was retained: the latency reaches the window threshold
    /// (or the stream is still warming up) *and* it displaces nothing worse
    /// from a full reservoir. Eviction order is the total order on
    /// `(latency_us, seq)` — ties keep the newer query.
    pub fn offer(&self, latency_us: u64, make_trace: impl FnOnce() -> TraceDoc) -> bool {
        let mut c = self.core.lock();
        c.seq += 1;
        let seq = c.seq;
        if seq > self.config.warmup && latency_us < self.threshold_us() {
            return false;
        }
        if c.kept.len() == self.config.capacity {
            let (min_idx, min_key) = c
                .kept
                .iter()
                .enumerate()
                .map(|(i, k)| (i, (k.latency_us, k.seq)))
                .min_by_key(|&(_, key)| key)
                .expect("capacity >= 1");
            if (latency_us, seq) <= min_key {
                return false;
            }
            c.kept.swap_remove(min_idx);
        }
        c.kept.push(KeptTrace {
            seq,
            latency_us,
            trace: make_trace(),
        });
        c.kept_ever += 1;
        true
    }

    /// Retained traces, ordered by offer sequence.
    pub fn kept(&self) -> Vec<KeptTrace> {
        let mut kept = self.core.lock().kept.clone();
        kept.sort_by_key(|k| k.seq);
        kept
    }

    /// Current reservoir occupancy (≤ `capacity`).
    pub fn kept_len(&self) -> usize {
        self.core.lock().kept.len()
    }

    /// Traces retained over the process lifetime (including later-evicted
    /// ones) — the `tail_traces_kept` bench counter.
    pub fn kept_ever(&self) -> u64 {
        self.core.lock().kept_ever
    }

    /// Merges every retained span tree into one valid `knnta.trace.v1`
    /// document (span ids remapped to stay unique), ordered by offer
    /// sequence — the artifact behind `knnta serve --tail-out`.
    pub fn export(&self) -> TraceDoc {
        let kept = self.kept();
        let mut out = TraceDoc {
            schema: crate::TRACE_SCHEMA.to_string(),
            ..TraceDoc::default()
        };
        let mut offset = 0u64;
        for k in &kept {
            let mut next_offset = offset;
            for span in &k.trace.spans {
                let mut span = span.clone();
                span.id += offset;
                if span.parent != 0 {
                    span.parent += offset;
                }
                next_offset = next_offset.max(span.id);
                out.spans.push(span);
            }
            for event in &k.trace.events {
                let mut event = event.clone();
                event.span += offset;
                out.events.push(event);
            }
            offset = next_offset;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::SpanDoc;

    fn trace_of(latency_us: u64) -> TraceDoc {
        TraceDoc {
            schema: crate::TRACE_SCHEMA.to_string(),
            spans: vec![SpanDoc {
                id: 1,
                parent: 0,
                name: "served_query".to_string(),
                start_ns: 0,
                end_ns: latency_us * 1_000,
                attrs: vec![],
            }],
            events: vec![],
        }
    }

    /// A sampler over a 2-slot latency window, and the window's registry.
    struct Small {
        window: Registry,
        latency: Histogram,
        sampler: TailSampler,
    }

    impl Small {
        fn new(capacity: usize, warmup: u64) -> Small {
            let window = Registry::new(2);
            let latency = window.histogram("latency_us", &[10, 100, 1000]);
            let sampler = TailSampler::new(
                TailConfig {
                    capacity,
                    warmup,
                    ..TailConfig::default()
                },
                latency.clone(),
            );
            Small {
                window,
                latency,
                sampler,
            }
        }

        /// Records `v` into the window, then offers it, as the owner does.
        fn offer(&self, v: u64, make: impl FnOnce() -> TraceDoc) -> bool {
            self.latency.record(v);
            self.sampler.offer(v, make)
        }
    }

    #[test]
    fn warmup_keeps_everything_then_threshold_engages() {
        let s = Small::new(8, 4);
        for v in [5, 6, 7, 8] {
            assert!(s.offer(v, || trace_of(v)));
        }
        // Threshold is now the window p95 (= max of the small window): a
        // fast query is rejected, a slow one kept.
        assert!(s.sampler.threshold_us() >= 8);
        assert!(!s.offer(1, || unreachable!("builder must stay lazy")));
        assert!(s.offer(5_000, || trace_of(5_000)));
        assert_eq!(s.sampler.kept_len(), 5);
        assert_eq!(s.sampler.kept_ever(), 5);
    }

    #[test]
    fn reservoir_is_bounded_and_evicts_fastest() {
        let s = Small::new(2, 0);
        // Each of these reaches the window's p95 when offered.
        assert!(s.offer(500, || trace_of(500)));
        assert!(s.offer(2_000, || trace_of(2_000)));
        // Slower than the reservoir minimum: displaces the 500µs trace.
        assert!(s.offer(3_000, || trace_of(3_000)));
        assert_eq!(s.sampler.kept_len(), 2);
        let kept: Vec<u64> = s.sampler.kept().iter().map(|k| k.latency_us).collect();
        assert_eq!(kept, vec![2_000, 3_000]);
        // Below the window p95 (the max so far) and the reservoir floor.
        let before = s.sampler.kept();
        assert!(!s.offer(1_999, || trace_of(1_999)));
        assert_eq!(s.sampler.kept(), before);
    }

    #[test]
    fn rotation_forgets_old_threshold_epochs() {
        let s = Small::new(32, 0);
        for _ in 0..50 {
            s.offer(5_000, || trace_of(5_000));
        }
        assert_eq!(s.sampler.threshold_us(), 5_000);
        // Rotate both slots out: the threshold resets with the window.
        s.window.advance();
        s.window.advance();
        assert_eq!(s.sampler.threshold_us(), 0);
    }

    #[test]
    fn export_merges_kept_trees_into_one_valid_doc() {
        let s = Small::new(4, 0);
        for v in [300, 700, 900] {
            assert!(s.offer(v, || trace_of(v)));
        }
        let doc = s.sampler.export();
        doc.validate().unwrap();
        assert_eq!(doc.spans.len(), 3);
        let ids: Vec<u64> = doc.spans.iter().map(|sp| sp.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
