//! Observability plumbing for the query path: metric names, the per-phase
//! cost accumulator, and the scope helper every query entry point uses to
//! emit its span and publish counter deltas.
//!
//! Everything here is inert when the index's [`Obs`] handle is disabled:
//! [`QueryScope::begin`] returns `None` and the engines run with the
//! zero-size [`NoProbe`], whose hooks compile to nothing — no counter is
//! touched and no timestamp taken (`tests/obs_overhead.rs` pins answers and
//! access counts against the pre-observability fixture either way).
//!
//! Metric names follow `knnta.<crate>.<subsystem>.<name>`. The node-access
//! and buffer counters are published from [`AccessStats`] snapshot deltas,
//! so they *are* the oracle accounting by construction — bit-identical
//! across backends.

use crate::packed::PackedTarTree;
use crate::poi::KnntaQuery;
use crate::storage::StorageBackend;
use knnta_obs::{AttrValue, Obs, SpanGuard, SpanId};
use pagestore::{AccessStats, StatsSnapshot};

/// `knnta.core.search.node_accesses` — logical node accesses (oracle
/// accounting delta).
pub(crate) const M_NODE_ACCESSES: &str = "knnta.core.search.node_accesses";
/// `knnta.core.search.leaf_accesses` — the leaf subset of the above.
pub(crate) const M_LEAF_ACCESSES: &str = "knnta.core.search.leaf_accesses";
/// `knnta.core.search.heap_pushes` — frontier pushes (sequential search).
pub(crate) const M_HEAP_PUSHES: &str = "knnta.core.search.heap_pushes";
/// `knnta.core.search.heap_pops` — frontier pops (sequential search).
pub(crate) const M_HEAP_POPS: &str = "knnta.core.search.heap_pops";
/// `knnta.core.search.bound_updates` — times `f(p_k)` tightened.
pub(crate) const M_BOUND_UPDATES: &str = "knnta.core.search.bound_updates";
/// `knnta.core.batch.tiles` — locality tiles processed.
pub(crate) const M_BATCH_TILES: &str = "knnta.core.batch.tiles";
/// `knnta.core.batch.queries` — active queries across processed batches.
pub(crate) const M_BATCH_QUERIES: &str = "knnta.core.batch.queries";
/// `knnta.tempora.series.epochs_scanned` — stored epoch records scanned by
/// in-memory aggregate computation.
pub(crate) const M_EPOCHS_SCANNED: &str = "knnta.tempora.series.epochs_scanned";
/// `knnta.mvbt.tia.probes` — disk-TIA aggregate probes.
pub(crate) const M_TIA_PROBES: &str = "knnta.mvbt.tia.probes";
/// `knnta.core.storage.paged.fetch_ns` — per-node paged fetch latency
/// histogram.
pub(crate) const M_PAGED_FETCH_NS: &str = "knnta.core.storage.paged.fetch_ns";
/// `knnta.core.storage.packed.fetches` — node reads served by a packed
/// serving image (zero-copy; counted, not timed).
pub(crate) const M_PACKED_FETCHES: &str = "knnta.core.storage.packed.fetches";
/// `knnta.core.live.recorded` — check-ins accepted by [`crate::LiveIndex`]
/// writers (buffered into a shard, not yet sealed).
pub(crate) const M_LIVE_RECORDED: &str = "knnta.core.live.recorded";
/// `knnta.core.live.dropped` — check-ins rejected at record time (outside
/// the grid, or for a POI the index does not know).
pub(crate) const M_LIVE_DROPPED: &str = "knnta.core.live.dropped";
/// `knnta.core.live.sealed_events` — check-ins folded into the frozen delta
/// overlay by seals.
pub(crate) const M_LIVE_SEALED: &str = "knnta.core.live.sealed_events";
/// `knnta.core.live.seals` — seal operations (epoch rolls + explicit seals).
pub(crate) const M_LIVE_SEALS: &str = "knnta.core.live.seals";
/// `knnta.core.live.merges` — background merges folding sealed deltas into
/// the base TAR-tree.
pub(crate) const M_LIVE_MERGES: &str = "knnta.core.live.merges";
/// `knnta.core.live.snapshots` — snapshot views handed out.
pub(crate) const M_LIVE_SNAPSHOTS: &str = "knnta.core.live.snapshots";
/// Bucket upper bounds (ns) of [`M_PAGED_FETCH_NS`] — the shared default
/// table, so the cumulative and sliding-window registries agree.
pub(crate) const PAGED_FETCH_BOUNDS: &[u64] = knnta_obs::bounds::FETCH_NS;

/// The hooks the node-expansion kernel and the node sources call while a
/// search runs. Every engine is generic over its probe: [`NoProbe`] when the
/// index's [`Obs`] handle is disabled, [`Counts`] when it is enabled — one
/// search body, two instantiations. Every hook defaults to doing nothing.
pub(crate) trait Probe: Default {
    /// Whether the probe records anything (gates work that exists only to
    /// be observed, such as the packed image's fetch counter).
    const ON: bool = false;
    /// What has been recorded so far.
    fn counts(&self) -> Counts {
        Counts::default()
    }
    /// A candidate entered a node frontier.
    fn push(&mut self) {}
    /// A candidate left a node frontier.
    fn pop(&mut self) {}
    /// The search's `f(p_k)` bound tightened.
    fn bound_update(&mut self) {}
    /// An aggregate lookup scanned `n` stored epoch records.
    fn epochs_scanned(&mut self, _n: u64) {}
    /// Runs `f`, charging its wall time to the search's busy time.
    fn busy<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    /// Runs `f`, charging its wall time to the TIA-aggregation phase.
    fn tia<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
    /// Runs `f`, charging its wall time to the page-I/O phase.
    fn io<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The disabled-observability probe: zero-size, every hook a no-op.
#[derive(Default)]
pub(crate) struct NoProbe;

impl Probe for NoProbe {}

/// The enabled-observability probe: plain integers local to one query
/// or tile, which the owning engine publishes to the shared counters
/// and `phase.*` spans once when it finishes. The three `*_ns` fields are
/// the Fig. 12-style cost decomposition: total measured work, its
/// TIA-aggregation share and its page-I/O share; filter (scoring) time is
/// the remainder.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counts {
    /// Node-frontier pushes.
    pub pushes: u64,
    /// Node-frontier pops.
    pub pops: u64,
    /// Times `f(p_k)` tightened.
    pub bound_updates: u64,
    /// Stored epoch records scanned by aggregate lookups.
    pub epochs_scanned: u64,
    /// Total measured work time (the whole search loop, or one tile's
    /// expansion time).
    pub busy_ns: u64,
    /// Time spent computing temporal aggregates.
    pub tia_ns: u64,
    /// Time spent fetching + decoding nodes from paged storage.
    pub io_ns: u64,
}

impl Counts {
    /// The filter (distance scoring + heap maintenance) share: whatever is
    /// left of `busy_ns` after TIA aggregation and page I/O.
    pub fn filter_ns(&self) -> u64 {
        self.busy_ns
            .saturating_sub(self.tia_ns)
            .saturating_sub(self.io_ns)
    }
}

/// Runs `f` and adds its wall time to `slot`.
fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let t0 = std::time::Instant::now();
    let out = f();
    *slot += t0.elapsed().as_nanos() as u64;
    out
}

impl Probe for Counts {
    const ON: bool = true;
    fn counts(&self) -> Counts {
        *self
    }
    fn push(&mut self) {
        self.pushes += 1;
    }
    fn pop(&mut self) {
        self.pops += 1;
    }
    fn bound_update(&mut self) {
        self.bound_updates += 1;
    }
    fn epochs_scanned(&mut self, n: u64) {
        self.epochs_scanned += n;
    }
    fn busy<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = std::time::Instant::now();
        let out = f(self);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        out
    }
    fn tia<R>(&mut self, f: impl FnOnce() -> R) -> R {
        timed(&mut self.tia_ns, f)
    }
    fn io<R>(&mut self, f: impl FnOnce() -> R) -> R {
        timed(&mut self.io_ns, f)
    }
}

/// Emits the three stacked `phase.*` child spans under `parent`, laid out
/// back to back from `start_ns` (filter, then TIA, then I/O) and clamped to
/// `end_ns` so they always nest inside the parent interval.
pub(crate) fn emit_phase_spans(
    obs: &Obs,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
    acc: &Counts,
) {
    let Some(tracer) = obs.tracer() else { return };
    let mut t = start_ns;
    for (name, ns) in [
        ("phase.filter", acc.filter_ns()),
        ("phase.tia", acc.tia_ns),
        ("phase.io", acc.io_ns),
    ] {
        let end = t.saturating_add(ns).min(end_ns).max(t);
        tracer.add_span(name, parent, t, end, vec![]);
        t = end;
    }
}

/// Publishes the paged backend's physical I/O delta as counters, namespaced
/// by replacement policy: `knnta.pagestore.buffer.<policy>.*` plus
/// `knnta.pagestore.disk.page_*`.
pub(crate) fn publish_paged_io(obs: &Obs, policy: &str, d: &StatsSnapshot) {
    obs.counter("knnta.pagestore.disk.page_reads").add(d.page_reads);
    obs.counter("knnta.pagestore.disk.page_writes").add(d.page_writes);
    obs.counter(&format!("knnta.pagestore.buffer.{policy}.hits"))
        .add(d.buffer_hits);
    obs.counter(&format!("knnta.pagestore.buffer.{policy}.misses"))
        .add(d.buffer_misses);
    obs.counter(&format!("knnta.pagestore.buffer.{policy}.evictions"))
        .add(d.buffer_evictions);
}

/// One instrumented query (or batch) entry point: opens the root span,
/// snapshots the oracle accounting (and the backend's own counters) on
/// entry, and publishes the deltas as metrics + span attributes on
/// [`QueryScope::finish`].
pub(crate) struct QueryScope<'a> {
    obs: &'a Obs,
    span: SpanGuard<'a>,
    stats: &'a AccessStats,
    before: StatsSnapshot,
    backend: StorageBackend<'a>,
    io_before: Option<StatsSnapshot>,
    fetches_before: u64,
}

impl<'a> QueryScope<'a> {
    /// Opens the scope, or `None` when `obs` is disabled.
    pub fn begin(
        obs: &'a Obs,
        stats: &'a AccessStats,
        name: &str,
        mode: &str,
        backend: StorageBackend<'a>,
        attrs: Vec<(String, AttrValue)>,
    ) -> Option<Self> {
        if !obs.is_enabled() {
            return None;
        }
        let span = obs.span(name, SpanId::NONE);
        let mut all = vec![
            ("mode".to_string(), AttrValue::from(mode)),
            ("backend".to_string(), AttrValue::from(backend.label())),
        ];
        all.extend(attrs);
        span.set_attrs(all);
        let io_before = match backend {
            StorageBackend::Paged(p) => Some(p.io_snapshot()),
            _ => None,
        };
        let fetches_before = backend.packed().map_or(0, PackedTarTree::fetches);
        Some(QueryScope {
            obs,
            span,
            stats,
            before: stats.snapshot(),
            backend,
            io_before,
            fetches_before,
        })
    }

    /// A [`QueryScope::begin`] with the standard per-query attributes.
    pub fn begin_query(
        obs: &'a Obs,
        stats: &'a AccessStats,
        mode: &str,
        backend: StorageBackend<'a>,
        query: &KnntaQuery,
    ) -> Option<Self> {
        Self::begin(
            obs,
            stats,
            "query",
            mode,
            backend,
            vec![
                ("k".to_string(), AttrValue::from(query.k as u64)),
                ("alpha0".to_string(), AttrValue::from(query.alpha0)),
            ],
        )
    }

    /// The open root span (parent for search/phase spans).
    pub fn span_id(&self) -> SpanId {
        self.span.id()
    }

    /// Publishes the accounting deltas and closes the span.
    pub fn finish(self, hits: usize) {
        let d = self.stats.snapshot().since(self.before);
        self.obs.counter(M_NODE_ACCESSES).add(d.node_accesses);
        self.obs.counter(M_LEAF_ACCESSES).add(d.leaf_node_accesses);
        let mut attrs = vec![
            ("hits".to_string(), AttrValue::from(hits as u64)),
            (
                "node_accesses".to_string(),
                AttrValue::from(d.node_accesses),
            ),
            (
                "leaf_accesses".to_string(),
                AttrValue::from(d.leaf_node_accesses),
            ),
        ];
        if let (StorageBackend::Paged(paged), Some(before)) = (self.backend, self.io_before) {
            let io = paged.io_snapshot().since(before);
            let policy = paged.config().policy.to_string();
            publish_paged_io(self.obs, &policy, &io);
            attrs.push(("policy".to_string(), AttrValue::from(policy)));
            attrs.push(("buffer_hits".to_string(), AttrValue::from(io.buffer_hits)));
            attrs.push((
                "buffer_misses".to_string(),
                AttrValue::from(io.buffer_misses),
            ));
            attrs.push(("page_reads".to_string(), AttrValue::from(io.page_reads)));
        }
        if let Some(packed) = self.backend.packed() {
            let fetches = packed.fetches().saturating_sub(self.fetches_before);
            self.obs.counter(M_PACKED_FETCHES).add(fetches);
            attrs.push(("packed_fetches".to_string(), AttrValue::from(fetches)));
        }
        self.span.set_attrs(attrs);
        self.span.finish();
    }
}
