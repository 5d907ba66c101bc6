//! Concurrent live check-in ingestion with epoch-snapshot reads.
//!
//! Section 4.2: "When an epoch ends, we compute the aggregate of each POI by
//! the check-ins (in this epoch), and then insert the non-zero aggregates in
//! a batch fashion." [`LiveIndex`] turns that loop into a concurrent tier:
//!
//! * **Sharded write path** — [`LiveIndex::record`] hashes each event's POI
//!   onto one of `shards` lock-striped accumulators, so independent writer
//!   threads almost never contend. Per event the hot path is one uncontended
//!   reader-writer acquisition (the epoch roll), one shard mutex and one
//!   hash-map upsert.
//! * **Epoch-snapshot read path** — [`LiveIndex::snapshot`] hands out an
//!   immutable [`SnapshotView`]: the current base (a packed image + POI
//!   table) plus a frozen
//!   *delta overlay* of sealed-but-unmerged epochs, tagged with an
//!   [`EpochWatermark`]. Snapshot queries never block writers (the snapshot
//!   is two `Arc` clones under a briefly-held read lock) and writers never
//!   block snapshot readers. Every query a snapshot answers is bit-identical
//!   to the same query on an index that had the snapshot's deltas digested
//!   via [`TarIndex::ingest_epoch`] — `tests/snapshot_oracle.rs` is the
//!   differential proof.
//! * **Background merge** — [`LiveIndex::merge_sealed`] folds sealed deltas
//!   into a copy of the base's POI table and packs the new base image
//!   straight from it ([`FrozenIndex`]) off the hot path — a fold plus a
//!   pack, no R\*-tree. The arena [`TarIndex`] is materialised lazily, once
//!   per base, only for [`SnapshotView::index`] and
//!   [`LiveIndex::validate`]; queries read the image. In-flight
//!   snapshots keep their old `Arc`s; answers before and after a merge are
//!   bit-identical because the ranking's `(score, PoiId)` total order makes
//!   results independent of tree shape.
//!
//! Sealing an epoch ([`LiveIndex::seal_epoch`] or the automatic roll when an
//! event from a future epoch arrives) drains every shard into a
//! `DeltaOverlay`; *late* events for already-sealed epochs are attributed
//! to their own epoch and become visible at the next seal — including at the
//! end of the grid, where the open epoch saturates at `grid.len()` and seals
//! keep draining without advancing (and without misattributing anything to
//! the final epoch).
//!
//! The exactness argument for overlay reads lives with the data: leaf
//! aggregates are `base + delta` (exact in `u64`); the internal entry
//! pointing at node `c` uses `base + max_{p under c} delta_p` per epoch —
//! Property 1 applied to the delta, an admissible upper bound that never
//! changes answers and prunes like the merged tree; and the `gmax`
//! normaliser comes from the overlay-adjusted root maximum, which equals the
//! merged index's root maximum epoch by epoch because per-POI cumulative
//! deltas are monotone. A seal extends the previous overlay by its batch
//! alone. See `DESIGN.md` §13.

use crate::index::{IndexConfig, TarIndex};
use crate::observe;
use crate::packed::FrozenIndex;
use crate::poi::{KnntaQuery, Poi, QueryHit};
use crate::storage::{OverlayNodes, StorageBackend};
use knnta_obs::Obs;
use knnta_util::sync::{Mutex, RwLock};
use pagestore::BufferPoolConfig;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tempora::{AggregateSeries, CheckIn, EpochGrid, EpochWatermark, PoiId, TimeInterval};

/// Configuration of a [`LiveIndex`]'s ingestion tier.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Number of lock-striped write shards (floored at 1). More shards mean
    /// less writer contention; 8 sustains >1M check-ins/sec on one node.
    pub shards: usize,
    /// Without effect: snapshots serve the one image they hold, the base's
    /// packed image. The field remains only for callers that build this
    /// struct by literal.
    pub serve_paged: Option<(usize, BufferPoolConfig)>,
    /// Without effect, like [`LiveOptions::serve_paged`]: every base state
    /// *is* a packed image.
    pub serve_packed: bool,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            shards: 8,
            serve_paged: None,
            serve_packed: false,
        }
    }
}

/// One lock stripe of the write path: per-POI aggregates of the open epoch,
/// late aggregates keyed by their own (sealed) epoch, and the event count
/// backing [`LiveIndex::pending`].
#[derive(Default)]
struct ShardBuf {
    open: HashMap<PoiId, u64>,
    late: HashMap<(usize, PoiId), u64>,
    events: u64,
}

/// The epoch roll. `record` holds the read side while classifying an event
/// against `open_epoch` *and* inserting it into a shard, so a concurrent
/// seal (which takes the write side) can never observe a half-classified
/// event.
struct Roll {
    /// The open (not yet sealed) epoch; saturates at `grid.len()`.
    open_epoch: usize,
}

/// The deltas drained by one seal, keyed by `(epoch, poi)`. Retained until
/// a merge folds them into the base tree.
struct SealBatch {
    deltas: HashMap<(usize, PoiId), u64>,
}

/// A frozen overlay of every sealed-but-unmerged delta over one base, shared
/// immutably by snapshots.
///
/// Every field is a function of (base, `per_poi`) alone, whatever the order
/// the deltas arrived in: cumulative deltas only grow, so raising a maximum
/// to each new cumulative value as it appears ends where a recompute over
/// the final values would.
struct DeltaOverlay {
    /// Cumulative per-POI delta series (exact leaf adjustments).
    per_poi: HashMap<PoiId, AggregateSeries>,
    /// Indexed by node of the base image: the per-epoch max of `per_poi`
    /// over the POIs beneath that node — the admissible adjustment of the
    /// internal entry pointing at it. A node's series is never below a
    /// child's.
    node_max: Vec<AggregateSeries>,
    /// The base's root maximum raised to every `base[poi] + delta[poi]`:
    /// the merged index's root maximum, epoch by epoch.
    root_max: AggregateSeries,
    /// Seal counter + open epoch at freeze time.
    watermark: EpochWatermark,
}

impl DeltaOverlay {
    /// The overlay of no deltas over `base`.
    fn empty(base: &BaseState, watermark: EpochWatermark) -> Self {
        DeltaOverlay {
            per_poi: HashMap::new(),
            node_max: vec![AggregateSeries::new(); base.parent.len()],
            root_max: base.frozen.root_max.clone(),
            watermark,
        }
    }

    /// The overlay of `batches` over `base`, from scratch.
    fn of(base: &BaseState, batches: &[Arc<SealBatch>], watermark: EpochWatermark) -> Self {
        let mut overlay = DeltaOverlay::empty(base, watermark);
        for batch in batches {
            overlay.absorb(base, batch);
        }
        overlay
    }

    /// This overlay (over `base`) plus `batch`, stamped `watermark`: a copy
    /// of the tables, then work proportional to the batch.
    fn extend(&self, base: &BaseState, batch: &SealBatch, watermark: EpochWatermark) -> Self {
        let mut next = DeltaOverlay {
            per_poi: self.per_poi.clone(),
            node_max: self.node_max.clone(),
            root_max: self.root_max.clone(),
            watermark,
        };
        next.absorb(base, batch);
        next
    }

    /// Adds `batch` in place. For each delta: the POI's cumulative series,
    /// the root maximum, and `node_max` along the leaf → root path, stopping
    /// at the first node already at or above the new cumulative value (every
    /// ancestor is too).
    fn absorb(&mut self, base: &BaseState, batch: &SealBatch) {
        // HashMap iteration order is irrelevant: see the type's docs.
        for (&(e, poi), &v) in &batch.deltas {
            let epoch = e as u32;
            let series = self.per_poi.entry(poi).or_default();
            series.add(epoch, v);
            let cum = series.get(epoch);
            let slot = base.table.binary_search_by_key(&poi, |(p, _)| p.id).expect(
                "record admits only POIs of the construction-time index, and merges keep them all",
            );
            self.root_max
                .raise_to(epoch, base.table[slot].1.get(epoch) + cum);
            let mut node = base.leaf[slot] as usize;
            while self.node_max[node].get(epoch) < cum {
                self.node_max[node].raise_to(epoch, cum);
                let up = base.parent[node] as usize;
                if up == node {
                    break;
                }
                node = up;
            }
        }
    }
}

/// An immutable base the snapshots read: the packed image + metadata every
/// query runs on by default, the one POI/series table it was packed from —
/// which is also what the overlay algebra, the next merge and the
/// lazily-materialised arena tree read — and the image's shape as the
/// overlay walks it.
struct BaseState {
    frozen: FrozenIndex,
    /// Every POI with its base series, ascending [`PoiId`]; the only copy
    /// of the series this base holds besides the image's prefix blocks.
    table: Vec<(Poi, AggregateSeries)>,
    /// Parallel to `table`: the image's leaf node holding each POI.
    leaf: Vec<u32>,
    /// Indexed by image node: its parent node; the root is its own parent.
    /// Leaves come first in the image, so a child's index is always below
    /// its parent's.
    parent: Vec<u32>,
    /// Cumulative deltas folded into this base by merges since the
    /// [`LiveIndex`] was constructed (for [`SnapshotView::cumulative_deltas`]).
    merged: HashMap<PoiId, AggregateSeries>,
    /// What the arena tree is (re)built with.
    config: IndexConfig,
    /// The arena tree over `table`: the construction-time index for the
    /// first base, built on first use after a merge.
    arena: OnceLock<TarIndex>,
}

impl BaseState {
    /// Wraps an image and the table it was packed from (ascending
    /// [`PoiId`]), reading the image's shape once.
    fn new(
        frozen: FrozenIndex,
        table: Vec<(Poi, AggregateSeries)>,
        merged: HashMap<PoiId, AggregateSeries>,
        config: IndexConfig,
        arena: OnceLock<TarIndex>,
    ) -> Self {
        let tree = &frozen.packed.tree;
        let root = tree.root() as u32;
        let mut parent = vec![root; tree.node_count()];
        let mut leaf = vec![root; table.len()];
        for n in 0..tree.node_count() {
            let node = tree.node(n);
            for entry in node.entries() {
                let target = tree.entry_target(entry);
                if node.is_leaf() {
                    let slot = table
                        .binary_search_by_key(&PoiId(target as u32), |(p, _)| p.id)
                        .expect("the image is packed from the table");
                    leaf[slot] = n as u32;
                } else {
                    parent[target as usize] = n as u32;
                }
            }
        }
        BaseState {
            frozen,
            table,
            leaf,
            parent,
            merged,
            config,
            arena,
        }
    }

    fn arena(&self) -> &TarIndex {
        self.arena.get_or_init(|| {
            // Sharing the image's metadata keeps one set of access counters
            // and one observability handle per base.
            let mut index = TarIndex::with_meta(self.config, self.frozen.meta.clone());
            index.fill(self.table.clone());
            index
        })
    }
}

/// What snapshots see, swapped atomically under one lock so no reader can
/// observe a new base with a stale overlay (or vice versa).
struct Published {
    base: Arc<BaseState>,
    overlay: Arc<DeltaOverlay>,
    /// Sealed batches not yet folded into `base`, oldest first.
    batches: Vec<Arc<SealBatch>>,
}

/// A [`TarIndex`] fed by a concurrent live check-in stream.
///
/// All methods take `&self`; the index is `Sync` and meant to be shared by
/// writer and reader threads (e.g. via `std::thread::scope`). See the
/// module docs for the write / snapshot / merge architecture.
pub struct LiveIndex {
    grid: EpochGrid,
    /// POIs known to the index. Events for unknown POIs are dropped *at
    /// record time* — an unknown-POI overlay entry would inflate the
    /// snapshot's root maximum relative to a merged index (where
    /// `ingest_epoch` silently ignores unknown POIs) and break bit-identity.
    members: HashSet<PoiId>,
    shards: Vec<Mutex<ShardBuf>>,
    roll: RwLock<Roll>,
    state: RwLock<Published>,
    /// Serialises merges (never held while a query or `record` runs).
    merge_lock: Mutex<()>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    sealed_events: AtomicU64,
    obs: Obs,
}

impl LiveIndex {
    /// Wraps an index whose epochs `0..first_open_epoch` are already
    /// digested; ingestion starts with `first_open_epoch` open. Uses
    /// [`LiveOptions::default`].
    ///
    /// # Panics
    ///
    /// Panics if `first_open_epoch > grid.len()`.
    pub fn new(index: TarIndex, first_open_epoch: usize) -> Self {
        Self::with_options(index, first_open_epoch, LiveOptions::default())
    }

    /// [`LiveIndex::new`] with explicit [`LiveOptions`].
    ///
    /// # Panics
    ///
    /// Panics if `first_open_epoch > grid.len()`.
    pub fn with_options(index: TarIndex, first_open_epoch: usize, opts: LiveOptions) -> Self {
        assert!(
            first_open_epoch <= index.grid().len(),
            "open epoch outside the grid"
        );
        let grid = index.grid().clone();
        let obs = index.obs().clone();
        let mut table = index.export_pois();
        table.sort_by_key(|(poi, _)| poi.id);
        let base = BaseState::new(
            FrozenIndex::of(&index),
            table,
            HashMap::new(),
            index.config(),
            OnceLock::from(index),
        );
        let members = base.table.iter().map(|(poi, _)| poi.id).collect();
        let shard_count = opts.shards.max(1);
        LiveIndex {
            grid,
            members,
            shards: (0..shard_count).map(|_| Mutex::new(ShardBuf::default())).collect(),
            roll: RwLock::new(Roll {
                open_epoch: first_open_epoch,
            }),
            state: RwLock::new(Published {
                overlay: Arc::new(DeltaOverlay::empty(
                    &base,
                    EpochWatermark::initial(first_open_epoch),
                )),
                base: Arc::new(base),
                batches: Vec::new(),
            }),
            merge_lock: Mutex::new(()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sealed_events: AtomicU64::new(0),
            obs,
        }
    }

    /// The epoch grid shared by the index and its stream.
    pub fn grid(&self) -> &EpochGrid {
        &self.grid
    }

    /// The open epoch's position (== `grid.len()` once time has run past the
    /// grid).
    pub fn current_epoch(&self) -> usize {
        self.roll.read().open_epoch
    }

    /// Events recorded so far (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events buffered in the shards, not yet drained by a seal.
    ///
    /// At quiescence `pending() + sealed_events() + dropped() == recorded()`.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().events).sum()
    }

    /// Events drained into sealed batches so far.
    pub fn sealed_events(&self) -> u64 {
        self.sealed_events.load(Ordering::Relaxed)
    }

    /// Events dropped because their POI or timestamp was unknown.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn shard_of(&self, poi: PoiId) -> usize {
        let h = (poi.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Records one check-in. Safe to call from any number of threads.
    ///
    /// * In the open epoch: buffered in a shard until the next seal.
    /// * In a *sealed* epoch (late event): buffered against its own epoch,
    ///   visible at the next seal.
    /// * In a *future* epoch: the intervening epochs are sealed first (time
    ///   moved on), then the event is buffered.
    /// * Outside the grid, or for a POI the index does not know: counted as
    ///   dropped.
    pub fn record(&self, checkin: CheckIn) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.obs.counter(observe::M_LIVE_RECORDED).add(1);
        let Some(epoch) = self.grid.epoch_of(checkin.time) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.obs.counter(observe::M_LIVE_DROPPED).add(1);
            return;
        };
        if !self.members.contains(&checkin.poi) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.obs.counter(observe::M_LIVE_DROPPED).add(1);
            return;
        }
        let value = checkin.value as u64;
        loop {
            let roll = self.roll.read();
            let open = roll.open_epoch;
            if epoch.index > open {
                drop(roll);
                self.roll_to(epoch.index);
                continue;
            }
            // Holding the roll read lock across the shard insert keeps the
            // open/late classification consistent with any concurrent seal.
            let mut shard = self.shards[self.shard_of(checkin.poi)].lock();
            if value != 0 {
                if epoch.index == open {
                    *shard.open.entry(checkin.poi).or_insert(0) += value;
                } else {
                    *shard.late.entry((epoch.index, checkin.poi)).or_insert(0) += value;
                }
            }
            shard.events += 1;
            return;
        }
    }

    /// Seals epochs until `target` is the open epoch. Racing rollers are
    /// fine: whoever wins the write lock seals, the rest see the new epoch.
    fn roll_to(&self, target: usize) {
        let mut roll = self.roll.write();
        while roll.open_epoch < target {
            self.seal_locked(&mut roll);
        }
    }

    /// Seals the open epoch: drains every shard (the open epoch's
    /// aggregates plus all buffered late aggregates, each attributed to its
    /// own epoch) into a frozen delta overlay and advances the open
    /// epoch, saturating at `grid.len()`. Once saturated, further seals
    /// keep draining late events without advancing.
    ///
    /// Returns the number of distinct POIs whose deltas were drained.
    pub fn seal_epoch(&self) -> usize {
        let mut roll = self.roll.write();
        self.seal_locked(&mut roll)
    }

    fn seal_locked(&self, roll: &mut Roll) -> usize {
        let open = roll.open_epoch;
        let mut deltas: HashMap<(usize, PoiId), u64> = HashMap::new();
        let mut events = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            for (poi, v) in s.open.drain() {
                *deltas.entry((open, poi)).or_insert(0) += v;
            }
            for ((e, poi), v) in s.late.drain() {
                *deltas.entry((e, poi)).or_insert(0) += v;
            }
            events += s.events;
            s.events = 0;
        }
        roll.open_epoch = (open + 1).min(self.grid.len());
        let changed = {
            let mut pois: Vec<PoiId> = deltas.keys().map(|&(_, p)| p).collect();
            pois.sort_unstable();
            pois.dedup();
            pois.len()
        };

        let batch = SealBatch { deltas };
        let mut st = self.state.write();
        let watermark = st.overlay.watermark.sealed(roll.open_epoch);
        st.overlay = Arc::new(st.overlay.extend(&st.base, &batch, watermark));
        if !batch.deltas.is_empty() {
            st.batches.push(Arc::new(batch));
        }
        drop(st);

        self.sealed_events.fetch_add(events, Ordering::Relaxed);
        self.obs.counter(observe::M_LIVE_SEALS).add(1);
        self.obs.counter(observe::M_LIVE_SEALED).add(events);
        changed
    }

    /// Takes an immutable snapshot of everything sealed so far: the base
    /// tree plus the frozen delta overlay, tagged with the watermark at
    /// which it was taken. Two `Arc` clones under a briefly-held read lock —
    /// writers are never blocked by however long the snapshot is queried.
    pub fn snapshot(&self) -> SnapshotView {
        let st = self.state.read();
        let view = SnapshotView {
            base: Arc::clone(&st.base),
            overlay: Arc::clone(&st.overlay),
        };
        drop(st);
        self.obs.counter(observe::M_LIVE_SNAPSHOTS).add(1);
        view
    }

    /// Folds every currently-sealed batch into a copy of the base's POI
    /// table and packs the new base image straight from it, off the hot
    /// path: no lock is held during the fold and pack, writers keep
    /// streaming, and in-flight snapshots keep their old state. Answers are
    /// unaffected — the `(score, PoiId)` total order makes them independent
    /// of tree shape.
    ///
    /// Returns the number of sealed batches folded (0 when there was
    /// nothing to merge). Concurrent callers are serialised.
    pub fn merge_sealed(&self) -> usize {
        let _guard = self.merge_lock.lock();
        let (base, batches) = {
            let st = self.state.read();
            (Arc::clone(&st.base), st.batches.clone())
        };
        if batches.is_empty() {
            return 0;
        }
        let folded_n = batches.len();
        let mut folded: HashMap<PoiId, AggregateSeries> = HashMap::new();
        for b in &batches {
            for (&(e, poi), &v) in &b.deltas {
                folded
                    .entry(poi)
                    .or_insert_with(AggregateSeries::new)
                    .add(e as u32, v);
            }
        }

        let mut table = base.table.clone();
        for (poi, series) in &mut table {
            if let Some(d) = folded.get(&poi.id) {
                for (e, v) in d.iter() {
                    series.add(e, v);
                }
            }
        }
        let mut frozen =
            FrozenIndex::build(base.config, self.grid.clone(), base.frozen.meta.bounds, &table);
        frozen.set_obs(self.obs.clone());
        let mut merged = base.merged.clone();
        for (poi, d) in &folded {
            let m = merged.entry(*poi).or_insert_with(AggregateSeries::new);
            for (e, v) in d.iter() {
                m.add(e, v);
            }
        }
        let fresh = BaseState::new(frozen, table, merged, base.config, OnceLock::new());

        let mut st = self.state.write();
        // Seals that happened during the rebuild appended to `batches`;
        // keep those and recompute the remainder overlay against the new
        // base from scratch.
        let remaining = st.batches.split_off(folded_n);
        st.overlay = Arc::new(DeltaOverlay::of(&fresh, &remaining, st.overlay.watermark));
        st.base = Arc::new(fresh);
        st.batches = remaining;
        drop(st);

        self.obs.counter(observe::M_LIVE_MERGES).add(1);
        folded_n
    }

    /// Answers a query over the sealed epochs (shorthand for
    /// `snapshot().query(query)`; the open epoch's shard buffers are not
    /// yet visible, exactly as before the concurrent tier existed).
    pub fn query(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        self.snapshot().query(query)
    }

    /// Checks every structural and TIA-summary invariant of the current
    /// base's arena tree, materialising it if need be (test helper).
    pub fn validate(&self) {
        let base = Arc::clone(&self.state.read().base);
        base.arena().validate();
    }
}

/// An immutable epoch snapshot of a [`LiveIndex`]: a base (packed image +
/// POI table) plus the frozen delta overlay of sealed-but-unmerged epochs.
///
/// [`SnapshotView::query`] answers **bit-identically** to the same query on
/// an index holding the merged state (base + [`SnapshotView::cumulative_deltas`]
/// digested via [`TarIndex::ingest_epoch`]). The view is cheap to clone and
/// keeps its state alive independently of subsequent seals and merges.
#[derive(Clone)]
pub struct SnapshotView {
    base: Arc<BaseState>,
    overlay: Arc<DeltaOverlay>,
}

impl SnapshotView {
    /// The watermark at which this snapshot was taken.
    pub fn watermark(&self) -> EpochWatermark {
        self.overlay.watermark
    }

    /// The epoch grid.
    pub fn grid(&self) -> &EpochGrid {
        &self.base.frozen.meta.grid
    }

    /// The snapshot's base as a [`TarIndex`] — sealed-and-**merged** state
    /// only; the frozen overlay's deltas are *not* reflected in its TIAs.
    /// Call [`LiveIndex::merge_sealed`] before snapshotting when base-level
    /// extensions (skyline, persistence, MWA) need the full stream.
    ///
    /// The first base's tree is the index the [`LiveIndex`] was constructed
    /// with; after a merge the tree is built from the base's POI table on
    /// the first call (once per base — an R\*-tree build, off the merge
    /// path), and `index().pack()` equals the base image byte for byte.
    pub fn index(&self) -> &TarIndex {
        self.base.arena()
    }

    /// The base's packed serving image — what snapshot queries read, under
    /// the overlay. Like [`SnapshotView::index`] it holds sealed-and-merged
    /// state only.
    pub fn packed(&self) -> &crate::packed::PackedTarTree {
        &self.base.frozen.packed
    }

    /// Every delta this snapshot carries on top of the index the
    /// [`LiveIndex`] was constructed with — merged batches plus the frozen
    /// overlay — as `(epoch, poi, delta)` triples sorted by `(epoch, poi)`.
    ///
    /// Replaying these through [`TarIndex::ingest_epoch`] on a copy of the
    /// construction-time index reproduces this snapshot's answers bit for
    /// bit; the differential oracle in `tests/snapshot_oracle.rs` does
    /// exactly that.
    pub fn cumulative_deltas(&self) -> Vec<(usize, PoiId, u64)> {
        let mut map: HashMap<(usize, PoiId), u64> = HashMap::new();
        for (poi, s) in &self.base.merged {
            for (e, v) in s.iter() {
                *map.entry((e as usize, *poi)).or_insert(0) += v;
            }
        }
        for (poi, s) in &self.overlay.per_poi {
            for (e, v) in s.iter() {
                *map.entry((e as usize, *poi)).or_insert(0) += v;
            }
        }
        let mut out: Vec<(usize, PoiId, u64)> = map
            .into_iter()
            .map(|((e, p), v)| (e, p, v))
            .collect();
        out.sort_unstable_by_key(|&(e, p, _)| (e, p));
        out
    }

    /// The `gmax` normaliser for a query interval, from the
    /// overlay-adjusted root maximum (bit-equal to
    /// [`TarIndex::aggregate_normalizer`] on the merged index).
    pub fn normalizer(&self, iq: TimeInterval) -> f64 {
        (self.overlay.root_max.aggregate_over(self.grid(), iq) as f64).max(1.0)
    }

    /// Answers a kNNTA query against the snapshot: sequential best-first
    /// search over the base's packed image with the frozen overlay stacked
    /// on it, the overlay-adjusted `gmax` source, and no staleness check
    /// (the snapshot owns its image).
    pub fn query(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        let env = crate::plan::ExecEnv {
            meta: &self.base.frozen.meta,
            arena: None,
            root_max: Some(&self.overlay.root_max),
            fresh_at: None,
        };
        let overlaid = OverlayNodes {
            packed: crate::packed::PackedSource(&self.base.frozen.packed),
            per_poi: &self.overlay.per_poi,
            node_max: &self.overlay.node_max,
        };
        crate::plan::run_query(
            &env,
            StorageBackend::Overlaid(overlaid),
            crate::plan::ExecMode::Seq,
            query,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::IndexConfig;
    use crate::poi::Poi;
    use knnta_util::prop::{check, Gen};
    use tempora::Timestamp;

    /// An empty-history index over the example POIs.
    fn empty_index() -> (LiveIndex, Vec<(Poi, AggregateSeries)>) {
        let (grid, bounds, pois) = paper_example();
        let empty = pois
            .iter()
            .map(|(p, _)| (*p, AggregateSeries::new()))
            .collect::<Vec<_>>();
        let index = TarIndex::build(IndexConfig::default(), grid, bounds, empty);
        (LiveIndex::new(index, 0), pois)
    }

    /// Streams every check-in implied by the example's Table 1 and checks
    /// the final snapshot answers the paper's example query.
    #[test]
    fn streaming_reproduces_the_example() {
        let (live, pois) = empty_index();
        for (poi, series) in &pois {
            for (epoch, count) in series.iter() {
                for i in 0..count {
                    // Spread events inside the epoch day.
                    let t = Timestamp::from_days(epoch as i64) + (i as i64 % 86_000);
                    live.record(CheckIn::at(poi.id, t));
                }
            }
        }
        // Events arrived interleaved across epochs; the auto-roll sealed
        // epochs 0 and 1, later (now late) events are still buffered.
        assert!(live.pending() > 0);
        live.seal_epoch();
        assert_eq!(live.pending(), 0);
        assert_eq!(
            live.pending() + live.sealed_events() + live.dropped(),
            live.recorded()
        );
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.3);
        let hits = live.query(&q);
        assert_eq!(hits[0].poi, PoiId(5), "f wins, as in Section 3.2");
        assert_eq!(hits[0].aggregate, 12);
        live.validate();
    }

    #[test]
    fn late_events_become_visible_at_the_next_seal() {
        let (live, pois) = empty_index();
        // Seal two empty epochs, then send an event for epoch 0.
        live.seal_epoch();
        live.seal_epoch();
        assert_eq!(live.current_epoch(), 2);
        live.record(CheckIn::at(pois[3].0.id, Timestamp::from_hours(5)));
        let q = KnntaQuery::new(pois[3].0.pos, TimeInterval::days(0, 1))
            .with_k(1)
            .with_alpha0(0.3);
        // Buffered, not yet visible.
        assert_eq!(live.pending(), 1);
        assert_eq!(live.query(&q)[0].aggregate, 0);
        // The next seal drains it into its own epoch without advancing past
        // the open epoch's normal roll.
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.query(&q)[0].poi, pois[3].0.id);
        assert_eq!(live.query(&q)[0].aggregate, 1);
    }

    #[test]
    fn out_of_grid_and_unknown_poi_events_dropped() {
        let (live, pois) = empty_index();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::from_days(99)));
        live.record(CheckIn::at(pois[0].0.id, Timestamp(-5)));
        live.record(CheckIn::at(PoiId(9_999), Timestamp::from_hours(1)));
        assert_eq!(live.dropped(), 3);
        assert_eq!(live.pending(), 0);
        assert_eq!(live.recorded(), 3);
    }

    #[test]
    fn future_event_rolls_epochs_forward() {
        let (live, pois) = empty_index();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::ZERO));
        assert_eq!(live.current_epoch(), 0);
        live.record(CheckIn::at(pois[1].0.id, Timestamp::from_days(2)));
        assert_eq!(live.current_epoch(), 2, "epochs 0 and 1 sealed");
        // The epoch-0 event became visible when its epoch sealed.
        let q = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(0, 1))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&q)[0].aggregate, 1);
    }

    #[test]
    fn valued_checkins_sum_and_pending_counts_events() {
        let (live, pois) = empty_index();
        live.record(CheckIn::with_value(pois[2].0.id, Timestamp::from_hours(1), 7));
        live.record(CheckIn::with_value(pois[2].0.id, Timestamp::from_hours(2), 5));
        // `pending` counts events, not value sums.
        assert_eq!(live.pending(), 2);
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.sealed_events(), 2);
        let q = KnntaQuery::new(pois[2].0.pos, TimeInterval::days(0, 1))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&q)[0].aggregate, 12);
    }

    /// Regression for the seal saturation bug: once the open epoch reaches
    /// `grid.len()`, in-grid events must stay accepted, attributed to their
    /// own epoch (never silently digested into the final epoch), and seals
    /// must keep draining without advancing.
    #[test]
    fn saturated_grid_keeps_late_events_in_their_own_epoch() {
        let (live, pois) = empty_index();
        let len = live.grid().len();
        for _ in 0..len {
            live.seal_epoch();
        }
        assert_eq!(live.current_epoch(), len, "open epoch saturated");
        // In-grid event for epoch 1 after saturation: accepted, pending.
        live.record(CheckIn::at(pois[0].0.id, Timestamp::from_days(1)));
        assert_eq!(live.dropped(), 0);
        assert_eq!(live.pending(), 1);
        // Sealing at saturation drains without advancing.
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.current_epoch(), len);
        assert_eq!(live.pending(), 0);
        // Visible in epoch 1 …
        let q1 = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(1, 2))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&q1)[0].aggregate, 1);
        // … and NOT misattributed to the final epoch.
        let qlast = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(len as i64 - 1, len as i64))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&qlast)[0].aggregate, 0);
        // Out-of-grid still drops.
        live.record(CheckIn::at(pois[0].0.id, Timestamp::from_days(99)));
        assert_eq!(live.dropped(), 1);
    }

    /// A snapshot is isolated from everything recorded and sealed after it
    /// was taken.
    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let (live, pois) = empty_index();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::ZERO));
        live.seal_epoch();
        let snap = live.snapshot();
        let wm = snap.watermark();
        let q = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(0, 3))
            .with_k(2)
            .with_alpha0(0.3);
        let before: Vec<_> = snap.query(&q);
        // Keep writing and merging under the old snapshot's feet.
        for _ in 0..10 {
            live.record(CheckIn::at(pois[0].0.id, Timestamp::from_hours(30)));
        }
        live.seal_epoch();
        live.merge_sealed();
        let after = snap.query(&q);
        assert_eq!(snap.watermark(), wm);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "snapshot answers changed under later writes"
            );
        }
        // The fresh snapshot sees the new events.
        let fresh = live.snapshot().query(&q);
        assert_eq!(fresh[0].aggregate, 11);
    }

    /// Merging folds the overlay into the base without changing answers.
    #[test]
    fn merge_preserves_answers_bit_for_bit() {
        let (live, pois) = empty_index();
        for (i, (poi, _)) in pois.iter().enumerate() {
            for j in 0..=(i as i64) {
                live.record(CheckIn::at(poi.id, Timestamp::from_days(j % 3)));
            }
        }
        live.seal_epoch();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(3)
            .with_alpha0(0.5);
        let snap = live.snapshot();
        let before = snap.query(&q);
        let deltas_before = snap.cumulative_deltas();
        assert!(live.merge_sealed() > 0, "there were sealed batches");
        assert_eq!(live.merge_sealed(), 0, "nothing left to merge");
        let snap2 = live.snapshot();
        let after = snap2.query(&q);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "merge changed answers"
            );
        }
        // Cumulative deltas are preserved across the merge boundary.
        assert_eq!(deltas_before, snap2.cumulative_deltas());
        live.validate();
    }

    const EPOCHS: usize = 6;

    /// An empty-history index over `n` POIs on a lattice: past 16 POIs the
    /// image has internal levels, past 256 three levels.
    fn lattice(n: usize) -> LiveIndex {
        let pois = (0..n as u32).map(|i| {
            let (x, y) = ((i % 20) as f64 * 5.0 + 1.0, (i / 20) as f64 * 5.0 + 1.0);
            (Poi::new(i, x, y), AggregateSeries::new())
        });
        let grid = EpochGrid::fixed_days(1, EPOCHS);
        let bounds = rtree::Rect::new([0.0, 0.0], [100.0, 100.0]);
        LiveIndex::new(
            TarIndex::build(IndexConfig::default(), grid, bounds, pois),
            0,
        )
    }

    /// Records one check-in of a random POI in a random epoch: open, late
    /// (already sealed) or future (rolls the open epoch forward).
    fn record_any(live: &LiveIndex, g: &mut Gen) {
        let poi = PoiId(g.u32_in(0..live.members.len() as u32));
        let at = live.grid.epoch(g.usize_in(0..EPOCHS)).start + 1;
        live.record(CheckIn::with_value(poi, at, g.u32_in(1..5)));
    }

    /// POIs in the subtree of image node `n`.
    fn pois_beneath(tree: &rtree::PackedTree, n: usize, out: &mut Vec<PoiId>) {
        let node = tree.node(n);
        for entry in node.entries() {
            let target = tree.entry_target(entry);
            if node.is_leaf() {
                out.push(PoiId(target as u32));
            } else {
                pois_beneath(tree, target as usize, out);
            }
        }
    }

    /// The published overlay is the one a recompute over (base, unmerged
    /// batches) gives — `per_poi`, `node_max` walked over the image, and the
    /// merged table's root maximum — and every node's max covers every
    /// delta beneath it.
    fn assert_overlay_is_canonical(live: &LiveIndex) {
        let st = live.state.read();
        let (base, overlay) = (&st.base, &st.overlay);

        let mut per_poi: HashMap<PoiId, AggregateSeries> = HashMap::new();
        for batch in &st.batches {
            for (&(e, poi), &v) in &batch.deltas {
                per_poi.entry(poi).or_default().add(e as u32, v);
            }
        }
        assert_eq!(
            overlay.per_poi, per_poi,
            "the overlay holds exactly the unmerged batches"
        );

        // Children precede parents in the image, so one ascending pass has
        // every child's max before its parent reads it.
        let tree = &base.frozen.packed.tree;
        let mut node_max = vec![AggregateSeries::new(); tree.node_count()];
        for n in 0..tree.node_count() {
            let node = tree.node(n);
            for entry in node.entries() {
                let target = tree.entry_target(entry);
                let below = if node.is_leaf() {
                    per_poi
                        .get(&PoiId(target as u32))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    node_max[target as usize].clone()
                };
                node_max[n].merge_max(&below);
            }
        }
        assert_eq!(
            overlay.node_max, node_max,
            "incremental node maxima equal a recompute"
        );

        let merged: Vec<AggregateSeries> = base
            .table
            .iter()
            .map(|(poi, series)| {
                let mut series = series.clone();
                for (e, v) in per_poi.get(&poi.id).into_iter().flat_map(|d| d.iter()) {
                    series.add(e, v);
                }
                series
            })
            .collect();
        assert_eq!(
            overlay.root_max,
            AggregateSeries::max_of(&merged),
            "the adjusted root max is the merged index's"
        );

        for n in 0..tree.node_count() {
            let mut pois = Vec::new();
            pois_beneath(tree, n, &mut pois);
            for poi in pois {
                for (e, v) in per_poi.get(&poi).into_iter().flat_map(|d| d.iter()) {
                    assert!(
                        overlay.node_max[n].get(e) >= v,
                        "node {n} under-bounds {poi} at {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_overlay_equals_a_recompute_under_any_interleaving() {
        check("live_overlay_incremental_equals_recompute", 48, |g| {
            let live = lattice(g.usize_in(1..300));
            for _ in 0..g.len_in(1, 120) {
                match g.weighted(&[10, 2, 1]) {
                    0 => record_any(&live, g),
                    1 => {
                        live.seal_epoch();
                    }
                    _ => {
                        live.merge_sealed();
                    }
                }
                assert_overlay_is_canonical(&live);
            }
        });
    }
}
