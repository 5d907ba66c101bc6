//! Concurrent live check-in ingestion with epoch-snapshot reads.
//!
//! Section 4.2: "When an epoch ends, we compute the aggregate of each POI by
//! the check-ins (in this epoch), and then insert the non-zero aggregates in
//! a batch fashion." [`LiveIndex`] turns that loop into a concurrent tier:
//!
//! * **Sharded write path** — [`LiveIndex::record`] binary-searches each
//!   event's POI for its slot in the base table and stripes slots over
//!   `shards` lock-striped accumulators, so independent writer threads
//!   almost never contend. Per event the hot path is one uncontended
//!   reader-writer acquisition (the epoch roll), one shard mutex and one
//!   add into the shard's slot-indexed array.
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
//! * **Background merge** — [`LiveIndex::merge_sealed`] folds the overlay's
//!   deltas into a copy of the base's POI table and packs the new base image
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
//! merged index's root maximum epoch by epoch because per-POI deltas only
//! grow. The overlay stores both deltas as cumulative columns over its
//! epochs, so a read is one subtraction and a seal appends one column. See
//! `DESIGN.md` §13.

use crate::index::TarIndex;
use crate::observe;
use crate::packed::FrozenIndex;
use crate::poi::{KnntaQuery, Poi, QueryHit};
use crate::storage::{OverlayNodes, StorageBackend};
use knnta_obs::Obs;
use knnta_util::sync::{Mutex, RwLock};
use pagestore::BufferPoolConfig;
use std::collections::HashMap;
use std::ops::Range;
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

/// One lock stripe of the write path. Stripe `i` of `n` owns the base-table
/// slots `s` with `s % n == i`: the open epoch's aggregate of slot `s` at
/// `open[s / n]`, late aggregates keyed by their own (sealed) epoch and
/// slot, and the event count backing [`LiveIndex::pending`].
struct ShardBuf {
    open: Vec<u64>,
    late: HashMap<(u32, u32), u64>,
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

/// The deltas drained by one seal as `(epoch, slot, value)` triples,
/// ascending and one per `(epoch, slot)`. Retained until a merge folds them
/// into the base tree.
struct SealBatch {
    deltas: Vec<(u32, u32, u64)>,
}

/// One cumulative column: a `u64` per row (base-table slot or image node).
type Column = Arc<[u64]>;

/// The overlay columns one query's epoch range covers, `lo..hi`.
#[derive(Clone, Copy)]
pub(crate) struct ColumnSpan {
    lo: u32,
    hi: u32,
}

impl ColumnSpan {
    /// Row `row` of `lane` summed over the span: two lookups and a
    /// subtraction, exact in `u64`.
    fn sum(self, lane: &[Column], row: usize) -> u64 {
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        if lo >= hi {
            return 0;
        }
        let top = lane[hi - 1][row];
        if lo == 0 {
            top
        } else {
            top - lane[lo - 1][row]
        }
    }
}

/// Sealed-but-unmerged deltas over one base as cumulative columns, one pair
/// per *overlay epoch* (a grid epoch some unmerged delta falls in) — read
/// the way a packed TIA prefix block is: a sum over an epoch range is one
/// subtraction.
#[derive(Clone)]
pub(crate) struct DeltaColumns {
    /// The overlay epochs, ascending.
    epochs: Vec<u32>,
    /// Indexed by grid epoch `e` in `0..=grid.len()`: the number of overlay
    /// epochs below `e`.
    below: Vec<u32>,
    /// `poi[j]`, by base-table slot: the POI's deltas summed over
    /// `epochs[..=j]` (exact leaf adjustments).
    poi: Vec<Column>,
    /// `node[j]`, by image node: the per-epoch maximum delta of the POIs
    /// beneath the node, summed over `epochs[..=j]` — the admissible
    /// adjustment of the internal entry pointing at it. A node's maximum is
    /// never below a child's, epoch by epoch.
    node: Vec<Column>,
}

impl DeltaColumns {
    /// No deltas over a grid of `grid_len` epochs.
    fn empty(grid_len: usize) -> Self {
        DeltaColumns {
            epochs: Vec::new(),
            below: vec![0; grid_len + 1],
            poi: Vec::new(),
            node: Vec::new(),
        }
    }

    /// The columns the grid epochs in `epochs` cover.
    pub(crate) fn span(&self, epochs: Range<usize>) -> ColumnSpan {
        let last = self.below.len() - 1;
        ColumnSpan {
            lo: self.below[epochs.start.min(last)],
            hi: self.below[epochs.end.min(last)],
        }
    }

    /// POI `slot`'s delta summed over `span`.
    pub(crate) fn poi_sum(&self, slot: u32, span: ColumnSpan) -> u64 {
        span.sum(&self.poi, slot as usize)
    }

    /// Node `node`'s delta maximum summed over `span`.
    pub(crate) fn node_sum(&self, node: u32, span: ColumnSpan) -> u64 {
        span.sum(&self.node, node as usize)
    }

    /// The column index of grid epoch `epoch`, inserting a column pair if
    /// the overlay has none yet: a copy of its predecessor's (zero in
    /// `epoch`).
    fn column_of(&mut self, epoch: u32, base: &BaseState) -> usize {
        match self.epochs.binary_search(&epoch) {
            Ok(j) => j,
            Err(j) => {
                let (poi, node) = if j == 0 {
                    (
                        vec![0; base.table.len()].into(),
                        vec![0; base.parent.len()].into(),
                    )
                } else {
                    (
                        Column::from(&self.poi[j - 1][..]),
                        Column::from(&self.node[j - 1][..]),
                    )
                };
                self.epochs.insert(j, epoch);
                self.poi.insert(j, poi);
                self.node.insert(j, node);
                for below in &mut self.below[epoch as usize + 1..] {
                    *below += 1;
                }
                j
            }
        }
    }

    /// Adds every POI's deltas to its series in `table` (indexed by slot),
    /// one column difference at a time.
    fn fold_into(&self, table: &mut [(Poi, AggregateSeries)]) {
        for (j, &epoch) in self.epochs.iter().enumerate() {
            for (slot, (_, series)) in table.iter_mut().enumerate() {
                let v = in_epoch(&self.poi, j, slot);
                if v != 0 {
                    series.add(epoch, v);
                }
            }
        }
    }
}

/// Row `row`'s value in the one epoch of column `j`.
fn in_epoch(cols: &[Column], j: usize, row: usize) -> u64 {
    let cum = cols[j][row];
    if j == 0 {
        cum
    } else {
        cum - cols[j - 1][row]
    }
}

/// Row `row` of `lane` per overlay epoch, `(epoch, delta)` ascending, zeros
/// skipped.
fn per_epoch<'c>(
    epochs: &'c [u32],
    lane: &'c [Column],
    row: usize,
) -> impl Iterator<Item = (u32, u64)> + 'c {
    epochs.iter().enumerate().filter_map(move |(j, &epoch)| {
        let v = in_epoch(lane, j, row);
        (v != 0).then_some((epoch, v))
    })
}

/// Adds `(row, value)` pairs to every column of `cols` — the cumulative
/// columns from the deltas' epoch on. A column a published overlay still
/// shares is copied first.
fn add_rows(cols: &mut [Column], rows: &[(u32, u64)]) {
    if rows.is_empty() {
        return;
    }
    for col in cols {
        let cells = Arc::make_mut(col);
        for &(row, v) in rows {
            cells[row as usize] += v;
        }
    }
}

/// A frozen overlay of every sealed-but-unmerged delta over one base, shared
/// immutably by snapshots.
///
/// Every field is a function of (base, unmerged deltas) alone, whatever the
/// order the deltas arrived in: a POI's delta in an epoch only grows, so
/// raising a maximum to each new value as it appears ends where a recompute
/// over the final values would.
struct DeltaOverlay {
    /// The deltas: per-POI and per-node cumulative columns.
    cols: DeltaColumns,
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
            cols: DeltaColumns::empty(base.frozen.meta.grid.len()),
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

    /// This overlay (over `base`) plus `batch`, stamped `watermark`: the
    /// columns are shared, and the batch copies the ones it writes.
    fn extend(&self, base: &BaseState, batch: &SealBatch, watermark: EpochWatermark) -> Self {
        let mut next = DeltaOverlay {
            cols: self.cols.clone(),
            root_max: self.root_max.clone(),
            watermark,
        };
        next.absorb(base, batch);
        next
    }

    /// Adds `batch` in place, one epoch at a time.
    fn absorb(&mut self, base: &BaseState, batch: &SealBatch) {
        for group in batch.deltas.chunk_by(|a, b| a.0 == b.0) {
            self.absorb_epoch(base, group[0].0, group);
        }
    }

    /// Adds one epoch's deltas (ascending slot) to the columns from that
    /// epoch's on. Each POI's new value in the epoch raises the root maximum
    /// and the epoch's node maxima along the leaf → root path, stopping at
    /// the first node already at or above it (every ancestor is too); the
    /// raises then enter the node columns as one more batch.
    fn absorb_epoch(&mut self, base: &BaseState, epoch: u32, deltas: &[(u32, u32, u64)]) {
        let cols = &mut self.cols;
        let j = cols.column_of(epoch, base);
        let before: Vec<u64> = (0..base.parent.len())
            .map(|n| in_epoch(&cols.node, j, n))
            .collect();
        let mut raised = before.clone();
        // `base[poi] <= base root`, so a POI whose delta cannot lift the
        // base root past the current maximum needs no table lookup.
        let base_root = base.frozen.root_max.get(epoch);
        let mut root = self.root_max.get(epoch);
        for &(_, slot, v) in deltas {
            let slot = slot as usize;
            let delta = in_epoch(&cols.poi, j, slot) + v;
            if base_root + delta > root {
                root = root.max(base.table[slot].1.get(epoch) + delta);
            }
            let mut node = base.leaf[slot] as usize;
            while raised[node] < delta {
                raised[node] = delta;
                let up = base.parent[node] as usize;
                if up == node {
                    break;
                }
                node = up;
            }
        }
        self.root_max.raise_to(epoch, root);
        let pois: Vec<(u32, u64)> = deltas.iter().map(|&(_, slot, v)| (slot, v)).collect();
        add_rows(&mut cols.poi[j..], &pois);
        let nodes: Vec<(u32, u64)> = raised
            .iter()
            .zip(&before)
            .enumerate()
            .filter(|(_, (now, was))| now > was)
            .map(|(n, (now, was))| (n as u32, now - was))
            .collect();
        add_rows(&mut cols.node[j..], &nodes);
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
    /// of the series this base holds besides the image's prefix blocks. A
    /// POI's index here is its *slot*, the same in every base (merges keep
    /// every POI).
    table: Arc<Vec<(Poi, AggregateSeries)>>,
    /// The table the [`LiveIndex`] was constructed with, shared by every
    /// base (for [`SnapshotView::cumulative_deltas`]).
    origin: Arc<Vec<(Poi, AggregateSeries)>>,
    /// Parallel to `table`: the image's leaf node holding each POI.
    leaf: Vec<u32>,
    /// Indexed by image node: its parent node; the root is its own parent.
    /// Leaves come first in the image, so a child's index is always below
    /// its parent's.
    parent: Vec<u32>,
    /// Indexed by leaf entry of the image (leaf entries come first): the
    /// slot of the POI it holds.
    entry_slot: Vec<u32>,
    /// The arena tree over `table`: the construction-time index for the
    /// first base, built on first use after a merge.
    arena: OnceLock<TarIndex>,
}

impl BaseState {
    /// Wraps an image and the table it was packed from (ascending
    /// [`PoiId`]), reading the image's shape once.
    fn new(
        frozen: FrozenIndex,
        table: Arc<Vec<(Poi, AggregateSeries)>>,
        origin: Arc<Vec<(Poi, AggregateSeries)>>,
        arena: OnceLock<TarIndex>,
    ) -> Self {
        let tree = &frozen.packed.tree;
        let root = tree.root() as u32;
        let mut parent = vec![root; tree.node_count()];
        let mut leaf = vec![root; table.len()];
        let mut entry_slot = vec![0; tree.item_count()];
        for n in 0..tree.node_count() {
            let node = tree.node(n);
            for entry in node.entries() {
                let target = tree.entry_target(entry);
                if node.is_leaf() {
                    let slot = table
                        .binary_search_by_key(&PoiId(target as u32), |(p, _)| p.id)
                        .expect("the image is packed from the table");
                    leaf[slot] = n as u32;
                    entry_slot[entry] = slot as u32;
                } else {
                    parent[target as usize] = n as u32;
                }
            }
        }
        BaseState {
            frozen,
            table,
            origin,
            leaf,
            parent,
            entry_slot,
            arena,
        }
    }

    fn arena(&self) -> &TarIndex {
        self.arena.get_or_init(|| {
            // Sharing the image's metadata keeps one set of access counters
            // and one observability handle per base.
            let mut index = TarIndex::with_meta(self.frozen.config, self.frozen.meta.clone());
            index.fill(self.table.to_vec());
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
    /// POIs known to the index, ascending: an id's position is its slot.
    /// Events for unknown POIs are dropped *at record time* — an
    /// unknown-POI overlay entry would inflate the snapshot's root maximum
    /// relative to a merged index (where `ingest_epoch` silently ignores
    /// unknown POIs) and break bit-identity.
    ids: Vec<PoiId>,
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
        let ids: Vec<PoiId> = table.iter().map(|(poi, _)| poi.id).collect();
        let table = Arc::new(table);
        let base = BaseState::new(
            FrozenIndex::of(&index),
            Arc::clone(&table),
            table,
            OnceLock::from(index),
        );
        let shard_count = opts.shards.max(1);
        let stripe = ids.len().div_ceil(shard_count);
        LiveIndex {
            grid,
            ids,
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(ShardBuf {
                        open: vec![0; stripe],
                        late: HashMap::new(),
                        events: 0,
                    })
                })
                .collect(),
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
        let Ok(slot) = self.ids.binary_search(&checkin.poi) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.obs.counter(observe::M_LIVE_DROPPED).add(1);
            return;
        };
        let value = checkin.value as u64;
        let stripes = self.shards.len();
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
            let mut shard = self.shards[slot % stripes].lock();
            if value != 0 {
                if epoch.index == open {
                    shard.open[slot / stripes] += value;
                } else {
                    *shard
                        .late
                        .entry((epoch.index as u32, slot as u32))
                        .or_insert(0) += value;
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
        // No `record` holds a shard while the roll is write-locked, so
        // taking every stripe at once cannot wait on a writer.
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut deltas: Vec<(u32, u32, u64)> = Vec::new();
        let mut events = 0u64;
        for s in &mut shards {
            deltas.extend(s.late.drain().map(|((e, slot), v)| (e, slot, v)));
            events += std::mem::take(&mut s.events);
        }
        // Late epochs lie below the open one, so the open epoch's deltas,
        // appended in slot order, keep the batch sorted.
        deltas.sort_unstable();
        let late = deltas.len();
        let stripes = shards.len();
        for i in 0..shards[0].open.len() {
            for (s, shard) in shards.iter_mut().enumerate() {
                let v = std::mem::take(&mut shard.open[i]);
                if v != 0 {
                    deltas.push((open as u32, (i * stripes + s) as u32, v));
                }
            }
        }
        drop(shards);
        roll.open_epoch = (open + 1).min(self.grid.len());
        // Open-epoch slots are distinct; only late ones can repeat a slot.
        let changed = if late == 0 {
            deltas.len()
        } else {
            let mut slots: Vec<u32> = deltas.iter().map(|&(_, slot, _)| slot).collect();
            slots.sort_unstable();
            slots.dedup();
            slots.len()
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
        // A seal publishes its batch and the overlay holding it together,
        // so this overlay holds exactly the first `folded_n` batches.
        let (base, overlay, folded_n) = {
            let st = self.state.read();
            (
                Arc::clone(&st.base),
                Arc::clone(&st.overlay),
                st.batches.len(),
            )
        };
        if folded_n == 0 {
            return 0;
        }
        let mut table = base.table.to_vec();
        overlay.cols.fold_into(&mut table);
        let mut frozen =
            FrozenIndex::build(base.frozen.config, self.grid.clone(), base.frozen.meta.bounds, &table);
        frozen.set_obs(self.obs.clone());
        let fresh = BaseState::new(
            frozen,
            Arc::new(table),
            Arc::clone(&base.origin),
            OnceLock::new(),
        );

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
        let base = &self.base;
        let mut out = Vec::new();
        for (slot, ((poi, now), (_, origin))) in
            base.table.iter().zip(base.origin.iter()).enumerate()
        {
            // What merges folded into the base, plus what the overlay adds.
            let mut series =
                AggregateSeries::from_pairs(now.iter().map(|(e, v)| (e, v - origin.get(e))));
            let cols = &self.overlay.cols;
            for (e, v) in per_epoch(&cols.epochs, &cols.poi, slot) {
                series.add(e, v);
            }
            out.extend(series.iter().map(|(e, v)| (e as usize, poi.id, v)));
        }
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
            bound: None,
        };
        let overlaid = OverlayNodes {
            packed: crate::packed::PackedSource(&self.base.frozen.packed),
            deltas: &self.overlay.cols,
            entry_slot: &self.base.entry_slot,
            span: self.overlay.cols.span(self.grid().epochs_within(query.interval)),
        };
        crate::plan::run_query(
            &env,
            StorageBackend::Overlaid(overlaid),
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
        let hits = live.snapshot().query(&q);
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
        assert_eq!(live.snapshot().query(&q)[0].aggregate, 0);
        // The next seal drains it into its own epoch without advancing past
        // the open epoch's normal roll.
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.snapshot().query(&q)[0].poi, pois[3].0.id);
        assert_eq!(live.snapshot().query(&q)[0].aggregate, 1);
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
        assert_eq!(live.snapshot().query(&q)[0].aggregate, 1);
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
        assert_eq!(live.snapshot().query(&q)[0].aggregate, 12);
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
        assert_eq!(live.snapshot().query(&q1)[0].aggregate, 1);
        // … and NOT misattributed to the final epoch.
        let qlast = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(len as i64 - 1, len as i64))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.snapshot().query(&qlast)[0].aggregate, 0);
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
    /// image has internal levels, past 256 three levels. POI `i` has slot
    /// `i`.
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

    /// Records one check-in worth `value` of POI `poi` in epoch `epoch`.
    fn record_at(live: &LiveIndex, poi: u32, epoch: usize, value: u32) {
        let at = live.grid.epoch(epoch).start + 1;
        live.record(CheckIn::with_value(PoiId(poi), at, value));
    }

    /// Records one check-in of a random POI in a random epoch: open, late
    /// (already sealed) or future (rolls the open epoch forward).
    fn record_any(live: &LiveIndex, g: &mut Gen) {
        let poi = g.u32_in(0..live.ids.len() as u32);
        record_at(live, poi, g.usize_in(0..EPOCHS), g.u32_in(1..5));
    }

    /// Slots of the POIs in the subtree of image node `n`.
    fn slots_beneath(base: &BaseState, n: usize, out: &mut Vec<usize>) {
        let tree = &base.frozen.packed.tree;
        let node = tree.node(n);
        for entry in node.entries() {
            if node.is_leaf() {
                out.push(base.entry_slot[entry] as usize);
            } else {
                slots_beneath(base, tree.entry_target(entry) as usize, out);
            }
        }
    }

    /// The published overlay is the one a recompute over (base, unmerged
    /// batches) gives — per-epoch POI deltas and node maxima read back as
    /// column differences, node maxima walked over the image, the merged
    /// table's root maximum — every node's maximum covers every delta
    /// beneath it.
    fn assert_overlay_is_canonical(live: &LiveIndex) {
        let st = live.state.read();
        let (base, overlay) = (&st.base, &st.overlay);
        let cols = &overlay.cols;
        let tree = &base.frozen.packed.tree;

        let mut per_poi = vec![AggregateSeries::new(); base.table.len()];
        for batch in &st.batches {
            for &(e, slot, v) in &batch.deltas {
                per_poi[slot as usize].add(e, v);
            }
        }
        let mut epochs: Vec<u32> = per_poi
            .iter()
            .flat_map(|s| s.iter().map(|(e, _)| e))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        assert_eq!(cols.epochs, epochs, "one column per epoch with a delta");
        for (e, &below) in cols.below.iter().enumerate() {
            assert_eq!(
                below as usize,
                epochs.partition_point(|&x| (x as usize) < e)
            );
        }
        let values = |lane, row| AggregateSeries::from_pairs(per_epoch(&cols.epochs, lane, row));
        for (slot, series) in per_poi.iter().enumerate() {
            assert_eq!(
                &values(&cols.poi, slot),
                series,
                "slot {slot}: the overlay holds exactly the unmerged batches"
            );
        }

        // Children precede parents in the image, so one ascending pass has
        // every child's max before its parent reads it.
        let mut node_max = vec![AggregateSeries::new(); tree.node_count()];
        for n in 0..tree.node_count() {
            let node = tree.node(n);
            for entry in node.entries() {
                let target = tree.entry_target(entry);
                let below = if node.is_leaf() {
                    let slot = base.entry_slot[entry] as usize;
                    assert_eq!(base.table[slot].0.id, PoiId(target as u32));
                    per_poi[slot].clone()
                } else {
                    node_max[target as usize].clone()
                };
                node_max[n].merge_max(&below);
            }
        }
        for (n, max) in node_max.iter().enumerate() {
            assert_eq!(
                &values(&cols.node, n),
                max,
                "node {n}: incremental node maxima equal a recompute"
            );
        }

        let merged: Vec<AggregateSeries> = base
            .table
            .iter()
            .zip(&per_poi)
            .map(|((_, series), delta)| {
                let mut series = series.clone();
                for (e, v) in delta.iter() {
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

        for (n, max) in node_max.iter().enumerate() {
            let mut slots = Vec::new();
            slots_beneath(base, n, &mut slots);
            for slot in slots {
                for (e, v) in per_poi[slot].iter() {
                    assert!(max.get(e) >= v, "node {n} under-bounds slot {slot} at {e}");
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

    /// A late delta rewrites every column from its epoch on — into a new
    /// first column, a new middle one, an existing one, and after the grid
    /// saturated — and the overlay stays canonical.
    #[test]
    fn late_deltas_rewrite_the_columns_from_their_epoch_on() {
        let live = lattice(300);
        let epochs = |live: &LiveIndex| live.state.read().overlay.cols.epochs.clone();
        record_at(&live, 7, 1, 1);
        record_at(&live, 200, 3, 1);
        live.seal_epoch();
        assert_eq!(epochs(&live), [1, 3]);
        record_at(&live, 7, 0, 1);
        record_at(&live, 250, 2, 1);
        record_at(&live, 7, 1, 1);
        live.seal_epoch();
        assert_overlay_is_canonical(&live);
        assert_eq!(epochs(&live), [0, 1, 2, 3]);
        while live.current_epoch() < EPOCHS {
            live.seal_epoch();
        }
        record_at(&live, 299, EPOCHS - 1, 1);
        record_at(&live, 7, 2, 1);
        assert_eq!(live.seal_epoch(), 2);
        assert_overlay_is_canonical(&live);
        assert_eq!(epochs(&live), [0, 1, 2, 3, 5]);
        assert_eq!(
            live.snapshot().cumulative_deltas(),
            [
                (0, PoiId(7), 1),
                (1, PoiId(7), 2),
                (2, PoiId(7), 1),
                (2, PoiId(250), 1),
                (3, PoiId(200), 1),
                (5, PoiId(299), 1),
            ]
        );
    }
}
