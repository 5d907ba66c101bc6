//! The TIA (temporal index on the aggregate) backed by the MVBT.

use crate::tree::Mvbt;
use pagestore::{BufferPool, Disk};
use std::sync::Arc;
use tempora::{AggregateSeries, EpochGrid, EpochRecord, TimeInterval};

/// A disk-based temporal index on the aggregate, as attached to every
/// TAR-tree entry (Section 4.1 of the paper).
///
/// Records are the paper's `⟨ts, te, agg⟩` triples, keyed by the epoch start
/// `ts`, stored in an [`Mvbt`] whose pages live on a shared [`Disk`] behind a
/// per-TIA [`BufferPool`] (the paper assigns each TIA "a maximum of 10
/// buffer slots").
///
/// Supported operations:
///
/// * [`MvbtTia::insert_epoch`] — append the non-zero aggregate of a finished
///   epoch (batch check-in digestion).
/// * [`MvbtTia::raise_to`] — raise an epoch's stored value to at least `agg`
///   (per-epoch max maintenance of internal TAR-tree entries; implemented as
///   a versioned logical update, which is what exercises the multi-version
///   machinery).
/// * [`MvbtTia::aggregate_over`] — the Section 4.3 query: sum the records
///   whose epoch `[ts, te] ⊆ Iq`.
#[derive(Debug)]
pub struct MvbtTia {
    tree: Mvbt,
    pool: Arc<BufferPool>,
    /// Monotonic operation clock: every mutation advances the MVBT version.
    clock: u64,
    /// Aggregate probes served ([`MvbtTia::aggregate_over`] calls), for the
    /// observability layer's `knnta.mvbt.tia.probes` counter.
    probes: std::sync::atomic::AtomicU64,
}

impl MvbtTia {
    /// Creates an empty TIA over `disk` with `buffer_slots` LRU slots
    /// (the paper's setting is 10).
    pub fn new(disk: Arc<Disk>, buffer_slots: usize) -> Self {
        let pool = Arc::new(BufferPool::new(disk, buffer_slots));
        MvbtTia {
            tree: Mvbt::new(Arc::clone(&pool)),
            pool,
            clock: 0,
            probes: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of [`MvbtTia::aggregate_over`] probes served so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Flushes and empties the TIA's buffer pool (for cold-cache
    /// measurements).
    pub fn clear_buffer(&self) {
        self.pool.clear();
    }

    fn pack(te: tempora::Timestamp, agg: u64) -> u128 {
        ((te.seconds() as u64 as u128) << 64) | agg as u128
    }

    fn unpack(value: u128) -> (tempora::Timestamp, u64) {
        let te = tempora::Timestamp((value >> 64) as u64 as i64);
        let agg = value as u64;
        (te, agg)
    }

    /// Stores the non-zero aggregate of `epoch` (indexed in `grid`).
    ///
    /// Zero aggregates are skipped — the TIA only keeps non-zero records.
    pub fn insert_epoch(&mut self, grid: &EpochGrid, epoch_index: usize, agg: u64) {
        if agg == 0 {
            return;
        }
        let epoch = grid.epoch(epoch_index);
        self.clock += 1;
        self.tree
            .insert(epoch.start.seconds(), Self::pack(epoch.end, agg), self.clock);
    }

    /// Raises the stored value of `epoch` to at least `agg` (inserting the
    /// record if absent). Returns whether the stored value changed.
    pub fn raise_to(&mut self, grid: &EpochGrid, epoch_index: usize, agg: u64) -> bool {
        if agg == 0 {
            return false;
        }
        let epoch = grid.epoch(epoch_index);
        let key = epoch.start.seconds();
        let current = self
            .tree
            .get(key, self.clock)
            .map(|v| Self::unpack(v).1)
            .unwrap_or(0);
        if agg <= current {
            return false;
        }
        self.clock += 1;
        self.tree
            .insert(key, Self::pack(epoch.end, agg), self.clock);
        true
    }

    /// The stored aggregate of `epoch`, 0 when absent.
    pub fn epoch_value(&self, grid: &EpochGrid, epoch_index: usize) -> u64 {
        let key = grid.epoch(epoch_index).start.seconds();
        self.tree
            .get(key, self.clock)
            .map(|v| Self::unpack(v).1)
            .unwrap_or(0)
    }

    /// The temporal aggregate over `iq`: the sum of records whose epoch
    /// `[ts, te] ⊆ iq` (Section 4.3).
    pub fn aggregate_over(&self, iq: TimeInterval) -> u64 {
        self.probes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Record keys are epoch starts; a record qualifies iff
        // ts >= iq.start and te <= iq.end. Scan the key range and filter on
        // the stored te — grid-independent, so varied-length epochs work.
        self.tree
            .range(iq.start().seconds(), iq.end().seconds(), self.clock)
            .into_iter()
            .filter_map(|(_, v)| {
                let (te, agg) = Self::unpack(v);
                (te <= iq.end()).then_some(agg)
            })
            .sum()
    }

    /// All current records as `⟨ts, te, agg⟩` triples in epoch order.
    pub fn records(&self) -> Vec<EpochRecord> {
        self.tree
            .range(i64::MIN, i64::MAX, self.clock)
            .into_iter()
            .map(|(ts, v)| {
                let (te, agg) = Self::unpack(v);
                EpochRecord {
                    ts: tempora::Timestamp(ts),
                    te,
                    agg,
                }
            })
            .collect()
    }

    /// The current content as a sparse [`AggregateSeries`] under `grid`.
    pub fn to_series(&self, grid: &EpochGrid) -> AggregateSeries {
        AggregateSeries::from_pairs(self.records().into_iter().map(|r| {
            let epoch = grid
                .epoch_of(r.ts)
                .expect("TIA record lies on the grid");
            (epoch.index as u32, r.agg)
        }))
    }

    /// Materialises the TIA's current records as cumulative per-epoch
    /// partial sums under `grid`, in a **single** range scan of the MVBT.
    ///
    /// A batch of queries with overlapping intervals can then answer every
    /// `aggregate_over` from the returned [`tempora::PrefixSums`] in `O(log s)`
    /// without touching the tree again — the disk-side half of the
    /// collective scheme's shared TIA aggregate memoisation.
    pub fn partial_sums(&self, grid: &EpochGrid) -> tempora::PrefixSums {
        self.to_series(grid).prefix_sums()
    }

    /// Loads a whole [`AggregateSeries`] into an empty TIA.
    pub fn load_series(&mut self, grid: &EpochGrid, series: &AggregateSeries) {
        for (epoch, value) in series.iter() {
            self.insert_epoch(grid, epoch as usize, value);
        }
    }

    /// The TIA's current version — the operation-clock value every mutation
    /// advances. Capture it before applying delta-overlay epochs, and the
    /// versioned reads below reproduce the pre-delta state exactly: the
    /// disk-side analogue of `knnta-core`'s live epoch snapshots, carried by
    /// the MVBT's version chain instead of a frozen overlay.
    pub fn version(&self) -> u64 {
        self.clock
    }

    /// [`MvbtTia::epoch_value`] as of `version` (a value previously returned
    /// by [`MvbtTia::version`]). Mutations after that version are invisible.
    pub fn epoch_value_at(&self, grid: &EpochGrid, epoch_index: usize, version: u64) -> u64 {
        let key = grid.epoch(epoch_index).start.seconds();
        self.tree
            .get(key, version)
            .map(|v| Self::unpack(v).1)
            .unwrap_or(0)
    }

    /// [`MvbtTia::aggregate_over`] as of `version`: the Section 4.3 query
    /// against the version chain's historical state.
    pub fn aggregate_over_at(&self, iq: TimeInterval, version: u64) -> u64 {
        self.probes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.tree
            .range(iq.start().seconds(), iq.end().seconds(), version)
            .into_iter()
            .filter_map(|(_, v)| {
                let (te, agg) = Self::unpack(v);
                (te <= iq.end()).then_some(agg)
            })
            .sum()
    }

    /// [`MvbtTia::to_series`] as of `version`.
    pub fn to_series_at(&self, grid: &EpochGrid, version: u64) -> AggregateSeries {
        AggregateSeries::from_pairs(
            self.tree
                .range(i64::MIN, i64::MAX, version)
                .into_iter()
                .map(|(ts, v)| {
                    let epoch = grid
                        .epoch_of(tempora::Timestamp(ts))
                        .expect("TIA record lies on the grid");
                    (epoch.index as u32, Self::unpack(v).1)
                }),
        )
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.tree.live_len(self.clock)
    }

    /// Whether the TIA holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagestore::AccessStats;
    use tempora::Timestamp;

    fn tia() -> (MvbtTia, Arc<Disk>) {
        let disk = Arc::new(Disk::new(1024, AccessStats::new()));
        (MvbtTia::new(Arc::clone(&disk), 10), disk)
    }

    #[test]
    fn paper_example_tia() {
        // POI f from Table 1: 3, 5, 4 over three epochs.
        let grid = EpochGrid::fixed_days(1, 3);
        let (mut tia, _) = tia();
        tia.insert_epoch(&grid, 0, 3);
        tia.insert_epoch(&grid, 1, 5);
        tia.insert_epoch(&grid, 2, 4);
        assert_eq!(tia.aggregate_over(TimeInterval::days(0, 3)), 12);
        assert_eq!(tia.aggregate_over(TimeInterval::days(1, 3)), 9);
        assert_eq!(tia.aggregate_over(TimeInterval::days(0, 1)), 3);
        // Sub-epoch interval contains no full epoch.
        assert_eq!(
            tia.aggregate_over(TimeInterval::new(Timestamp(10), Timestamp(20))),
            0
        );
    }

    #[test]
    fn probe_counter_tracks_aggregate_queries() {
        let grid = EpochGrid::fixed_days(1, 3);
        let (mut tia, _) = tia();
        tia.insert_epoch(&grid, 0, 3);
        assert_eq!(tia.probes(), 0);
        let _ = tia.aggregate_over(TimeInterval::days(0, 3));
        let _ = tia.aggregate_over(TimeInterval::days(1, 3));
        assert_eq!(tia.probes(), 2);
        // Point lookups and mutations are not aggregate probes.
        let _ = tia.epoch_value(&grid, 0);
        tia.insert_epoch(&grid, 1, 5);
        assert_eq!(tia.probes(), 2);
    }

    #[test]
    fn zero_aggregates_are_skipped() {
        let grid = EpochGrid::fixed_days(1, 3);
        let (mut tia, _) = tia();
        tia.insert_epoch(&grid, 0, 0);
        tia.insert_epoch(&grid, 1, 2);
        assert_eq!(tia.len(), 1);
        assert_eq!(tia.epoch_value(&grid, 0), 0);
        assert_eq!(tia.epoch_value(&grid, 1), 2);
    }

    #[test]
    fn raise_to_acts_as_max() {
        let grid = EpochGrid::fixed_days(1, 2);
        let (mut tia, _) = tia();
        assert!(tia.raise_to(&grid, 0, 5));
        assert!(!tia.raise_to(&grid, 0, 3));
        assert!(tia.raise_to(&grid, 0, 9));
        assert!(!tia.raise_to(&grid, 1, 0));
        assert_eq!(tia.epoch_value(&grid, 0), 9);
        assert_eq!(tia.aggregate_over(TimeInterval::days(0, 2)), 9);
    }

    #[test]
    fn series_roundtrip() {
        let grid = EpochGrid::fixed_days(7, 50);
        let series = AggregateSeries::from_pairs((0..50).filter(|e| e % 3 == 0).map(|e| (e, e as u64 + 1)));
        let (mut tia, _) = tia();
        tia.load_series(&grid, &series);
        assert_eq!(tia.to_series(&grid), series);
        assert_eq!(tia.len(), series.len());
        // Aggregate matches the in-memory series on several intervals.
        for (a, b) in [(0, 70), (7, 140), (100, 350), (0, 1)] {
            let iq = TimeInterval::days(a, b);
            assert_eq!(
                tia.aggregate_over(iq),
                series.aggregate_over(&grid, iq),
                "interval {iq}"
            );
        }
    }

    #[test]
    fn records_report_epoch_bounds() {
        let grid = EpochGrid::fixed_days(7, 4);
        let (mut tia, _) = tia();
        tia.insert_epoch(&grid, 2, 11);
        let recs = tia.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ts, Timestamp::from_days(14));
        assert_eq!(recs[0].te, Timestamp::from_days(21));
        assert_eq!(recs[0].agg, 11);
    }

    #[test]
    fn varied_length_epochs_work() {
        // Exponential epochs: 1h, 2h, 4h, 8h.
        let grid = EpochGrid::exponential(Timestamp::HOUR, 4);
        let (mut tia, _) = tia();
        for i in 0..4 {
            tia.insert_epoch(&grid, i, (i + 1) as u64);
        }
        // [0, 3h] fully contains epochs 0 ([0,1h]) and 1 ([1h,3h]).
        let iq = TimeInterval::new(Timestamp(0), Timestamp::from_hours(3));
        assert_eq!(tia.aggregate_over(iq), 3);
        // [1h, 15h] contains epochs 1, 2, 3.
        let iq = TimeInterval::new(Timestamp::from_hours(1), Timestamp::from_hours(15));
        assert_eq!(tia.aggregate_over(iq), 9);
    }

    #[test]
    fn partial_sums_match_aggregate_over() {
        let grid = EpochGrid::fixed_days(7, 40);
        let (mut tia, _) = tia();
        for e in (0..40usize).step_by(3) {
            tia.insert_epoch(&grid, e, (e % 11 + 1) as u64);
        }
        let sums = tia.partial_sums(&grid);
        assert_eq!(sums.total(), tia.aggregate_over(TimeInterval::days(0, 280)));
        for (a, b) in [(0, 280), (7, 140), (8, 141), (100, 101), (35, 210)] {
            let iq = TimeInterval::days(a, b);
            assert_eq!(
                sums.aggregate_over(&grid, iq),
                tia.aggregate_over(iq),
                "interval {iq}"
            );
        }
    }

    #[test]
    fn io_respects_buffer_slots() {
        let stats = AccessStats::new();
        let disk = Arc::new(Disk::new(1024, stats.clone()));
        let mut tia = MvbtTia::new(Arc::clone(&disk), 10);
        let grid = EpochGrid::fixed_days(1, 500);
        for e in 0..500 {
            tia.insert_epoch(&grid, e, (e % 7 + 1) as u64);
        }
        stats.reset();
        let _ = tia.aggregate_over(TimeInterval::days(0, 500));
        let snap = stats.snapshot();
        assert!(snap.buffer_misses > 0, "a large scan must miss the 10-slot buffer");
    }

    #[test]
    fn versioned_reads_freeze_the_pre_delta_state() {
        // The snapshot protocol of the live ingestion tier, on disk: capture
        // the version, apply delta epochs, and the old version still answers
        // exactly as before — for every interleaving of inserts and raises.
        let grid = EpochGrid::fixed_days(1, 6);
        let (mut tia, _) = tia();
        tia.insert_epoch(&grid, 0, 3);
        tia.insert_epoch(&grid, 2, 5);
        let v0 = tia.version();
        let frozen = tia.to_series_at(&grid, v0);

        // Delta overlay: new epochs, raises of existing ones.
        tia.insert_epoch(&grid, 1, 7);
        tia.raise_to(&grid, 2, 9);
        tia.insert_epoch(&grid, 4, 2);

        // Reads at v0 are bit-identical to the frozen copy.
        assert_eq!(tia.to_series_at(&grid, v0), frozen);
        for e in 0..6 {
            assert_eq!(
                tia.epoch_value_at(&grid, e, v0),
                frozen.get(e as u32),
                "epoch {e} at v0"
            );
        }
        for (a, b) in [(0, 6), (0, 1), (1, 3), (2, 5)] {
            let iq = TimeInterval::days(a, b);
            assert_eq!(
                tia.aggregate_over_at(iq, v0),
                frozen.aggregate_over(&grid, iq),
                "interval {iq} at v0"
            );
        }
        // The head sees the deltas.
        assert_eq!(tia.epoch_value(&grid, 1), 7);
        assert_eq!(tia.epoch_value(&grid, 2), 9);
        assert_eq!(tia.aggregate_over(TimeInterval::days(0, 6)), 21);
        assert_eq!(tia.version(), v0 + 3);
    }

    #[test]
    fn many_epochs_aggregate_correctly() {
        let grid = EpochGrid::fixed_days(1, 2000);
        let (mut tia, _) = tia();
        let mut oracle = AggregateSeries::new();
        for e in (0..2000u32).step_by(2) {
            let v = (e % 13 + 1) as u64;
            tia.insert_epoch(&grid, e as usize, v);
            oracle.set(e, v);
        }
        for (a, b) in [(0, 2000), (100, 1900), (500, 501), (1234, 1300)] {
            let iq = TimeInterval::days(a, b);
            assert_eq!(tia.aggregate_over(iq), oracle.aggregate_over(&grid, iq));
        }
    }
}
