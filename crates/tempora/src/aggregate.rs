//! Per-epoch aggregates and the sparse series stored in TIAs.

use crate::checkin::CheckIn;
use crate::epoch::EpochGrid;
use crate::time::{TimeInterval, Timestamp};

/// Which temporal aggregate is computed over the check-ins of an epoch.
///
/// The paper focuses on `Count` ("the aggregate that counts the number of
/// check-ins at a POI") and notes the methods "easily extend to other
/// aggregates"; this enum implements that extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregateKind {
    /// Number of check-ins in the epoch.
    #[default]
    Count,
    /// Sum of the check-in attribute values.
    Sum,
    /// Maximum attribute value.
    Max,
    /// Minimum attribute value.
    Min,
    /// `Sum / Count` (integer division; 0 for empty epochs).
    Average,
}

/// One TIA record `⟨ts, te, agg⟩`: the aggregate value `agg` over the epoch
/// `[ts, te]` (Section 4.1 of the paper). Only non-zero aggregates are ever
/// materialised as records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// Epoch start.
    pub ts: Timestamp,
    /// Epoch end (upper boundary of the epoch).
    pub te: Timestamp,
    /// Aggregate value during the epoch (non-zero).
    pub agg: u64,
}

/// A sparse per-epoch aggregate vector: sorted `(epoch index, value)` pairs
/// with only non-zero values stored.
///
/// This is the in-memory form of a TIA's content, and the unit the entry
/// grouping strategies compare (Manhattan distance, Section 5.1) and
/// summarise (`λ̂p`, Section 5.2).
///
/// ```
/// use tempora::{AggregateSeries, EpochGrid, TimeInterval};
///
/// let grid = EpochGrid::fixed_days(7, 4);
/// let series = AggregateSeries::from_pairs([(0, 3), (2, 5)]);
/// // Epochs 0..2 are fully inside [0, 21] days; epoch 3 is not populated.
/// assert_eq!(series.aggregate_over(&grid, TimeInterval::days(0, 21)), 8);
/// assert_eq!(series.total(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggregateSeries {
    /// Sorted by epoch index; values are always non-zero.
    entries: Vec<(u32, u64)>,
}

impl AggregateSeries {
    /// An empty series (all epochs zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a series from `(epoch index, value)` pairs.
    ///
    /// Pairs may arrive unsorted; zero values are dropped; duplicate epoch
    /// indices are summed.
    ///
    /// # Panics
    ///
    /// If the values of one epoch sum past `u64::MAX` (the message names
    /// the epoch).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut entries: Vec<(u32, u64)> = pairs.into_iter().filter(|&(_, v)| v != 0).collect();
        entries.sort_unstable_by_key(|&(e, _)| e);
        entries.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = prev
                    .1
                    .checked_add(next.1)
                    .unwrap_or_else(|| panic!("the values of epoch {} sum past u64::MAX", prev.0));
                true
            } else {
                false
            }
        });
        AggregateSeries { entries }
    }

    /// The value at `epoch` (0 when absent).
    pub fn get(&self, epoch: u32) -> u64 {
        match self.entries.binary_search_by_key(&epoch, |&(e, _)| e) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Sets the value at `epoch` (removing the record if `value == 0`).
    pub fn set(&mut self, epoch: u32, value: u64) {
        match self.entries.binary_search_by_key(&epoch, |&(e, _)| e) {
            Ok(i) => {
                if value == 0 {
                    self.entries.remove(i);
                } else {
                    self.entries[i].1 = value;
                }
            }
            Err(i) => {
                if value != 0 {
                    self.entries.insert(i, (epoch, value));
                }
            }
        }
    }

    /// Adds `delta` to the value at `epoch`.
    pub fn add(&mut self, epoch: u32, delta: u64) {
        if delta == 0 {
            return;
        }
        match self.entries.binary_search_by_key(&epoch, |&(e, _)| e) {
            Ok(i) => self.entries[i].1 += delta,
            Err(i) => self.entries.insert(i, (epoch, delta)),
        }
    }

    /// Raises the value at `epoch` to at least `value` (per-epoch max
    /// maintenance for internal-entry TIAs).
    pub fn raise_to(&mut self, epoch: u32, value: u64) {
        if value == 0 {
            return;
        }
        match self.entries.binary_search_by_key(&epoch, |&(e, _)| e) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.max(value),
            Err(i) => self.entries.insert(i, (epoch, value)),
        }
    }

    /// Number of non-zero epochs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every epoch is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over `(epoch index, value)` pairs in epoch order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of the values over epoch indices in `range`.
    pub fn sum_range(&self, range: std::ops::Range<usize>) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let lo = self
            .entries
            .partition_point(|&(e, _)| (e as usize) < range.start);
        let hi = self
            .entries
            .partition_point(|&(e, _)| (e as usize) < range.end);
        self.entries[lo..hi].iter().map(|&(_, v)| v).sum()
    }

    /// [`AggregateSeries::sum_range`] also reporting how many stored epoch
    /// records the sum scanned (the instrumentation currency of the
    /// observability layer). The sum is computed by the exact same code
    /// path, so it is bit-identical to `sum_range`.
    pub fn sum_range_counted(&self, range: std::ops::Range<usize>) -> (u64, u64) {
        if range.is_empty() {
            return (0, 0);
        }
        let lo = self
            .entries
            .partition_point(|&(e, _)| (e as usize) < range.start);
        let hi = self
            .entries
            .partition_point(|&(e, _)| (e as usize) < range.end);
        (
            self.entries[lo..hi].iter().map(|&(_, v)| v).sum(),
            (hi - lo) as u64,
        )
    }

    /// The temporal aggregate `g(p, Iq)` before normalisation: the sum of the
    /// records whose epoch `[ts, te] ⊆ iq` (Section 4.3).
    pub fn aggregate_over(&self, grid: &EpochGrid, iq: TimeInterval) -> u64 {
        self.sum_range(grid.epochs_within(iq))
    }

    /// [`AggregateSeries::aggregate_over`] also reporting the number of
    /// stored epoch records scanned.
    pub fn aggregate_over_counted(&self, grid: &EpochGrid, iq: TimeInterval) -> (u64, u64) {
        self.sum_range_counted(grid.epochs_within(iq))
    }

    /// Total over all epochs (`Σ vi`).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// [`AggregateSeries::total`], or `None` if it exceeds `u64::MAX`.
    /// On the per-epoch max of a POI set ([`AggregateSeries::max_of`]) this
    /// bounds every TIA prefix sum an index over those POIs computes.
    pub fn checked_total(&self) -> Option<u64> {
        self.entries
            .iter()
            .try_fold(0u64, |sum, &(_, v)| sum.checked_add(v))
    }

    /// `λ̂p = (1/m) Σ vi` — the mean per-epoch aggregate used as the third
    /// grouping dimension (Section 5.2).
    pub fn mean_rate(&self, m: usize) -> f64 {
        if m == 0 {
            0.0
        } else {
            self.total() as f64 / m as f64
        }
    }

    /// Merges `other` into `self`, keeping the per-epoch **max** — how an
    /// internal entry's TIA summarises its child TIAs (Section 4.1).
    ///
    /// When every epoch of `other` is already present — the common case when
    /// a summary grows by one more child — the maxima are raised in place
    /// and nothing is allocated.
    pub fn merge_max(&mut self, other: &AggregateSeries) {
        if other.entries.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            self.entries = other.entries.clone();
            return;
        }
        // Raise maxima in place while every epoch of `other` is present.
        let (mut i, mut j) = (0, 0);
        while let Some(&(e, v)) = other.entries.get(j) {
            while i < self.entries.len() && self.entries[i].0 < e {
                i += 1;
            }
            match self.entries.get_mut(i) {
                Some(slot) if slot.0 == e => {
                    slot.1 = slot.1.max(v);
                    i += 1;
                    j += 1;
                }
                _ => break,
            }
        }
        if j == other.entries.len() {
            return;
        }
        // Epoch `other[j]` is new: merge the rest into a fresh buffer,
        // keeping the prefix already done.
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len() - j);
        merged.extend_from_slice(&self.entries[..i]);
        while i < self.entries.len() && j < other.entries.len() {
            let (ea, va) = self.entries[i];
            let (eb, vb) = other.entries[j];
            match ea.cmp(&eb) {
                std::cmp::Ordering::Less => {
                    merged.push((ea, va));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((eb, vb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ea, va.max(vb)));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.entries = merged;
    }

    /// The per-epoch max of a set of series.
    pub fn max_of<'a>(series: impl IntoIterator<Item = &'a AggregateSeries>) -> AggregateSeries {
        let mut out = AggregateSeries::new();
        for s in series {
            out.merge_max(s);
        }
        out
    }

    /// Manhattan distance `Σ |ai − bi|` between two aggregate distributions
    /// (the similarity measure of the IND-agg grouping strategy,
    /// Section 5.1).
    pub fn manhattan_distance(&self, other: &AggregateSeries) -> u64 {
        let mut dist = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (ea, va) = self.entries[i];
            let (eb, vb) = other.entries[j];
            match ea.cmp(&eb) {
                std::cmp::Ordering::Less => {
                    dist += va;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    dist += vb;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    dist += va.abs_diff(vb);
                    i += 1;
                    j += 1;
                }
            }
        }
        dist += self.entries[i..].iter().map(|&(_, v)| v).sum::<u64>();
        dist += other.entries[j..].iter().map(|&(_, v)| v).sum::<u64>();
        dist
    }

    /// The series as explicit `⟨ts, te, agg⟩` records under `grid`.
    pub fn records(&self, grid: &EpochGrid) -> Vec<EpochRecord> {
        self.entries
            .iter()
            .map(|&(e, v)| {
                let ep = grid.epoch(e as usize);
                EpochRecord {
                    ts: ep.start,
                    te: ep.end,
                    agg: v,
                }
            })
            .collect()
    }
}

impl FromIterator<(u32, u64)> for AggregateSeries {
    fn from_iter<T: IntoIterator<Item = (u32, u64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

/// Cumulative per-epoch partial sums of an [`AggregateSeries`].
///
/// Built once per series ([`AggregateSeries::prefix_sums`]), it answers the
/// temporal aggregate over *any* epoch range in `O(log s)` (two binary
/// searches and a subtraction) instead of the `O(log s + s)` slice sum of
/// [`AggregateSeries::sum_range`] — the substrate of the collective batch
/// scheme's shared TIA aggregate memoisation, where many overlapping query
/// intervals probe the same entry.
///
/// Sums are exact: values are `u64` and the cumulative total of a series
/// cannot overflow in practice (it would require 2⁶⁴ check-ins).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrefixSums {
    /// `(epoch, cumulative sum of all values at epochs ≤ epoch)`, sorted by
    /// epoch; one record per non-zero epoch of the source series.
    entries: Vec<(u32, u64)>,
}

impl PrefixSums {
    /// Cumulative sum over all epochs strictly before `epoch`.
    fn cum_before(&self, epoch: usize) -> u64 {
        let i = self
            .entries
            .partition_point(|&(e, _)| (e as usize) < epoch);
        if i == 0 {
            0
        } else {
            self.entries[i - 1].1
        }
    }

    /// Sum of the source series over epoch indices in `range` — equal to
    /// [`AggregateSeries::sum_range`] on the series this was built from.
    pub fn sum_range(&self, range: std::ops::Range<usize>) -> u64 {
        if range.start >= range.end {
            return 0;
        }
        self.cum_before(range.end) - self.cum_before(range.start)
    }

    /// The temporal aggregate `g(p, Iq)`: sum of the records whose epoch
    /// `[ts, te] ⊆ iq` — equal to [`AggregateSeries::aggregate_over`].
    pub fn aggregate_over(&self, grid: &EpochGrid, iq: TimeInterval) -> u64 {
        self.sum_range(grid.epochs_within(iq))
    }

    /// Total over all epochs.
    pub fn total(&self) -> u64 {
        self.entries.last().map_or(0, |&(_, c)| c)
    }

    /// Number of non-zero epochs in the source series.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the source series was all-zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl AggregateSeries {
    /// The series' cumulative partial sums (see [`PrefixSums`]).
    pub fn prefix_sums(&self) -> PrefixSums {
        let mut cum = 0u64;
        PrefixSums {
            entries: self
                .entries
                .iter()
                .map(|&(e, v)| {
                    cum += v;
                    (e, cum)
                })
                .collect(),
        }
    }
}

/// Aggregates a raw check-in stream into one [`AggregateSeries`] per POI.
///
/// Check-ins outside the grid are ignored. `num_pois` sizes the output; a
/// check-in with `poi.index() >= num_pois` panics (it indicates a corrupt
/// stream).
pub fn aggregate_checkins(
    checkins: &[CheckIn],
    grid: &EpochGrid,
    kind: AggregateKind,
    num_pois: usize,
) -> Vec<AggregateSeries> {
    // Dense (poi, epoch) accumulation would be O(N·m) memory; check-in
    // streams are sparse, so accumulate per-POI sparse maps instead.
    let mut sums: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_pois];
    let mut counts: Vec<Vec<(u32, u64)>> = if kind == AggregateKind::Average {
        vec![Vec::new(); num_pois]
    } else {
        Vec::new()
    };

    let bump = |acc: &mut Vec<(u32, u64)>, epoch: u32, v: u64, kind: AggregateKind| match acc
        .binary_search_by_key(&epoch, |&(e, _)| e)
    {
        Ok(i) => {
            let cur = &mut acc[i].1;
            match kind {
                AggregateKind::Count | AggregateKind::Sum | AggregateKind::Average => *cur += v,
                AggregateKind::Max => *cur = (*cur).max(v),
                AggregateKind::Min => *cur = (*cur).min(v),
            }
        }
        Err(i) => acc.insert(i, (epoch, v)),
    };

    for c in checkins {
        let Some(epoch) = grid.epoch_of(c.time) else {
            continue;
        };
        let e = epoch.index as u32;
        let idx = c.poi.index();
        assert!(idx < num_pois, "check-in references POI {idx} >= {num_pois}");
        let v = match kind {
            AggregateKind::Count => 1,
            _ => c.value as u64,
        };
        bump(&mut sums[idx], e, v, kind);
        if kind == AggregateKind::Average {
            bump(&mut counts[idx], e, 1, AggregateKind::Count);
        }
    }

    sums.into_iter()
        .enumerate()
        .map(|(p, s)| {
            if kind == AggregateKind::Average {
                AggregateSeries::from_pairs(s.into_iter().zip(counts[p].iter()).map(
                    |((e, sum), &(ec, count))| {
                        debug_assert_eq!(e, ec);
                        (e, sum.checked_div(count).unwrap_or(0))
                    },
                ))
            } else {
                AggregateSeries::from_pairs(s)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::PoiId;

    fn series(pairs: &[(u32, u64)]) -> AggregateSeries {
        AggregateSeries::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn from_pairs_sorts_dedups_drops_zeros() {
        let s = AggregateSeries::from_pairs([(3, 2), (1, 5), (3, 1), (4, 0)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(1, 5), (3, 3)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "epoch 7 sum past u64::MAX")]
    fn from_pairs_panics_when_an_epoch_overflows() {
        AggregateSeries::from_pairs([(7, u64::MAX), (7, 2)]);
    }

    #[test]
    fn checked_total_reports_overflow() {
        assert_eq!(series(&[(0, 3), (5, 4)]).checked_total(), Some(7));
        assert_eq!(series(&[(0, 1 << 63), (1, 1 << 63)]).checked_total(), None);
    }

    #[test]
    fn get_set_add() {
        let mut s = series(&[(1, 5)]);
        assert_eq!(s.get(1), 5);
        assert_eq!(s.get(2), 0);
        s.add(2, 3);
        s.add(1, 1);
        assert_eq!(s.get(1), 6);
        assert_eq!(s.get(2), 3);
        s.set(1, 0);
        assert_eq!(s.get(1), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn raise_to_is_max() {
        let mut s = series(&[(1, 5)]);
        s.raise_to(1, 3);
        assert_eq!(s.get(1), 5);
        s.raise_to(1, 9);
        assert_eq!(s.get(1), 9);
        s.raise_to(4, 2);
        assert_eq!(s.get(4), 2);
        s.raise_to(5, 0);
        assert_eq!(s.get(5), 0);
    }

    #[test]
    fn sum_range_and_total() {
        let s = series(&[(0, 1), (2, 2), (5, 4), (9, 8)]);
        assert_eq!(s.total(), 15);
        assert_eq!(s.sum_range(0..3), 3);
        assert_eq!(s.sum_range(2..6), 6);
        assert_eq!(s.sum_range(6..9), 0);
        assert_eq!(s.sum_range(3..3), 0);
    }

    #[test]
    fn counted_variants_match_uncounted() {
        let grid = EpochGrid::fixed_days(7, 10);
        let s = series(&[(0, 1), (2, 2), (5, 4), (9, 8)]);
        for range in [0..3, 2..6, 6..9, 3..3, 0..10] {
            let (sum, n) = s.sum_range_counted(range.clone());
            assert_eq!(sum, s.sum_range(range.clone()));
            let expect = s
                .iter()
                .filter(|&(e, _)| range.contains(&(e as usize)))
                .count() as u64;
            assert_eq!(n, expect, "range {range:?}");
        }
        let iq = TimeInterval::days(0, 70);
        let (sum, n) = s.aggregate_over_counted(&grid, iq);
        assert_eq!(sum, s.aggregate_over(&grid, iq));
        assert_eq!(n, 4);
    }

    #[test]
    fn aggregate_over_uses_containment() {
        let grid = EpochGrid::fixed_days(7, 5); // epochs [0,7),[7,14),[14,21),[21,28),[28,35)
        let s = series(&[(0, 1), (1, 2), (2, 4), (3, 8), (4, 16)]);
        // [7, 28] fully contains epochs 1,2,3.
        assert_eq!(s.aggregate_over(&grid, TimeInterval::days(7, 28)), 14);
        // [8, 28] excludes epoch 1 (not fully contained).
        assert_eq!(s.aggregate_over(&grid, TimeInterval::days(8, 28)), 12);
        // Entire axis.
        assert_eq!(s.aggregate_over(&grid, TimeInterval::days(0, 35)), 31);
    }

    #[test]
    fn paper_example_aggregates() {
        // Table 1 of the paper: POI f has 3, 5, 4 over three epochs; its
        // aggregate over [t0, tc] is 12.
        let grid = EpochGrid::fixed_days(1, 3);
        let f = series(&[(0, 3), (1, 5), (2, 4)]);
        assert_eq!(f.aggregate_over(&grid, TimeInterval::days(0, 3)), 12);
        // POI e: 1, 1, 0 → aggregate 2.
        let e = series(&[(0, 1), (1, 1)]);
        assert_eq!(e.aggregate_over(&grid, TimeInterval::days(0, 3)), 2);
    }

    #[test]
    fn merge_max_matches_paper_example() {
        // Section 4.1: children {⟨t0,t1,2⟩,⟨t1,t2,2⟩,⟨t2,*,2⟩} and
        // {⟨t0,t1,2⟩,⟨t1,t2,3⟩,⟨t2,*,1⟩} merge to {2, 3, 2}.
        let mut a = series(&[(0, 2), (1, 2), (2, 2)]);
        let b = series(&[(0, 2), (1, 3), (2, 1)]);
        a.merge_max(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 2), (1, 3), (2, 2)]);
    }

    #[test]
    fn merge_max_in_place_or_merging_is_the_pointwise_max() {
        type Pairs = &'static [(u32, u64)];
        let cases: [(Pairs, Pairs); 5] = [
            // Every epoch present: raised in place.
            (&[(0, 2), (3, 5), (7, 1)], &[(3, 9), (7, 1)]),
            // A prefix in place, then a new epoch.
            (&[(0, 2), (3, 5), (7, 1)], &[(0, 4), (3, 1), (9, 6)]),
            (&[(2, 1)], &[(0, 3), (2, 5)]),
            (&[(0, 1), (5, 1)], &[(2, 2), (5, 7), (6, 1)]),
            (&[(4, 4)], &[(4, 3)]),
        ];
        for (a, b) in cases {
            let (sa, sb) = (series(a), series(b));
            let mut got = sa.clone();
            got.merge_max(&sb);
            let want = AggregateSeries::from_pairs(
                a.iter()
                    .chain(b)
                    .map(|&(e, _)| (e, sa.get(e).max(sb.get(e))))
                    .collect::<std::collections::BTreeMap<_, _>>(),
            );
            assert_eq!(got, want, "{a:?} max {b:?}");
        }
    }

    #[test]
    fn merge_max_disjoint_epochs() {
        let mut a = series(&[(0, 1), (4, 3)]);
        let b = series(&[(2, 7)]);
        a.merge_max(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 1), (2, 7), (4, 3)]);
    }

    #[test]
    fn max_of_many() {
        let m = AggregateSeries::max_of([
            &series(&[(0, 1), (1, 5)]),
            &series(&[(0, 3)]),
            &series(&[(2, 2)]),
        ]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 3), (1, 5), (2, 2)]);
    }

    #[test]
    fn manhattan_matches_paper_example() {
        // Section 5.1 example (Table 1): dist(c, g) = 0+1+1 = 2 and
        // dist(c, l) = 1+2+1 = 4.
        let c = series(&[(0, 2), (1, 2), (2, 2)]);
        let g = series(&[(0, 2), (1, 3), (2, 1)]);
        let l = series(&[(0, 1), (2, 1)]);
        assert_eq!(c.manhattan_distance(&g), 2);
        assert_eq!(c.manhattan_distance(&l), 4);
        assert_eq!(g.manhattan_distance(&c), 2);
        assert_eq!(c.manhattan_distance(&c), 0);
    }

    #[test]
    fn mean_rate() {
        let s = series(&[(0, 3), (1, 5), (2, 4)]);
        assert!((s.mean_rate(3) - 4.0).abs() < 1e-12);
        assert_eq!(series(&[]).mean_rate(0), 0.0);
    }

    #[test]
    fn records_roundtrip() {
        let grid = EpochGrid::fixed_days(7, 3);
        let s = series(&[(0, 3), (2, 4)]);
        let recs = s.records(&grid);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, Timestamp::ZERO);
        assert_eq!(recs[0].te, Timestamp::from_days(7));
        assert_eq!(recs[0].agg, 3);
        assert_eq!(recs[1].ts, Timestamp::from_days(14));
        assert_eq!(recs[1].agg, 4);
    }

    #[test]
    fn aggregate_checkins_count() {
        let grid = EpochGrid::fixed_days(1, 3);
        let cs = vec![
            CheckIn::at(PoiId(0), Timestamp::from_hours(1)),
            CheckIn::at(PoiId(0), Timestamp::from_hours(2)),
            CheckIn::at(PoiId(1), Timestamp::from_days(1)),
            CheckIn::at(PoiId(0), Timestamp::from_days(2)),
            // outside the grid: dropped
            CheckIn::at(PoiId(1), Timestamp::from_days(5)),
        ];
        let agg = aggregate_checkins(&cs, &grid, AggregateKind::Count, 2);
        assert_eq!(agg[0].iter().collect::<Vec<_>>(), vec![(0, 2), (2, 1)]);
        assert_eq!(agg[1].iter().collect::<Vec<_>>(), vec![(1, 1)]);
    }

    #[test]
    fn aggregate_checkins_sum_max_min_avg() {
        let grid = EpochGrid::fixed_days(1, 2);
        let cs = vec![
            CheckIn::with_value(PoiId(0), Timestamp::from_hours(1), 4),
            CheckIn::with_value(PoiId(0), Timestamp::from_hours(2), 10),
            CheckIn::with_value(PoiId(0), Timestamp::from_days(1), 6),
        ];
        let sum = aggregate_checkins(&cs, &grid, AggregateKind::Sum, 1);
        assert_eq!(sum[0].get(0), 14);
        assert_eq!(sum[0].get(1), 6);
        let max = aggregate_checkins(&cs, &grid, AggregateKind::Max, 1);
        assert_eq!(max[0].get(0), 10);
        let min = aggregate_checkins(&cs, &grid, AggregateKind::Min, 1);
        assert_eq!(min[0].get(0), 4);
        let avg = aggregate_checkins(&cs, &grid, AggregateKind::Average, 1);
        assert_eq!(avg[0].get(0), 7);
        assert_eq!(avg[0].get(1), 6);
    }

    #[test]
    fn prefix_sums_match_sum_range() {
        let s = series(&[(0, 1), (2, 2), (5, 4), (9, 8)]);
        let p = s.prefix_sums();
        assert_eq!(p.total(), 15);
        assert_eq!(p.len(), 4);
        for lo in 0..12 {
            for hi in 0..12 {
                assert_eq!(p.sum_range(lo..hi), s.sum_range(lo..hi), "{lo}..{hi}");
            }
        }
        let empty = AggregateSeries::new().prefix_sums();
        assert!(empty.is_empty());
        assert_eq!(empty.sum_range(0..100), 0);
    }

    #[test]
    fn prefix_sums_aggregate_over_matches_series() {
        let grid = EpochGrid::fixed_days(7, 10);
        let s = series(&[(0, 3), (3, 1), (4, 7), (9, 2)]);
        let p = s.prefix_sums();
        for (a, b) in [(0, 70), (7, 28), (8, 28), (21, 35), (63, 200), (5, 6)] {
            let iq = TimeInterval::days(a, b);
            assert_eq!(p.aggregate_over(&grid, iq), s.aggregate_over(&grid, iq));
        }
    }

    #[test]
    fn manhattan_symmetry_smoke() {
        let a = series(&[(0, 4), (3, 1), (7, 9)]);
        let b = series(&[(1, 2), (3, 5)]);
        assert_eq!(a.manhattan_distance(&b), b.manhattan_distance(&a));
        // triangle inequality against a third
        let c = series(&[(0, 1)]);
        assert!(a.manhattan_distance(&b) <= a.manhattan_distance(&c) + c.manhattan_distance(&b));
    }
}
