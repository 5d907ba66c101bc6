//! The straightforward sequential-scan approach (Section 3.2).

use crate::poi::{KnntaQuery, Poi, QueryHit};
use rtree::Rect;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tempora::{AggregateSeries, EpochGrid, PoiId, TimeInterval};

/// The paper's baseline: keep every POI's per-epoch aggregates in a flat
/// table, and per query (i) sum each POI's epochs inside `Iq`, (ii) compute
/// every ranking score, (iii) select the top-k — `O(m'N + N log m + k log N)`
/// (Section 3.2).
///
/// It shares the TAR-tree's normalisation (diagonal of the data-space
/// bounds; dataset-wide per-epoch max over `Iq`), so its answers are
/// *exactly* comparable with the index answers — the integration tests rely
/// on this as the correctness oracle.
pub struct ScanBaseline {
    grid: EpochGrid,
    bounds: Rect<2>,
    inv_scale: f64,
    pois: Vec<Poi>,
    series: Vec<AggregateSeries>,
    max_series: AggregateSeries,
}

impl ScanBaseline {
    /// Builds the flat table.
    pub fn build(
        grid: EpochGrid,
        bounds: Rect<2>,
        pois: impl IntoIterator<Item = (Poi, AggregateSeries)>,
    ) -> Self {
        let mut ps = Vec::new();
        let mut ss = Vec::new();
        let mut max_series = AggregateSeries::new();
        for (poi, series) in pois {
            max_series.merge_max(&series);
            ps.push(poi);
            ss.push(series);
        }
        let w = bounds.max[0] - bounds.min[0];
        let h = bounds.max[1] - bounds.min[1];
        let diag = (w * w + h * h).sqrt();
        ScanBaseline {
            grid,
            bounds,
            inv_scale: if diag > 0.0 { 1.0 / diag } else { 1.0 },
            pois: ps,
            series: ss,
            max_series,
        }
    }

    /// Number of POIs.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// Adds one POI (the baseline is as dynamic as a flat table can be).
    pub fn push(&mut self, poi: Poi, series: AggregateSeries) {
        self.max_series.merge_max(&series);
        self.pois.push(poi);
        self.series.push(series);
    }

    /// Records the aggregate of a finished epoch for a POI.
    pub fn ingest(&mut self, poi: PoiId, epoch_index: usize, agg: u64) {
        let i = self
            .pois
            .iter()
            .position(|p| p.id == poi)
            .expect("POI exists in the baseline table");
        self.series[i].add(epoch_index as u32, agg);
        self.max_series
            .raise_to(epoch_index as u32, self.series[i].get(epoch_index as u32));
    }

    /// The aggregate normaliser over `iq` (shared with the index).
    pub fn aggregate_normalizer(&self, iq: TimeInterval) -> f64 {
        (self.max_series.aggregate_over(&self.grid, iq) as f64).max(1.0)
    }

    /// The ranking scores of **all** POIs, unsorted (used by MWA tests that
    /// need the complete ranking).
    pub fn score_all(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        let gmax = self.aggregate_normalizer(query.interval);
        // The tree's `QueryCtx::hit` arithmetic, so `distance` agrees to the
        // bit: `s0 * (1 / inv_scale)`, not `s0 / inv_scale`.
        let scale = 1.0 / self.inv_scale;
        let q = [
            (query.point[0] - self.bounds.min[0]) * self.inv_scale,
            (query.point[1] - self.bounds.min[1]) * self.inv_scale,
        ];
        self.pois
            .iter()
            .zip(&self.series)
            .map(|(poi, series)| {
                let p = [
                    (poi.pos[0] - self.bounds.min[0]) * self.inv_scale,
                    (poi.pos[1] - self.bounds.min[1]) * self.inv_scale,
                ];
                let s0 = rtree::dist(&p, &q);
                let aggregate = series.aggregate_over(&self.grid, query.interval);
                let g = (aggregate as f64 / gmax).min(1.0);
                let s1 = 1.0 - g;
                QueryHit {
                    poi: poi.id,
                    score: query.alpha0 * s0 + query.alpha1() * s1,
                    s0,
                    s1,
                    distance: s0 * scale,
                    aggregate,
                }
            })
            .collect()
    }

    /// Answers a kNNTA query by scanning (the paper's baseline).
    pub fn query(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        struct MaxByScore(QueryHit);
        impl PartialEq for MaxByScore {
            fn eq(&self, o: &Self) -> bool {
                self.cmp(o) == Ordering::Equal
            }
        }
        impl Eq for MaxByScore {}
        impl PartialOrd for MaxByScore {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for MaxByScore {
            fn cmp(&self, o: &Self) -> Ordering {
                self.0.ranked_cmp(&o.0)
            }
        }

        if query.k == 0 {
            return Vec::new();
        }
        // Keep the k smallest in a max-heap (the `k log N` part of the
        // paper's complexity).
        let mut heap: BinaryHeap<MaxByScore> = BinaryHeap::with_capacity(query.k + 1);
        for hit in self.score_all(query) {
            heap.push(MaxByScore(hit));
            if heap.len() > query.k {
                heap.pop();
            }
        }
        let mut out: Vec<QueryHit> = heap.into_iter().map(|m| m.0).collect();
        out.sort_by(QueryHit::ranked_cmp);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;

    fn baseline() -> ScanBaseline {
        let (grid, bounds, pois) = paper_example();
        ScanBaseline::build(grid, bounds, pois)
    }

    #[test]
    fn paper_example_top1() {
        let b = baseline();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.3);
        let hits = b.query(&q);
        assert_eq!(hits[0].poi, PoiId(5));
        assert_eq!(hits[0].aggregate, 12);
    }

    #[test]
    fn topk_is_prefix_of_full_ranking() {
        let b = baseline();
        let q = KnntaQuery::new([2.0, 2.0], TimeInterval::days(0, 3))
            .with_k(5)
            .with_alpha0(0.4);
        let top = b.query(&q);
        let mut all = b.score_all(&q);
        all.sort_by(|x, y| x.score.partial_cmp(&y.score).unwrap().then(x.poi.cmp(&y.poi)));
        assert_eq!(top.len(), 5);
        for (t, a) in top.iter().zip(&all) {
            assert_eq!(t.poi, a.poi);
        }
    }

    #[test]
    fn ingest_updates_scores_and_normalizer() {
        let mut b = baseline();
        let before = b.aggregate_normalizer(TimeInterval::days(0, 3));
        assert_eq!(before, 12.0);
        b.ingest(PoiId(0), 2, 50);
        let after = b.aggregate_normalizer(TimeInterval::days(0, 3));
        assert_eq!(after, 3.0 + 5.0 + 50.0);
        let q = KnntaQuery::new([1.0, 9.0], TimeInterval::days(0, 3)).with_k(1);
        assert_eq!(b.query(&q)[0].poi, PoiId(0));
    }

    #[test]
    fn k_zero_and_oversized() {
        let b = baseline();
        let q = KnntaQuery::new([0.0, 0.0], TimeInterval::days(0, 3)).with_k(1);
        assert_eq!(b.query(&q.with_k(100)).len(), 12);
        let mut q0 = q;
        q0.k = 0;
        assert!(b.query(&q0).is_empty());
    }
}
