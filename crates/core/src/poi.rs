//! POIs, queries and query results.

use tempora::{PoiId, TimeInterval};

/// A point of interest: an identifier and a raw (untransformed) position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poi {
    /// Dense POI identifier.
    pub id: PoiId,
    /// Raw position in data-space coordinates.
    pub pos: [f64; 2],
}

impl Poi {
    /// Convenience constructor.
    pub fn new(id: u32, x: f64, y: f64) -> Self {
        Poi {
            id: PoiId(id),
            pos: [x, y],
        }
    }
}

/// A k-nearest-neighbor temporal aggregate query (Definition 1 of the
/// paper): the top-`k` POIs minimising
/// `f(p) = α0·d(p,q) + α1·(1 − g(p, Iq))` with `α1 = 1 − α0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnntaQuery {
    /// The query point, in raw data-space coordinates.
    pub point: [f64; 2],
    /// The query time interval `Iq`.
    pub interval: TimeInterval,
    /// Number of POIs to return.
    pub k: usize,
    /// Weight of the spatial distance, `0 < α0 < 1`.
    pub alpha0: f64,
}

impl KnntaQuery {
    /// A query with the paper's default parameters (`k = 10`, `α0 = 0.3`).
    pub fn new(point: [f64; 2], interval: TimeInterval) -> Self {
        KnntaQuery {
            point,
            interval,
            k: 10,
            alpha0: 0.3,
        }
    }

    /// Sets `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets `α0` (and hence `α1 = 1 − α0`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < α0 < 1` (the paper requires both weights
    /// positive).
    pub fn with_alpha0(mut self, alpha0: f64) -> Self {
        assert!(
            alpha0 > 0.0 && alpha0 < 1.0,
            "alpha0 must lie strictly between 0 and 1, got {alpha0}"
        );
        self.alpha0 = alpha0;
        self
    }

    /// The aggregate weight `α1 = 1 − α0`.
    pub fn alpha1(&self) -> f64 {
        1.0 - self.alpha0
    }
}

/// One ranked POI in a query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit {
    /// The POI.
    pub poi: PoiId,
    /// The ranking score `f(p)` (smaller is better).
    pub score: f64,
    /// `s0 = d(p, q)`: the normalised spatial distance in `[0, 1]`.
    pub s0: f64,
    /// `s1 = 1 − g(p, Iq)`: one minus the normalised aggregate, in `[0, 1]`.
    pub s1: f64,
    /// The raw (unnormalised) Euclidean distance to the query point.
    pub distance: f64,
    /// The raw (unnormalised) temporal aggregate over `Iq`.
    pub aggregate: u64,
}

impl QueryHit {
    /// The total result order every query path agrees on: ascending score,
    /// ties broken by ascending [`PoiId`]. Using [`f64::total_cmp`] makes the
    /// order total (scores are finite and non-negative, so its -0.0/NaN
    /// quirks never surface), which is what lets the sequential, collective
    /// and scan-baseline paths return bit-identical rankings.
    pub fn ranked_cmp(&self, other: &QueryHit) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.poi.cmp(&other.poi))
    }

    /// Whether this hit dominates `other` in `(s0, s1)` space: at least as
    /// good on both criteria and strictly better on one.
    pub fn dominates(&self, other: &QueryHit) -> bool {
        self.s0 <= other.s0 && self.s1 <= other.s1 && (self.s0 < other.s0 || self.s1 < other.s1)
    }

    /// Recomputes the ranking score under a different weight.
    pub fn score_at(&self, alpha0: f64) -> f64 {
        alpha0 * self.s0 + (1.0 - alpha0) * self.s1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora::TimeInterval;

    #[test]
    fn query_builder_defaults() {
        let q = KnntaQuery::new([1.0, 2.0], TimeInterval::days(0, 7));
        assert_eq!(q.k, 10);
        assert!((q.alpha0 - 0.3).abs() < 1e-12);
        assert!((q.alpha1() - 0.7).abs() < 1e-12);
        let q = q.with_k(5).with_alpha0(0.6);
        assert_eq!(q.k, 5);
        assert!((q.alpha1() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn rejects_degenerate_weights() {
        let _ = KnntaQuery::new([0.0, 0.0], TimeInterval::days(0, 1)).with_alpha0(1.0);
    }

    #[test]
    fn dominance() {
        let mk = |s0: f64, s1: f64| QueryHit {
            poi: PoiId(0),
            score: 0.0,
            s0,
            s1,
            distance: 0.0,
            aggregate: 0,
        };
        assert!(mk(0.1, 0.1).dominates(&mk(0.2, 0.2)));
        assert!(mk(0.1, 0.2).dominates(&mk(0.1, 0.3)));
        assert!(!mk(0.1, 0.3).dominates(&mk(0.2, 0.2)));
        assert!(!mk(0.1, 0.1).dominates(&mk(0.1, 0.1)), "equal points do not dominate");
    }

    #[test]
    fn ranked_cmp_orders_by_score_then_poi() {
        let mk = |id: u32, score: f64| QueryHit {
            poi: PoiId(id),
            score,
            s0: 0.0,
            s1: 0.0,
            distance: 0.0,
            aggregate: 0,
        };
        use std::cmp::Ordering;
        assert_eq!(mk(1, 0.2).ranked_cmp(&mk(0, 0.3)), Ordering::Less);
        assert_eq!(mk(7, 0.5).ranked_cmp(&mk(3, 0.5)), Ordering::Greater);
        assert_eq!(mk(3, 0.5).ranked_cmp(&mk(3, 0.5)), Ordering::Equal);
    }

    #[test]
    fn score_at_reweights() {
        let h = QueryHit {
            poi: PoiId(1),
            score: 0.0,
            s0: 0.2,
            s1: 0.6,
            distance: 0.0,
            aggregate: 0,
        };
        assert!((h.score_at(0.5) - 0.4).abs() < 1e-12);
        assert!((h.score_at(1.0) - 0.2).abs() < 1e-12);
    }
}
