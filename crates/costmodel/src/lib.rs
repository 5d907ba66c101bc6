//! Executable cost model for kNNTA query processing on the TAR-tree
//! (Section 6 of the paper).
//!
//! The model estimates, from the power-law distribution of the aggregate
//! data, (i) the ranking score `f(pk)` of the k-th result — which determines
//! the cone-shaped search region in the normalised 3-D unit cube — and
//! (ii) the expected number of leaf node accesses, by carving the cube into
//! *bands* of nodes whose extents follow the power law and intersecting each
//! band with the search region via Minkowski sums with boundary-effect
//! corrections.
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. **Layers** (Section 6.2): POIs sit on countably many layers, one per
//!    aggregate value `x`, at height `h_x = 1 − x / x_max`; the expected
//!    population of layer `x` is `N(x) = N · x^{-β} / ζ(β, Ω)`.
//! 2. **Search region**: a cone with base radius `r0 = f(pk)/α0` and height
//!    `h_l = f(pk)/α1`; the cross-section at layer `x` has radius
//!    `r_x = (h_l − h_x)/h_l · r0`. `f(pk)` solves
//!    `k = Σ_x N(x) · E[S_{D(q,r_x) ∩ U_x}]` with the boundary-effect
//!    correction `E[S] = (√π·r − π r²/4)²` (capped at 1).
//! 3. **Node accesses** (Section 6.3): bands are built top-down; a band
//!    closes at layer `y` when the R-tree node extent
//!    `S_y = (1 − 1/f)·min(f/ΣN, 1)^{1/2}` matches the accumulated height
//!    `Δh`; the access probability uses the Minkowski sum
//!    `L_y = (S_y² + 4·S_y·r_y + π·r_y²)^{1/2}` with the boundary-effect
//!    correction of Tao et al.
//!
//! The same code doubles as the query-optimiser cost model the paper
//! mentions.

#![warn(missing_docs)]

use lbsn::hurwitz_zeta;

/// Effective fanout: "the average number of entries in a node … typically
/// equals 69% of the node capacity" (Theodoridis & Sellis, cited in
/// Section 6.3).
pub fn effective_fanout(node_capacity: usize) -> f64 {
    0.69 * node_capacity as f64
}

/// The Section 6 cost model for one query configuration.
///
/// ```
/// use costmodel::{effective_fanout, CostModel};
///
/// let model = CostModel {
///     n: 25_000.0,
///     beta: 2.8,
///     omega: 10,
///     xmax: 2_000,
///     alpha0: 0.3,
///     k: 10,
///     fanout: effective_fanout(36),
///     support_area: 1.0,
/// };
/// let est = model.estimate();
/// assert!(est.fpk > 0.0 && est.fpk < 1.0);
/// assert!(est.node_accesses > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Number of indexed POIs `N`.
    pub n: f64,
    /// Power-law exponent `β` of the aggregate distribution over the query
    /// interval.
    pub beta: f64,
    /// Minimum aggregate value `Ω` (the lowest populated layer).
    pub omega: u64,
    /// Maximum aggregate value (defines the height normalisation of the
    /// aggregate dimension).
    pub xmax: u64,
    /// Spatial weight `α0`.
    pub alpha0: f64,
    /// Result size `k`.
    pub k: usize,
    /// Effective leaf fanout `f`.
    pub fanout: f64,
    /// Fraction of the unit square actually occupied by data (1.0 = the
    /// paper's uniformity assumption). LBSN data is heavily clustered —
    /// cities cover a few percent of the bounding box — and both POIs *and*
    /// query points live inside the clusters, so densities, node extents
    /// and access probabilities all concentrate on this support. Estimate
    /// it with [`estimate_support_area`].
    pub support_area: f64,
}

/// The model's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated k-th result score `f(pk)`.
    pub fpk: f64,
    /// Estimated number of leaf node accesses `NA(α, k)`.
    pub node_accesses: f64,
}

/// One band of the node-access estimation (exposed for tests and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// First (topmost) layer of the band.
    pub x_top: u64,
    /// Last (bottom) layer of the band.
    pub x_bottom: u64,
    /// Expected POIs in the band.
    pub pois: f64,
    /// Node extent `S_y`.
    pub extent: f64,
    /// Access probability `P_y`.
    pub probability: f64,
}

impl CostModel {
    /// Builds a model directly from the observed per-POI aggregates over a
    /// query interval: `N` = sample size, `Ω` = smallest non-zero
    /// aggregate, `x_max` = largest, `β` = discrete MLE over `x ≥ Ω`.
    ///
    /// Returns `None` when fewer than 10 POIs have a non-zero aggregate
    /// (no meaningful layer structure).
    pub fn from_aggregates(
        aggregates: &[u64],
        alpha0: f64,
        k: usize,
        fanout: f64,
    ) -> Option<CostModel> {
        let nonzero: Vec<u64> = aggregates.iter().copied().filter(|&x| x > 0).collect();
        if nonzero.len() < 10 {
            return None;
        }
        let omega = *nonzero.iter().min().expect("non-empty");
        let xmax = *nonzero.iter().max().expect("non-empty");
        if omega == xmax {
            return None; // a single layer has no power-law structure
        }
        let beta = lbsn::powerlaw::fit_beta(&nonzero, omega);
        Some(CostModel {
            n: nonzero.len() as f64,
            beta,
            omega,
            xmax,
            alpha0,
            k,
            fanout,
            support_area: 1.0,
        })
    }

    /// Returns the model with a clustering-aware support area (see
    /// [`CostModel::support_area`]).
    pub fn with_support_area(mut self, area: f64) -> CostModel {
        assert!(area > 0.0 && area <= 1.0, "support area in (0, 1]");
        self.support_area = area;
        self
    }

    /// The aggregate weight `α1 = 1 − α0`.
    pub fn alpha1(&self) -> f64 {
        1.0 - self.alpha0
    }

    /// Height of layer `x` in the unit cube: `h_x = 1 − x / x_max`.
    pub fn layer_height(&self, x: u64) -> f64 {
        1.0 - x as f64 / self.xmax as f64
    }

    /// Expected POIs on layer `x`: `N(x) = N · p(x)` with the discrete
    /// power law renormalised over `x ≥ Ω`.
    pub fn layer_population(&self, x: u64) -> f64 {
        if x < self.omega {
            return 0.0;
        }
        self.n * (x as f64).powf(-self.beta) / hurwitz_zeta(self.beta, self.omega as f64)
    }

    /// Cross-section radius of the search cone at height `h` (0 above the
    /// cone).
    fn cross_radius(&self, fpk: f64, h: f64) -> f64 {
        let r0 = fpk / self.alpha0;
        let hl = fpk / self.alpha1();
        if h >= hl {
            0.0
        } else {
            (hl - h) / hl * r0
        }
    }

    /// Boundary-effect-corrected expected area of a disk of radius `r`
    /// intersected with the unit square (Tao et al., cited in Section 6.2):
    /// `(√π·r − π·r²/4)²` while `√π·r < 2`, else 1.
    pub fn disk_area_in_unit_square(r: f64) -> f64 {
        let s = std::f64::consts::PI.sqrt() * r;
        if s < 2.0 {
            let v = s - std::f64::consts::PI * r * r / 4.0;
            (v * v).min(1.0)
        } else {
            1.0
        }
    }

    /// Expected number of POIs inside the search region for a candidate
    /// `f(pk)`.
    pub fn expected_in_region(&self, fpk: f64) -> f64 {
        let mut total = 0.0;
        for x in self.omega..=self.xmax {
            let r = self.cross_radius(fpk, self.layer_height(x));
            if r > 0.0 {
                // Work in support units: condense the occupied area into a
                // unit square (the paper's uniformity assumption is the
                // special case support_area = 1).
                let r = r / self.support_area.sqrt();
                total += self.layer_population(x) * Self::disk_area_in_unit_square(r);
            }
        }
        total
    }

    /// Estimates `f(pk)` by solving `k = Σ_x N(x)·E[S]` (the expected count
    /// is monotone in `f(pk)`, so bisection converges).
    pub fn estimate_fpk(&self) -> f64 {
        let target = self.k as f64;
        // Scores live in [0, α0·√2 + α1]; bisect there.
        let (mut lo, mut hi) = (0.0f64, self.alpha0 * std::f64::consts::SQRT_2 + self.alpha1());
        if self.expected_in_region(hi) < target {
            return hi; // k exceeds the population: the region is everything
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.expected_in_region(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The R-tree node extent over a span of layers holding `pois` POIs:
    /// `S = (1 − 1/f) · min(f / pois, 1)^{1/2}` (Böhm's model, Section 6.3).
    fn node_extent(&self, pois: f64) -> f64 {
        let occupancy = if pois > 0.0 {
            (self.fanout / pois).min(1.0)
        } else {
            1.0
        };
        ((1.0 - 1.0 / self.fanout) * occupancy.sqrt()).min(0.999)
    }

    /// Minkowski sum of a node of extent `s` and the cross-section disk of
    /// radius `r`, as an equivalent square side:
    /// `L = (Σ_i C(2,i)·s^{2−i}·(√π^i/Γ(i/2+1))·r^i)^{1/2}
    ///    = (s² + 4sr + πr²)^{1/2}`.
    pub fn minkowski_side(s: f64, r: f64) -> f64 {
        (s * s + 4.0 * s * r + std::f64::consts::PI * r * r).sqrt()
    }

    /// Boundary-corrected probability that a node of extent `s` intersects
    /// the cross-section of radius `r`:
    /// `P = ((4L − (L+s)²) / (4(1−s)))²` while `L + s < 2`, else 1.
    pub fn access_probability(s: f64, r: f64) -> f64 {
        let l = Self::minkowski_side(s, r);
        if l + s < 2.0 {
            let v = (4.0 * l - (l + s) * (l + s)) / (4.0 * (1.0 - s));
            (v * v).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Carves the layers into bands (Section 6.3): a band closes at the
    /// first layer `y` where the node extent no longer exceeds the
    /// accumulated height `h_x − h_y`.
    pub fn bands(&self, fpk: f64) -> Vec<Band> {
        let hl = fpk / self.alpha1();
        let mut bands = Vec::new();
        let mut x = self.omega;
        while x <= self.xmax {
            let h_top = self.layer_height(x);
            let mut pois = 0.0;
            let mut y = x;
            let sqrt_a = self.support_area.sqrt();
            let (extent, bottom) = loop {
                pois += self.layer_population(y);
                let dh = h_top - self.layer_height(y);
                // node_extent is in support units; its physical (true-unit)
                // side is scaled by √A when compared with the height.
                let s = self.node_extent(pois);
                if s * sqrt_a <= dh || y == self.xmax {
                    break (s, y);
                }
                y += 1;
            };
            let h_bottom = self.layer_height(bottom);
            // Nodes lying entirely above the cone are never accessed.
            let probability = if h_bottom >= hl {
                0.0
            } else {
                let r = self.cross_radius(fpk, h_bottom) / sqrt_a;
                Self::access_probability(extent, r)
            };
            bands.push(Band {
                x_top: x,
                x_bottom: bottom,
                pois,
                extent,
                probability,
            });
            x = bottom + 1;
        }
        bands
    }

    /// Expected leaf node accesses for a given `f(pk)`:
    /// `NA = Σ_bands (ΣN / f) · P_y`.
    pub fn estimate_node_accesses(&self, fpk: f64) -> f64 {
        self.bands(fpk)
            .iter()
            .map(|b| (b.pois / self.fanout) * b.probability)
            .sum()
    }

    /// Runs the full pipeline.
    pub fn estimate(&self) -> CostEstimate {
        let fpk = self.estimate_fpk();
        CostEstimate {
            fpk,
            node_accesses: self.estimate_node_accesses(fpk),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            n: 10_000.0,
            beta: 2.5,
            omega: 10,
            xmax: 5_000,
            alpha0: 0.3,
            k: 10,
            fanout: effective_fanout(36),
            support_area: 1.0,
        }
    }

    #[test]
    fn effective_fanout_is_69_percent() {
        assert!((effective_fanout(50) - 34.5).abs() < 1e-12);
        assert!((effective_fanout(36) - 24.84).abs() < 1e-12);
    }

    #[test]
    fn layer_geometry() {
        let m = model();
        assert_eq!(m.layer_height(m.xmax), 0.0);
        assert!((m.layer_height(0) - 1.0).abs() < 1e-12);
        // Paper example: aggregate 2 of max 12 → height 1 − 2/12 ≈ 0.83.
        let m2 = CostModel { xmax: 12, ..m };
        assert!((m2.layer_height(2) - (1.0 - 2.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn layer_population_is_power_law() {
        let m = model();
        assert_eq!(m.layer_population(5), 0.0);
        let p10 = m.layer_population(10);
        let p20 = m.layer_population(20);
        // Ratio = (10/20)^-β = 2^-2.5.
        assert!((p20 / p10 - 2f64.powf(-2.5)).abs() < 1e-9);
        // Total population ≈ N.
        let total: f64 = (10..=100_000).map(|x| m.layer_population(x)).sum();
        assert!((total - m.n).abs() / m.n < 0.01, "total {total}");
    }

    #[test]
    fn disk_area_limits() {
        assert_eq!(CostModel::disk_area_in_unit_square(0.0), 0.0);
        // Small r: ≈ π r² (the plain disk area).
        let r = 0.01;
        let a = CostModel::disk_area_in_unit_square(r);
        assert!((a - std::f64::consts::PI * r * r).abs() < 1e-5);
        // Huge r: everything.
        assert_eq!(CostModel::disk_area_in_unit_square(5.0), 1.0);
        // Monotone in r.
        let mut prev = 0.0;
        for i in 1..100 {
            let a = CostModel::disk_area_in_unit_square(i as f64 * 0.02);
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn minkowski_side_matches_closed_form() {
        let (s, r) = (0.2, 0.1);
        let expect = (0.04 + 4.0 * 0.02 + std::f64::consts::PI * 0.01).sqrt();
        assert!((CostModel::minkowski_side(s, r) - expect).abs() < 1e-12);
        // r = 0 degenerates to the square itself.
        assert!((CostModel::minkowski_side(0.3, 0.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn access_probability_limits() {
        // r = 0: probability a point query hits the node ≈ s².
        let p = CostModel::access_probability(0.3, 0.0);
        assert!((p - 0.09).abs() < 1e-9, "p = {p}");
        // Huge node or region: certain access.
        assert_eq!(CostModel::access_probability(0.999, 1.5), 1.0);
        // Monotone in r.
        let mut prev = 0.0;
        for i in 0..50 {
            let p = CostModel::access_probability(0.1, i as f64 * 0.02);
            assert!(p >= prev - 1e-12, "at r = {}", i as f64 * 0.02);
            prev = p;
        }
    }

    #[test]
    fn expected_in_region_monotone_in_fpk() {
        let m = model();
        let mut prev = 0.0;
        for i in 1..20 {
            let fpk = i as f64 * 0.05;
            let e = m.expected_in_region(fpk);
            assert!(e >= prev, "fpk = {fpk}");
            prev = e;
        }
    }

    #[test]
    fn fpk_grows_with_k() {
        let m = model();
        let mut prev = 0.0;
        for k in [1, 5, 10, 50, 100] {
            let fpk = CostModel { k, ..m }.estimate_fpk();
            assert!(fpk > prev, "k = {k}: {fpk} > {prev}");
            assert!(fpk < 1.5);
            prev = fpk;
        }
    }

    #[test]
    fn fpk_solves_the_balance_equation() {
        let m = model();
        let fpk = m.estimate_fpk();
        let count = m.expected_in_region(fpk);
        assert!(
            (count - m.k as f64).abs() < 0.05,
            "E[in region] = {count} at f(pk) = {fpk}"
        );
    }

    #[test]
    fn node_accesses_grow_with_k() {
        let m = model();
        let mut prev = 0.0;
        for k in [1, 5, 10, 50, 100] {
            let est = CostModel { k, ..m }.estimate();
            assert!(
                est.node_accesses >= prev,
                "k = {k}: {} >= {prev}",
                est.node_accesses
            );
            prev = est.node_accesses;
        }
    }

    #[test]
    fn bands_partition_all_layers() {
        let m = model();
        let fpk = m.estimate_fpk();
        let bands = m.bands(fpk);
        assert!(!bands.is_empty());
        assert_eq!(bands[0].x_top, m.omega);
        assert_eq!(bands.last().unwrap().x_bottom, m.xmax);
        for w in bands.windows(2) {
            assert_eq!(w[0].x_bottom + 1, w[1].x_top, "bands are contiguous");
        }
        for b in &bands {
            assert!(b.extent > 0.0 && b.extent < 1.0);
            assert!((0.0..=1.0).contains(&b.probability));
        }
    }

    #[test]
    fn node_extents_smaller_on_denser_bands() {
        // Power law ⇒ low layers (large x) are sparse ⇒ their bands have
        // larger extents, as in Figure 4.
        let m = model();
        let bands = m.bands(m.estimate_fpk());
        if bands.len() >= 2 {
            let first = bands.first().unwrap();
            let last = bands.last().unwrap();
            assert!(
                first.extent <= last.extent,
                "dense top band {} vs sparse bottom band {}",
                first.extent,
                last.extent
            );
        }
    }

    #[test]
    fn from_aggregates_fits() {
        let mut rng = knnta_util::rng::StdRng::seed_from_u64(5);
        let law = lbsn::PowerLaw::new(2.5, 10);
        let mut aggs: Vec<u64> = (0..5000).map(|_| law.sample(&mut rng)).collect();
        aggs.extend(std::iter::repeat_n(0u64, 1000)); // zero-aggregate POIs are ignored
        let m = CostModel::from_aggregates(&aggs, 0.3, 10, effective_fanout(36)).unwrap();
        assert!((m.beta - 2.5).abs() < 0.2, "β̂ = {}", m.beta);
        assert_eq!(m.omega, 10);
        assert_eq!(m.n, 5000.0);
        let est = m.estimate();
        assert!(est.fpk > 0.0 && est.node_accesses > 0.0);
    }

    #[test]
    fn from_aggregates_rejects_degenerate() {
        assert!(CostModel::from_aggregates(&[0; 100], 0.3, 10, 20.0).is_none());
        assert!(CostModel::from_aggregates(&[5; 100], 0.3, 10, 20.0).is_none());
        assert!(CostModel::from_aggregates(&[1, 2, 3], 0.3, 10, 20.0).is_none());
    }

    #[test]
    fn alpha_extremes_shape_the_cone() {
        // α0 → 1: tall thin cone is impossible (hl = fpk/α1 explodes);
        // the model must still return finite sane values.
        let m = model();
        for alpha0 in [0.1, 0.5, 0.9] {
            let est = CostModel { alpha0, ..m }.estimate();
            assert!(est.fpk.is_finite() && est.fpk > 0.0, "α0 = {alpha0}");
            assert!(
                est.node_accesses.is_finite() && est.node_accesses > 0.0,
                "α0 = {alpha0}"
            );
        }
    }
}

/// Estimates the fraction of the data-space bounding box actually occupied
/// by POIs, by counting occupied cells of a `grid × grid` raster (cells are
/// chosen near the leaf-node scale, so the estimate matches the node-extent
/// model). `positions` are raw data-space coordinates inside `bounds`
/// (`[min_x, min_y], [max_x, max_y]`).
pub fn estimate_support_area(positions: &[[f64; 2]], bounds: ([f64; 2], [f64; 2])) -> f64 {
    const GRID: usize = 64;
    if positions.is_empty() {
        return 1.0;
    }
    let (min, max) = bounds;
    let w = (max[0] - min[0]).max(f64::MIN_POSITIVE);
    let h = (max[1] - min[1]).max(f64::MIN_POSITIVE);
    let mut occupied = vec![false; GRID * GRID];
    for p in positions {
        let cx = (((p[0] - min[0]) / w) * GRID as f64).min(GRID as f64 - 1.0) as usize;
        let cy = (((p[1] - min[1]) / h) * GRID as f64).min(GRID as f64 - 1.0) as usize;
        occupied[cy * GRID + cx] = true;
    }
    let count = occupied.iter().filter(|&&o| o).count();
    (count as f64 / (GRID * GRID) as f64).max(1.0 / (GRID * GRID) as f64)
}

#[cfg(test)]
mod support_tests {
    use super::*;

    #[test]
    fn uniform_data_fills_the_box() {
        let mut pts = Vec::new();
        for i in 0..64 {
            for j in 0..64 {
                pts.push([i as f64 + 0.5, j as f64 + 0.5]);
            }
        }
        let a = estimate_support_area(&pts, ([0.0, 0.0], [64.0, 64.0]));
        assert!(a > 0.95, "a = {a}");
    }

    #[test]
    fn clustered_data_has_small_support() {
        let pts: Vec<[f64; 2]> = (0..1000)
            .map(|i| [50.0 + (i % 10) as f64 * 0.01, 50.0 + (i / 10) as f64 * 0.001])
            .collect();
        let a = estimate_support_area(&pts, ([0.0, 0.0], [100.0, 100.0]));
        assert!(a < 0.01, "a = {a}");
    }

    #[test]
    fn empty_input_defaults_to_uniform() {
        assert_eq!(estimate_support_area(&[], ([0.0, 0.0], [1.0, 1.0])), 1.0);
    }

    #[test]
    fn support_area_raises_estimates() {
        let base = CostModel {
            n: 20_000.0,
            beta: 2.6,
            omega: 5,
            xmax: 2_000,
            alpha0: 0.3,
            k: 10,
            fanout: effective_fanout(36),
            support_area: 1.0,
        };
        let concentrated = base.with_support_area(0.05);
        let e1 = base.estimate();
        let e2 = concentrated.estimate();
        // Concentrating the same data into 5% of the space makes the search
        // region cover relatively more of it, so fewer high-score POIs are
        // needed and f(pk) shrinks. (Node accesses feel two opposing
        // forces — higher density vs a smaller cone — so only sanity-check
        // them.)
        assert!(e2.fpk <= e1.fpk, "{} <= {}", e2.fpk, e1.fpk);
        assert!(e2.node_accesses.is_finite() && e2.node_accesses > 0.0);
    }
}

impl CostModel {
    /// Expected node accesses at every tree level, leaves first.
    ///
    /// Section 6.3 estimates leaf accesses and notes "the following analysis
    /// applies to internal nodes straightforwardly": each level up, the
    /// population shrinks by the fanout while the per-node extent grows
    /// accordingly, until a single node (the root) remains.
    pub fn estimate_node_accesses_per_level(&self, fpk: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut model = *self;
        loop {
            let accesses = model.estimate_node_accesses(fpk);
            let nodes = (model.n / model.fanout).ceil();
            if nodes <= 1.0 {
                out.push(1.0); // the root is always accessed
                break;
            }
            out.push(accesses.min(nodes));
            // One level up: the "points" are the level's node centres.
            model.n = nodes;
        }
        out
    }

    /// Expected total node accesses (all levels; compare with
    /// `AccessStats::node_accesses`), as opposed to
    /// [`CostModel::estimate_node_accesses`]'s leaf-only figure (compare
    /// with `AccessStats::leaf_node_accesses`).
    pub fn estimate_total_node_accesses(&self, fpk: f64) -> f64 {
        self.estimate_node_accesses_per_level(fpk).iter().sum()
    }
}

#[cfg(test)]
mod level_tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            n: 50_000.0,
            beta: 2.5,
            omega: 8,
            xmax: 4_000,
            alpha0: 0.3,
            k: 10,
            fanout: effective_fanout(36),
            support_area: 1.0,
        }
    }

    #[test]
    fn levels_shrink_geometrically() {
        let m = model();
        let fpk = m.estimate_fpk();
        let levels = m.estimate_node_accesses_per_level(fpk);
        // ~ log_f(n) levels, ending at the root.
        assert!(levels.len() >= 2 && levels.len() <= 6, "{levels:?}");
        assert_eq!(*levels.last().unwrap(), 1.0);
        // Upper levels cost no more than the whole level's node count.
        for (i, &na) in levels.iter().enumerate() {
            assert!(na >= 0.0, "level {i}");
        }
    }

    #[test]
    fn total_at_least_leaf_estimate_plus_root() {
        let m = model();
        let fpk = m.estimate_fpk();
        let leaf = m.estimate_node_accesses(fpk);
        let total = m.estimate_total_node_accesses(fpk);
        assert!(total >= leaf + 1.0 - 1e-9, "{total} >= {leaf} + root");
    }

    #[test]
    fn total_grows_with_k() {
        let mut prev = 0.0;
        for k in [1usize, 10, 100] {
            let m = CostModel { k, ..model() };
            let est = m.estimate_total_node_accesses(m.estimate_fpk());
            assert!(est >= prev);
            prev = est;
        }
    }
}

// ---------------------------------------------------------------------------
// Planner: from validation-only model to the default execution planner.
// ---------------------------------------------------------------------------

/// The per-query facts the planner needs (a strict subset of the engine's
/// query type, so this crate stays independent of `knnta-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Result size `k`.
    pub k: usize,
    /// Spatial weight `α0`.
    pub alpha0: f64,
    /// Number of queries planned together: 1 for a single kNNTA query,
    /// the batch size for a collective batch.
    pub batch: usize,
}

impl QuerySpec {
    /// A single (non-batch) query.
    pub fn single(k: usize, alpha0: f64) -> QuerySpec {
        QuerySpec { k, alpha0, batch: 1 }
    }
}

/// A planning-time snapshot of one index: its shape, a sample of its
/// aggregate distribution, and which serving tiers are materialised.
///
/// Built by the engine (e.g. `TarIndex::index_stats`) and handed to
/// [`Planner::plan`]; everything here is cheap to copy around and carries
/// no borrows into the index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Number of indexed POIs.
    pub n: usize,
    /// Total R-tree nodes (all levels).
    pub node_count: usize,
    /// Tree height (1 = the root is a leaf).
    pub height: usize,
    /// Effective fanout (see [`effective_fanout`]).
    pub fanout: f64,
    /// Per-POI aggregates over the full time span — the sample the
    /// power-law fit runs on.
    pub aggregates: Vec<u64>,
    /// Fraction of the bounding box occupied by data
    /// (see [`CostModel::support_area`]).
    pub support_area: f64,
    /// A packed immutable image is materialised and fresh.
    pub packed_available: bool,
}

impl IndexStats {
    /// A cheap content token over everything the *model estimate* reads
    /// (shape, aggregate sample, support area) — backend availability is
    /// deliberately excluded, it only steers the plan after the estimate.
    /// Used to key [`Planner`]'s estimate memo; FNV-1a over the scalar
    /// fields plus a sample of the aggregate vector.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.n as u64);
        mix(self.node_count as u64);
        mix(self.height as u64);
        mix(self.fanout.to_bits());
        mix(self.support_area.to_bits());
        mix(self.aggregates.len() as u64);
        // Sampling keeps this O(1); a content change that alters no shape
        // field, no sampled aggregate, and not the aggregate count is
        // negligible for a latency *estimate*.
        for a in self.aggregates.iter().step_by((self.aggregates.len() / 64).max(1)) {
            mix(*a);
        }
        h
    }
}

/// Execution mode of a plan. Every plan runs the one single-threaded
/// engine, so this has one variant and nothing reads it; it stays only
/// because the benchmark harness still assigns it, and goes once that line
/// is dropped (ROADMAP item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Single-threaded best-first search.
    Sequential,
}

/// Storage backend chosen by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBackend {
    /// The pointer-based in-memory R*-tree.
    InMemory,
    /// The page-serialised tree behind a buffer pool.
    Paged,
    /// The bulk-packed immutable serving image.
    Packed,
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanMode::Sequential => write!(f, "sequential"),
        }
    }
}

impl std::fmt::Display for PlanBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanBackend::InMemory => "in-memory",
            PlanBackend::Paged => "paged",
            PlanBackend::Packed => "packed",
        })
    }
}

/// A fully-resolved execution configuration plus the cost estimates that
/// justified it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlan {
    /// Always [`PlanMode::Sequential`] (see there).
    pub mode: PlanMode,
    /// Which materialised tier to traverse.
    pub backend: PlanBackend,
    /// Collective-batch tile size (1 for single queries).
    pub tile: usize,
    /// Estimated k-th result score `f(pk)` (0 when the model was
    /// degenerate and the heuristic fallback was used).
    pub estimated_fpk: f64,
    /// Raw model estimate of total node accesses (all levels), before
    /// calibration.
    pub model_node_accesses: f64,
    /// Calibration-scaled estimate of total node accesses — the figure the
    /// planner actually decided on, comparable with
    /// `AccessStats::node_accesses`.
    pub estimated_node_accesses: f64,
}

/// Online EWMA calibration of model estimates against measured counters.
///
/// The paper's model is analytic and assumes power-law layers over a known
/// support; real traversals drift from it (clustering, cache effects,
/// grouping strategy). The executor feeds every `(estimated, measured)`
/// node-access pair back here; the planner multiplies future estimates by
/// the learned factor so they converge to observed costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    factor: f64,
    alpha: f64,
    samples: u64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// EWMA weight for each new observation.
    pub const DEFAULT_ALPHA: f64 = 0.25;
    /// Per-observation ratio clamp: one wild measurement (cold cache,
    /// degenerate query) may not swing the factor by more than 32×.
    const RATIO_CLAMP: f64 = 32.0;

    /// A fresh, identity calibration (factor 1.0, no samples).
    pub fn new() -> Calibration {
        Calibration {
            factor: 1.0,
            alpha: Self::DEFAULT_ALPHA,
            samples: 0,
        }
    }

    /// Records one estimate-vs-measurement pair. Non-finite or non-positive
    /// estimates are ignored (the model was degenerate for that query).
    pub fn observe(&mut self, estimated: f64, measured: f64) {
        if !(estimated > 0.0) || !estimated.is_finite() || !(measured >= 0.0) {
            return;
        }
        let ratio = (measured / estimated).clamp(1.0 / Self::RATIO_CLAMP, Self::RATIO_CLAMP);
        if self.samples == 0 {
            self.factor = ratio;
        } else {
            self.factor = (1.0 - self.alpha) * self.factor + self.alpha * ratio;
        }
        self.samples += 1;
    }

    /// Snaps the correction factor to a robust windowed statistic — the
    /// median measured/estimated ratio over a recent window, as reported by
    /// the serving telemetry's sliding-window histogram. Unlike
    /// [`Calibration::observe`], this replaces the EWMA state outright: the
    /// median over a window is already noise-resistant, and on a
    /// long-running server it tracks workload drift without the EWMA's
    /// sensitivity to the arrival order of outliers. Non-finite or
    /// non-positive ratios are ignored; the clamp still applies.
    pub fn recalibrate(&mut self, median_ratio: f64) {
        if !(median_ratio > 0.0) || !median_ratio.is_finite() {
            return;
        }
        self.factor = median_ratio.clamp(1.0 / Self::RATIO_CLAMP, Self::RATIO_CLAMP);
        self.samples += 1;
    }

    /// The current multiplicative correction applied to model estimates.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// How many observations have been folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// The cost-model-driven planner: turns the paper-§6 node-access analysis
/// into the component that picks the execution configuration per query.
///
/// Decision rules (all deterministic given the same stats + calibration):
///
/// - **Backend** — the packed serving image when materialised (its
///   latency dominance over the pointer tree is CI-gated), else the
///   in-memory tree. The paged tier is never chosen: it trades latency for
///   bounded memory, which is the *caller's* constraint, not a per-query
///   one, so only a forced plan runs it.
/// - **Tile** (collective batches) — the batch length clamped to
///   [`Planner::MIN_TILE`]`..=`[`Planner::MAX_TILE`], so adjacent
///   Hilbert-ordered queries share node accesses while frontier state
///   stays bounded.
///
/// The calibrated estimate decides neither; it is reported on the plan
/// and fed back against the measured node accesses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Planner {
    calibration: Calibration,
    /// Memoised `(fpk, raw)` model estimates keyed on
    /// `(k, alpha0, stats fingerprint)`. The paper-§6 estimate needs a
    /// power-law fit over the full aggregate sample plus a layered
    /// bisection — far too expensive per query — while its inputs change
    /// only when the index contents do. Calibration is applied *after* the
    /// cached estimate, so the cache stays valid across feedback.
    estimates: Vec<((usize, u64, u64), (f64, f64))>,
}

impl Planner {
    /// Collective tile-size bounds.
    pub const MIN_TILE: usize = 16;
    /// Upper tile bound (frontier state per tile is O(tile)).
    pub const MAX_TILE: usize = 256;

    /// A fresh planner with identity calibration.
    pub fn new() -> Planner {
        Planner::default()
    }

    /// Read access to the calibration state.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Feeds one measured total-node-access count back into the
    /// calibration, against the plan's raw (uncalibrated) model estimate.
    pub fn feedback(&mut self, plan: &QueryPlan, measured_node_accesses: u64) {
        self.calibration
            .observe(plan.model_node_accesses, measured_node_accesses as f64);
    }

    /// Snaps the calibration to a windowed median ratio (see
    /// [`Calibration::recalibrate`]). Plan choice never changes answers, so
    /// this is always answer-safe.
    pub fn recalibrate(&mut self, median_ratio: f64) {
        self.calibration.recalibrate(median_ratio);
    }

    /// Raw model estimate of total node accesses for `query` on an index
    /// shaped like `stats`, plus the `f(pk)` it derives from. Falls back to
    /// a height-based heuristic (`height + k/fanout` per query) when the
    /// aggregate sample is degenerate (too few non-zero values, or a single
    /// layer).
    fn model_estimate(query: &QuerySpec, stats: &IndexStats) -> (f64, f64) {
        if let Some(model) =
            CostModel::from_aggregates(&stats.aggregates, query.alpha0, query.k, stats.fanout)
        {
            let model = model.with_support_area(stats.support_area.clamp(f64::MIN_POSITIVE, 1.0));
            let fpk = model.estimate_fpk();
            (fpk, model.estimate_total_node_accesses(fpk))
        } else {
            let per_query =
                stats.height as f64 + query.k as f64 / stats.fanout.max(1.0);
            (0.0, per_query.min(stats.node_count.max(1) as f64))
        }
    }

    /// [`Planner::model_estimate`] through the memo: one fit + bisection
    /// per distinct `(k, alpha0, stats)`, a linear scan of a tiny vector
    /// after that.
    fn estimate_cached(
        &mut self,
        query: &QuerySpec,
        stats: &IndexStats,
        fingerprint: u64,
    ) -> (f64, f64) {
        let key = (query.k, query.alpha0.to_bits(), fingerprint);
        if let Some((_, e)) = self.estimates.iter().find(|(k, _)| *k == key) {
            return *e;
        }
        let e = Self::model_estimate(query, stats);
        if self.estimates.len() >= 64 {
            self.estimates.clear(); // tiny workloads never get here
        }
        self.estimates.push((key, e));
        e
    }

    /// Chooses the execution configuration for `query` (ISSUE-8 signature:
    /// the paper-§6 estimates, calibrated online, drive every knob).
    pub fn plan(&mut self, query: &QuerySpec, stats: &IndexStats) -> QueryPlan {
        self.plan_keyed(query, stats, stats.fingerprint())
    }

    /// [`Planner::plan`] with a caller-supplied [`IndexStats::fingerprint`].
    /// The fingerprint is a per-content-epoch token: callers that already
    /// cache stats per epoch (the executor) hash once per epoch instead of
    /// once per query.
    pub fn plan_keyed(
        &mut self,
        query: &QuerySpec,
        stats: &IndexStats,
        fingerprint: u64,
    ) -> QueryPlan {
        let (fpk, raw) = self.estimate_cached(query, stats, fingerprint);
        // The whole batch shares one traversal budget.
        let raw_total = raw * query.batch.max(1) as f64;
        let calibrated = (raw_total * self.calibration.factor())
            .min(stats.node_count.max(1) as f64 * query.batch.max(1) as f64);

        let backend = if stats.packed_available {
            PlanBackend::Packed
        } else {
            PlanBackend::InMemory
        };
        let tile = if query.batch <= 1 {
            1
        } else {
            query.batch.clamp(Self::MIN_TILE, Self::MAX_TILE)
        };

        QueryPlan {
            mode: PlanMode::Sequential,
            backend,
            tile,
            estimated_fpk: fpk,
            model_node_accesses: raw_total,
            estimated_node_accesses: calibrated,
        }
    }
}

#[cfg(test)]
mod planner_tests {
    use super::*;

    fn sample_aggregates() -> Vec<u64> {
        let mut rng = knnta_util::rng::StdRng::seed_from_u64(42);
        let law = lbsn::PowerLaw::new(2.6, 8);
        (0..4000).map(|_| law.sample(&mut rng)).collect()
    }

    fn stats() -> IndexStats {
        IndexStats {
            n: 4000,
            node_count: 250,
            height: 3,
            fanout: effective_fanout(36),
            aggregates: sample_aggregates(),
            support_area: 0.2,
            packed_available: false,
        }
    }

    #[test]
    fn estimates_monotone_in_k() {
        let mut planner = Planner::new();
        let s = stats();
        let mut prev = 0.0;
        for k in [1, 5, 10, 50, 100] {
            let plan = planner.plan(&QuerySpec::single(k, 0.3), &s);
            assert!(
                plan.estimated_node_accesses >= prev,
                "k = {k}: {} >= {prev}",
                plan.estimated_node_accesses
            );
            assert!(plan.estimated_node_accesses > 0.0);
            prev = plan.estimated_node_accesses;
        }
    }

    #[test]
    fn recalibrate_snaps_to_windowed_median() {
        let mut cal = Calibration::new();
        cal.observe(100.0, 100.0);
        cal.recalibrate(2.5);
        assert_eq!(cal.factor(), 2.5);
        // Clamped like per-observation ratios; garbage ignored.
        cal.recalibrate(1.0e9);
        assert_eq!(cal.factor(), 32.0);
        cal.recalibrate(f64::NAN);
        cal.recalibrate(0.0);
        cal.recalibrate(-3.0);
        assert_eq!(cal.factor(), 32.0);
        let mut planner = Planner::new();
        planner.recalibrate(0.5);
        assert_eq!(planner.calibration().factor(), 0.5);
    }

    #[test]
    fn calibration_converges_on_replayed_trace() {
        // Replay a trace where the real tree consistently costs 3× the
        // model's figure: the EWMA factor must converge to 3 and planned
        // estimates must land within 5% of the measured costs.
        let mut planner = Planner::new();
        let s = stats();
        for _ in 0..50 {
            let plan = planner.plan(&QuerySpec::single(10, 0.3), &s);
            let measured = (plan.model_node_accesses * 3.0).round() as u64;
            planner.feedback(&plan, measured);
        }
        let f = planner.calibration().factor();
        assert!((f - 3.0).abs() < 0.15, "factor = {f}");
        let plan = planner.plan(&QuerySpec::single(10, 0.3), &s);
        let err = (plan.estimated_node_accesses - plan.model_node_accesses * 3.0).abs()
            / (plan.model_node_accesses * 3.0);
        assert!(err < 0.05, "relative error {err}");
        assert_eq!(planner.calibration().samples(), 50);
    }

    #[test]
    fn calibration_ignores_degenerate_estimates() {
        let mut c = Calibration::new();
        c.observe(0.0, 100.0);
        c.observe(f64::NAN, 100.0);
        c.observe(10.0, -1.0);
        assert_eq!(c.samples(), 0);
        assert_eq!(c.factor(), 1.0);
        // A wild outlier is clamped, not adopted verbatim.
        c.observe(1.0, 1.0e9);
        assert_eq!(c.factor(), 32.0);
    }

    #[test]
    fn backend_prefers_packed_then_in_memory() {
        let mut planner = Planner::new();
        let mut s = stats();
        assert_eq!(
            planner.plan(&QuerySpec::single(10, 0.3), &s).backend,
            PlanBackend::InMemory
        );
        s.packed_available = true;
        assert_eq!(
            planner.plan(&QuerySpec::single(10, 0.3), &s).backend,
            PlanBackend::Packed
        );
    }

    #[test]
    fn tile_scales_with_batch() {
        let mut planner = Planner::new();
        let s = stats();
        let mut tile_of = |batch: usize, s: &IndexStats| {
            planner
                .plan(&QuerySpec { k: 10, alpha0: 0.3, batch }, s)
                .tile
        };
        assert_eq!(tile_of(1, &s), 1);
        let mut prev = 0;
        for batch in [2, 16, 64, 200, 1000, 10_000] {
            let tile = tile_of(batch, &s);
            assert!(tile >= Planner::MIN_TILE && tile <= Planner::MAX_TILE);
            assert!(tile >= prev, "tile monotone in batch");
            prev = tile;
        }
        assert_eq!(tile_of(10_000, &s), Planner::MAX_TILE);
    }

    #[test]
    fn degenerate_aggregates_fall_back_to_heuristic() {
        let mut planner = Planner::new();
        let mut s = stats();
        s.aggregates = vec![7; 100]; // single layer: no power-law fit
        let plan = planner.plan(&QuerySpec::single(10, 0.3), &s);
        assert_eq!(plan.estimated_fpk, 0.0);
        assert!(plan.estimated_node_accesses > 0.0);
        assert!(plan.estimated_node_accesses <= s.node_count as f64);
    }
}
