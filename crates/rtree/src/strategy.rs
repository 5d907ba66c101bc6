//! Pluggable entry grouping strategies.
//!
//! Section 5 of the paper shows that the TAR-tree's performance hinges on
//! *how entries are grouped into nodes*, and compares three strategies:
//! spatial-extent grouping (plain R*), aggregate-distribution grouping, and
//! the proposed integral 3-D grouping. This module defines the strategy
//! interface; the classic R* heuristics ([`RStarGrouping`]) implement it for
//! any dimension (2-D ⇒ IND-spa, 3-D ⇒ the TAR-tree). The
//! aggregate-distribution strategy lives in the `knnta-core` crate because it
//! groups on the entries' aggregate series rather than their boxes.

use crate::geom::Rect;

/// A read-only view of one entry as seen by a grouping strategy: its
/// bounding box in grouping space and its augmented value.
#[derive(Debug)]
pub struct EntryView<'a, const D: usize, V> {
    /// The entry's box.
    pub rect: &'a Rect<D>,
    /// The entry's augmented value (aggregate series for the TAR layers).
    pub aug: &'a V,
}

/// How entries are grouped into nodes: subtree choice on insertion, node
/// splitting, and forced-reinsert candidate selection.
pub trait GroupingStrategy<const D: usize, V> {
    /// The child entry of `children` into which `new` should descend.
    /// `child_is_leaf` is true when the children are leaf nodes (R* then
    /// minimises overlap enlargement instead of area enlargement).
    fn choose_subtree(
        &self,
        children: &[EntryView<'_, D, V>],
        new: &EntryView<'_, D, V>,
        child_is_leaf: bool,
    ) -> usize;

    /// Partitions an overflowing entry set into two groups, each of at least
    /// `min_fill` entries. Returns the group assignment (`false` = first
    /// group).
    fn split(&self, entries: &[EntryView<'_, D, V>], min_fill: usize) -> Vec<bool>;

    /// The `count` entries to remove and reinsert on overflow, in the order
    /// they should be reinserted. Return an empty vector to disable forced
    /// reinsertion for this strategy.
    fn reinsert_candidates(&self, entries: &[EntryView<'_, D, V>], count: usize) -> Vec<usize>;
}

/// The classic R\*-tree heuristics (Beckmann et al., SIGMOD 1990), operating
/// purely on the entries' boxes — in 2-D this is the paper's IND-spa
/// baseline, in 3-D (with the normalised aggregate as the third coordinate)
/// it is the TAR-tree's integral grouping strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct RStarGrouping;

impl RStarGrouping {
    /// R* split: choose the axis minimising total margin over all valid
    /// distributions, then the distribution minimising overlap (ties:
    /// area).
    fn rstar_split<const D: usize, V>(
        entries: &[EntryView<'_, D, V>],
        min_fill: usize,
    ) -> Vec<bool> {
        let n = entries.len();
        debug_assert!(n >= 2 * min_fill, "cannot split {n} entries at {min_fill}");

        // For each axis, consider entries sorted by lower and by upper
        // coordinate; for each sort and split position k in
        // [min_fill, n - min_fill], the two groups are the first k and the
        // remaining entries.
        let mut best: Option<(f64, Vec<bool>)> = None; // (axis margin sum, mask)
        for axis in 0..D {
            let mut orders: [Vec<usize>; 2] = [(0..n).collect(), (0..n).collect()];
            orders[0].sort_by(|&a, &b| {
                entries[a].rect.min[axis]
                    .partial_cmp(&entries[b].rect.min[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            orders[1].sort_by(|&a, &b| {
                entries[a].rect.max[axis]
                    .partial_cmp(&entries[b].rect.max[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });

            // Margin sum decides the split axis; within the axis the
            // distribution minimising (overlap, area, margin) wins — the
            // margin tie-break keeps degenerate (zero-extent) inputs from
            // collapsing every criterion to 0.
            let mut axis_margin = 0.0;
            let mut axis_best: Option<((f64, f64, f64), Vec<bool>)> = None;
            for order in &orders {
                // Prefix/suffix bounding boxes for O(n) per sort.
                let mut prefix = vec![Rect::<D>::empty(); n + 1];
                let mut suffix = vec![Rect::<D>::empty(); n + 1];
                for i in 0..n {
                    prefix[i + 1] = prefix[i].union(entries[order[i]].rect);
                    suffix[n - 1 - i] = suffix[n - i].union(entries[order[n - 1 - i]].rect);
                }
                for k in min_fill..=(n - min_fill) {
                    let (a, b) = (&prefix[k], &suffix[k]);
                    axis_margin += a.margin() + b.margin();
                    let key = (a.overlap(b), a.area() + b.area(), a.margin() + b.margin());
                    if axis_best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                        let mut mask = vec![true; n];
                        for &i in &order[..k] {
                            mask[i] = false;
                        }
                        axis_best = Some((key, mask));
                    }
                }
            }

            if best.as_ref().is_none_or(|(m, _)| axis_margin < *m) {
                let (_, mask) = axis_best.expect("at least one distribution");
                best = Some((axis_margin, mask));
            }
        }
        best.expect("at least one axis").1
    }
}

impl<const D: usize, V> GroupingStrategy<D, V> for RStarGrouping {
    fn choose_subtree(
        &self,
        children: &[EntryView<'_, D, V>],
        new: &EntryView<'_, D, V>,
        child_is_leaf: bool,
    ) -> usize {
        debug_assert!(!children.is_empty());
        // Margin enlargement breaks ties when volumes degenerate (flat
        // boxes — e.g. power-law aggregate data collapsing the third
        // dimension — make every volume-based criterion 0).
        let margin_delta =
            |c: &EntryView<'_, D, V>| c.rect.union(new.rect).margin() - c.rect.margin();
        if child_is_leaf {
            // Minimum overlap enlargement; ties by area enlargement, then
            // margin enlargement, then area.
            //
            // `enlarged` contains `c` on every axis, so every overlap term is
            // ≥ +0.0: a child whose partial sum already exceeds the best key
            // can no longer win and stops early, and one that contains `new`
            // has all terms exactly 0. The terms that are summed keep their
            // order, so the choice equals the full O(n²) scan's.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
            'children: for (i, c) in children.iter().enumerate() {
                let enlarged = c.rect.union(new.rect);
                let mut overlap_delta = 0.0;
                if enlarged != *c.rect {
                    for (j, o) in children.iter().enumerate() {
                        if i != j {
                            overlap_delta += enlarged.overlap(o.rect) - c.rect.overlap(o.rect);
                            if overlap_delta > best_key.0 {
                                continue 'children;
                            }
                        }
                    }
                }
                let key = (
                    overlap_delta,
                    c.rect.enlargement(new.rect),
                    margin_delta(c),
                    c.rect.area(),
                );
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            // Minimum area enlargement; ties by margin enlargement, then
            // area, then margin.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, c) in children.iter().enumerate() {
                let key = (
                    c.rect.enlargement(new.rect),
                    margin_delta(c),
                    c.rect.area(),
                    c.rect.margin(),
                );
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    fn split(&self, entries: &[EntryView<'_, D, V>], min_fill: usize) -> Vec<bool> {
        Self::rstar_split(entries, min_fill)
    }

    fn reinsert_candidates(&self, entries: &[EntryView<'_, D, V>], count: usize) -> Vec<usize> {
        // R* forced reinsert: remove the `count` entries whose centres are
        // farthest from the node centre, then reinsert them closest-first
        // ("close reinsert").
        let node_rect = entries
            .iter()
            .fold(Rect::<D>::empty(), |acc, e| acc.union(e.rect));
        let mut by_dist: Vec<usize> = (0..entries.len()).collect();
        by_dist.sort_by(|&a, &b| {
            let da = entries[a].rect.center_dist2(&node_rect);
            let db = entries[b].rect.center_dist2(&node_rect);
            db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut chosen: Vec<usize> = by_dist.into_iter().take(count).collect();
        chosen.reverse(); // closest of the removed entries reinserts first
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnta_util::prop::{check, Gen};

    fn views(rects: &[Rect<2>]) -> Vec<EntryView<'_, 2, ()>> {
        const UNIT: () = ();
        rects
            .iter()
            .map(|rect| EntryView { rect, aug: &UNIT })
            .collect()
    }

    /// The leaf-level choice by the full O(n²) overlap scan, unpruned: the
    /// reference the pruned [`RStarGrouping::choose_subtree`] must equal.
    fn full_scan_choice<const D: usize>(children: &[Rect<D>], new: &Rect<D>) -> usize {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, c) in children.iter().enumerate() {
            let enlarged = c.union(new);
            let mut overlap_delta = 0.0;
            for (j, o) in children.iter().enumerate() {
                if i != j {
                    overlap_delta += enlarged.overlap(o) - c.overlap(o);
                }
            }
            let key = (
                overlap_delta,
                c.enlargement(new),
                enlarged.margin() - c.margin(),
                c.area(),
            );
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// A child box: general, flat on one axis, a point, or a copy of an
    /// earlier child; coordinates on a coarse grid so ties and overlaps
    /// are common.
    fn gen_child<const D: usize>(g: &mut Gen, earlier: &[Rect<D>]) -> Rect<D> {
        let kind = g.usize_in(0..4);
        if kind == 3 && !earlier.is_empty() {
            return *g.pick(earlier);
        }
        let lo: [f64; D] = std::array::from_fn(|_| g.usize_in(0..8) as f64);
        let mut hi: [f64; D] = std::array::from_fn(|d| lo[d] + g.usize_in(0..4) as f64);
        match kind {
            1 => {
                let axis = g.usize_in(0..D);
                hi[axis] = lo[axis];
            }
            2 => hi = lo,
            _ => {}
        }
        Rect::new(lo, hi)
    }

    fn pruned_equals_full_scan<const D: usize>(g: &mut Gen) {
        let n = g.usize_in(1..40);
        let mut children: Vec<Rect<D>> = Vec::with_capacity(n);
        for _ in 0..n {
            let c = gen_child(g, &children);
            children.push(c);
        }
        let new = if g.bool() {
            // A point inside (or on the boundary of) one child.
            let c = *g.pick(&children);
            Rect::point(std::array::from_fn(|d| {
                c.min[d] + (c.max[d] - c.min[d]) * g.usize_in(0..3) as f64 / 2.0
            }))
        } else {
            gen_child(g, &[])
        };
        const UNIT: () = ();
        let views: Vec<EntryView<'_, D, ()>> = children
            .iter()
            .map(|rect| EntryView { rect, aug: &UNIT })
            .collect();
        let nv = EntryView {
            rect: &new,
            aug: &UNIT,
        };
        let got = <RStarGrouping as GroupingStrategy<D, ()>>::choose_subtree(
            &RStarGrouping,
            &views,
            &nv,
            true,
        );
        assert_eq!(
            got,
            full_scan_choice(&children, &new),
            "{children:?} <- {new:?}"
        );
    }

    #[test]
    fn pruned_choose_subtree_equals_full_scan() {
        check("pruned_choose_subtree_equals_full_scan", 400, |g| {
            pruned_equals_full_scan::<2>(g);
            pruned_equals_full_scan::<3>(g);
        });
    }

    #[test]
    fn choose_subtree_prefers_containment() {
        let rects = vec![
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            Rect::new([20.0, 20.0], [30.0, 30.0]),
        ];
        let new = Rect::point([25.0, 25.0]);
        let nv = EntryView {
            rect: &new,
            aug: &(),
        };
        let s = RStarGrouping;
        let idx =
            <RStarGrouping as GroupingStrategy<2, ()>>::choose_subtree(&s, &views(&rects), &nv, true);
        assert_eq!(idx, 1);
        let idx = <RStarGrouping as GroupingStrategy<2, ()>>::choose_subtree(
            &s,
            &views(&rects),
            &nv,
            false,
        );
        assert_eq!(idx, 1);
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two clusters of points on the x axis must split cleanly.
        let mut rects = Vec::new();
        for i in 0..5 {
            rects.push(Rect::point([i as f64 * 0.1, 0.0]));
        }
        for i in 0..5 {
            rects.push(Rect::point([100.0 + i as f64 * 0.1, 0.0]));
        }
        let s = RStarGrouping;
        let mask = <RStarGrouping as GroupingStrategy<2, ()>>::split(&s, &views(&rects), 2);
        // All of the first cluster in one group, all of the second in the other.
        assert!(mask[..5].iter().all(|&m| m == mask[0]));
        assert!(mask[5..].iter().all(|&m| m == mask[5]));
        assert_ne!(mask[0], mask[5]);
    }

    #[test]
    fn split_respects_min_fill() {
        let rects: Vec<Rect<2>> = (0..10).map(|i| Rect::point([i as f64, 0.0])).collect();
        let s = RStarGrouping;
        for min_fill in [2, 3, 4, 5] {
            let mask = <RStarGrouping as GroupingStrategy<2, ()>>::split(&s, &views(&rects), min_fill);
            let a = mask.iter().filter(|&&m| !m).count();
            let b = mask.len() - a;
            assert!(a >= min_fill && b >= min_fill, "min_fill={min_fill} a={a} b={b}");
        }
    }

    #[test]
    fn split_picks_discriminating_axis() {
        // Points vary on y, constant on x: the split must use the y axis.
        let rects: Vec<Rect<2>> = (0..8).map(|i| Rect::point([0.0, i as f64])).collect();
        let s = RStarGrouping;
        let mask = <RStarGrouping as GroupingStrategy<2, ()>>::split(&s, &views(&rects), 3);
        // A y-axis split groups a prefix of the sorted ys together.
        let lows: Vec<bool> = (0..8).map(|i| mask[i]).collect();
        let flips = lows.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "contiguous split along y, got {lows:?}");
    }

    #[test]
    fn reinsert_candidates_pick_farthest() {
        // Cluster near the node centre, two extremes at the edges: the
        // extremes are farthest from the centre and must be evicted.
        let mut rects: Vec<Rect<2>> = (0..8)
            .map(|i| Rect::point([45.0 + (i % 3) as f64, 50.0]))
            .collect();
        rects.push(Rect::point([0.0, 50.0])); // index 8
        rects.push(Rect::point([100.0, 50.0])); // index 9
        let s = RStarGrouping;
        let cands =
            <RStarGrouping as GroupingStrategy<2, ()>>::reinsert_candidates(&s, &views(&rects), 2);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![8, 9], "the two extremes are evicted");
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn three_d_split_compiles_and_balances() {
        let rects: Vec<Rect<3>> = (0..12)
            .map(|i| Rect::point([i as f64, 0.0, (i % 3) as f64]))
            .collect();
        const UNIT: () = ();
        let views: Vec<EntryView<'_, 3, ()>> = rects
            .iter()
            .map(|rect| EntryView { rect, aug: &UNIT })
            .collect();
        let s = RStarGrouping;
        let mask = <RStarGrouping as GroupingStrategy<3, ()>>::split(&s, &views, 4);
        let a = mask.iter().filter(|&&m| !m).count();
        assert!(a >= 4 && mask.len() - a >= 4);
    }
}
