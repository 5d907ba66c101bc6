//! Property-based tests: R*-tree structure and query answers under random
//! workloads, for every grouping-relevant configuration.

use knnta_util::prop::{check, Gen};
use pagestore::AccessStats;
use rtree::{dist, Augmentation, NoAug, RStarGrouping, RStarTree, RTreeParams, Rect};

type Tree2 = RStarTree<2, usize, NoAug, RStarGrouping>;

fn build(points: &[[f64; 2]], max_entries: usize, reinsert: bool) -> Tree2 {
    let params = if reinsert {
        RTreeParams::with_max_entries(max_entries)
    } else {
        RTreeParams::with_max_entries(max_entries).without_reinsert()
    };
    let mut t = Tree2::new(params, NoAug, RStarGrouping, AccessStats::new());
    for (i, p) in points.iter().enumerate() {
        t.insert(Rect::point(*p), i);
    }
    t
}

fn gen_points(g: &mut Gen, max: usize) -> Vec<[f64; 2]> {
    g.vec(1, max, |g| [g.f64_in(0.0..1000.0), g.f64_in(0.0..1000.0)])
}

/// Structural invariants hold after arbitrary insertions, with and
/// without forced reinsertion, for several fanouts.
#[test]
fn invariants_after_inserts() {
    check("invariants_after_inserts", 48, |g| {
        let points = gen_points(g, 300);
        let max_entries = g.usize_in(4..24);
        let reinsert = g.bool();
        let t = build(&points, max_entries, reinsert);
        t.validate();
        t.validate_augs();
        assert_eq!(t.len(), points.len());
    });
}

/// k-nearest-neighbour answers always match a linear scan.
#[test]
fn nearest_matches_scan() {
    check("nearest_matches_scan", 48, |g| {
        let points = gen_points(g, 250);
        let q = [g.f64_in(0.0..1000.0), g.f64_in(0.0..1000.0)];
        let k = g.usize_in(1..20);
        let t = build(&points, 8, true);
        let got: Vec<f64> = t.nearest(&q, k).into_iter().map(|(d, _)| d).collect();
        let mut want: Vec<f64> = points.iter().map(|p| dist(p, &q)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
    });
}

/// Range queries always match a linear scan.
#[test]
fn range_matches_scan() {
    check("range_matches_scan", 48, |g| {
        let points = gen_points(g, 250);
        let (x, y) = (g.f64_in(0.0..900.0), g.f64_in(0.0..900.0));
        let (w, h) = (g.f64_in(1.0..500.0), g.f64_in(1.0..500.0));
        let q = Rect::new([x, y], [x + w, y + h]);
        let t = build(&points, 10, true);
        let mut got: Vec<usize> = t.range_query(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

/// Interleaved inserts and removes keep the structure valid and the
/// content exact.
#[test]
fn insert_remove_interleaving() {
    check("insert_remove_interleaving", 48, |g| {
        let points = gen_points(g, 160);
        let removals = g.vec(0, 80, |g| g.f64_in(0.0..1.0));
        let mut t = build(&points, 6, true);
        let mut alive: Vec<usize> = (0..points.len()).collect();
        for r in removals {
            if alive.is_empty() {
                break;
            }
            let pos = ((r * alive.len() as f64) as usize).min(alive.len() - 1);
            let id = alive.swap_remove(pos);
            let removed = t.remove(&Rect::point(points[id]), |&x| x == id);
            assert_eq!(removed, Some(id));
        }
        t.validate();
        assert_eq!(t.len(), alive.len());
        let mut got: Vec<usize> = t.items().into_iter().map(|(_, &i)| i).collect();
        got.sort_unstable();
        alive.sort_unstable();
        assert_eq!(got, alive);
    });
}

/// Duplicate positions (all items at one point) never break the tree.
#[test]
fn degenerate_duplicate_points() {
    check("degenerate_duplicate_points", 48, |g| {
        let n = g.usize_in(1..120);
        let points = vec![[5.0, 5.0]; n];
        let t = build(&points, 5, true);
        t.validate();
        let got = t.nearest(&[5.0, 5.0], n);
        assert_eq!(got.len(), n);
        assert!(got.iter().all(|(d, _)| *d == 0.0));
    });
}

/// Per-subtree weight sum and max: the sum catches an item counted twice
/// or missed, the max a summary that was not refreshed after a removal.
struct SumMax;

impl Augmentation<(usize, u64)> for SumMax {
    type Value = (u64, u64);

    fn leaf_value(&self, item: &(usize, u64)) -> (u64, u64) {
        (item.1, item.1)
    }

    fn empty(&self) -> (u64, u64) {
        (0, 0)
    }

    fn merge(&self, acc: &mut (u64, u64), child: &(u64, u64)) {
        acc.0 += child.0;
        acc.1 = acc.1.max(child.1);
    }
}

/// A coordinate that is often a duplicate or a signed zero.
fn gen_coord(g: &mut Gen) -> f64 {
    match g.usize_in(0..4) {
        0 => *g.pick(&[-0.0, 0.0, 1.0, 2.5]),
        1 => g.usize_in(0..4) as f64,
        _ => g.f64_in(-10.0..10.0),
    }
}

/// Interleaved inserts and removes with a real augmentation: after every
/// operation the structure and every internal summary are exact, and the
/// root summarises exactly the live items.
fn summaries_under_churn<const D: usize>(g: &mut Gen) {
    let max_entries = g.usize_in(4..9);
    let params = if g.bool() {
        RTreeParams::with_max_entries(max_entries)
    } else {
        RTreeParams::with_max_entries(max_entries).without_reinsert()
    };
    let mut t: RStarTree<D, (usize, u64), SumMax, RStarGrouping> =
        RStarTree::new(params, SumMax, RStarGrouping, AccessStats::new());
    let mut alive: Vec<(usize, [f64; D], u64)> = Vec::new();
    let ops = g.usize_in(1..250);
    for id in 0..ops {
        if alive.is_empty() || g.usize_in(0..3) > 0 {
            let p: [f64; D] = if !alive.is_empty() && g.usize_in(0..4) == 0 {
                g.pick(&alive).1
            } else {
                std::array::from_fn(|_| gen_coord(g))
            };
            let weight = g.u64_in(1..1000);
            t.insert(Rect::point(p), (id, weight));
            alive.push((id, p, weight));
        } else {
            let (gone, p, _) = alive.swap_remove(g.usize_in(0..alive.len()));
            let removed = t.remove(&Rect::point(p), |&(i, _)| i == gone);
            assert_eq!(removed.map(|(i, _)| i), Some(gone));
        }
        t.validate();
        t.validate_augs();
        let root = t.node(t.root_id());
        let mut total = SumMax.empty();
        for e in &root.entries {
            SumMax.merge(&mut total, &e.aug);
        }
        let want = alive
            .iter()
            .fold((0, 0), |(s, m), &(_, _, w)| (s + w, m.max(w)));
        assert_eq!(total, want, "root summary after op {id}");
    }
}

#[test]
fn summaries_exact_under_churn() {
    check("summaries_exact_under_churn", 48, |g| {
        summaries_under_churn::<2>(g);
        summaries_under_churn::<3>(g);
    });
}
