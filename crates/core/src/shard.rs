//! POI partitioning and scatter-gather top-k merge for the sharded query
//! service (`crates/service`).
//!
//! The service splits a POI set across `N` engine shards, runs every query
//! on every shard under one [`crate::SharedBound`] per query
//! ([`crate::Executor::query_tile`]), and merges the per-shard lists. Both
//! halves of that scheme live here so `crates/core/tests/shard_props.rs`
//! can pin their contracts down next to the engine they feed:
//!
//! * [`partition_pois`] cuts the POI set into `N` contiguous runs of the
//!   same 2-D Hilbert curve the packed bulk-load uses, so each shard's tree
//!   covers a spatially tight region (small per-shard MBRs → tight bounds →
//!   early termination inside each shard).
//! * [`merge_ranked`] merges per-shard lists under the global
//!   `(score, PoiId)` total order ([`QueryHit::ranked_cmp`]).
//!
//! **Merge correctness.** Every hit of the global top-k lives in exactly
//! one shard, and within that shard at most `k − 1` hits rank strictly
//! before it — so it is inside that shard's own top-k. The shared bound
//! never drops below the global `f(p_k)` (each value published to it is
//! some shard's k-th best of `k` real hits) and prunes only scores
//! strictly above it, so the hit also survives that shard's pruning, ties
//! included. The union of per-shard lists therefore contains the global
//! top-k, though a single list may hold fewer than `k` hits, and sorting
//! the union by the same total order and truncating to `k` reproduces the
//! single-tree answer element-for-element. Bit-identity additionally needs
//! every shard to *score* like the unsharded tree: shards are built with
//! the global grid and global bounds (same distance normaliser) and run
//! with the global root-max as `gmax` ([`crate::Executor::with_root_max`]);
//! `TiaAug` keeps internal entries as per-epoch maxima of their children,
//! so the unsharded root-max equals the per-epoch max over all POI series
//! no matter how they are partitioned. DESIGN.md §15 spells the argument
//! out.

use crate::collective::HILBERT_BITS;
use crate::hilbert;
use crate::poi::{Poi, QueryHit};
use rtree::Rect;

/// Partitions `pois` into `shards` balanced contiguous runs of the 2-D
/// Hilbert curve over `bounds`, returning one list of indices into `pois`
/// per shard.
///
/// Every input index appears in exactly one shard; shard sizes differ by at
/// most one (trailing shards may be empty when `pois.len() < shards`). The
/// assignment is a pure function of the POI multiset, `bounds`, and
/// `shards`: curve-key ties are broken by position bits then [`tempora::PoiId`], so
/// permuting the input permutes only the index values, never which POI
/// lands in which shard.
pub fn partition_pois(pois: &[Poi], bounds: &Rect<2>, shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1);
    let span = [
        (bounds.max[0] - bounds.min[0]).max(f64::MIN_POSITIVE),
        (bounds.max[1] - bounds.min[1]).max(f64::MIN_POSITIVE),
    ];
    let mut order: Vec<usize> = (0..pois.len()).collect();
    let key = |p: &Poi| {
        let unit = [
            (p.pos[0] - bounds.min[0]) / span[0],
            (p.pos[1] - bounds.min[1]) / span[1],
        ];
        (
            hilbert::hilbert_key(unit, HILBERT_BITS),
            p.pos[0].to_bits(),
            p.pos[1].to_bits(),
            p.id,
        )
    };
    // Cached: a Hilbert rank is far dearer than a comparison.
    order.sort_by_cached_key(|&i| key(&pois[i]));

    let base = pois.len() / shards;
    let extra = pois.len() % shards;
    let mut out = Vec::with_capacity(shards);
    let mut cursor = 0;
    for s in 0..shards {
        let take = base + usize::from(s < extra);
        out.push(order[cursor..cursor + take].to_vec());
        cursor += take;
    }
    out
}

/// Merges per-shard ranked result lists into the global top-`k` under
/// [`QueryHit::ranked_cmp`] — ascending score, ties by ascending `PoiId` —
/// the same total order every single-tree query path sorts by.
pub fn merge_ranked(per_shard: &[Vec<QueryHit>], k: usize) -> Vec<QueryHit> {
    let mut all: Vec<QueryHit> = per_shard.iter().flatten().copied().collect();
    all.sort_by(QueryHit::ranked_cmp);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora::PoiId;

    fn grid_pois(n: u32) -> Vec<Poi> {
        (0..n)
            .map(|i| Poi::new(i, (i % 10) as f64, (i / 10) as f64))
            .collect()
    }

    #[test]
    fn partition_covers_each_poi_exactly_once() {
        let pois = grid_pois(37);
        let bounds = Rect::new([0.0, 0.0], [10.0, 10.0]);
        for shards in [1, 2, 4, 8, 64] {
            let parts = partition_pois(&pois, &bounds, shards);
            assert_eq!(parts.len(), shards);
            let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..pois.len()).collect::<Vec<_>>(), "shards={shards}");
            let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn partition_is_invariant_under_input_permutation() {
        let pois = grid_pois(23);
        let mut rev: Vec<Poi> = pois.clone();
        rev.reverse();
        let bounds = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let a = partition_pois(&pois, &bounds, 4);
        let b = partition_pois(&rev, &bounds, 4);
        let ids = |parts: &[Vec<usize>], src: &[Poi]| -> Vec<Vec<PoiId>> {
            parts
                .iter()
                .map(|p| p.iter().map(|&i| src[i].id).collect())
                .collect()
        };
        assert_eq!(ids(&a, &pois), ids(&b, &rev));
    }

    #[test]
    fn merge_is_global_sort_truncate() {
        let mk = |id: u32, score: f64| QueryHit {
            poi: PoiId(id),
            score,
            s0: 0.0,
            s1: 0.0,
            distance: 0.0,
            aggregate: 0,
        };
        let shards = vec![
            vec![mk(0, 0.5), mk(2, 0.7)],
            vec![mk(1, 0.5), mk(3, 0.1)],
            vec![],
        ];
        let merged = merge_ranked(&shards, 3);
        let ids: Vec<u32> = merged.iter().map(|h| h.poi.0).collect();
        // 0.1 first, then the 0.5 tie broken by ascending PoiId.
        assert_eq!(ids, vec![3, 0, 1]);
    }
}
