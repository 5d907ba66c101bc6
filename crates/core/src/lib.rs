//! # knnta-core — k-nearest-neighbor temporal aggregate queries
//!
//! A from-scratch reproduction of *"K-Nearest Neighbor Temporal Aggregate
//! Queries"* (Sun, Qi, Zheng, Zhang — EDBT 2015): the **kNNTA query** ranks
//! POIs by a weighted sum of spatial distance and a temporal aggregate
//! (check-in counts over a query time interval), and the **TAR-tree**
//! answers it efficiently by grouping R-tree entries in an integrated
//! spatial + aggregate space, attaching a *temporal index on the aggregate*
//! (TIA) to every entry.
//!
//! ## What lives here
//!
//! * [`TarIndex`] — the TAR-tree ([`Grouping::TarIntegral`]) and the paper's
//!   two alternatives ([`Grouping::IndSpa`], [`Grouping::IndAgg`]), with
//!   best-first kNNTA search (Section 4.3), check-in digestion
//!   (Section 4.2), and POI insertion/removal.
//! * [`ScanBaseline`] — the sequential-scan baseline (Section 3.2), used as
//!   the correctness oracle and the "baseline" series in the experiments.
//! * [`WeightAdjustment`] / [`TarIndex::mwa_pruning`] /
//!   [`TarIndex::mwa_enumerating`] — the minimum-weight-adjustment
//!   enhancement (Section 7.1), including the skyline-based pruning
//!   algorithm (BBS over the TAR-tree).
//! * [`Executor`] — the one place a [`QueryPlan`] is taken: it plans a
//!   query or batch with the paper-§6 cost model ([`Executor::query`],
//!   [`Executor::query_batch`]) or runs a plan the caller forced
//!   ([`Executor::execute`], [`Executor::execute_batch`]). The plan alone
//!   selects the backend ([`PlanBackend`]) and the tile of the
//!   collective scheme (Section 7.2, node accesses shared across a batch
//!   in Hilbert-curve or input order — [`BatchOrder`], [`hilbert`]); every
//!   plan answers bit-identically to [`TarIndex::query`].
//! * [`DiskTias`] — an MVBT-backed disk mirror of every entry's TIA, for
//!   I/O-realistic aggregate computation (the paper's TIAs are disk-resident
//!   multi-version B-trees with 10 buffer slots each).
//! * [`PagedNodes`] — a paged snapshot of the tree nodes themselves behind
//!   a replacement-policy-driven buffer pool
//!   ([`pagestore::BufferPoolConfig`]), attached with
//!   [`Executor::with_paged`].
//! * [`PackedTarTree`] — a packed immutable serving image of the index
//!   ([`TarIndex::pack`]): one contiguous word buffer, Hilbert bulk-packed,
//!   searched zero-copy ([`Executor::with_packed`]) and serialisable
//!   page-by-page ([`PackedPages`]); `docs/FORMAT.md` is the normative
//!   byte-layout spec.
//! * [`FrozenIndex`] — the same image packed straight from the POIs, no
//!   R\*-tree built, plus the metadata [`Executor::frozen`] runs on; what
//!   the query service's shards and [`LiveIndex`]'s merged bases are.
//!
//! ## Quick start
//!
//! ```
//! use knnta_core::{Grouping, IndexConfig, KnntaQuery, Poi, TarIndex};
//! use tempora::{AggregateSeries, EpochGrid, TimeInterval};
//!
//! // Two POIs, three one-day epochs.
//! let grid = EpochGrid::fixed_days(1, 3);
//! let bounds = rtree::Rect::new([0.0, 0.0], [10.0, 10.0]);
//! let pois = vec![
//!     (Poi::new(0, 1.0, 1.0), AggregateSeries::from_pairs([(0, 5)])),
//!     (Poi::new(1, 9.0, 9.0), AggregateSeries::from_pairs([(0, 50)])),
//! ];
//! let index = TarIndex::build(IndexConfig::default(), grid, bounds, pois);
//!
//! // Near (1,1), but weighting the aggregate heavily.
//! let q = KnntaQuery::new([1.0, 1.0], TimeInterval::days(0, 3))
//!     .with_k(1)
//!     .with_alpha0(0.2);
//! let hits = index.query(&q);
//! assert_eq!(hits[0].poi.0, 1); // the popular POI wins
//! ```

#![warn(missing_docs)]

mod agg_grouping;
mod augmentation;
mod baseline;
mod collective;
mod disk_tia;
mod frontier;
mod geo;
pub mod hilbert;
mod index;
mod live;
mod mwa;
mod observe;
mod packed;
mod persist;
mod plan;
mod poi;
mod search;
mod shard;
mod skyline;
mod storage;

pub use agg_grouping::AggGrouping;
pub use augmentation::TiaAug;
pub use baseline::ScanBaseline;
pub use collective::BatchOrder;
pub use disk_tia::DiskTias;
pub use frontier::SharedBound;
pub use geo::{haversine_km, GeoPoint, GeoProjector, EARTH_RADIUS_KM};
pub use knnta_obs::Obs;
pub use index::{Grouping, IndexConfig, TarIndex};
pub use live::{LiveIndex, LiveOptions, SnapshotView};
pub use mwa::{gamma, WeightAdjustment};
pub use packed::{FrozenIndex, PackedPages, PackedTarTree, PACKED_FANOUT};
pub use plan::Executor;
pub use costmodel::{
    Calibration, IndexStats, PlanBackend, PlanMode, Planner, QueryPlan, QuerySpec,
};
pub use poi::{KnntaQuery, Poi, QueryHit};
pub use shard::{merge_ranked, partition_pois};
pub use skyline::{dominates, reversed_skyline_of, skyline_of};
pub use storage::PagedNodes;
