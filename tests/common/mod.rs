#![allow(dead_code)]

//! Shared helpers for the workspace-level integration tests.

use knnta::core::{
    Grouping, IndexConfig, Obs, PlanBackend, PlanMode, QueryHit, QueryPlan, ScanBaseline, TarIndex,
};
use knnta::lbsn::LbsnDataset;
use knnta::{AggregateSeries, EpochGrid, Poi};
use rtree::Rect;
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// When `KNNTA_OBS_TRACE_DIR` is set (the soak lane's failing-seed replay),
/// every index built through these helpers shares one enabled [`Obs`]
/// handle, and a panic hook archives its trace + metrics JSON into that
/// directory — so a failing seed ships with the spans that led up to it.
/// Enabling obs never changes an answer or an access count
/// (`tests/obs_overhead.rs`), so the replay fails identically.
fn archive_obs() -> Option<Obs> {
    static ARCHIVE: OnceLock<Option<Obs>> = OnceLock::new();
    ARCHIVE
        .get_or_init(|| {
            let dir = std::env::var("KNNTA_OBS_TRACE_DIR").ok()?;
            let obs = Obs::enabled();
            let hook_obs = obs.clone();
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let test = std::thread::current()
                    .name()
                    .unwrap_or("test")
                    .replace("::", "_");
                let _ = std::fs::create_dir_all(&dir);
                let _ = std::fs::write(
                    format!("{dir}/{test}.trace.json"),
                    hook_obs.trace_json(),
                );
                let _ = std::fs::write(
                    format!("{dir}/{test}.metrics.json"),
                    hook_obs.metrics_json(),
                );
                prev(info);
            }));
            Some(obs)
        })
        .clone()
}

/// A forced execution configuration for `Executor::execute` /
/// `execute_batch`, written out as a literal: the plan's three selector
/// fields are all an execution reads, so no planning call is needed and the
/// estimates stay zero. `tile` is the collective-batch tile (64 is the
/// classic fixed tile; single queries ignore it).
pub fn forced(backend: PlanBackend, mode: PlanMode, tile: usize) -> QueryPlan {
    QueryPlan {
        mode,
        backend,
        tile,
        estimated_fpk: 0.0,
        model_node_accesses: 0.0,
        estimated_node_accesses: 0.0,
    }
}

/// The sequential plan on `backend` (batches: under the 64-query tile).
pub fn seq(backend: PlanBackend) -> QueryPlan {
    forced(backend, PlanMode::Sequential, 64)
}

/// The work-stealing parallel plan on `backend` at `threads` workers.
pub fn par(backend: PlanBackend, threads: usize) -> QueryPlan {
    forced(backend, PlanMode::Parallel { threads }, 64)
}

/// Builds an index of the given grouping over a generated dataset snapshot.
pub fn index_of(dataset: &LbsnDataset, grouping: Grouping) -> TarIndex {
    index_with_config(dataset, IndexConfig::with_grouping(grouping))
}

/// Builds an index with an explicit config over the dataset's full snapshot.
pub fn index_with_config(dataset: &LbsnDataset, config: IndexConfig) -> TarIndex {
    let pois = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series));
    let mut index = TarIndex::build(
        config,
        dataset.grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        pois,
    );
    if let Some(obs) = archive_obs() {
        index.set_obs(obs);
    }
    index
}

/// Builds the sequential-scan oracle over the same snapshot.
pub fn baseline_of(dataset: &LbsnDataset) -> ScanBaseline {
    let pois = dataset
        .snapshot(dataset.grid.len())
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series));
    ScanBaseline::build(
        dataset.grid.clone(),
        Rect::new(dataset.bounds.0, dataset.bounds.1),
        pois,
    )
}

/// Asserts that two top-k answers are equivalent: same score sequence, and
/// the same POI sets once ties (equal scores) are accounted for.
pub fn assert_same_answer(got: &[QueryHit], want: &[QueryHit], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: result sizes differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.score - w.score).abs() < 1e-9,
            "{context}: rank {i} scores {} vs {}",
            g.score,
            w.score
        );
    }
    // POI sets must match except possibly at the trailing tie boundary.
    let mut g_ids: Vec<u32> = got.iter().map(|h| h.poi.0).collect();
    let mut w_ids: Vec<u32> = want.iter().map(|h| h.poi.0).collect();
    g_ids.sort_unstable();
    w_ids.sort_unstable();
    if g_ids != w_ids {
        // Allow divergence only among hits whose score equals the k-th
        // score (ties at the boundary are legitimately ambiguous).
        let kth = want.last().expect("non-empty").score;
        for (g, w) in got.iter().zip(want) {
            if (g.score - kth).abs() > 1e-9 {
                assert_eq!(g.poi, w.poi, "{context}: non-tied rank differs");
            }
        }
    }
}

/// A small deterministic dataset for the fast tests.
pub fn small_dataset() -> LbsnDataset {
    knnta::lbsn::gs().generate(0.004, 7, 20_260_704)
}

/// A latch for a service `FaultHook`: [`Gate::hold`] parks the shard worker
/// that calls it until [`Gate::open`]. While flushes are parked the
/// pipeline is busy, so admission holds what the test submits meanwhile
/// and the tiles it builds stop depending on thread timing. Both waits give
/// up after a minute, so a broken test fails instead of wedging.
#[derive(Default)]
pub struct Gate {
    /// (a worker has reached `hold`, the gate is open)
    state: Mutex<(bool, bool)>,
    cond: Condvar,
}

impl Gate {
    const PATIENCE: Duration = Duration::from_secs(60);

    /// Parks the calling worker until the gate opens.
    pub fn hold(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cond.notify_all();
        let _ = self
            .cond
            .wait_timeout_while(state, Self::PATIENCE, |s| !s.1)
            .unwrap();
    }

    /// Blocks until some worker is parked in [`Gate::hold`].
    pub fn wait_held(&self) {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .cond
            .wait_timeout_while(state, Self::PATIENCE, |s| !s.0)
            .unwrap();
        assert!(state.0, "no flush reached the gate within a minute");
    }

    /// Releases every parked worker and lets later ones pass.
    pub fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cond.notify_all();
    }
}

/// A tiny hand-rolled dataset (no randomness at all).
pub fn tiny_dataset() -> (EpochGrid, Rect<2>, Vec<(Poi, AggregateSeries)>) {
    let grid = EpochGrid::fixed_days(7, 8);
    let bounds = Rect::new([0.0, 0.0], [100.0, 100.0]);
    let mut pois = Vec::new();
    for i in 0..40u32 {
        let x = (i % 8) as f64 * 12.0 + 2.0;
        let y = (i / 8) as f64 * 18.0 + 5.0;
        let series = AggregateSeries::from_pairs(
            (0..8u32).map(|e| (e, ((i as u64 * 7 + e as u64 * 3) % 11) / 2)),
        );
        pois.push((Poi::new(i, x, y), series));
    }
    (grid, bounds, pois)
}
