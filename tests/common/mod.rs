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
/// `execute_batch`, written out as a literal: the plan's backend and tile
/// are all an execution reads, so no planning call is needed and the
/// estimates stay zero. `tile` is the collective-batch tile (64 is the
/// classic fixed tile; single queries ignore it).
pub fn forced(backend: PlanBackend, tile: usize) -> QueryPlan {
    QueryPlan {
        mode: PlanMode::Sequential,
        backend,
        tile,
        estimated_fpk: 0.0,
        model_node_accesses: 0.0,
        estimated_node_accesses: 0.0,
    }
}

/// The sequential plan on `backend` (batches: under the 64-query tile).
pub fn seq(backend: PlanBackend) -> QueryPlan {
    forced(backend, 64)
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

/// Hostile variants of an index file (`docs/FORMAT.md`), each named and
/// paired with the word its one-line rejection must contain: every field
/// the reader checks, header counts that wrap the offset arithmetic, and
/// the forgeries only a check of each internal entry against its child
/// catches (a shrunk internal box, a lowered internal TIA block, a
/// re-pointed child target). `file` must have an internal level, and two
/// POIs whose first check-ins fall in different epochs.
pub fn forged_index_files(file: &[u8]) -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let words: Vec<u64> = file
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let at = |i: usize| words[i] as usize;
    let (nodes, records) = (at(2), at(7));
    let (level_dir, node_dir, boxes, targets, tia_dir, tia) =
        (at(8), at(9), at(10), at(11), at(12), at(13));
    let caller = tia + 2 * records;
    let grid_len = words.len() - caller - 7;
    let leaf_entries = at(node_dir + at(level_dir + 1));
    let root_entry = at(node_dir + nodes - 1);
    assert!(
        root_entry >= leaf_entries,
        "the image needs an internal level"
    );
    // Record indices of entry `e`'s TIA block, and the words of record `r`.
    let block = |e: usize| at(tia_dir + e)..at(tia_dir + e + 1);
    let (epoch_word, cum_word) = (|r: usize| tia + 2 * r, |r: usize| tia + 2 * r + 1);
    let with = |edits: &[(usize, u64)]| {
        let mut w = words.clone();
        for &(i, v) in edits {
            w[i] = v;
        }
        w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>()
    };

    let leaf_with = |records: usize| {
        (0..leaf_entries)
            .find(|&e| block(e).len() >= records)
            .expect("a leaf with enough records")
    };
    let (a, multi) = (leaf_with(1), leaf_with(2));
    let first_epoch = |e: usize| words[epoch_word(block(e).start)];
    let b = (0..leaf_entries)
        .find(|&e| !block(e).is_empty() && first_epoch(e) != first_epoch(a))
        .expect("two POIs whose first check-ins fall in different epochs");
    // Both POIs' first check-ins near u64::MAX, then one a record, so each
    // series sums to u64::MAX: the per-epoch maxima overflow.
    let saturated: Vec<(usize, u64)> = [a, b]
        .into_iter()
        .flat_map(|e| block(e).map(move |r| (cum_word(r), u64::MAX - (block(e).end - 1 - r) as u64)))
        .collect();
    let last_cum = |e: usize| words[cum_word(block(e).end - 1)];
    let root_box = boxes + 4 * root_entry;
    let (min_x, max_x) = (
        f64::from_bits(words[root_box]),
        f64::from_bits(words[root_box + 2]),
    );
    assert!(
        min_x < max_x && last_cum(root_entry) > 0,
        "a root entry to forge"
    );
    // level_count = u64::MAX: `level_count + 1` wraps to 0, so the later
    // sections' offsets move down by the level directory's length.
    let level_len = (node_dir - level_dir) as u64;
    let wrapped_levels: Vec<(usize, u64)> = [(5, u64::MAX)]
        .into_iter()
        .chain((9..=13).map(|h| (h, words[h] - level_len)))
        .collect();
    // entry_count = 2^62: `4 · entry_count` wraps to 0, the node directory
    // closes at it, and a TIA record count whose `2 · tia_records` brings
    // the offset chain back to where the caller section starts.
    let e = 1u64 << 62;
    let tia_dir_off = words[10] + e;
    let tia_off = tia_dir_off + e + 1;
    let wrapped_entries = [
        (3, e),
        (node_dir + nodes, e),
        (11, words[10]),
        (12, tia_dir_off),
        (13, tia_off),
        (7, (caller as u64).wrapping_sub(tia_off) / 2),
    ];
    vec![
        ("truncated", file[..file.len() - 8].to_vec(), "words"),
        (
            "cut mid-word",
            file[..file.len() - 3].to_vec(),
            "word-aligned",
        ),
        (
            "bad magic",
            with(&[(0, u64::from_le_bytes(*b"NOTKNNTA"))]),
            "magic",
        ),
        ("bumped version", with(&[(1, words[1] + 1)]), "version"),
        ("wrapped level count", with(&wrapped_levels), "level_count"),
        ("wrapped entry count", with(&wrapped_entries), "entry_count"),
        ("unknown grouping", with(&[(14, 9)]), "grouping tag"),
        ("node size 0", with(&[(caller, 0)]), "node size"),
        (
            "infinite bounds",
            with(&[(caller + 5, f64::INFINITY.to_bits())]),
            "bounds",
        ),
        (
            "unordered grid",
            with(&[(caller + 7, words[caller + 6])]),
            "grid boundaries",
        ),
        ("huge poi count", with(&[(4, u32::MAX as u64)]), "poi count"),
        (
            "duplicate id",
            with(&[(targets + 1, words[targets])]),
            "poi id",
        ),
        // An id the arena's position table would have to grow to ≈96 GB for.
        ("sparse id", with(&[(targets, 0xFFFF_FFF0)]), "poi id"),
        (
            "nan position",
            with(&[(boxes, f64::NAN.to_bits())]),
            "poi position",
        ),
        (
            "epoch past the grid",
            with(&[(epoch_word(block(a).end - 1), grid_len as u64)]),
            "series epoch",
        ),
        (
            "decreasing leaf cumulative",
            with(&[(cum_word(block(multi).start), last_cum(multi) + 1)]),
            "series cumulative",
        ),
        ("series total", with(&saturated), "series total"),
        (
            "shrunk internal box",
            with(&[(root_box + 2, ((min_x + max_x) / 2.0).to_bits())]),
            "internal box",
        ),
        (
            "lowered internal TIA block",
            with(&[(
                cum_word(block(root_entry).end - 1),
                last_cum(root_entry) - 1,
            )]),
            "internal TIA block",
        ),
        (
            "re-pointed child target",
            with(&[
                (targets + root_entry, words[targets + root_entry + 1]),
                (targets + root_entry + 1, words[targets + root_entry]),
            ]),
            "child target",
        ),
    ]
}
