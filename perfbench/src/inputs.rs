//! The benchmark owns its inputs: datasets come from `lbsn`'s generators and
//! every query and check-in stream is generated here from `--seed`, so a
//! later change to the repository's own load clients cannot silently change
//! the load.

use knnta_core::{KnntaQuery, Poi};
use knnta_util::rng::{Rng, StdRng};
use lbsn::{IntervalAnchor, LbsnDataset, PowerLaw, Workload};
use rtree::Rect;
use std::time::Instant;
use tempora::{AggregateSeries, TimeInterval, Timestamp};

/// `α0` of every query in every workload.
pub const ALPHA0: f64 = 0.3;
/// Exponent of the popularity-rank power law the hot query stream and the
/// check-in stream draw from.
pub const RANK_BETA: f64 = 2.2;

/// Seed of every dataset. The dataset is the same in every run and `--seed`
/// drives the query, arrival and check-in streams over it: across dataset
/// seeds the tree's shape alone moves query cost by tens of percent
/// (`engine_single` p50 ran from 18 to 36 µs over ten dataset seeds), which
/// would drown any bound a regression could be held to.
pub const DATA_SEED: u64 = 20_260_704;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured part of the run, split between its phases.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny dataset for the consistency test only, never for reported
    /// numbers.
    pub quick: bool,
    pub trace_out: Option<std::path::PathBuf>,
}

/// A generated dataset in the shapes the layers take.
pub struct Data {
    pub lbsn: LbsnDataset,
    pub bounds: Rect<2>,
    pub generate_s: f64,
}

impl Data {
    /// `spec` at `scale` with `epoch_days`-day epochs; `--quick` swaps in
    /// GS×0.005 so the consistency test finishes in seconds.
    pub fn generate(spec: &str, scale: f64, epoch_days: i64, cfg: &RunCfg) -> Data {
        let (spec, scale) = if cfg.quick {
            ("GS", 0.005)
        } else {
            (spec, scale)
        };
        let start = Instant::now();
        let lbsn = lbsn::spec_by_name(spec)
            .expect("dataset preset exists")
            .generate(scale, epoch_days, DATA_SEED);
        let generate_s = start.elapsed().as_secs_f64();
        let bounds = Rect::new(lbsn.bounds.0, lbsn.bounds.1);
        Data {
            lbsn,
            bounds,
            generate_s,
        }
    }

    pub fn len(&self) -> usize {
        self.lbsn.len()
    }

    /// Every location with its aggregate series.
    pub fn pois(&self) -> Vec<(Poi, AggregateSeries)> {
        self.positions()
            .into_iter()
            .zip(self.lbsn.series.iter().cloned())
            .collect()
    }

    pub fn positions(&self) -> Vec<Poi> {
        self.lbsn
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| Poi::new(i as u32, p[0], p[1]))
            .collect()
    }

    /// Location indices, most checked-in first (ties by index).
    pub fn by_popularity(&self) -> Vec<usize> {
        let totals = self.lbsn.totals();
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(totals[i]), i));
        order
    }
}

/// Maps one power-law rank draw onto `0..n`.
fn rank_below<R: Rng>(law: &PowerLaw, rng: &mut R, n: usize) -> usize {
    (law.sample(rng).max(1) as usize - 1).min(n - 1)
}

/// The hot stream: query points drawn by popularity rank from
/// `PowerLaw(β = 2.2)`, intervals "the last 2^0..2^9 days" ending at `tc`.
/// Queries repeat and overlap, so tiles share node accesses and aggregates.
pub fn hot_stream(data: &Data, count: usize, k: usize, seed: u64) -> Vec<KnntaQuery> {
    let order = data.by_popularity();
    let law = PowerLaw::new(RANK_BETA, 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0407_57EA);
    let tc = data.lbsn.grid.tc();
    (0..count)
        .map(|_| {
            let point = data.lbsn.positions[order[rank_below(&law, &mut rng, order.len())]];
            let days = (1i64 << rng.gen_range(0..=9u32)).min(tc.days().max(1));
            let interval = TimeInterval::new(tc - days * Timestamp::DAY, tc);
            KnntaQuery::new(point, interval)
                .with_k(k)
                .with_alpha0(ALPHA0)
        })
        .collect()
}

/// The paper's §8 distribution: points uniform over the locations,
/// intervals of 2^0..2^9 days starting uniformly at random. Nothing is
/// shared between queries.
pub fn uniform_stream(data: &Data, count: usize, k: usize, seed: u64) -> Vec<KnntaQuery> {
    Workload::generate(&data.lbsn, count, IntervalAnchor::Random, seed)
        .queries
        .into_iter()
        .map(|(point, interval)| {
            KnntaQuery::new(point, interval)
                .with_k(k)
                .with_alpha0(ALPHA0)
        })
        .collect()
}

/// The check-in stream of `live_mixed`: `per_epoch` events in each of
/// `epochs` epochs, the location half by popularity rank and half uniform.
/// Only the location ids are stored; timestamps are spread evenly inside
/// the epoch by the writer, so time is monotone and epochs seal in order.
pub fn checkin_stream(data: &Data, epochs: usize, per_epoch: usize, seed: u64) -> Vec<u32> {
    let order = data.by_popularity();
    let law = PowerLaw::new(RANK_BETA, 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC_0125);
    (0..epochs * per_epoch)
        .map(|i| {
            if i % 2 == 0 {
                order[rank_below(&law, &mut rng, order.len())] as u32
            } else {
                rng.gen_range(0..order.len()) as u32
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> RunCfg {
        RunCfg {
            seed,
            seconds: 1.0,
            traced: false,
            quick: true,
            trace_out: None,
        }
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let data = Data::generate("GW", 0.02, 7, &quick(1));
        assert_eq!(hot_stream(&data, 64, 10, 5), hot_stream(&data, 64, 10, 5));
        assert_ne!(hot_stream(&data, 64, 10, 5), hot_stream(&data, 64, 10, 6));
        assert_eq!(
            uniform_stream(&data, 64, 10, 5),
            uniform_stream(&data, 64, 10, 5)
        );
        assert_eq!(
            checkin_stream(&data, 3, 40, 5),
            checkin_stream(&data, 3, 40, 5)
        );
        let again = Data::generate("GW", 0.02, 7, &quick(2));
        assert_eq!(
            data.lbsn.positions, again.lbsn.positions,
            "one dataset for every seed"
        );
    }

    #[test]
    fn hot_stream_repeats_and_ends_at_tc() {
        let data = Data::generate("GW", 0.02, 7, &quick(1));
        let qs = hot_stream(&data, 2000, 10, 9);
        let tc = data.lbsn.grid.tc();
        assert!(qs.iter().all(|q| q.interval.end() == tc && q.k == 10));
        let mut points: Vec<[u64; 2]> = qs
            .iter()
            .map(|q| [q.point[0].to_bits(), q.point[1].to_bits()])
            .collect();
        points.sort_unstable();
        points.dedup();
        assert!(points.len() < qs.len() / 2, "popular points repeat");
    }
}
