//! `live_mixed`: writes beside reads through `LiveIndex`.
//!
//! Set-up is what a live tier does before it can answer: build the tree
//! over the locations, wrap it, and absorb the backlog — the first
//! [`CATCH_UP_EPOCHS`] epochs of check-ins, writer alone and unpaced, seals
//! and merges included. The timed phase then paces the writer open-loop
//! through the next [`TIMED_EPOCHS`] epochs (the same inline merges) while
//! one reader thread runs `snapshot().query(q)` closed-loop.
//!
//! A query on a freshly merged base costs tens of microseconds, the same
//! query through a non-empty delta overlay hundreds, a merge rebuilds the
//! tree, and a seal stalls `record`; a read-path gain paid for at merge or
//! seal time, or a write-path gain that fattens the overlay, shows here and
//! nowhere else.

use crate::check::{same_answer, Sampler};
use crate::inputs::{checkin_stream, uniform_stream, Data, RunCfg};
use crate::report::{peak_rss_mb, Ledger};
use crate::spans::{Recorder, SpanRef};
use crate::stats::{percentile_of, slice_median, sliced_percentile, sliced_rate, Sample, SLICES};
use knnta_core::{
    IndexConfig, KnntaQuery, LiveIndex, LiveOptions, Obs, Poi, QueryHit, ScanBaseline, TarIndex,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tempora::{AggregateSeries, CheckIn, PoiId};

const K: usize = 10;
/// Epochs absorbed during set-up.
const CATCH_UP_EPOCHS: usize = 60;
/// Epochs of the timed phase: three and a half times the overlay grows to
/// 30 sealed epochs and is merged away.
const TIMED_EPOCHS: usize = 105;
/// `merge_sealed()` runs inline on the writer after this many sealed epochs.
const MERGE_EVERY: usize = 30;
const EVENTS_PER_EPOCH: usize = 20_000;
/// The paced writer sleeps until a chunk is due, then records it whole.
const CHUNK: usize = 256;
const CHECK_CAP: usize = 256;

/// One run's inputs: GS always spans 180 one-day epochs, of which the
/// workload uses the first 165, so `--quick` changes only the number of
/// locations and events.
struct Setting {
    data: Data,
    /// Location id of every check-in, `per_epoch` per epoch.
    events: Vec<u32>,
    per_epoch: usize,
    stream: Vec<KnntaQuery>,
    seed: u64,
}

impl Setting {
    fn new(cfg: &RunCfg) -> Setting {
        let data = Data::generate("GS", 0.05, 1, cfg);
        let epochs = CATCH_UP_EPOCHS + TIMED_EPOCHS;
        assert!(
            epochs <= data.lbsn.grid.len() && CATCH_UP_EPOCHS.is_multiple_of(MERGE_EVERY),
            "grid too short for the workload's phases"
        );
        let per_epoch = if cfg.quick { 2_000 } else { EVENTS_PER_EPOCH };
        Setting {
            events: checkin_stream(&data, epochs, per_epoch, cfg.seed),
            stream: uniform_stream(&data, 1 << 14, K, cfg.seed),
            data,
            per_epoch,
            seed: cfg.seed,
        }
    }

    fn epoch_events(&self, e: usize) -> &[u32] {
        &self.events[e * self.per_epoch..(e + 1) * self.per_epoch]
    }

    /// Builds the empty tree, wraps it and absorbs the catch-up epochs.
    /// Returns the live index, the set-up time and the catch-up's share of
    /// it.
    fn set_up(&self, obs: Obs) -> (LiveIndex, f64, f64) {
        let t = Instant::now();
        let mut index = TarIndex::build(
            IndexConfig::default(),
            self.data.lbsn.grid.clone(),
            self.data.bounds,
            self.data
                .positions()
                .into_iter()
                .map(|p| (p, AggregateSeries::new())),
        );
        index.set_obs(obs);
        let live = LiveIndex::with_options(
            index,
            0,
            LiveOptions {
                shards: 2,
                serve_paged: None,
                serve_packed: true,
            },
        );
        let caught = Instant::now();
        let mut w = Writer::new(&live, self, Recorder::new(false, t));
        for e in 0..CATCH_UP_EPOCHS {
            w.epoch(e, None);
        }
        let end = Instant::now();
        (live, (end - t).as_secs_f64(), (end - caught).as_secs_f64())
    }

    /// The timed phase: the writer paced through `epochs` so that they take
    /// `seconds`, the reader (this thread) closed-loop until the writer is
    /// done.
    fn mixed(
        &self,
        live: &LiveIndex,
        epochs: std::ops::Range<usize>,
        seconds: f64,
        spans: bool,
    ) -> Mixed {
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let epoch_s = seconds / epochs.len() as f64;
        let mut rec = Recorder::new(spans, start);
        let mut sampler: Sampler<(Vec<QueryHit>, usize)> = Sampler::new(self.seed, CHECK_CAP);
        let mut samples = Vec::new();
        let mut snapshot_ns = Vec::new();
        let writer = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let mut w = Writer::new(live, self, Recorder::new(spans, start));
                for e in epochs.clone() {
                    w.epoch(e, Some((start, epoch_s, epochs.start)));
                }
                done.store(true, Ordering::SeqCst);
                w
            });
            let mut i = 0usize;
            while !done.load(Ordering::SeqCst) {
                let q = &self.stream[i % self.stream.len()];
                let t = Instant::now();
                let snap = live.snapshot();
                let mid = Instant::now();
                let hits = snap.query(q);
                let end = Instant::now();
                snapshot_ns.push((mid - t).as_nanos() as f64);
                samples.push(Sample {
                    at_s: (end - start).as_secs_f64(),
                    us: (end - t).as_secs_f64() * 1e6,
                });
                let root = rec.add("live.read", i as u64, SpanRef::NONE, t, end);
                rec.add("live.snapshot", i as u64, root, t, mid);
                rec.add("live.query", i as u64, root, mid, end);
                if sampler.wants(i) {
                    sampler.keep(i % self.stream.len(), (hits, snap.watermark().open_epoch));
                }
                i += 1;
            }
            handle.join().expect("writer thread does not panic")
        });
        let duration_s = start.elapsed().as_secs_f64();
        rec.absorb(writer.rec);
        Mixed {
            samples,
            duration_s,
            kept: sampler.into_kept(),
            snapshot_ns,
            writer_recorded: writer.recorded,
            record_ns: writer.record_ns / writer.recorded.max(1) as f64,
            seal_us: writer.seal_us,
            merge_ms: writer.merge_ms,
            stall_us: writer.stall_us,
            rec,
        }
    }

    /// Checks the sampled answers against a scan rebuilt from the events
    /// sealed at each answer's watermark. Returns the phase's operations
    /// attempted and failed: failed are wrong answers plus dropped events.
    fn check(&self, phase: &Mixed, dropped: u64) -> (u64, u64) {
        let mut kept: Vec<&(usize, (Vec<QueryHit>, usize))> = phase.kept.iter().collect();
        kept.sort_by_key(|(_, (_, open))| *open);
        let positions: Vec<Poi> = self.data.positions();
        let mut series = vec![AggregateSeries::new(); positions.len()];
        let (mut sealed, mut wrong) = (0usize, 0u64);
        let mut oracle: Option<(usize, ScanBaseline)> = None;
        for (qi, (hits, open)) in kept {
            while sealed < *open {
                for &poi in self.epoch_events(sealed) {
                    series[poi as usize].add(sealed as u32, 1);
                }
                sealed += 1;
            }
            if oracle.as_ref().map(|(at, _)| *at) != Some(*open) {
                oracle = Some((
                    *open,
                    ScanBaseline::build(
                        self.data.lbsn.grid.clone(),
                        self.data.bounds,
                        positions.iter().copied().zip(series.iter().cloned()),
                    ),
                ));
            }
            let (_, scan) = oracle.as_ref().expect("set above");
            if !same_answer(&scan.query(&self.stream[*qi]), hits) {
                wrong += 1;
            }
        }
        (
            phase.samples.len() as u64 + phase.writer_recorded,
            wrong + dropped,
        )
    }
}

/// The writer's side of one epoch: record its events (paced when `pace`
/// gives the epoch's wall-clock length), seal it, and merge when due.
struct Writer<'a> {
    live: &'a LiveIndex,
    setting: &'a Setting,
    rec: Recorder,
    record_ns: f64,
    recorded: u64,
    seal_us: Vec<f64>,
    merge_ms: Vec<f64>,
    stall_us: Vec<f64>,
}

impl<'a> Writer<'a> {
    fn new(live: &'a LiveIndex, setting: &'a Setting, rec: Recorder) -> Writer<'a> {
        Writer {
            live,
            setting,
            rec,
            record_ns: 0.0,
            recorded: 0,
            seal_us: Vec::new(),
            merge_ms: Vec::new(),
            stall_us: Vec::new(),
        }
    }

    /// `pace`: `(phase start, wall seconds per epoch, first epoch of the
    /// phase)` for the open-loop phase, `None` for the unpaced catch-up.
    fn epoch(&mut self, e: usize, pace: Option<(Instant, f64, usize)>) {
        let per = self.setting.per_epoch;
        let span = self.setting.data.lbsn.grid.epoch(e).interval();
        let step = span.duration() / per as i64;
        let t0 = Instant::now();
        let root = self.rec.add("live.epoch", e as u64, SpanRef::NONE, t0, t0);
        for (c, chunk) in self.setting.epoch_events(e).chunks(CHUNK).enumerate() {
            let due = pace.map(|(start, epoch_s, first)| {
                start
                    + Duration::from_secs_f64(
                        ((e - first) as f64 + (c * CHUNK) as f64 / per as f64) * epoch_s,
                    )
            });
            if let Some(due) = due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let live = self.live;
            let t = Instant::now();
            self.rec.time("live.record_chunk", e as u64, root, || {
                for (i, &poi) in chunk.iter().enumerate() {
                    let at = span.start() + (c * CHUNK + i) as i64 * step;
                    live.record(CheckIn::at(PoiId(poi), at));
                }
            });
            let end = Instant::now();
            self.record_ns += (end - t).as_nanos() as f64;
            self.recorded += chunk.len() as u64;
            if let Some(due) = due {
                self.stall_us
                    .push(end.saturating_duration_since(due).as_secs_f64() * 1e6);
            }
        }
        let t = Instant::now();
        self.live.seal_epoch();
        let end = Instant::now();
        self.seal_us.push((end - t).as_secs_f64() * 1e6);
        self.rec.add("live.seal_epoch", e as u64, root, t, end);
        if (e + 1).is_multiple_of(MERGE_EVERY) {
            let t = Instant::now();
            self.live.merge_sealed();
            let end = Instant::now();
            self.merge_ms.push((end - t).as_secs_f64() * 1e3);
            self.rec.add("live.merge_sealed", e as u64, root, t, end);
        }
        self.rec.close(root, Instant::now());
    }
}

struct Mixed {
    samples: Vec<Sample>,
    duration_s: f64,
    kept: Vec<(usize, (Vec<QueryHit>, usize))>,
    snapshot_ns: Vec<f64>,
    writer_recorded: u64,
    record_ns: f64,
    seal_us: Vec<f64>,
    merge_ms: Vec<f64>,
    stall_us: Vec<f64>,
    rec: Recorder,
}

pub fn run(cfg: &RunCfg) -> Ledger {
    let setting = Setting::new(cfg);
    let mut ledger = Ledger::default();
    let timed = CATCH_UP_EPOCHS..CATCH_UP_EPOCHS + TIMED_EPOCHS;
    let caught_up = (CATCH_UP_EPOCHS * setting.per_epoch) as u64;

    if !cfg.traced {
        let mut setups = Vec::new();
        let mut live = None;
        for _ in 0..3 {
            drop(live.take());
            let (l, secs, _) = setting.set_up(Obs::disabled());
            setups.push(secs);
            live = Some(l);
        }
        let live = live.expect("set up above");
        ledger.set_sliced("setup_s", slice_median(&setups));
        ledger.set(
            "image_bytes_per_poi",
            live.snapshot().index().pack().byte_len() as f64 / setting.data.len() as f64,
        );
        let phase = setting.mixed(&live, timed, cfg.seconds, false);
        let d = phase.duration_s;
        ledger.set_sliced("p50_us", sliced_percentile(&phase.samples, d, SLICES, 0.50));
        ledger.set_sliced("p95_us", sliced_percentile(&phase.samples, d, SLICES, 0.95));
        ledger.set_sliced("peak_qps", sliced_rate(&phase.samples, d, SLICES));
        ledger.ops("catch-up (set-up)", 3 * caught_up, 0);
        let (attempted, failed) = setting.check(&phase, live.dropped());
        ledger.ops(
            "mixed: paced writer + closed-loop reader",
            attempted,
            failed,
        );
        ledger.set("peak_rss_mb", peak_rss_mb());
        return ledger;
    }

    // Traced: the first 45 % of the mixed phase, at the untraced run's pace,
    // twice — each time on its own index. The first has tracing off and
    // gives every timed per-layer number; the second has Obs::enabled()
    // (which alone slows each query several-fold) and the benchmark's spans
    // on, and gives the span file and the tracing overhead.
    ledger.set("lbsn.generate_s", setting.data.generate_s);
    let part_s = 0.45 * cfg.seconds;
    let timed = timed.start..timed.start + (0.45 * timed.len() as f64).round() as usize;
    let (live, _, catch_s) = setting.set_up(Obs::disabled());
    ledger.set("live.ingest_per_s", caught_up as f64 / catch_s);
    let mut plain = setting.mixed(&live, timed.clone(), part_s, false);
    ledger.set("live.record_ns", plain.record_ns);
    ledger.set("live.seal_p50_us", percentile_of(&mut plain.seal_us, 0.5));
    ledger.set("live.seal_max_us", percentile_of(&mut plain.seal_us, 1.0));
    ledger.set("live.merge_p50_ms", percentile_of(&mut plain.merge_ms, 0.5));
    ledger.set(
        "live.snapshot_ns",
        percentile_of(&mut plain.snapshot_ns, 0.5),
    );
    ledger.set(
        "live.write_stall_p99_us",
        percentile_of(&mut plain.stall_us, 0.99),
    );
    let mut query_us: Vec<f64> = plain.samples.iter().map(|s| s.us).collect();
    ledger.set("live.query_p50_us", percentile_of(&mut query_us, 0.5));

    // The two regimes a reader meets, each on its own: the phase ends 17
    // sealed epochs after the last merge, so first through that overlay,
    // then merged (base only).
    let timed_query = |n: usize| {
        let snap = live.snapshot();
        let mut us: Vec<f64> = setting.stream[..n.min(setting.stream.len())]
            .iter()
            .map(|q| {
                let t = Instant::now();
                black_box(snap.query(q));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        percentile_of(&mut us, 0.5)
    };
    ledger.set("live.query_overlay_p50_us", timed_query(256));
    live.merge_sealed();
    ledger.set("live.query_merged_p50_us", timed_query(2_048));
    ledger.set("live.dropped", live.dropped() as f64);
    let (attempted, failed) = setting.check(&plain, live.dropped());
    ledger.ops("mixed, untraced", attempted, failed);
    drop(live);

    let (live, _, _) = setting.set_up(Obs::enabled());
    let spanned = setting.mixed(&live, timed, part_s, true);
    let plain_qps = sliced_rate(&plain.samples, plain.duration_s, SLICES).median;
    let spanned_qps = sliced_rate(&spanned.samples, spanned.duration_s, SLICES).median;
    ledger.set(
        "trace.overhead_share",
        100.0 * (1.0 - spanned_qps / plain_qps.max(f64::MIN_POSITIVE)),
    );
    let (attempted, failed) = setting.check(&spanned, live.dropped());
    ledger.ops("mixed, Obs enabled", attempted, failed);
    spanned.rec.report(cfg.trace_out.as_deref(), &mut ledger);
    ledger
}
