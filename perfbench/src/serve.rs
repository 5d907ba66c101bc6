//! `serve_hot` and `serve_heavy`: the sharded query service under an
//! open-loop Poisson stream at a fixed rate, then a closed loop that keeps
//! 256 tickets in flight.
//!
//! The service is measured from outside: latency is due time → answer
//! (lateness + the ticket's submit → answer latency), segment times come from
//! `Service::telemetry().snapshot()` deltas between phase boundaries, and
//! the inside of scatter comes from replaying the served flush tiles
//! through the public layer functions on one thread.

use crate::check::{mismatches, same_answer, Sampler};
use crate::inputs::{hot_stream, uniform_stream, Data, RunCfg};
use crate::report::{peak_rss_mb, Ledger};
use crate::spans::{Recorder, SpanRef};
use crate::stats::{
    mean, percentile_of, poisson_schedule, slice_median, sliced_percentile, sliced_rate, Sample,
    SLICES,
};
use knnta_core::{
    merge_ranked, partition_pois, Executor, IndexConfig, KnntaQuery, Obs, PackedTarTree, Poi,
    QueryHit, ScanBaseline, TarIndex,
};
use knnta_service::{Service, ServiceConfig, TelemetryConfig, Ticket};
use knnta_util::rng::StdRng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tempora::AggregateSeries;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Popular points, recent intervals, k = 10: queries repeat and
    /// overlap, the engine needs little and admission does most of the work.
    Hot,
    /// Uniform points, random-anchor intervals, k = 400: nothing is shared
    /// and the tree walk does most of the work.
    Heavy,
}

/// The load a kind offers. `rate_hi`, about a third of the closed-loop
/// peak, is the fixed rate of the end-to-end latencies: both cores are in
/// use there. `rate_lo`, a quarter of it, is measured in the traced run
/// only — at that load this box's scheduler sometimes packs every service
/// thread onto one core for a whole run (both shard workers then run one
/// after the other and `serve_heavy`'s median latency is 1.5 ms, not 1.1),
/// and which it does alternates from one process to the next.
struct Load {
    k: usize,
    rate_lo: f64,
    rate_hi: f64,
    /// Length of one closed-loop burst: long enough that the 256 tickets in
    /// flight turn over several times, or the count of whole tiles that
    /// happen to finish inside the burst decides its rate.
    burst_s: f64,
}

impl Load {
    fn bursts(&self, duration_s: f64) -> usize {
        ((duration_s / self.burst_s).round() as usize).max(1)
    }
}

impl Kind {
    fn load(self) -> Load {
        match self {
            Kind::Hot => Load {
                k: 10,
                rate_lo: 4_000.0,
                rate_hi: 16_000.0,
                burst_s: 0.2,
            },
            Kind::Heavy => Load {
                k: 400,
                rate_lo: 175.0,
                rate_hi: 700.0,
                burst_s: 0.8,
            },
        }
    }

    fn stream(self, data: &Data, k: usize, seed: u64) -> Vec<KnntaQuery> {
        match self {
            Kind::Hot => hot_stream(data, 1 << 16, k, seed),
            Kind::Heavy => uniform_stream(data, 1 << 15, k, seed),
        }
    }
}

const SHARDS: usize = 2;
const IN_FLIGHT: usize = 256;
/// Services per untraced run; each serves a third of every phase.
const REPS: usize = 3;
/// The pause after each burst of the closed-loop phase.
const BURST_GAP: Duration = Duration::from_millis(2);
const TICKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Oracle-checked answers kept per phase (see [`Sampler`]).
const CHECK_CAP: usize = 384;
/// Served answers of the `Obs`-enabled closed loop replayed offline in a
/// traced run.
const REPLAY_QUERIES: usize = 8_192;

fn service_config(telemetry: TelemetryConfig) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        workers: 1,
        telemetry,
        ..ServiceConfig::default()
    }
}

/// An answer and its submit → answer latency.
type Answer = (Vec<QueryHit>, Duration);

/// Waits up to `timeout` for a ticket: `Ok(Some(..))` is the answer and its
/// submit → answer latency, `Ok(None)` a ticket that panicked, `Err` the
/// ticket back because it is not answered yet.
fn poll(ticket: Ticket, timeout: Duration) -> Result<Option<Answer>, Ticket> {
    match catch_unwind(AssertUnwindSafe(|| ticket.wait_timeout(timeout))) {
        Ok(Ok(answer)) => Ok(Some(answer)),
        Ok(Err(ticket)) => Err(ticket),
        Err(_) => Ok(None),
    }
}

/// A ticket's final outcome; not answered within [`TICKET_TIMEOUT`] counts
/// as failed.
fn resolve(ticket: Ticket) -> Option<Answer> {
    poll(ticket, TICKET_TIMEOUT).ok().flatten()
}

/// Takes in, oldest first and without blocking, every ticket in flight that
/// is already answered; stops at the first that is not.
fn take_ready<M>(flight: &mut VecDeque<(Ticket, M)>, mut take_in: impl FnMut(M, Option<Answer>)) {
    while let Some((ticket, sent)) = flight.pop_front() {
        match poll(ticket, Duration::ZERO) {
            Ok(answer) => take_in(sent, answer),
            Err(ticket) => {
                flight.push_front((ticket, sent));
                break;
            }
        }
    }
}

/// What a phase measured.
#[derive(Default)]
struct Phase {
    /// Open loop: `at_s` is the due time and `us` due → answer. Closed loop:
    /// `at_s` is the completion time and `us` submit → answer.
    samples: Vec<Sample>,
    duration_s: f64,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Tickets unanswered when the last query was sent.
    backlog_end: u64,
    /// Oracle sample: (index into the stream, answer).
    kept: Vec<(usize, Vec<QueryHit>)>,
    /// The first answers of a closed loop in submit order, for the replay
    /// (the client takes answers in oldest first, so they arrive in order).
    head: Vec<Vec<QueryHit>>,
}

impl Phase {
    /// Appends a further part of the same phase, run on another service:
    /// its samples follow on the phase clock.
    fn absorb(&mut self, part: Phase) {
        let offset = self.duration_s;
        self.samples.extend(part.samples.into_iter().map(|mut s| {
            if s.at_s >= 0.0 {
                s.at_s += offset;
            }
            s
        }));
        self.duration_s += part.duration_s;
        self.late_us.extend(part.late_us);
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.backlog_end = self.backlog_end.max(part.backlog_end);
        self.kept.extend(part.kept);
    }
}

/// Sends `stream[first..]` on the `due` schedule (seconds from now) from
/// this thread, sleeping — never spinning, the generator shares two cores
/// with the service — until the next due time and submitting everything
/// then due. Before it sleeps again it takes in the answers already there,
/// oldest first, so the benchmark holds tickets in flight and not the whole
/// phase's answers (they would be its peak memory); latency is stamped
/// merger-side, so when an answer is taken in does not skew it.
fn open_loop(
    svc: &Service,
    stream: &[KnntaQuery],
    first: usize,
    due: &[f64],
    duration_s: f64,
    mut sampler: Sampler<Vec<QueryHit>>,
    rec: &mut Recorder,
) -> Phase {
    let spans = rec.is_enabled();
    let start = Instant::now();
    let mut out = Phase {
        duration_s,
        attempted: due.len() as u64,
        ..Phase::default()
    };
    let mut answered_at: Vec<Instant> = Vec::with_capacity(due.len());
    let mut take_in = |(i, at, back): (usize, Instant, Instant), answer: Option<Answer>| {
        let Some((hits, latency)) = answer else {
            out.failed += 1;
            return;
        };
        let due_at = start + Duration::from_secs_f64(due[i]);
        let late = at.saturating_duration_since(due_at);
        out.late_us.push(late.as_secs_f64() * 1e6);
        out.samples.push(Sample {
            at_s: due[i],
            us: (late + latency).as_secs_f64() * 1e6,
        });
        answered_at.push(at + latency);
        let root = rec.add("serve.query", i as u64, SpanRef::NONE, due_at, at + latency);
        rec.add("serve.submit", i as u64, root, at, back);
        rec.add("serve.ticket", i as u64, root, at, at + latency);
        if sampler.wants(i) {
            sampler.keep((first + i) % stream.len(), hits);
        }
    };

    let mut flight: VecDeque<(Ticket, (usize, Instant, Instant))> = VecDeque::new();
    let mut i = 0;
    while i < due.len() {
        let now = start.elapsed().as_secs_f64();
        if due[i] > now {
            std::thread::sleep(Duration::from_secs_f64(due[i] - now));
        }
        let now = start.elapsed().as_secs_f64();
        while i < due.len() && due[i] <= now {
            let at = Instant::now();
            let ticket = svc.submit(stream[(first + i) % stream.len()]);
            let back = if spans { Instant::now() } else { at };
            flight.push_back((ticket, (i, at, back)));
            i += 1;
        }
        take_ready(&mut flight, &mut take_in);
    }
    let last_sent = Instant::now();
    for (ticket, sent) in flight {
        take_in(sent, resolve(ticket));
    }
    out.backlog_end = answered_at.iter().filter(|&&t| t > last_sent).count() as u64;
    out.kept = sampler.into_kept();
    out
}

/// One thread keeping [`IN_FLIGHT`] tickets in flight for `duration_s`, in
/// `bursts` equal bursts with the pipeline drained between them.
///
/// The service's five threads saturate this box's two cores, and which of
/// them share a core decides the throughput: an unbroken closed loop sits on
/// one placement for seconds (plateaus at about 20, 33 and 50 thousand
/// queries a second on `serve_hot` were all seen within one run). Draining
/// lets every thread sleep, so the next burst starts on a fresh placement
/// and one run samples many; each burst is one slice of the reported median.
///
/// Inside a burst the client blocks on the oldest ticket, then takes in
/// every further answer already there without blocking, and refills: a flush
/// answers a whole tile at once, so the client sleeps about once per tile
/// and its own wake-ups stay out of the number. A sample sits on the phase
/// clock at its burst's offset plus its completion time inside the burst;
/// the answers of a burst's drain sit outside the window and count only as
/// operations.
fn closed_loop(
    svc: &Service,
    stream: &[KnntaQuery],
    first: usize,
    duration_s: f64,
    bursts: usize,
    head: usize,
    mut sampler: Sampler<Vec<QueryHit>>,
) -> Phase {
    let burst_s = duration_s / bursts as f64;
    let mut flight: VecDeque<(Ticket, (usize, Instant))> = VecDeque::with_capacity(IN_FLIGHT);
    let mut next = 0usize;
    let mut out = Phase {
        duration_s,
        ..Phase::default()
    };
    for burst in 0..bursts {
        let start = Instant::now();
        let mut take_in = |(i, at): (usize, Instant), answer: Option<Answer>| {
            out.attempted += 1;
            let Some((hits, latency)) = answer else {
                out.failed += 1;
                return;
            };
            let inside = (at + latency)
                .saturating_duration_since(start)
                .as_secs_f64();
            out.samples.push(Sample {
                at_s: if inside < burst_s {
                    burst as f64 * burst_s + inside
                } else {
                    -1.0
                },
                us: latency.as_secs_f64() * 1e6,
            });
            if i < head {
                out.head.push(hits.clone());
            }
            if sampler.wants(i) {
                sampler.keep((first + i) % stream.len(), hits);
            }
        };
        loop {
            let open = start.elapsed().as_secs_f64() < burst_s;
            while open && flight.len() < IN_FLIGHT {
                let at = Instant::now();
                flight.push_back((
                    svc.submit(stream[(first + next) % stream.len()]),
                    (next, at),
                ));
                next += 1;
            }
            let Some((ticket, sent)) = flight.pop_front() else {
                break;
            };
            take_in(sent, resolve(ticket));
            take_ready(&mut flight, &mut take_in);
        }
        std::thread::sleep(BURST_GAP);
    }
    out.kept = sampler.into_kept();
    out
}

/// A phase whose generator could not hold its schedule measures the
/// generator, not the service: the median query sent later than a quarter of
/// the phase's own median latency, or more tickets in flight at the last
/// send than four p95s of arrivals (the backlog is growing). Returns the p99
/// lateness, which is reported but not judged: on two shared cores one
/// oversleep in a hundred is the host's doing, and it is charged to the
/// query's latency either way.
fn validity(
    name: &str,
    rate: f64,
    phase: &mut Phase,
    p50_us: f64,
    p95_us: f64,
    ledger: &mut Ledger,
) -> f64 {
    let late_p50 = percentile_of(&mut phase.late_us, 0.50);
    if late_p50 > p50_us / 4.0 {
        ledger.invalid.push(format!(
            "{name}: median generator lateness {late_p50:.0} us exceeds a quarter of the median latency {p50_us:.0} us"
        ));
    }
    let allowed = 4.0 * rate * p95_us / 1e6 + 64.0;
    if phase.backlog_end as f64 > allowed {
        ledger.invalid.push(format!(
            "{name}: backlog {} at the last send exceeds {allowed:.0}",
            phase.backlog_end
        ));
    }
    percentile_of(&mut phase.late_us, 0.99)
}

/// Per-shard serving state built through the public layer functions, the
/// way `Service::start` builds it inside.
struct Shards {
    trees: Vec<(TarIndex, PackedTarTree)>,
    partition_ms: f64,
    build_s: f64,
    pack_ms: f64,
    image_bytes: usize,
}

fn build_shards(data: &Data, pois: &[(Poi, AggregateSeries)]) -> Shards {
    let positions: Vec<Poi> = pois.iter().map(|(p, _)| *p).collect();
    let t = Instant::now();
    let parts = partition_pois(&positions, &data.bounds, SHARDS);
    let partition_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut build_s, mut pack_ms, mut image_bytes) = (0.0, 0.0, 0);
    let trees = parts
        .iter()
        .map(|part| {
            let t = Instant::now();
            let index = TarIndex::build(
                IndexConfig::default(),
                data.lbsn.grid.clone(),
                data.bounds,
                part.iter().map(|&i| pois[i].clone()),
            );
            build_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let packed = index.pack();
            pack_ms += t.elapsed().as_secs_f64() * 1e3;
            image_bytes += packed.byte_len();
            (index, packed)
        })
        .collect();
    Shards {
        trees,
        partition_ms,
        build_s,
        pack_ms,
        image_bytes,
    }
}

/// One phase's view of the service's latency-segment histograms: the
/// window is configured never to rotate, so the difference between two
/// snapshots is exactly what the phase between them recorded.
struct Cut {
    hists: Vec<Hist>,
    counters: Vec<(String, u64)>,
}

struct Hist {
    name: String,
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
    bounds: Vec<u64>,
}

impl Cut {
    fn take(svc: &Service) -> Cut {
        let doc = svc.telemetry().snapshot();
        Cut {
            hists: doc
                .histograms
                .iter()
                .map(|h| Hist {
                    name: h.name.clone(),
                    count: h.count,
                    sum: h.sum,
                    buckets: h.buckets.clone(),
                    bounds: h.bounds.clone(),
                })
                .collect(),
            counters: doc
                .counters
                .iter()
                .map(|c| (c.name.clone(), c.lifetime))
                .collect(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |c| c.1)
    }

    /// `(mean, p95 as a bucket's upper bound)` of histogram `name` between
    /// `earlier` and `self`.
    fn segment(&self, earlier: &Cut, name: &str) -> (f64, f64) {
        let Some(now) = self.hists.iter().find(|h| h.name == name) else {
            return (0.0, 0.0);
        };
        let before = earlier.hists.iter().find(|h| h.name == name);
        let count = now.count - before.map_or(0, |h| h.count);
        if count == 0 {
            return (0.0, 0.0);
        }
        let sum = now.sum - before.map_or(0, |h| h.sum);
        let rank = (0.95 * count as f64).ceil() as u64;
        let mut cum = 0;
        // The overflow bucket has no bound of its own: report the last one.
        let mut p95 = now.bounds.last().copied().unwrap_or(0);
        for (i, b) in now.buckets.iter().enumerate() {
            cum += b - before.map_or(0, |h| h.buckets[i]);
            if cum >= rank {
                p95 = now.bounds.get(i).copied().unwrap_or(p95);
                break;
            }
        }
        (sum as f64 / count as f64, p95 as f64)
    }
}

const SEGMENTS: [(&str, &str); 4] = [
    ("admit", knnta_service::W_ADMIT_US),
    ("queue", knnta_service::W_QUEUE_US),
    ("scatter", knnta_service::W_SCATTER_US),
    ("merge", knnta_service::W_MERGE_US),
];

/// Records one open-loop phase's service segments and client view under
/// `service.<tag>.*` / `client.<tag>_*`, and returns the segment means and
/// the client's mean latency.
fn record_open_phase(
    tag: &str,
    rate: f64,
    phase: &mut Phase,
    before: &Cut,
    after: &Cut,
    ledger: &mut Ledger,
) -> ([f64; 4], f64) {
    let p50 = sliced_percentile(&phase.samples, phase.duration_s, SLICES, 0.50);
    let p95 = sliced_percentile(&phase.samples, phase.duration_s, SLICES, 0.95);
    ledger.set_sliced(&format!("client.{tag}_p50_us"), p50);
    ledger.set_sliced(&format!("client.{tag}_p95_us"), p95);
    let late_p99 = validity(tag, rate, phase, p50.median, p95.median, ledger);
    ledger.set(&format!("client.{tag}_late_p99_us"), late_p99);
    ledger.set_sliced(
        &format!("client.{tag}_achieved_qps"),
        sliced_rate(&phase.samples, phase.duration_s, SLICES),
    );
    let mut means = [0.0; 4];
    for (slot, (seg, hist)) in means.iter_mut().zip(SEGMENTS) {
        let (m, p95) = after.segment(before, hist);
        *slot = m;
        ledger.set(&format!("service.{tag}.{seg}_mean_us"), m);
        if tag == "hi" {
            ledger.set(&format!("service.{tag}.{seg}_p95_us"), p95);
        }
    }
    let client_mean = mean(&phase.samples.iter().map(|s| s.us).collect::<Vec<_>>());
    let residual = client_mean - means.iter().sum::<f64>();
    ledger.note(format!(
        "residual {tag}: client mean e2e {client_mean:.1} us = admit {:.1} + queue {:.1} + scatter {:.1} + merge {:.1} + residual {residual:.1}",
        means[0], means[1], means[2], means[3],
    ));
    if tag == "hi" {
        ledger.set(
            "service.residual_share",
            100.0 * residual / client_mean.max(f64::MIN_POSITIVE),
        );
    }
    (means, client_mean)
}

/// Checks a phase's sampled answers against the unsharded scan and books
/// the phase's operations.
fn book(
    name: &str,
    phase: &Phase,
    stream: &[KnntaQuery],
    oracle: &ScanBaseline,
    ledger: &mut Ledger,
) {
    let wrong = mismatches(
        oracle,
        phase
            .kept
            .iter()
            .map(|(i, hits)| (&stream[*i], hits.as_slice())),
    );
    ledger.ops(name, phase.attempted, phase.failed + wrong);
}

pub fn run(kind: Kind, cfg: &RunCfg) -> Ledger {
    let data = Data::generate("GW", 0.02, 7, cfg);
    let pois = data.pois();
    let load = kind.load();
    let stream = kind.stream(&data, load.k, cfg.seed);
    let mut ledger = Ledger::default();
    if cfg.traced {
        traced(kind, cfg, &data, &pois, &load, &stream, &mut ledger);
    } else {
        untraced(cfg, &data, &pois, &load, &stream, &mut ledger);
    }
    ledger
}

fn start(
    data: &Data,
    pois: &[(Poi, AggregateSeries)],
    telemetry: TelemetryConfig,
    obs: Obs,
) -> (Service, f64) {
    let pois = pois.to_vec();
    let t = Instant::now();
    let svc = Service::start(
        service_config(telemetry),
        data.lbsn.grid.clone(),
        data.bounds,
        pois,
        obs,
    );
    (svc, t.elapsed().as_secs_f64())
}

/// The end-to-end run: tracing off, telemetry at its shipped default.
fn untraced(
    cfg: &RunCfg,
    data: &Data,
    pois: &[(Poi, AggregateSeries)],
    load: &Load,
    stream: &[KnntaQuery],
    ledger: &mut Ledger,
) {
    // Three services one after the other, each started (that is the set-up
    // measured three times), warmed, and given a third of every phase.
    // Where the scheduler puts a service's threads is settled when they are
    // spawned and moves the latency for as long as they live; three services
    // a run put three placements into every number instead of one.
    let s = cfg.seconds / REPS as f64;
    let (warm_s, open_s, closed_s) = (0.05 * s, 0.55 * s, 0.40 * s);
    let bursts = load.bursts(closed_s);
    let check = || Sampler::new(cfg.seed, CHECK_CAP / REPS);
    let mut off = Recorder::new(false, Instant::now());
    let mut setups = Vec::new();
    let mut cursor = 0usize;
    let (mut warm, mut open, mut closed) = (Phase::default(), Phase::default(), Phase::default());
    for rep in 0..REPS {
        let (svc, secs) = start(data, pois, TelemetryConfig::default(), Obs::disabled());
        setups.push(secs);
        let part = closed_loop(&svc, stream, cursor, warm_s, 1, 0, check());
        cursor += part.attempted as usize;
        warm.absorb(part);

        let due = poisson_schedule(
            &mut StdRng::seed_from_u64(cfg.seed ^ 0x0D0E ^ ((rep as u64) << 32)),
            load.rate_hi,
            open_s,
        );
        let part = open_loop(&svc, stream, cursor, &due, open_s, check(), &mut off);
        cursor += due.len();
        open.absorb(part);

        let part = closed_loop(&svc, stream, cursor, closed_s, bursts, 0, check());
        cursor += part.attempted as usize;
        closed.absorb(part);
    }
    ledger.set_sliced("setup_s", slice_median(&setups));
    ledger.set(
        "image_bytes_per_poi",
        build_shards(data, pois).image_bytes as f64 / pois.len() as f64,
    );
    let slices = SLICES * REPS;
    let p50 = sliced_percentile(&open.samples, open.duration_s, slices, 0.50);
    let p95 = sliced_percentile(&open.samples, open.duration_s, slices, 0.95);
    ledger.set_sliced("p50_us", p50);
    ledger.set_sliced("p95_us", p95);
    validity(
        "open",
        load.rate_hi,
        &mut open,
        p50.median,
        p95.median,
        ledger,
    );
    ledger.set_sliced(
        "peak_qps",
        sliced_rate(&closed.samples, closed.duration_s, bursts * REPS),
    );

    let oracle = ScanBaseline::build(data.lbsn.grid.clone(), data.bounds, pois.iter().cloned());
    book("warm-up (closed loop)", &warm, stream, &oracle, ledger);
    book(
        &format!("open loop {}/s", load.rate_hi),
        &open,
        stream,
        &oracle,
        ledger,
    );
    book(
        "closed loop 256 in flight",
        &closed,
        stream,
        &oracle,
        ledger,
    );
    ledger.set("peak_rss_mb", peak_rss_mb());
}

/// The per-layer run, on two services.
///
/// The first has tracing off and its telemetry window set never to rotate:
/// both fixed rates and the closed loop, with the service's own segment
/// histograms cut at the phase boundaries and the benchmark's spans around
/// every query of the `rate_hi` phase. Telemetry is always on in the shipped
/// service, so these segment times are the ones the end-to-end run had.
///
/// The second has `Obs::enabled()` — which alone costs the service most of
/// its throughput, so nothing timed is taken from it: it runs the closed
/// loop for the counters below the executor, the flush tiles, and the
/// tracing overhead. The tiles are then replayed offline through the public
/// layer functions.
fn traced(
    kind: Kind,
    cfg: &RunCfg,
    data: &Data,
    pois: &[(Poi, AggregateSeries)],
    load: &Load,
    stream: &[KnntaQuery],
    ledger: &mut Ledger,
) {
    let s = cfg.seconds;
    ledger.set("lbsn.generate_s", data.generate_s);
    let whole_run = TelemetryConfig {
        advance_every_flushes: u64::MAX,
        ..TelemetryConfig::default()
    };
    let (svc, start_s) = start(data, pois, whole_run.clone(), Obs::disabled());
    ledger.set("service.start_s", start_s);
    let mut rec = Recorder::new(true, Instant::now());
    let mut off = Recorder::new(false, Instant::now());
    let check = || Sampler::new(cfg.seed, CHECK_CAP);

    let warm = closed_loop(&svc, stream, 0, 0.05 * s, 1, 0, check());
    let mut cursor = warm.attempted as usize;

    let cut0 = Cut::take(&svc);
    let lo_s = 0.20 * s;
    let due_lo = poisson_schedule(
        &mut StdRng::seed_from_u64(cfg.seed ^ 0x0D0E),
        load.rate_lo,
        lo_s,
    );
    let mut lo = open_loop(&svc, stream, cursor, &due_lo, lo_s, check(), &mut off);
    cursor += due_lo.len();
    let cut1 = Cut::take(&svc);
    let (lo_means, lo_mean) = record_open_phase("lo", load.rate_lo, &mut lo, &cut0, &cut1, ledger);

    let hi_s = 0.20 * s;
    let due_hi = poisson_schedule(
        &mut StdRng::seed_from_u64(cfg.seed ^ 0x0D0F),
        load.rate_hi,
        hi_s,
    );
    let mut hi = open_loop(&svc, stream, cursor, &due_hi, hi_s, check(), &mut rec);
    cursor += due_hi.len();
    let cut2 = Cut::take(&svc);
    let (hi_means, hi_mean) = record_open_phase("hi", load.rate_hi, &mut hi, &cut1, &cut2, ledger);
    ledger.set_sliced(
        "client.hi_p99_us",
        sliced_percentile(&hi.samples, hi_s, SLICES, 0.99),
    );
    ledger.set("client.backlog_end", hi.backlog_end as f64);

    let closed_s = 0.20 * s;
    let bursts = load.bursts(closed_s);
    let untraced = closed_loop(&svc, stream, cursor, closed_s, bursts, 0, check());
    cursor += untraced.attempted as usize;
    let untraced_qps = sliced_rate(&untraced.samples, closed_s, bursts).median;
    let cut3 = Cut::take(&svc);
    let flushes = cut3.counter(knnta_service::W_FLUSHES).max(1) as f64;
    ledger.set(
        "service.batch_mean",
        cut3.counter(knnta_service::W_ANSWERED) as f64 / flushes,
    );
    ledger.set(
        "service.flush_full_share",
        100.0 * cut3.counter(knnta_service::telemetry::W_FLUSH_FULL) as f64 / flushes,
    );
    ledger.set(
        "service.failures",
        cut3.counter(knnta_service::telemetry::W_FAILURES) as f64,
    );
    let doc = svc.telemetry().snapshot();
    ledger.set(
        "service.retries",
        doc.counters
            .iter()
            .filter(|c| c.name.ends_with(".retries"))
            .map(|c| c.lifetime)
            .sum::<u64>() as f64,
    );
    ledger.set(
        "service.imbalance_x1000",
        doc.gauge(knnta_service::G_IMBALANCE_X1000).unwrap_or(0) as f64,
    );
    if let Some(h) = doc.histogram(Executor::RATIO_METRIC) {
        ledger.set(
            "plan.calibration_ratio",
            h.sum as f64 / h.count.max(1) as f64 / 1000.0,
        );
    }
    drop(svc);

    // The second service: Obs::enabled().
    let obs = Obs::enabled();
    let (svc, _) = start(data, pois, whole_run, obs.clone());
    let rewarm = closed_loop(&svc, stream, cursor, 0.05 * s, 1, 0, check());
    cursor += rewarm.attempted as usize;
    let warmed = Cut::take(&svc);
    let first_flush = warmed.counter(knnta_service::W_FLUSHES);
    let answered0 = warmed.counter(knnta_service::W_ANSWERED);
    let counters0 = obs.metrics_snapshot();
    let replay_first = cursor;
    let closed = closed_loop(
        &svc,
        stream,
        cursor,
        closed_s,
        bursts,
        REPLAY_QUERIES,
        check(),
    );
    let traced_qps = sliced_rate(&closed.samples, closed_s, bursts).median;
    ledger.set(
        "trace.overhead_share",
        100.0 * (1.0 - traced_qps / untraced_qps.max(f64::MIN_POSITIVE)),
    );
    let answered = (Cut::take(&svc).counter(knnta_service::W_ANSWERED) - answered0).max(1) as f64;
    let counters = obs.metrics_snapshot();
    let delta = |name: &str| {
        (counters.counter(name).unwrap_or(0) - counters0.counter(name).unwrap_or(0)) as f64
    };
    // Per answered query, summed over both shards.
    for (metric, counter) in [
        (
            "collective.node_accesses_per_query",
            "knnta.core.search.node_accesses",
        ),
        (
            "packed.fetches_per_query",
            "knnta.core.storage.packed.fetches",
        ),
        (
            "frontier.heap_pushes_per_query",
            "knnta.core.search.heap_pushes",
        ),
        (
            "frontier.heap_pops_per_query",
            "knnta.core.search.heap_pops",
        ),
        (
            "tempora.epochs_scanned_per_query",
            "knnta.tempora.series.epochs_scanned",
        ),
    ] {
        ledger.set(metric, delta(counter) / answered);
    }
    let (hits, misses) = (
        delta("knnta.core.agg_cache.hits"),
        delta("knnta.core.agg_cache.misses"),
    );
    ledger.set(
        "agg_cache.hit_share",
        100.0 * hits / (hits + misses).max(1.0),
    );

    // The flush tiles of that closed loop, from the service's own admit
    // spans: admission is FIFO behind one submitting thread, so tile j is
    // the next `batch` queries in submit order.
    let mut batches: Vec<(u64, usize)> = obs
        .trace_snapshot()
        .spans_named("admit")
        .filter_map(|sp| {
            let flush = sp.attr("flush")?.as_u64()?;
            let batch = sp.attr("batch")?.as_u64()? as usize;
            (flush > first_flush).then_some((flush, batch))
        })
        .collect();
    batches.sort_unstable();
    drop(svc);

    // Replay: partition → per-shard build + pack → query_batch under the
    // global root-max → merge_ranked, on one thread.
    let shards = build_shards(data, pois);
    ledger.set("shard.partition_ms", shards.partition_ms);
    ledger.set("index.build_s", shards.build_s);
    ledger.set("packed.pack_ms", shards.pack_ms);
    ledger.set(
        "packed.bytes_per_poi",
        shards.image_bytes as f64 / pois.len() as f64,
    );
    let gmax = AggregateSeries::max_of(pois.iter().map(|(_, s)| s));
    let mut execs: Vec<Executor<'_>> = shards
        .trees
        .iter()
        .map(|(index, packed)| {
            Executor::new(index)
                .with_packed(packed)
                .with_root_max(&gmax)
        })
        .collect();
    let (mut at, mut tile_no) = (0usize, 0u64);
    let (mut exec_us, mut merge_us, mut wrong) = (0.0, 0.0, 0u64);
    for (_, batch) in batches {
        if at + batch > closed.head.len() {
            break;
        }
        let tile: Vec<KnntaQuery> = (at..at + batch)
            .map(|i| stream[(replay_first + i) % stream.len()])
            .collect();
        let t0 = Instant::now();
        let root = rec.add("replay.tile", tile_no, SpanRef::NONE, t0, t0);
        let mut slowest = 0.0f64;
        let per_shard: Vec<Vec<Vec<QueryHit>>> = execs
            .iter_mut()
            .map(|exec| {
                let t = Instant::now();
                let lists = if tile.len() == 1 {
                    vec![exec.query(&tile[0])]
                } else {
                    exec.query_batch(&tile)
                };
                let end = Instant::now();
                slowest = slowest.max((end - t).as_secs_f64() * 1e6);
                rec.add("replay.query_batch", tile_no, root, t, end);
                lists
            })
            .collect();
        exec_us += slowest;
        for (j, q) in tile.iter().enumerate() {
            let lists: Vec<Vec<QueryHit>> = per_shard.iter().map(|l| l[j].clone()).collect();
            let t = Instant::now();
            let merged = merge_ranked(&lists, q.k);
            let end = Instant::now();
            merge_us += (end - t).as_secs_f64() * 1e6;
            rec.add("replay.merge_ranked", tile_no, root, t, end);
            if !same_answer(&merged, &closed.head[at + j]) {
                wrong += 1;
            }
        }
        rec.close(root, Instant::now());
        at += batch;
        tile_no += 1;
    }
    drop(execs);
    let replayed = at.max(1) as f64;
    ledger.set("replay.exec_us_per_query", exec_us / replayed);
    ledger.set("replay.merge_us_per_query", merge_us / replayed);
    ledger.set("shard.merge_ranked_ns", merge_us * 1e3 / replayed);
    ledger.ops("replay of served tiles", at as u64, wrong);
    ledger.note(format!(
        "replay: {at} queries in {tile_no} tiles of the traced closed loop; slowest-shard exec {:.1} us/query, merge {:.2} us/query",
        exec_us / replayed,
        merge_us / replayed
    ));
    let share = |part: f64, mean: f64| 100.0 * part / mean.max(f64::MIN_POSITIVE);
    ledger.note(format!(
        "prediction ({kind:?}): of mean latency, admit+queue are {:.0}% at rate_lo and {:.0}% at rate_hi; scatter is {:.0}% at rate_lo and {:.0}% at rate_hi",
        share(lo_means[0] + lo_means[1], lo_mean),
        share(hi_means[0] + hi_means[1], hi_mean),
        share(lo_means[2], lo_mean),
        share(hi_means[2], hi_mean)
    ));

    let oracle = ScanBaseline::build(data.lbsn.grid.clone(), data.bounds, pois.iter().cloned());
    book("warm-up (closed loop)", &warm, stream, &oracle, ledger);
    book(
        &format!("open loop {}/s", load.rate_lo),
        &lo,
        stream,
        &oracle,
        ledger,
    );
    book(
        &format!("open loop {}/s", load.rate_hi),
        &hi,
        stream,
        &oracle,
        ledger,
    );
    book(
        "closed loop 256 in flight",
        &untraced,
        stream,
        &oracle,
        ledger,
    );
    book(
        "closed loop 256 in flight, Obs enabled",
        &closed,
        stream,
        &oracle,
        ledger,
    );
    rec.report(cfg.trace_out.as_deref(), ledger);
}
