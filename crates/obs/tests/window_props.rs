//! Property tests for the metrics registry: the sliding window must forget
//! rotated-out epochs exactly while the lifetime keeps every sample, and the
//! tail sampler must stay within its memory bound while keeping exactly the
//! set its window threshold implies.

use knnta_obs::bounds::LATENCY_US;
use knnta_obs::metrics::{quantile_from, HistogramDoc};
use knnta_obs::{MetricsDoc, Registry, TailConfig, TailSampler, TraceDoc, TRACE_SCHEMA};
use knnta_util::prop::{check, Gen};

/// Every recorded sample plus the tick it landed on — the shadow model keeps
/// every sample forever and filters by tick, which is exactly the behaviour
/// the ring of epoch cells must reproduce without keeping anything.
struct Shadow {
    slots: u64,
    samples: Vec<(u64, u64)>, // (tick, value)
}

/// `(buckets over LATENCY_US, count, sum, max)` of `values`.
fn tally(values: impl Iterator<Item = u64>) -> (Vec<u64>, u64, u64, u64) {
    let mut buckets = vec![0u64; LATENCY_US.len() + 1];
    let (mut count, mut sum, mut max) = (0, 0, 0);
    for v in values {
        let i = LATENCY_US
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(LATENCY_US.len());
        buckets[i] += 1;
        count += 1;
        sum += v;
        max = u64::max(max, v);
    }
    (buckets, count, sum, max)
}

/// What a counter adds for a recorded sample `v` (zero sometimes, which the
/// counter skips).
fn increment(v: u64) -> u64 {
    v % 100
}

impl Shadow {
    fn in_window(&self, now: u64) -> impl Iterator<Item = u64> + '_ {
        let oldest = now.saturating_sub(self.slots - 1);
        self.samples
            .iter()
            .filter(move |&&(t, _)| t >= oldest)
            .map(|&(_, v)| v)
    }

    /// Window `(count, max, q-quantile)` at tick `now`.
    fn expected(&self, now: u64, q: f64) -> (u64, u64, u64) {
        let (buckets, count, _, max) = tally(self.in_window(now));
        (
            count,
            max,
            quantile_from(LATENCY_US, buckets, count, max, q),
        )
    }

    /// The lifetime view of a registry holding the `prop.count` counter and
    /// the `prop.latency_us` histogram: totals over every sample.
    fn lifetime(&self) -> MetricsDoc {
        let (buckets, count, sum, _) = tally(self.samples.iter().map(|&(_, v)| v));
        MetricsDoc {
            schema: knnta_obs::METRICS_SCHEMA.to_string(),
            counters: vec![(
                "prop.count".to_string(),
                self.samples.iter().map(|&(_, v)| increment(v)).sum(),
            )],
            gauges: Vec::new(),
            histograms: vec![HistogramDoc {
                name: "prop.latency_us".to_string(),
                bounds: LATENCY_US.to_vec(),
                buckets,
                count,
                sum,
            }],
        }
    }
}

/// Rotated-out buckets never contribute to the window, and always to the
/// lifetime: after an arbitrary interleaving of records and advances, count
/// / max / every quantile of the window equal those computed from only the
/// samples whose tick is still in-window, the counter's window total likewise,
/// and the lifetime view — of this registry and of a never-advanced one fed
/// the same samples — equals the all-samples total.
#[test]
fn window_rotation_forgets_exactly() {
    check("window_rotation_forgets_exactly", 64, |g: &mut Gen| {
        let slots = g.usize_in(1..6);
        let windows = Registry::new(slots);
        let hist = windows.histogram("prop.latency_us", LATENCY_US);
        let counter = windows.counter("prop.count");
        let forever = Registry::new(1);
        let forever_hist = forever.histogram("prop.latency_us", LATENCY_US);
        let forever_counter = forever.counter("prop.count");
        let mut shadow = Shadow {
            slots: slots as u64,
            samples: Vec::new(),
        };
        let ops = g.usize_in(1..120);
        for _ in 0..ops {
            if g.bool() {
                windows.advance();
            } else {
                let v = g.u64_in(0..20_000_000);
                hist.record(v);
                counter.add(increment(v));
                forever_hist.record(v);
                forever_counter.add(increment(v));
                shadow.samples.push((windows.tick(), v));
            }
            let now = windows.tick();
            for &q in &[0.0, 0.5, 0.95, 0.99, 1.0] {
                let (count, max, quant) = shadow.expected(now, q);
                assert_eq!(hist.window_count(), count, "count at tick {now}");
                assert_eq!(hist.window_max(), max, "max at tick {now}");
                assert_eq!(hist.quantile(q), quant, "q={q} at tick {now}");
            }
            let window_total: u64 = shadow.in_window(now).map(increment).sum();
            assert_eq!(
                counter.window_total(),
                window_total,
                "counter at tick {now}"
            );
            let lifetime = shadow.lifetime();
            assert_eq!(counter.lifetime(), lifetime.counters[0].1);
            assert_eq!(windows.metrics(), lifetime, "lifetime at tick {now}");
            assert_eq!(forever.metrics(), lifetime, "never-advanced registry");
        }
    });
}

fn tiny_trace(seq: u64) -> TraceDoc {
    TraceDoc {
        schema: TRACE_SCHEMA.into(),
        spans: vec![knnta_obs::trace::SpanDoc {
            id: 1,
            parent: 0,
            name: format!("q{seq}"),
            start_ns: 0,
            end_ns: 1,
            attrs: Vec::new(),
        }],
        events: Vec::new(),
    }
}

/// Replays one generated advance/offer stream against a fresh sampler over
/// a `slots`-epoch latency window, recording each latency into the window
/// before offering it as the service does. Returns the kept (seq, latency)
/// set plus how many trace closures actually ran — laziness is part of the
/// memory bound.
fn run_stream(
    stream: &[(bool, u64)],
    slots: usize,
    config: &TailConfig,
) -> (Vec<(u64, u64)>, u64) {
    let window = Registry::new(slots);
    let latency = window.histogram("prop.e2e_us", LATENCY_US);
    let sampler = TailSampler::new(config.clone(), latency.clone());
    let mut built = 0u64;
    for (i, &(adv, latency_us)) in stream.iter().enumerate() {
        if adv {
            window.advance();
        }
        latency.record(latency_us);
        sampler.offer(latency_us, || {
            built += 1;
            tiny_trace(i as u64)
        });
        assert!(
            sampler.kept_len() <= config.capacity,
            "reservoir exceeded capacity after offer {i}"
        );
    }
    (
        sampler
            .kept()
            .iter()
            .map(|k| (k.seq, k.latency_us))
            .collect(),
        built,
    )
}

/// The reservoir the sampler must keep: offer `seq` (1-based) is eligible
/// during warmup or when it reaches the shadow window's quantile at its
/// tick, and a full reservoir evicts its minimum `(latency, seq)` only for
/// something larger.
fn shadow_kept(stream: &[(bool, u64)], slots: usize, config: &TailConfig) -> Vec<(u64, u64)> {
    let mut shadow = Shadow {
        slots: slots as u64,
        samples: Vec::new(),
    };
    let mut tick = 0u64;
    let mut kept: Vec<(u64, u64)> = Vec::new(); // (latency, seq)
    for (i, &(adv, latency)) in stream.iter().enumerate() {
        tick += adv as u64;
        shadow.samples.push((tick, latency));
        let seq = i as u64 + 1;
        let threshold = shadow.expected(tick, config.quantile).2;
        if seq > config.warmup && latency < threshold {
            continue;
        }
        if kept.len() == config.capacity {
            let min = *kept.iter().min().expect("capacity >= 1");
            if (latency, seq) <= min {
                continue;
            }
            kept.retain(|&k| k != min);
        }
        kept.push((latency, seq));
    }
    let mut kept: Vec<(u64, u64)> = kept.into_iter().map(|(l, s)| (s, l)).collect();
    kept.sort_unstable();
    kept
}

/// The reservoir never exceeds its capacity, never materialises more traces
/// than it admitted, and the kept set is a pure function of the offer stream
/// and its window — exactly the set the keep-everything shadow computes with
/// `threshold = Shadow::expected(now, q)`, so replaying the same stream
/// yields the identical set, which is what makes `KNNTA_PROP_SEED`
/// reproduction of a tail capture meaningful.
#[test]
fn tail_sampler_is_bounded_and_deterministic() {
    check(
        "tail_sampler_is_bounded_and_deterministic",
        64,
        |g: &mut Gen| {
            let slots = g.usize_in(1..5);
            let config = TailConfig {
                capacity: g.usize_in(1..12),
                warmup: g.u64_in(0..16),
                quantile: [0.5, 0.95, 0.99, 1.0][g.usize_in(0..4)],
            };
            let stream: Vec<(bool, u64)> = g.vec(1, 200, |g| {
                // Heavy-tailed latencies so both sides of the threshold appear.
                let base = g.u64_in(1..1_000);
                let spike = if g.bool() { g.u64_in(0..5_000_000) } else { 0 };
                (g.usize_in(0..8) == 0, base + spike)
            });
            let (kept_a, built_a) = run_stream(&stream, slots, &config);
            let (kept_b, built_b) = run_stream(&stream, slots, &config);
            assert_eq!(kept_a, kept_b, "kept set must be deterministic per stream");
            assert_eq!(built_a, built_b);
            assert_eq!(
                kept_a,
                shadow_kept(&stream, slots, &config),
                "kept set vs shadow"
            );
            assert!(kept_a.len() <= config.capacity);
            assert!(
                built_a <= stream.len() as u64,
                "never builds more traces than offers"
            );
            // Sorted by admission order, and every kept latency is really from
            // the stream at that position (seq is 1-based).
            for w in kept_a.windows(2) {
                assert!(w[0].0 < w[1].0, "kept set sorted by seq");
            }
            for &(seq, latency) in &kept_a {
                assert_eq!(stream[seq as usize - 1].1, latency);
            }
        },
    );
}
