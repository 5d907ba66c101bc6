//! One metrics registry: counters, gauges and fixed-bucket histograms, each
//! counter and histogram a ring of per-epoch cells.
//!
//! Registration (name → handle) takes a mutex once per call; the handles
//! are bare atomics, so the hot path never locks. Names follow
//! `knnta.<crate>.<subsystem>.<name>` (see DESIGN.md §11).
//!
//! A [`Registry`] keeps, per counter and histogram, a ring of `slots` epoch
//! cells plus the *retired* total of every epoch rotated out. Recording is
//! one lock-free atomic add into the cell of the current **tick**; a window
//! reading sums the ring (exactly the last `slots` epochs) and a lifetime
//! reading adds the retired total. The tick is advanced by the *owner's*
//! clock — the service admission loop calls [`Registry::advance`] every N
//! flushes — never by wall-clock reads in a hot path, so contents are
//! deterministic under the seeded clocks the tests use. `advance` retires
//! the incoming slot before publishing the new tick; a record racing an
//! advance lands in either the outgoing or the fresh epoch (one sample of
//! bounded misattribution, never a stale bucket). The opt-in
//! [`crate::Obs`] registry is the same type with one slot that is never
//! advanced, so its window is its lifetime. Gauges are instantaneous and
//! carry no ring.
//!
//! Window quantiles walk the bucket counts to the target rank and report
//! that bucket's inclusive upper bound, clamped to the window's observed
//! max (so the overflow bucket reports the real max, not infinity).
//! Deterministic, allocation-free, and within one bucket width of the exact
//! order statistic.
//!
//! One registry has two wire views, sharing one JSON layout for their
//! counter, gauge and histogram sections. [`Registry::metrics`] is the
//! lifetime view, `knnta.metrics.v1` ([`MetricsDoc`], behind
//! `--metrics-out` and `knnta report`):
//!
//! ```json
//! {
//!   "schema": "knnta.metrics.v1",
//!   "counters": {"knnta.core.search.pops": 12},
//!   "gauges": {"knnta.core.batch.active": 3},
//!   "histograms": [
//!     {"name": "knnta.core.storage.paged.fetch_ns",
//!      "bounds": [1000, 10000], "buckets": [5, 2, 1],
//!      "count": 8, "sum": 31250}
//!   ]
//! }
//! ```
//!
//! [`Registry::snapshot`] is the window view, `knnta.snapshot.v1`
//! ([`SnapshotDoc`], behind `knnta serve --stats-out`, `knnta top` and
//! `knnta slo`): it adds the tick and the window length, counters become
//! `{"window", "lifetime"}` pairs, and histograms cover the window and carry
//! `max`, `p50`, `p95` and `p99`. Histogram `buckets` has one more entry
//! than `bounds` (the overflow bucket); `bounds` are inclusive upper bounds
//! in ascending order.

use knnta_util::json::{escape_string, JsonValue};
use knnta_util::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// The shared epoch counter: `slot = tick % slots`.
#[derive(Debug)]
struct Clock {
    tick: AtomicU64,
    slots: usize,
}

impl Clock {
    #[inline]
    fn slot(&self) -> usize {
        (self.tick.load(Ordering::Acquire) % self.slots as u64) as usize
    }
}

/// `slots` rows of `row` additive cells, one row per epoch, plus the
/// retired total of every row rotated out.
#[derive(Debug)]
struct Ring {
    clock: Arc<Clock>,
    row: usize,
    /// `slots * row` cells, slot-major.
    cells: Vec<AtomicU64>,
    retired: Vec<AtomicU64>,
}

impl Ring {
    fn new(clock: &Arc<Clock>, row: usize) -> Ring {
        let zeros = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Ring {
            clock: Arc::clone(clock),
            row,
            cells: zeros(clock.slots * row),
            retired: zeros(row),
        }
    }

    #[inline]
    fn row(&self, slot: usize) -> &[AtomicU64] {
        &self.cells[slot * self.row..(slot + 1) * self.row]
    }

    /// Cell `i` summed over the window.
    fn window(&self, i: usize) -> u64 {
        self.cells[i..]
            .iter()
            .step_by(self.row)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Cell `i` over the lifetime: the retired total plus the window.
    fn lifetime(&self, i: usize) -> u64 {
        self.retired[i].load(Ordering::Relaxed) + self.window(i)
    }

    /// Moves row `slot` into the retired total, leaving it zeroed.
    fn retire(&self, slot: usize) {
        for (retired, cell) in self.retired.iter().zip(self.row(slot)) {
            retired.fetch_add(cell.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// A counter handle (no-op when vended by a disabled registry or
/// [`crate::Obs`]).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<Ring>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the current epoch (a single atomic add; `0` is skipped).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            if n > 0 {
                c.row(c.clock.slot())[0].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Sum over the live window (0 for a no-op handle).
    pub fn window_total(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.window(0))
    }

    /// Lifetime total (0 for a no-op handle).
    pub fn lifetime(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.lifetime(0))
    }
}

/// A set-or-adjust gauge handle (no-op when vended by a disabled registry
/// or [`crate::Obs`]).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A histogram's cells: each ring row holds the `bounds.len() + 1` bucket
/// counts (overflow last), then the count, then the sum.
#[derive(Debug)]
struct HistCore {
    bounds: Vec<u64>,
    ring: Ring,
    /// Per-slot max observation (not additive, so not retired).
    maxes: Vec<AtomicU64>,
}

impl HistCore {
    fn count_cell(&self) -> usize {
        self.bounds.len() + 1
    }

    fn window_max(&self) -> u64 {
        self.maxes
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// One view's `(buckets, count, sum)`: `cell` is [`Ring::window`] or
    /// [`Ring::lifetime`].
    fn read(&self, cell: impl Fn(&Ring, usize) -> u64) -> (Vec<u64>, u64, u64) {
        let count = self.count_cell();
        let buckets = (0..count).map(|i| cell(&self.ring, i)).collect();
        (
            buckets,
            cell(&self.ring, count),
            cell(&self.ring, count + 1),
        )
    }
}

/// A fixed-bucket histogram handle (no-op when vended by a disabled
/// registry or [`crate::Obs`]). Bucket bounds are inclusive upper bounds.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistCore>>);

impl Histogram {
    /// Records one observation of `v` into the current epoch.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            let slot = h.ring.clock.slot();
            let row = h.ring.row(slot);
            let count = h.count_cell();
            let idx = h.bounds.iter().position(|&b| v <= b).unwrap_or(count - 1);
            row[idx].fetch_add(1, Ordering::Relaxed);
            row[count].fetch_add(1, Ordering::Relaxed);
            row[count + 1].fetch_add(v, Ordering::Relaxed);
            h.maxes[slot].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Observations in the live window (0 for a no-op handle): a sum of the
    /// per-slot counts.
    pub fn window_count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.ring.window(h.count_cell()))
    }

    /// Max observation in the live window (0 for a no-op handle).
    pub fn window_max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.window_max())
    }

    /// The `q`-quantile over the live window (0 when empty or no-op).
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.as_ref().map_or(0, |h| {
            quantile_from(
                &h.bounds,
                (0..h.count_cell()).map(|i| h.ring.window(i)),
                h.ring.window(h.count_cell()),
                h.window_max(),
                q,
            )
        })
    }
}

/// Walks bucket counts (summing to `total`) to the rank `ceil(q · total)`
/// and reports that bucket's inclusive upper bound, clamped to the observed
/// `max` (the overflow bucket therefore reports `max`). 0 when empty.
pub fn quantile_from(
    bounds: &[u64],
    buckets: impl IntoIterator<Item = u64>,
    total: u64,
    max: u64,
    q: f64,
) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, n) in buckets.into_iter().enumerate() {
        cum += n;
        if cum >= rank {
            return bounds.get(i).map_or(max, |&b| b.min(max));
        }
    }
    max
}

#[derive(Debug)]
struct RegistryCore {
    clock: Arc<Clock>,
    counters: Mutex<BTreeMap<String, Arc<Ring>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCore>>>,
}

/// Fetches `name` from `map`, registering `make()` under it first if absent.
fn register<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock();
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// The metrics registry. Cloning clones the `Arc`; a disabled registry
/// ([`Registry::default`]) vends no-op handles, so "metrics off" costs one
/// branch per site.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    core: Option<Arc<RegistryCore>>,
}

impl Registry {
    /// A live registry whose window spans `slots` epochs (`slots ≥ 1`).
    pub fn new(slots: usize) -> Registry {
        assert!(slots >= 1, "window needs at least one slot");
        Registry {
            core: Some(Arc::new(RegistryCore {
                clock: Arc::new(Clock {
                    tick: AtomicU64::new(0),
                    slots,
                }),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The current epoch tick (0 when disabled).
    pub fn tick(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.clock.tick.load(Ordering::Acquire))
    }

    /// Starts the next epoch: retires the incoming ring slot of every
    /// counter and histogram, then publishes the new tick. Called by the
    /// owner's clock (e.g. the service admission loop) — never from a hot
    /// path, never from wall-clock time.
    pub fn advance(&self) {
        let Some(core) = &self.core else { return };
        let next = core.clock.tick.load(Ordering::Acquire) + 1;
        let slot = (next % core.clock.slots as u64) as usize;
        for c in core.counters.lock().values() {
            c.retire(slot);
        }
        for h in core.histograms.lock().values() {
            h.ring.retire(slot);
            h.maxes[slot].store(0, Ordering::Relaxed);
        }
        core.clock.tick.store(next, Ordering::Release);
    }

    /// Registers (or fetches) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(
            self.core
                .as_ref()
                .map(|c| register(&c.counters, name, || Ring::new(&c.clock, 1))),
        )
    }

    /// Registers (or fetches) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(
            self.core
                .as_ref()
                .map(|c| register(&c.gauges, name, || AtomicI64::new(0))),
        )
    }

    /// Registers (or fetches) the histogram `name` with the given inclusive
    /// bucket upper bounds (strictly ascending; an overflow bucket is added
    /// automatically). Bounds of an already-registered histogram win.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram(self.core.as_ref().map(|c| {
            register(&c.histograms, name, || HistCore {
                bounds: bounds.to_vec(),
                ring: Ring::new(&c.clock, bounds.len() + 3),
                maxes: (0..c.clock.slots).map(|_| AtomicU64::new(0)).collect(),
            })
        }))
    }

    fn gauges(core: &RegistryCore) -> Vec<(String, i64)> {
        core.gauges
            .lock()
            .iter()
            .map(|(k, g)| (k.clone(), g.load(Ordering::Relaxed)))
            .collect()
    }

    /// The lifetime view: every metric's total since registration, sorted by
    /// name (empty when disabled).
    pub fn metrics(&self) -> MetricsDoc {
        let Some(core) = &self.core else {
            return MetricsDoc::default();
        };
        let counters = core.counters.lock();
        let histograms = core.histograms.lock();
        MetricsDoc {
            schema: crate::METRICS_SCHEMA.to_string(),
            counters: counters
                .iter()
                .map(|(k, c)| (k.clone(), c.lifetime(0)))
                .collect(),
            gauges: Self::gauges(core),
            histograms: histograms
                .iter()
                .map(|(k, h)| {
                    let (buckets, count, sum) = h.read(Ring::lifetime);
                    HistogramDoc {
                        name: k.clone(),
                        bounds: h.bounds.clone(),
                        buckets,
                        count,
                        sum,
                    }
                })
                .collect(),
        }
    }

    /// The window view (empty when disabled). Histogram quantiles are
    /// precomputed so consumers never re-derive them.
    pub fn snapshot(&self) -> SnapshotDoc {
        let Some(core) = &self.core else {
            return SnapshotDoc::default();
        };
        let counters = core.counters.lock();
        let histograms = core.histograms.lock();
        SnapshotDoc {
            schema: crate::SNAPSHOT_SCHEMA.to_string(),
            tick: core.clock.tick.load(Ordering::Acquire),
            windows: core.clock.slots as u64,
            counters: counters
                .iter()
                .map(|(k, c)| {
                    let window = c.window(0);
                    CounterDoc {
                        name: k.clone(),
                        window,
                        lifetime: c.retired[0].load(Ordering::Relaxed) + window,
                    }
                })
                .collect(),
            gauges: Self::gauges(core),
            histograms: histograms
                .iter()
                .map(|(k, h)| {
                    let (buckets, count, sum) = h.read(Ring::window);
                    let max = h.window_max();
                    let q = |q| quantile_from(&h.bounds, buckets.iter().copied(), count, max, q);
                    WindowHistDoc {
                        name: k.clone(),
                        bounds: h.bounds.clone(),
                        p50: q(0.50),
                        p95: q(0.95),
                        p99: q(0.99),
                        buckets,
                        count,
                        sum,
                        max,
                    }
                })
                .collect(),
        }
    }
}

/// One histogram in a [`MetricsDoc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramDoc {
    /// Metric name.
    pub name: String,
    /// Inclusive upper bucket bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries, the last
    /// being the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A metrics artifact: the lifetime view of a registry, or a parsed
/// `knnta.metrics.v1` JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDoc {
    /// Schema identifier (`knnta.metrics.v1`).
    pub schema: String,
    /// Counter (name, value) pairs sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge (name, value) pairs sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms sorted by name.
    pub histograms: Vec<HistogramDoc>,
}

/// One counter in a [`SnapshotDoc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDoc {
    /// Metric name.
    pub name: String,
    /// Sum over the live window.
    pub window: u64,
    /// Lifetime total.
    pub lifetime: u64,
}

/// One histogram in a [`SnapshotDoc`]: buckets over the live window plus
/// precomputed quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowHistDoc {
    /// Metric name.
    pub name: String,
    /// Inclusive upper bucket bounds, ascending.
    pub bounds: Vec<u64>,
    /// Window per-bucket counts; `bounds.len() + 1` entries (overflow last).
    pub buckets: Vec<u64>,
    /// Window observation count.
    pub count: u64,
    /// Window sum of observed values.
    pub sum: u64,
    /// Window max observation.
    pub max: u64,
    /// Window median (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// Window 95th percentile.
    pub p95: u64,
    /// Window 99th percentile.
    pub p99: u64,
}

impl WindowHistDoc {
    /// Recomputes the `q`-quantile from the serialized buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.buckets.iter().sum();
        quantile_from(
            &self.bounds,
            self.buckets.iter().copied(),
            total,
            self.max,
            q,
        )
    }
}

/// A live-telemetry snapshot: the window view of a registry, the stable
/// `knnta.snapshot.v1` artifact emitted by `knnta serve --stats-out` and
/// consumed by `knnta top` / `knnta slo`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotDoc {
    /// Schema identifier (`knnta.snapshot.v1`).
    pub schema: String,
    /// Epoch tick at snapshot time.
    pub tick: u64,
    /// Epochs per window.
    pub windows: u64,
    /// Counters sorted by name.
    pub counters: Vec<CounterDoc>,
    /// Gauge (name, value) pairs sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Window histograms sorted by name.
    pub histograms: Vec<WindowHistDoc>,
}

/// Appends `  "key": ` and a `brackets`-delimited section with one
/// `entry` per line — the layout of every section of both wire views.
fn write_section<T>(
    out: &mut String,
    key: &str,
    brackets: [char; 2],
    items: &[T],
    mut entry: impl FnMut(&mut String, &T),
) {
    let _ = write!(out, "  \"{key}\": {}", brackets[0]);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        entry(out, item);
    }
    if !items.is_empty() {
        out.push_str("\n  ");
    }
    out.push(brackets[1]);
}

/// Serializes one document: the schema line, `head` (the view's extra
/// top-level fields), then the counters, gauges and histograms sections.
fn write_doc<C, H>(
    schema: &str,
    head: &[(&str, u64)],
    counters: &[C],
    counter: impl Fn(&mut String, &C),
    gauges: &[(String, i64)],
    histograms: &[H],
    hist: impl Fn(&mut String, &H),
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"schema\": {},", escape_string(schema));
    for (key, v) in head {
        let _ = writeln!(out, "  \"{key}\": {v},");
    }
    write_section(&mut out, "counters", ['{', '}'], counters, counter);
    out.push_str(",\n");
    write_section(&mut out, "gauges", ['{', '}'], gauges, |out, (name, v)| {
        let _ = write!(out, "{}: {v}", escape_string(name));
    });
    out.push_str(",\n");
    write_section(&mut out, "histograms", ['[', ']'], histograms, hist);
    out.push_str("\n}\n");
    out
}

/// One histogram entry: name, bounds, buckets, count and sum, then the
/// view's `extra` fields.
fn write_hist(
    out: &mut String,
    name: &str,
    bounds: &[u64],
    buckets: &[u64],
    count: u64,
    sum: u64,
    extra: &[(&str, u64)],
) {
    let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let _ = write!(
        out,
        "{{\"name\": {}, \"bounds\": [{}], \"buckets\": [{}], \"count\": {count}, \"sum\": {sum}",
        escape_string(name),
        list(bounds),
        list(buckets)
    );
    for (key, v) in extra {
        let _ = write!(out, ", \"{key}\": {v}");
    }
    out.push('}');
}

/// The unsigned integer field `key` of `json`, which belongs to `what`.
fn u64_at(json: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{what} missing {key}"))
}

/// The `schema` string of a parsed document.
fn schema_of(v: &JsonValue) -> Result<String, String> {
    Ok(v.get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema")?
        .to_string())
}

/// The entries of the `key` object of a document, each built by `make`
/// from its name and value.
fn parse_object<T>(
    v: &JsonValue,
    key: &str,
    make: impl Fn(&String, &JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| format!("missing {key} object"))?
        .iter()
        .map(|(name, val)| make(name, val))
        .collect()
}

/// The gauges of a document.
fn parse_gauges(v: &JsonValue) -> Result<Vec<(String, i64)>, String> {
    parse_object(v, "gauges", |name, val| {
        let g = val
            .as_f64()
            .ok_or_else(|| format!("gauge {name} not a number"))?;
        Ok((name.clone(), g as i64))
    })
}

/// The histogram entries of a document — each the fields both views share,
/// and its JSON object for the view's own fields.
fn parse_histograms(v: &JsonValue) -> Result<Vec<(HistogramDoc, &JsonValue)>, String> {
    v.get("histograms")
        .and_then(JsonValue::as_arr)
        .ok_or("missing histograms array")?
        .iter()
        .map(|h| {
            let nums = |key: &str| -> Result<Vec<u64>, String> {
                h.get(key)
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| format!("histogram missing {key}"))?
                    .iter()
                    .map(|x| x.as_u64().ok_or_else(|| format!("bad {key} entry")))
                    .collect()
            };
            let doc = HistogramDoc {
                name: h
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("histogram missing name")?
                    .to_string(),
                bounds: nums("bounds")?,
                buckets: nums("buckets")?,
                count: u64_at(h, "count", "histogram")?,
                sum: u64_at(h, "sum", "histogram")?,
            };
            Ok((doc, h))
        })
        .collect()
}

/// The structural checks both views share: schema identifier, sorted
/// unique names per section, and histogram bucket arithmetic.
fn validate_doc<'a>(
    schema: &str,
    want: &str,
    names: [Vec<&String>; 3],
    histograms: impl Iterator<Item = (&'a String, &'a [u64], &'a [u64], u64)>,
) -> Result<(), String> {
    if schema != want {
        return Err(format!("unexpected schema {schema:?}"));
    }
    if names.iter().any(|n| n.windows(2).any(|w| w[0] >= w[1])) {
        return Err("metric names not sorted/unique".to_string());
    }
    for (name, bounds, buckets, count) in histograms {
        if buckets.len() != bounds.len() + 1 {
            return Err(format!("histogram {name} bucket/bound mismatch"));
        }
        if buckets.iter().sum::<u64>() != count {
            return Err(format!("histogram {name} count mismatch"));
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("histogram {name} bounds not ascending"));
        }
    }
    Ok(())
}

impl MetricsDoc {
    /// The counter value for `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Serializes to the `knnta.metrics.v1` schema.
    pub fn to_json(&self) -> String {
        write_doc(
            crate::METRICS_SCHEMA,
            &[],
            &self.counters,
            |out, (name, v)| {
                let _ = write!(out, "{}: {v}", escape_string(name));
            },
            &self.gauges,
            &self.histograms,
            |out, h| write_hist(out, &h.name, &h.bounds, &h.buckets, h.count, h.sum, &[]),
        )
    }

    /// Parses a `knnta.metrics.v1` document (round-trips [`MetricsDoc::to_json`]).
    pub fn parse(s: &str) -> Result<MetricsDoc, String> {
        let v = JsonValue::parse(s)?;
        let counters = parse_object(&v, "counters", |name, val| {
            let c = val
                .as_u64()
                .ok_or_else(|| format!("counter {name} not a number"))?;
            Ok((name.clone(), c))
        })?;
        Ok(MetricsDoc {
            schema: schema_of(&v)?,
            counters,
            gauges: parse_gauges(&v)?,
            histograms: parse_histograms(&v)?.into_iter().map(|(h, _)| h).collect(),
        })
    }

    /// Structural validation: schema identifier, sorted unique names,
    /// histogram bucket arithmetic.
    pub fn validate(&self) -> Result<(), String> {
        validate_doc(
            &self.schema,
            crate::METRICS_SCHEMA,
            [
                self.counters.iter().map(|(k, _)| k).collect(),
                self.gauges.iter().map(|(k, _)| k).collect(),
                self.histograms.iter().map(|h| &h.name).collect(),
            ],
            self.histograms
                .iter()
                .map(|h| (&h.name, &h.bounds[..], &h.buckets[..], h.count)),
        )
    }
}

impl SnapshotDoc {
    /// The counter entry for `name`, if present.
    pub fn counter(&self, name: &str) -> Option<&CounterDoc> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// The gauge value for `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// The histogram entry for `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&WindowHistDoc> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to the `knnta.snapshot.v1` schema.
    pub fn to_json(&self) -> String {
        write_doc(
            crate::SNAPSHOT_SCHEMA,
            &[("tick", self.tick), ("windows", self.windows)],
            &self.counters,
            |out, c| {
                let _ = write!(
                    out,
                    "{}: {{\"window\": {}, \"lifetime\": {}}}",
                    escape_string(&c.name),
                    c.window,
                    c.lifetime
                );
            },
            &self.gauges,
            &self.histograms,
            |out, h| {
                let extra = [
                    ("max", h.max),
                    ("p50", h.p50),
                    ("p95", h.p95),
                    ("p99", h.p99),
                ];
                write_hist(out, &h.name, &h.bounds, &h.buckets, h.count, h.sum, &extra)
            },
        )
    }

    /// Parses a `knnta.snapshot.v1` document (round-trips [`SnapshotDoc::to_json`]).
    pub fn parse(s: &str) -> Result<SnapshotDoc, String> {
        let v = JsonValue::parse(s)?;
        let counters = parse_object(&v, "counters", |name, val| {
            let what = format!("counter {name}");
            Ok(CounterDoc {
                name: name.clone(),
                window: u64_at(val, "window", &what)?,
                lifetime: u64_at(val, "lifetime", &what)?,
            })
        })?;
        let histograms = parse_histograms(&v)?
            .into_iter()
            .map(|(h, json)| {
                let num = |key| u64_at(json, key, "histogram");
                Ok(WindowHistDoc {
                    max: num("max")?,
                    p50: num("p50")?,
                    p95: num("p95")?,
                    p99: num("p99")?,
                    name: h.name,
                    bounds: h.bounds,
                    buckets: h.buckets,
                    count: h.count,
                    sum: h.sum,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(SnapshotDoc {
            schema: schema_of(&v)?,
            tick: u64_at(&v, "tick", "snapshot")?,
            windows: u64_at(&v, "windows", "snapshot")?,
            counters,
            gauges: parse_gauges(&v)?,
            histograms,
        })
    }

    /// Structural validation: schema identifier, sorted unique names,
    /// bucket arithmetic, counter `window ≤ lifetime`, and quantiles that
    /// match a recomputation from the serialized buckets.
    pub fn validate(&self) -> Result<(), String> {
        validate_doc(
            &self.schema,
            crate::SNAPSHOT_SCHEMA,
            [
                self.counters.iter().map(|c| &c.name).collect(),
                self.gauges.iter().map(|(k, _)| k).collect(),
                self.histograms.iter().map(|h| &h.name).collect(),
            ],
            self.histograms
                .iter()
                .map(|h| (&h.name, &h.bounds[..], &h.buckets[..], h.count)),
        )?;
        if self.windows == 0 {
            return Err("windows must be >= 1".to_string());
        }
        if let Some(c) = self.counters.iter().find(|c| c.window > c.lifetime) {
            return Err(format!("counter {} window exceeds lifetime", c.name));
        }
        for h in &self.histograms {
            if (h.p50, h.p95, h.p99) != (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)) {
                return Err(format!("histogram {} quantiles inconsistent", h.name));
            }
            if h.count > 0 && !(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max) {
                return Err(format!("histogram {} quantiles not monotonic", h.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let reg = Registry::default();
        assert!(!reg.is_enabled());
        let c = reg.counter("knnta.test.c");
        c.add(3);
        assert_eq!((c.window_total(), c.lifetime()), (0, 0));
        let g = reg.gauge("knnta.test.g");
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = reg.histogram("knnta.test.h", &[10]);
        h.record(5);
        assert_eq!((h.window_count(), h.quantile(0.5)), (0, 0));
        reg.advance();
        assert_eq!(reg.tick(), 0);
        assert_eq!(reg.snapshot(), SnapshotDoc::default());
        assert_eq!(reg.metrics(), MetricsDoc::default());
    }

    #[test]
    fn counters_and_gauges_register_once() {
        let reg = Registry::new(1);
        let a = reg.counter("knnta.x");
        let b = reg.counter("knnta.x");
        a.inc();
        b.add(4);
        assert_eq!(a.lifetime(), 5);
        let g = reg.gauge("knnta.g");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.gauge("knnta.g").get(), 7);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Registry::new(1).histogram("knnta.bad", &[10, 10]);
    }

    /// Bounds are *inclusive* upper bounds: a sample landing exactly on a
    /// bound must go to that bucket (not the next one up), and `sum`/`count`
    /// must stay consistent with the bucket tally, for every shared table.
    #[test]
    fn sample_on_inclusive_bound_keeps_sum_count_consistent() {
        for table in [
            crate::bounds::FETCH_NS,
            crate::bounds::LATENCY_US,
            crate::bounds::RATIO_X1000,
        ] {
            let reg = Registry::new(1);
            let h = reg.histogram("knnta.edge", table);
            for &b in table {
                h.record(b);
            }
            let doc = reg.metrics();
            doc.validate().unwrap();
            let hd = &doc.histograms[0];
            let mut want = vec![1u64; table.len()];
            want.push(0);
            assert_eq!(hd.buckets, want);
            assert_eq!(hd.count, table.len() as u64);
            assert_eq!(hd.sum, table.iter().sum::<u64>());
        }
    }

    /// A rotated-out epoch leaves the window but stays in the lifetime, for
    /// counters and histograms alike.
    #[test]
    fn window_forgets_rotated_out_epochs_lifetime_keeps_them() {
        let reg = Registry::new(3);
        let c = reg.counter("knnta.test.c");
        let h = reg.histogram("knnta.test.h", &[10, 100]);
        c.add(5);
        h.record(7);
        // Two advances keep the epoch in the 3-slot window...
        reg.advance();
        reg.advance();
        c.add(1);
        assert_eq!((c.window_total(), c.lifetime()), (6, 6));
        // ...the third rotates it out.
        reg.advance();
        h.record(500);
        assert_eq!((c.window_total(), c.lifetime()), (1, 6));
        assert_eq!((h.window_count(), h.window_max()), (1, 500));
        let hd = &reg.metrics().histograms[0];
        assert_eq!(
            (&hd.buckets[..], hd.count, hd.sum),
            (&[1, 0, 1][..], 2, 507)
        );
    }

    #[test]
    fn quantiles_walk_the_window_buckets() {
        let reg = Registry::new(4);
        let h = reg.histogram("knnta.test.h", &[10, 100, 1000]);
        // Spread records across epochs; quantiles cover all four slots.
        for (epoch, values) in [[1u64, 5, 9], [20, 30, 40], [200, 300, 400], [7, 8, 2000]]
            .iter()
            .enumerate()
        {
            if epoch > 0 {
                reg.advance();
            }
            for &v in values {
                h.record(v);
            }
        }
        assert_eq!(h.window_count(), 12);
        assert_eq!(h.window_max(), 2000);
        // 12 records: 5 ≤ 10, 3 ≤ 100, 3 ≤ 1000, 1 overflow.
        assert_eq!(h.quantile(0.50), 100);
        assert_eq!(h.quantile(0.75), 1000);
        // Overflow bucket reports the observed max, not infinity.
        assert_eq!(h.quantile(1.0), 2000);
        // Quantile never exceeds the observed max within a bucket either.
        let h2 = Registry::new(1).histogram("knnta.test.h2", &[1000]);
        h2.record(3);
        assert_eq!(h2.quantile(0.5), 3);
    }

    #[test]
    fn metrics_json_round_trips() {
        let reg = Registry::new(1);
        reg.counter("knnta.core.search.pops").add(12);
        reg.counter("knnta.core.search.pushes").add(30);
        reg.gauge("knnta.core.batch.active").set(-2);
        let h = reg.histogram("knnta.core.storage.paged.fetch_ns", &[1_000, 10_000]);
        h.record(500);
        h.record(20_000);
        for doc in [reg.metrics(), Registry::new(1).metrics()] {
            doc.validate().unwrap();
            let back = MetricsDoc::parse(&doc.to_json()).unwrap();
            back.validate().unwrap();
            assert_eq!(back, doc);
        }
        let doc = reg.metrics();
        assert_eq!(doc.histograms[0].buckets, vec![1, 0, 1]);
        assert_eq!(doc.counter("knnta.core.search.pops"), Some(12));
        assert_eq!(doc.counter("absent"), None);
    }

    #[test]
    fn snapshot_round_trips_and_validates() {
        let reg = Registry::new(2);
        let c = reg.counter("knnta.test.answered");
        let g = reg.gauge("knnta.test.depth");
        let h = reg.histogram("knnta.test.lat_us", &[100, 1000]);
        c.add(4);
        g.set(-2);
        for v in [50, 400, 70_000] {
            h.record(v);
        }
        reg.advance();
        c.add(1);
        let doc = reg.snapshot();
        doc.validate().unwrap();
        assert_eq!((doc.tick, doc.windows), (1, 2));
        let cd = doc.counter("knnta.test.answered").unwrap();
        assert_eq!((cd.window, cd.lifetime), (5, 5));
        assert_eq!(doc.gauge("knnta.test.depth"), Some(-2));
        let hd = doc.histogram("knnta.test.lat_us").unwrap();
        assert_eq!((hd.count, hd.max, hd.p99), (3, 70_000, 70_000));
        let back = SnapshotDoc::parse(&doc.to_json()).unwrap();
        back.validate().unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn validate_rejects_broken_docs() {
        let mut doc = Registry::new(1).metrics();
        doc.schema = "bogus".to_string();
        assert!(doc.validate().is_err());
        let mut doc = Registry::new(1).metrics();
        doc.counters = vec![("b".into(), 1), ("a".into(), 2)];
        assert!(doc.validate().is_err());
        let mut doc = Registry::new(1).metrics();
        doc.histograms = vec![HistogramDoc {
            name: "h".into(),
            bounds: vec![1],
            buckets: vec![1, 2],
            count: 99,
            sum: 0,
        }];
        assert!(doc.validate().is_err());

        let good = Registry::new(2).snapshot();
        good.validate().unwrap();
        let mut doc = good.clone();
        doc.windows = 0;
        assert!(doc.validate().is_err());
        let mut doc = good.clone();
        doc.counters = vec![CounterDoc {
            name: "c".into(),
            window: 5,
            lifetime: 3,
        }];
        assert!(doc.validate().is_err());
        let mut doc = good;
        doc.histograms = vec![WindowHistDoc {
            name: "h".into(),
            bounds: vec![10],
            buckets: vec![1, 0],
            count: 1,
            sum: 5,
            max: 5,
            p50: 9, // recomputation gives 5
            p95: 9,
            p99: 9,
        }];
        assert!(doc.validate().is_err());
    }
}
