//! `knnta` — command-line front end for the kNNTA / TAR-tree library.
//!
//! ```text
//! knnta generate --dataset GS --scale 0.01 --out venues.csv
//! knnta build    --input venues.csv --epoch-days 7 --grouping tar --out city.idx
//! knnta ingest   --dataset GS --events 1000000 --writers 4 --shards 8
//! knnta serve    --dataset GS --shards 4 --workers 2 --max-batch 64 --max-delay-us 200
//! knnta stats    --index city.idx
//! knnta query    --index city.idx --x 41 --y 57 --from-day 0 --to-day 64 --k 5 --alpha0 0.3
//! knnta mwa      --index city.idx --x 41 --y 57 --from-day 0 --to-day 64 --k 5 --alpha0 0.5
//! knnta skyline  --index city.idx --x 41 --y 57 --from-day 0 --to-day 64
//! ```
//!
//! The venues CSV is `id,x,y,epoch,count` (one row per non-zero epoch; a row
//! with `epoch = -1, count = 0` declares a POI with no check-ins yet).

use knnta::core::{
    BatchOrder, Executor, FrozenIndex, Grouping, IndexConfig, KnntaQuery, LiveIndex, LiveOptions,
    PagedNodes, PlanBackend, Poi, QueryPlan, TarIndex, MAX_EPOCHS,
};
use knnta::obs::{render_report, MetricsDoc, Obs, TraceDoc};
use knnta::pagestore::{AccessStats, BufferPoolConfig};
use knnta::service::client::{powerlaw_queries, run_open_loop, ClientConfig};
use knnta::service::{Service, ServiceConfig};
use knnta::util::rng::{Rng, StdRng};
use knnta::{AggregateSeries, CheckIn, EpochGrid, PoiId, TimeInterval, Timestamp};
use rtree::{RTreeParams, Rect};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;

/// Writes to stdout. A closed pipe (`knnta skyline … | head`) ends the
/// process quietly with status 0, like any Unix filter, where `println!`
/// would panic; every stdout write of the CLI goes through here (the
/// `out!` / `outln!` macros).
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through `emit`.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through `emit`.
macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `report` takes a positional trace path and `top` a positional snapshot
    // path; everything else is `--key value`.
    let (positional, flagged): (Vec<&String>, Vec<String>) = if cmd == "report" || cmd == "top" {
        let pos: Vec<&String> = rest.iter().take_while(|a| !a.starts_with("--")).collect();
        (pos.clone(), rest[pos.len()..].to_vec())
    } else {
        (Vec::new(), rest.to_vec())
    };
    // `report --metrics` takes a file path; `explain --metrics` is a switch.
    let extra_flags: &[&str] = if cmd == "explain" { &["metrics"] } else { &[] };
    let opts = match Opts::parse(&flagged, extra_flags, &known_options(cmd)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => generate(&opts),
        "build" => build(&opts),
        "ingest" => ingest(&opts),
        "serve" => serve(&opts),
        "stats" => stats(&opts),
        "query" => query(&opts),
        "batch" => batch(&opts),
        "explain" => explain(&opts),
        "report" => report(&positional, &opts),
        "top" => top(&positional, &opts),
        "slo" => slo(&opts),
        "mwa" => mwa(&opts),
        "skyline" => skyline(&opts),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "knnta — k-nearest-neighbor temporal aggregate queries (TAR-tree)

commands:
  generate  --dataset NYC|LA|GW|GS --out FILE [--scale S] [--epoch-days D] [--seed N]
  build     --input FILE --out FILE [--grouping tar|spa|agg] [--node-size B]
            [--epoch-days D] [--epochs N]
  ingest    --dataset NYC|LA|GW|GS [--scale S] [--epoch-days D] [--seed N]
            [--events N] [--writers W] [--shards S]
                            (drives the concurrent live-ingestion tier: W
                             writer threads stream N seeded check-ins into an
                             S-sharded LiveIndex while a sealer rolls epochs;
                             reports sustained check-ins/sec, event-counter
                             conservation, and snapshot-query latency both
                             mid-ingest and after the sealed deltas merge)
  serve     --dataset NYC|LA|GW|GS [--scale S] [--epoch-days D] [--seed N]
            [--shards N] [--workers W] [--max-batch B] [--max-delay-us D]
            [--queries Q] [--rate QPS] [--k K] [--alpha0 W]
            [--trace-out FILE] [--metrics-out FILE]
            [--stats-out FILE] [--stats-interval-ms N] [--tail-out FILE]
                            (--stats-out streams knnta.snapshot.v1 telemetry
                             snapshots — sliding-window latency histograms
                             with phase attribution, per-shard health gauges —
                             to FILE every N ms (default 100) and once more at
                             shutdown; --tail-out writes the sampled tail
                             traces as one knnta.trace.v1 document)
                            (starts the async sharded query service — streaming
                             admission into Hilbert locality tiles, N engine
                             shards × W workers, scatter-gather merge — and
                             drives it with a seeded open-loop power-law
                             client at QPS offered load; reports achieved
                             throughput and latency percentiles. Answers are
                             bit-identical to the unsharded index at any
                             --shards/--workers/--max-batch setting.)
  stats     --index FILE
  query     --index FILE --x X --y Y --from-day A --to-day B [--k K] [--alpha0 W]
            [--paged] [--buffer-slots N]
                            (--paged answers from tree nodes serialised onto
                             disk pages behind a buffer pool; results are
                             byte-identical to the in-memory search)
            [--packed]      (answers zero-copy from the immutable image the
                             index file holds, with no tree built; results
                             are byte-identical. Mutually exclusive with
                             --paged)
            [--trace-out FILE] [--metrics-out FILE]
                            (record a knnta.trace.v1 span trace and/or a
                             knnta.metrics.v1 counter snapshot; answers and
                             node-access accounting are unchanged)
            [--plan auto]   (let the cost-model planner choose the execution
                             configuration among the in-memory tree and any
                             --paged/--packed image supplied; prints the
                             chosen plan)
  batch     --index FILE --queries FILE [--batch-order hilbert|input]
            [--individual]
            [--paged] [--buffer-slots N] [--packed]
            [--trace-out FILE] [--metrics-out FILE]
                            (processes a query batch collectively — Hilbert
                             ordering, node fetches shared per tile — or one
                             query at a time with --individual; answers are
                             identical either way. The queries CSV is
                             `x,y,from_day,to_day[,k[,alpha0]]`.)
            [--plan auto]   (planner-chosen tile size and backend; conflicts
                             with --individual and --batch-order)
  explain   --index FILE --x X --y Y --from-day A --to-day B [--k K] [--alpha0 W]
            [--paged] [--buffer-slots N] [--packed]
            [--metrics]     (prints the plan the cost-model planner would
                             choose plus its paper-§6 node-access estimates;
                             --metrics also runs the query and reports the
                             estimate-vs-measured error and the updated
                             calibration factor)
  report    TRACE [--metrics FILE] [--check]
                            (per-phase breakdown table — filter vs. TIA
                             aggregation vs. page I/O — from a --trace-out
                             artifact; --check validates span nesting and
                             fails on orphaned spans)
  top       SNAPSHOT [--watch MS] [--iters N]
                            (renders a knnta.snapshot.v1 telemetry snapshot —
                             from `serve --stats-out` — as text tables: window
                             latency quantiles per phase, counters, gauges.
                             --watch MS re-reads the file every MS ms for N
                             iterations)
  slo       --snapshot FILE [--hist NAME] [--p50-us A] [--p95-us B] [--p99-us C]
                            (checks sliding-window quantiles in a telemetry
                             snapshot against latency bounds; exits non-zero
                             on any violation. NAME defaults to the service's
                             end-to-end window histogram)
  mwa       --index FILE --x X --y Y --from-day A --to-day B [--k K] [--alpha0 W]
  skyline   --index FILE --x X --y Y --from-day A --to-day B";

/// Minimal `--key value` option parser (plus a few bare `--flag` switches).
struct Opts(BTreeMap<String, String>);

/// Options that take no value.
const FLAGS: &[&str] = &["paged", "packed", "individual", "check"];

/// Every option `cmd` reads; anything else on its command line is a usage
/// error, so a typo cannot silently fall back to a default. Empty for a
/// command `main` does not dispatch.
fn known_options(cmd: &str) -> Vec<&'static str> {
    const DATASET: &[&str] = &["dataset", "scale", "epoch-days", "seed"];
    const POINT: &[&str] = &["index", "x", "y", "from-day", "to-day", "k", "alpha0"];
    const IMAGE: &[&str] = &["paged", "buffer-slots", "packed"];
    const OBS_OUT: &[&str] = &["trace-out", "metrics-out"];
    let groups: &[&[&str]] = match cmd {
        "generate" => &[DATASET, &["out"]],
        "build" => &[&["input", "out", "grouping", "node-size", "epoch-days", "epochs"]],
        "ingest" => &[DATASET, &["events", "writers", "shards"]],
        "serve" => &[
            DATASET,
            OBS_OUT,
            &["shards", "workers", "max-batch", "max-delay-us", "queries", "rate", "k", "alpha0"],
            &["stats-out", "stats-interval-ms", "tail-out"],
        ],
        "stats" => &[&["index"]],
        "query" => &[POINT, IMAGE, OBS_OUT, &["plan"]],
        "batch" => &[IMAGE, OBS_OUT, &["index", "queries", "batch-order", "individual", "plan"]],
        "explain" => &[POINT, IMAGE, &["metrics"]],
        "report" => &[&["metrics", "check"]],
        "top" => &[&["watch", "iters"]],
        "slo" => &[&["snapshot", "hist", "p50-us", "p95-us", "p99-us"]],
        "mwa" | "skyline" => &[POINT],
        _ => &[],
    };
    groups.concat()
}

impl Opts {
    /// Parses `args`, rejecting option names outside `known` (an empty
    /// `known` accepts anything: the command itself is unknown and `main`
    /// reports that instead).
    fn parse(args: &[String], extra_flags: &[&str], known: &[&str]) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got `{}`", args[i]))?;
            if !known.is_empty() && !known.contains(&key) {
                return Err(format!("unknown option --{key}"));
            }
            if FLAGS.contains(&key) || extra_flags.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("option --{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Opts(map))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
        }
    }

    fn req_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key}: bad value"))
    }
}

/// The largest |day| a day option or CSV field may name: the day's
/// timestamp in seconds must fit an `i64`.
const MAX_DAY: i64 = i64::MAX / Timestamp::DAY;

/// The timestamp of day `value`, or an error naming `what` if it is past
/// [`MAX_DAY`] either way.
fn day(value: i64, what: &str) -> Result<Timestamp, String> {
    if value.unsigned_abs() > MAX_DAY as u64 {
        return Err(format!("{what}: day {value} is out of range (|day| <= {MAX_DAY})"));
    }
    Ok(Timestamp::from_days(value))
}

/// `--epoch-days`, at least 1 and at most [`MAX_DAY`].
fn epoch_days_of(opts: &Opts) -> Result<i64, String> {
    let epoch_days: i64 = opts.num("epoch-days", 7)?;
    if !(1..=MAX_DAY).contains(&epoch_days) {
        return Err(format!("--epoch-days must lie in 1 ..= {MAX_DAY}"));
    }
    Ok(epoch_days)
}

/// `--scale`, a share of the paper's dataset size in (0, 1].
fn scale_of(opts: &Opts) -> Result<f64, String> {
    let scale: f64 = opts.num("scale", 0.01)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must lie in (0, 1]".into());
    }
    Ok(scale)
}

fn generate(opts: &Opts) -> Result<(), String> {
    let name = opts.str("dataset")?;
    let spec = knnta::lbsn::spec_by_name(name).ok_or(format!("unknown dataset `{name}`"))?;
    let scale = scale_of(opts)?;
    let epoch_days = epoch_days_of(opts)?;
    let seed: u64 = opts.num("seed", 42)?;
    let out = opts.str("out")?;
    let dataset = spec.generate(scale, epoch_days, seed);
    let mut w = BufWriter::new(File::create(out).map_err(|e| e.to_string())?);
    let write = |w: &mut BufWriter<File>, s: String| -> Result<(), String> {
        w.write_all(s.as_bytes()).map_err(|e| e.to_string())
    };
    write(&mut w, "id,x,y,epoch,count\n".into())?;
    for (id, pos, series) in dataset.snapshot(dataset.grid.len()) {
        if series.is_empty() {
            write(&mut w, format!("{},{},{},-1,0\n", id.0, pos[0], pos[1]))?;
        }
        for (e, v) in series.iter() {
            write(&mut w, format!("{},{},{},{e},{v}\n", id.0, pos[0], pos[1]))?;
        }
    }
    w.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} ({} venues, {} check-ins, {} epochs of {epoch_days} days)",
        out,
        dataset.len(),
        dataset.total_checkins(),
        dataset.grid.len()
    );
    Ok(())
}

/// Position and sparse per-epoch counts, as accumulated from the CSV.
type VenueRows = BTreeMap<u32, ([f64; 2], BTreeMap<u32, u64>)>;

fn read_venues(path: &str) -> Result<Vec<(Poi, AggregateSeries)>, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut pois: VenueRows = BTreeMap::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if lineno == 0 && line.starts_with("id,") {
            continue; // header
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("{path}:{}: expected 5 fields", lineno + 1));
        }
        let bad = |f: &str| format!("{path}:{}: bad field `{f}`", lineno + 1);
        let id: u32 = fields[0].trim().parse().map_err(|_| bad(fields[0]))?;
        let coord = |f: &str| match f.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(bad(f)),
        };
        let (x, y) = (coord(fields[1])?, coord(fields[2])?);
        let epoch: i64 = match fields[3].trim().parse() {
            Ok(e) if e < MAX_EPOCHS as i64 => e,
            _ => return Err(bad(fields[3])),
        };
        let count: u64 = fields[4].trim().parse().map_err(|_| bad(fields[4]))?;
        if epoch < 0 && count > 0 {
            return Err(format!(
                "{path}:{}: venue {id}: {count} check-ins in negative epoch {epoch}",
                lineno + 1
            ));
        }
        let entry = pois.entry(id).or_insert(([x, y], BTreeMap::new()));
        if count > 0 {
            let sum = entry.1.entry(epoch as u32).or_insert(0);
            *sum = sum.checked_add(count).ok_or_else(|| {
                format!(
                    "{path}:{}: venue {id}: the check-ins of epoch {epoch} sum past u64::MAX",
                    lineno + 1
                )
            })?;
        }
    }
    let venues: Vec<(Poi, AggregateSeries)> = pois
        .into_iter()
        .map(|(id, (pos, counts))| {
            (
                Poi { id: PoiId(id), pos },
                AggregateSeries::from_pairs(counts),
            )
        })
        .collect();
    // Every TIA prefix an index sums, leaf or internal, is at most this.
    if AggregateSeries::max_of(venues.iter().map(|(_, s)| s))
        .checked_total()
        .is_none()
    {
        return Err(format!(
            "{path}: the per-epoch maximum check-ins over all venues sum past u64::MAX"
        ));
    }
    Ok(venues)
}

fn build(opts: &Opts) -> Result<(), String> {
    let input = opts.str("input")?;
    let out = opts.str("out")?;
    let grouping = match opts.num::<String>("grouping", "tar".into())?.as_str() {
        "tar" => Grouping::TarIntegral,
        "spa" => Grouping::IndSpa,
        "agg" => Grouping::IndAgg,
        other => return Err(format!("--grouping: `{other}` (want tar|spa|agg)")),
    };
    let node_size: usize = opts.num("node-size", 1024)?;
    RTreeParams::try_for_node_size(node_size, grouping.dims())
        .map_err(|e| format!("--node-size: {e}"))?;
    let epoch_days = epoch_days_of(opts)?;
    let venues = read_venues(input)?;
    if venues.is_empty() {
        return Err("no venues in the input".into());
    }
    // The same id bound the index reader applies, so every index written
    // here reads back.
    let id_limit = FrozenIndex::poi_id_limit(venues.len());
    if let Some((poi, _)) = venues.iter().find(|(p, _)| p.id.index() >= id_limit) {
        return Err(format!(
            "venue id {} is not below {id_limit}, the limit for {} venues",
            poi.id.0,
            venues.len()
        ));
    }
    // Grid: from --epochs, or from the largest epoch index seen.
    let max_epoch = venues
        .iter()
        .flat_map(|(_, s)| s.iter().map(|(e, _)| e))
        .max()
        .unwrap_or(0) as usize;
    let epochs: usize = opts.num("epochs", max_epoch + 1)?;
    if epochs <= max_epoch {
        return Err(format!(
            "--epochs {epochs} too small: the data references epoch {max_epoch}"
        ));
    }
    // The limits the index reader applies to the grid it reads back.
    if epochs > MAX_EPOCHS {
        return Err(format!("--epochs {epochs}: an index holds at most {MAX_EPOCHS} epochs"));
    }
    if epochs as i128 * epoch_days as i128 > MAX_DAY as i128 {
        return Err(format!(
            "--epochs {epochs} of --epoch-days {epoch_days}: the grid would end past day {MAX_DAY}"
        ));
    }
    let grid = EpochGrid::fixed_days(epoch_days, epochs);
    // Bounds: data bounding box with a tiny margin.
    let (mut min, mut max) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    for (poi, _) in &venues {
        for d in 0..2 {
            min[d] = min[d].min(poi.pos[d]);
            max[d] = max[d].max(poi.pos[d]);
        }
    }
    let bounds = Rect::new(min, max);
    let config = IndexConfig {
        grouping,
        node_size,
        forced_reinsert: true,
    };
    let index = FrozenIndex::build(config, grid, bounds, &venues);
    let image = index.packed();
    std::fs::write(out, image.to_bytes()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "indexed {} venues into {out} ({grouping}, {} nodes, height {})",
        venues.len(),
        image.node_count(),
        image.level_count() - 1
    );
    Ok(())
}

/// Streams a seeded synthetic check-in workload into the concurrent live
/// tier and reports throughput, counter conservation, and snapshot-query
/// latency while writers are active vs after the sealed deltas merge.
fn ingest(opts: &Opts) -> Result<(), String> {
    let name = opts.str("dataset")?;
    let spec = knnta::lbsn::spec_by_name(name).ok_or(format!("unknown dataset `{name}`"))?;
    let scale = scale_of(opts)?;
    let epoch_days = epoch_days_of(opts)?;
    let seed: u64 = opts.num("seed", 42)?;
    let events: usize = opts.num("events", 1_000_000)?;
    let writers: usize = opts.num("writers", 4)?;
    let shards: usize = opts.num("shards", 8)?;
    if writers == 0 {
        return Err("--writers must be at least 1".into());
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let dataset = spec.generate(scale, epoch_days, seed);
    let snapshot = dataset.snapshot(dataset.grid.len());
    if snapshot.is_empty() {
        return Err(format!("dataset {name} is empty at --scale {scale}"));
    }
    let grid = dataset.grid.clone();
    let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
    // The tier starts from an index with every venue known but no check-ins
    // digested: everything the queries see flows through the live path.
    let index = TarIndex::build(
        IndexConfig::default(),
        grid.clone(),
        bounds,
        snapshot
            .iter()
            .map(|(id, pos, _)| (Poi { id: *id, pos: *pos }, AggregateSeries::new())),
    );
    let live = LiveIndex::with_options(
        index,
        0,
        LiveOptions {
            shards,
            ..LiveOptions::default()
        },
    );

    // Seeded stream: cycle epoch-by-epoch over the venues, jittering each
    // timestamp inside its epoch, so arrivals are mostly in epoch order with
    // plenty of intra-epoch disorder (the realistic check-in shape).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(events);
    'fill: loop {
        for epoch in 0..grid.len() {
            let start = grid.epoch(epoch).start;
            for (id, _, _) in &snapshot {
                let jitter = rng.gen_range(0..epoch_days.max(1) * Timestamp::DAY);
                let value = rng.gen_range(1u32..4);
                stream.push(CheckIn::with_value(*id, start + jitter, value));
                if stream.len() == events {
                    break 'fill;
                }
            }
        }
    }

    let q = KnntaQuery::new(
        [
            (bounds.min[0] + bounds.max[0]) / 2.0,
            (bounds.min[1] + bounds.max[1]) / 2.0,
        ],
        TimeInterval::new(grid.t0(), grid.tc()),
    )
    .with_k(10)
    .with_alpha0(0.3);

    // Writers split the stream round-robin; a sealer rolls epochs under
    // them; a prober measures snapshot-query latency the whole time.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let started = std::time::Instant::now();
    let (elapsed, mid_lat) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let live = &live;
                let stream = &stream;
                s.spawn(move || {
                    for c in stream.iter().skip(w).step_by(writers) {
                        live.record(*c);
                    }
                })
            })
            .collect();
        {
            let live = &live;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    live.seal_epoch();
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            });
        }
        let prober = {
            let live = &live;
            let stop = &stop;
            s.spawn(move || {
                let mut lat = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let t = std::time::Instant::now();
                    std::hint::black_box(live.snapshot().query(&q));
                    lat.push(t.elapsed());
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                lat
            })
        };
        for h in handles {
            h.join().expect("writer thread panicked");
        }
        let elapsed = started.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (elapsed, prober.join().expect("prober thread panicked"))
    });

    // Quiesce: seal every epoch (one extra call flushes the final roll),
    // then fold the sealed deltas into the base TAR-tree.
    while live.current_epoch() < grid.len() {
        live.seal_epoch();
    }
    live.seal_epoch();
    let merged = live.merge_sealed();
    live.validate();

    let (recorded, sealed, pending, dropped) =
        (live.recorded(), live.sealed_events(), live.pending(), live.dropped());
    if pending + sealed + dropped != recorded {
        return Err(format!(
            "counter conservation violated: pending {pending} + sealed {sealed} + \
             dropped {dropped} != recorded {recorded}"
        ));
    }
    let snap = live.snapshot();
    let post_lat = {
        let mut lat: Vec<_> = (0..16)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(snap.query(&q));
                t.elapsed()
            })
            .collect();
        lat.sort();
        lat[lat.len() / 2]
    };

    let micros = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    outln!(
        "dataset:     {name} ×{scale} ({} venues, {} epochs of {epoch_days} days)",
        snapshot.len(),
        grid.len()
    );
    outln!(
        "ingested:    {events} check-ins via {writers} writers / {shards} shards in {:.3}s \
         ({:.0} check-ins/sec)",
        elapsed.as_secs_f64(),
        events as f64 / elapsed.as_secs_f64()
    );
    outln!(
        "counters:    recorded={recorded} sealed={sealed} pending={pending} dropped={dropped} \
         (conserved)"
    );
    outln!(
        "watermark:   {} ({merged} sealed batches folded into the base tree)",
        snap.watermark()
    );
    if !mid_lat.is_empty() {
        let mut lat = mid_lat;
        lat.sort();
        outln!(
            "query (mid-ingest):  median {:.1} µs over {} snapshots (k=10, full span)",
            micros(lat[lat.len() / 2]),
            lat.len()
        );
    }
    outln!("query (post-merge):  median {:.1} µs (k=10, full span)", micros(post_lat));
    Ok(())
}

/// Starts the async sharded query service over a generated dataset and
/// drives it with the seeded open-loop power-law client.
fn serve(opts: &Opts) -> Result<(), String> {
    let name = opts.str("dataset")?;
    let spec = knnta::lbsn::spec_by_name(name).ok_or(format!("unknown dataset `{name}`"))?;
    let scale = scale_of(opts)?;
    let epoch_days = epoch_days_of(opts)?;
    let seed: u64 = opts.num("seed", 42)?;
    let shards: usize = opts.num("shards", 4)?;
    let workers: usize = opts.num("workers", 2)?;
    let max_batch: usize = opts.num("max-batch", 64)?;
    let max_delay_us: u64 = opts.num("max-delay-us", 200)?;
    let queries: usize = opts.num("queries", 2000)?;
    let rate: f64 = opts.num("rate", 5000.0)?;
    let k: usize = opts.num("k", 10)?;
    let alpha0: f64 = opts.num("alpha0", 0.3)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    let dataset = spec.generate(scale, epoch_days, seed);
    let snapshot = dataset.snapshot(dataset.grid.len());
    if snapshot.is_empty() {
        return Err(format!("dataset {name} is empty at --scale {scale}"));
    }
    let pois: Vec<(Poi, AggregateSeries)> = snapshot
        .into_iter()
        .map(|(id, pos, series)| (Poi { id, pos }, series))
        .collect();
    let venues = pois.len();
    let obs = obs_of(opts);

    let config = ServiceConfig {
        shards,
        workers,
        max_batch,
        max_delay: std::time::Duration::from_micros(max_delay_us),
        ..ServiceConfig::default()
    };
    let grid = dataset.grid.clone();
    let bounds = Rect::new(dataset.bounds.0, dataset.bounds.1);
    let mut service = Service::start(config, grid, bounds, pois, obs.clone());

    // Periodic snapshot emitter: rewrite --stats-out every interval while the
    // load runs, then once more after shutdown so the final file always
    // reflects the whole run.
    let stats_out = opts.0.get("stats-out").cloned();
    let stats_interval_ms: u64 = opts.num("stats-interval-ms", 100)?;
    let emitter = stats_out.as_ref().map(|path| {
        let telemetry = std::sync::Arc::clone(service.telemetry());
        let path = path.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = std::fs::write(&path, telemetry.snapshot().to_json());
                std::thread::sleep(std::time::Duration::from_millis(stats_interval_ms.max(1)));
            }
        });
        (stop, handle)
    });

    let client = ClientConfig {
        queries,
        rate_qps: rate,
        k,
        alpha0,
        seed,
        ..ClientConfig::default()
    };
    let stream = powerlaw_queries(&dataset, &client);
    outln!(
        "serving:     {name} ×{scale} ({venues} venues) on {} shards × {workers} workers, \
         flush at once while a worker is free, else at {max_batch} queries or {max_delay_us} µs",
        service.shards()
    );
    let report = run_open_loop(&service, &stream, rate);
    let telemetry = std::sync::Arc::clone(service.telemetry());
    service.shutdown();
    if let Some((stop, handle)) = emitter {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }
    let snap = telemetry.snapshot();
    if let Some(path) = &stats_out {
        snap.validate()?;
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
        let e2e = snap.histogram(knnta::service::W_E2E_US);
        if let Some(h) = e2e {
            outln!(
                "window:      e2e p50 {} µs   p95 {} µs   p99 {} µs over {} queries \
                 (last {} admission epochs)",
                h.p50, h.p95, h.p99, h.count, snap.windows
            );
        }
        eprintln!("(stats: snapshot at tick {} -> {path})", snap.tick);
    }
    if let Some(path) = opts.0.get("tail-out") {
        let doc = telemetry.tail_trace();
        doc.validate()?;
        std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
        outln!(
            "tail:        {} traces kept (of {} answered) above the rolling ~p95 \
             threshold ({} µs)",
            telemetry.tail_kept_ever(),
            report.completed,
            telemetry.tail_threshold_us()
        );
        eprintln!("(tail: {} spans -> {path})", doc.spans.len());
    }
    outln!(
        "client:      {} open-loop queries offered at {rate:.0}/s (power-law points, \
         k={k}, α0={alpha0})",
        report.completed
    );
    outln!(
        "throughput:  {:.0} answered/s over {:.3}s",
        report.qps,
        report.elapsed.as_secs_f64()
    );
    outln!(
        "latency:     p50 {} µs   p95 {} µs   max {} µs (submit-to-answer)",
        report.p50_us, report.p95_us, report.max_us
    );
    let c = |name: &str| snap.counter(name).map_or(0, |c| c.lifetime);
    outln!(
        "service:     {} flushes ({} size-triggered), {} failures",
        c(knnta::service::W_FLUSHES),
        c(knnta::service::telemetry::W_FLUSH_FULL),
        c(knnta::service::telemetry::W_FAILURES)
    );
    write_obs_artifacts(opts, &obs)
}

/// The index file `--index` names, read and validated
/// ([`FrozenIndex::from_bytes`]).
fn open_frozen(opts: &Opts) -> Result<FrozenIndex, String> {
    let path = opts.str("index")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    FrozenIndex::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// The arena tree over the POIs of the index file `--index` names.
fn open_index(opts: &Opts) -> Result<TarIndex, String> {
    Ok(open_frozen(opts)?.to_arena())
}

fn stats(opts: &Opts) -> Result<(), String> {
    let index = open_frozen(opts)?;
    let image = index.packed();
    outln!("grouping:   {}", image.grouping());
    outln!("pois:       {}", image.item_count());
    outln!("nodes:      {}", image.node_count());
    outln!("height:     {}", image.level_count() - 1);
    outln!("node size:  {} bytes", index.config().node_size);
    outln!("epochs:     {}", index.grid().len());
    outln!(
        "time span:  {} days",
        index.grid().tc().days() - index.grid().t0().days()
    );
    let b = index.bounds();
    outln!(
        "bounds:     [{:.2}, {:.2}] .. [{:.2}, {:.2}]",
        b.min[0], b.min[1], b.max[0], b.max[1]
    );
    Ok(())
}

fn parse_query(opts: &Opts) -> Result<KnntaQuery, String> {
    let x: f64 = opts.req_num("x")?;
    let y: f64 = opts.req_num("y")?;
    if !x.is_finite() {
        return Err("--x must be finite".into());
    }
    if !y.is_finite() {
        return Err("--y must be finite".into());
    }
    let from = day(opts.req_num("from-day")?, "--from-day")?;
    let to = day(opts.req_num("to-day")?, "--to-day")?;
    if from > to {
        return Err("--from-day must not exceed --to-day".into());
    }
    let k: usize = opts.num("k", 10)?;
    let alpha0: f64 = opts.num("alpha0", 0.3)?;
    if !(alpha0 > 0.0 && alpha0 < 1.0) {
        return Err("--alpha0 must lie strictly between 0 and 1".into());
    }
    Ok(KnntaQuery::new([x, y], TimeInterval::new(from, to))
        .with_k(k)
        .with_alpha0(alpha0))
}

/// The index a query command runs on: with `--packed` the image the
/// `--index` file holds, queried as read with no tree built; otherwise the
/// arena tree rebuilt from its POIs, with the paged node store beside it
/// under `--paged`.
enum Served {
    Packed(FrozenIndex),
    Arena(TarIndex, Option<PagedNodes>),
}

impl Served {
    /// Opens `--index` as `--packed` / `--paged` / `--buffer-slots` ask,
    /// recording into `obs`.
    fn open(opts: &Opts, obs: &Obs) -> Result<Served, String> {
        if opts.flag("packed") && opts.flag("paged") {
            return Err("--packed and --paged are mutually exclusive".into());
        }
        if opts.0.contains_key("buffer-slots") && !opts.flag("paged") {
            return Err("--buffer-slots requires --paged".into());
        }
        let mut frozen = open_frozen(opts)?;
        if opts.flag("packed") {
            frozen.set_obs(obs.clone());
            return Ok(Served::Packed(frozen));
        }
        let mut index = frozen.to_arena();
        index.set_obs(obs.clone());
        let paged = if opts.flag("paged") {
            let slots: usize = opts.num("buffer-slots", 10)?;
            let pool = BufferPoolConfig::lru(slots);
            Some(index.materialize_paged_nodes(index.config_node_size(), pool))
        } else {
            None
        };
        Ok(Served::Arena(index, paged))
    }

    /// An executor with every image this index has attached.
    fn executor(&self) -> Executor<'_> {
        match self {
            Served::Packed(frozen) => Executor::frozen(frozen),
            Served::Arena(index, None) => Executor::new(index),
            Served::Arena(index, Some(paged)) => Executor::new(index).with_paged(paged),
        }
    }

    /// The backend a plan is forced onto without `--plan auto`.
    fn backend(&self) -> PlanBackend {
        match self {
            Served::Packed(_) => PlanBackend::Packed,
            Served::Arena(_, Some(_)) => PlanBackend::Paged,
            Served::Arena(_, None) => PlanBackend::InMemory,
        }
    }

    /// The access counters queries record into.
    fn stats(&self) -> &AccessStats {
        match self {
            Served::Packed(frozen) => frozen.stats(),
            Served::Arena(index, _) => index.stats(),
        }
    }

    /// Describes the packed image or the paged store's buffer pool on
    /// stderr.
    fn describe(&self) {
        match self {
            Served::Packed(frozen) => {
                let p = frozen.packed();
                eprintln!(
                    "(packed: {} nodes, {} levels, {} bytes)",
                    p.node_count(),
                    p.level_count(),
                    p.byte_len(),
                );
            }
            Served::Arena(_, Some(p)) => {
                let io = p.io_snapshot();
                let hit_rate = if io.buffer_hits + io.buffer_misses > 0 {
                    100.0 * io.buffer_hits as f64 / (io.buffer_hits + io.buffer_misses) as f64
                } else {
                    0.0
                };
                eprintln!(
                    "(paged: {} slots, {} pages, {} hits / {} misses, {hit_rate:.1}% hit rate)",
                    p.buffer_slots(),
                    p.page_count(),
                    io.buffer_hits,
                    io.buffer_misses,
                );
            }
            Served::Arena(_, None) => {}
        }
    }
}

/// An enabled observability handle when `--trace-out` / `--metrics-out`
/// asks for artifacts, else a disabled one.
fn obs_of(opts: &Opts) -> Obs {
    if opts.0.contains_key("trace-out") || opts.0.contains_key("metrics-out") {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Writes the trace/metrics artifacts requested on the command line.
fn write_obs_artifacts(opts: &Opts, obs: &Obs) -> Result<(), String> {
    if let Some(path) = opts.0.get("trace-out") {
        let doc = obs.trace_snapshot();
        doc.validate()?;
        std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("(trace: {} spans, {} events -> {path})", doc.spans.len(), doc.events.len());
    }
    if let Some(path) = opts.0.get("metrics-out") {
        let doc = obs.metrics_snapshot();
        std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "(metrics: {} counters, {} histograms -> {path})",
            doc.counters.len(),
            doc.histograms.len()
        );
    }
    Ok(())
}

/// Whether `--plan auto` was requested (the only accepted value).
fn plan_auto(opts: &Opts) -> Result<bool, String> {
    match opts.0.get("plan").map(String::as_str) {
        None => Ok(false),
        Some("auto") => Ok(true),
        Some(other) => Err(format!("--plan: `{other}` (want auto)")),
    }
}

/// Tile size of a collective batch without `--plan auto` (with it, the
/// planner sizes the tile to the batch).
const BATCH_TILE: usize = 64;

/// One-line rendering of a planner-chosen configuration.
fn plan_line(plan: &QueryPlan) -> String {
    format!(
        "(plan: {} on {}, tile {}; est {:.1} node accesses)",
        plan.mode, plan.backend, plan.tile, plan.estimated_node_accesses,
    )
}

fn query(opts: &Opts) -> Result<(), String> {
    let obs = obs_of(opts);
    let served = Served::open(opts, &obs)?;
    let q = parse_query(opts)?;
    let auto = plan_auto(opts)?;
    let mut exec = served.executor();
    let mut plan = exec.plan(&q);
    if !auto {
        plan.backend = served.backend();
    }
    let hits = exec.execute(&q, &plan);
    if auto {
        eprintln!("{}", plan_line(&plan));
    }
    outln!("rank  poi        score     check-ins  distance");
    for (rank, h) in hits.iter().enumerate() {
        outln!(
            "{:>4}  {:<9}  {:<8.4}  {:>9}  {:.3}",
            rank + 1,
            h.poi.0,
            h.score,
            h.aggregate,
            h.distance
        );
    }
    eprintln!("({} node accesses)", served.stats().node_accesses());
    served.describe();
    write_obs_artifacts(opts, &obs)
}

/// Parses a batch-query CSV: `x,y,from_day,to_day[,k[,alpha0]]` per row
/// (header row optional, `#` comments ignored).
fn read_batch_queries(path: &str) -> Result<Vec<KnntaQuery>, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut queries = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if lineno == 0 && trimmed.starts_with("x,") {
            continue; // header
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if !(4..=6).contains(&fields.len()) {
            return Err(format!(
                "{path}:{}: expected 4–6 fields (x,y,from_day,to_day[,k[,alpha0]])",
                lineno + 1
            ));
        }
        let bad = |f: &str| format!("{path}:{}: bad field `{f}`", lineno + 1);
        let coord = |f: &str| match f.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(bad(f)),
        };
        let (x, y) = (coord(fields[0])?, coord(fields[1])?);
        let at = format!("{path}:{}", lineno + 1);
        let from = day(fields[2].trim().parse().map_err(|_| bad(fields[2]))?, &at)?;
        let to = day(fields[3].trim().parse().map_err(|_| bad(fields[3]))?, &at)?;
        if from > to {
            return Err(format!("{path}:{}: from_day exceeds to_day", lineno + 1));
        }
        let k: usize = match fields.get(4) {
            Some(f) => f.trim().parse().map_err(|_| bad(f))?,
            None => 10,
        };
        let alpha0: f64 = match fields.get(5) {
            Some(f) => f.trim().parse().map_err(|_| bad(f))?,
            None => 0.3,
        };
        if !(alpha0 > 0.0 && alpha0 < 1.0) {
            return Err(format!(
                "{path}:{}: alpha0 must lie strictly between 0 and 1",
                lineno + 1
            ));
        }
        queries.push(
            KnntaQuery::new([x, y], TimeInterval::new(from, to))
                .with_k(k)
                .with_alpha0(alpha0),
        );
    }
    Ok(queries)
}

fn batch(opts: &Opts) -> Result<(), String> {
    let obs = obs_of(opts);
    let served = Served::open(opts, &obs)?;
    let queries = read_batch_queries(opts.str("queries")?)?;
    let order_name = opts.num::<String>("batch-order", "hilbert".into())?;
    let order = BatchOrder::parse(&order_name)
        .ok_or(format!("--batch-order: `{order_name}` (want hilbert|input)"))?;
    served.stats().reset();
    let auto = plan_auto(opts)?;
    if auto && (opts.flag("individual") || opts.0.contains_key("batch-order")) {
        return Err(
            "--plan auto conflicts with --individual / --batch-order (the planner chooses)".into(),
        );
    }
    let mut exec = served.executor();
    let mut plan = exec.plan_batch(&queries);
    if !auto {
        plan.backend = served.backend();
        plan.tile = BATCH_TILE;
    }
    let results: Vec<_> = if opts.flag("individual") {
        queries.iter().map(|q| exec.execute(q, &plan)).collect()
    } else {
        exec.execute_batch(&queries, &plan, order)
    };
    let planned = auto.then_some(plan);
    for (i, hits) in results.iter().enumerate() {
        outln!("query {i}: {} hit(s)", hits.len());
        for (rank, h) in hits.iter().enumerate() {
            outln!(
                "{:>4}  {:<9}  {:<10.6}  {:>9}  {:.3}",
                rank + 1,
                h.poi.0,
                h.score,
                h.aggregate,
                h.distance
            );
        }
    }
    if let Some(plan) = &planned {
        eprintln!("{}", plan_line(plan));
    }
    eprintln!(
        "({} queries, {} node accesses, {} mode)",
        queries.len(),
        served.stats().node_accesses(),
        if planned.is_some() {
            "collective/planned".to_string()
        } else if opts.flag("individual") {
            "individual".to_string()
        } else {
            format!("collective/{order}")
        }
    );
    write_obs_artifacts(opts, &obs)
}

/// Prints the plan the cost-model planner would choose for a query, its
/// paper-§6 node-access estimates, and — with `--metrics` — the
/// estimate-vs-measured error after actually running the query.
fn explain(opts: &Opts) -> Result<(), String> {
    let served = Served::open(opts, &Obs::disabled())?;
    let q = parse_query(opts)?;
    let mut exec = served.executor();
    let plan = exec.plan(&q);
    let s = exec.index_stats().clone();
    outln!("plan:        {} on {}", plan.mode, plan.backend);
    outln!("batching:    tile {}", plan.tile);
    outln!(
        "estimates:   fpk {:.4}; model {:.1} node accesses; calibrated {:.1}",
        plan.estimated_fpk, plan.model_node_accesses, plan.estimated_node_accesses
    );
    outln!(
        "index:       {} POIs, {} nodes, height {}, effective fanout {:.1}",
        s.n, s.node_count, s.height, s.fanout
    );
    if opts.flag("metrics") {
        let before = served.stats().node_accesses();
        let hits = exec.query(&q);
        let measured = served.stats().node_accesses() - before;
        let error = if plan.estimated_node_accesses > 0.0 {
            100.0 * (measured as f64 - plan.estimated_node_accesses)
                / plan.estimated_node_accesses
        } else {
            0.0
        };
        outln!(
            "measured:    {measured} node accesses for {} hit(s); estimate error {error:+.1}%",
            hits.len()
        );
        let cal = exec.planner().calibration();
        outln!(
            "calibration: factor {:.3} after {} sample(s)",
            cal.factor(),
            cal.samples()
        );
    }
    Ok(())
}

fn report(positional: &[&String], opts: &Opts) -> Result<(), String> {
    let [trace_path] = positional else {
        return Err("report needs exactly one trace file argument".into());
    };
    let raw = std::fs::read_to_string(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let trace = TraceDoc::parse(&raw).map_err(|e| format!("{trace_path}: {e}"))?;
    if opts.flag("check") {
        trace.validate().map_err(|e| format!("{trace_path}: {e}"))?;
        eprintln!("(trace well-formed: every span parented, nested, and event-contained)");
    }
    let metrics = match opts.0.get("metrics") {
        Some(path) => {
            let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(MetricsDoc::parse(&raw).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    out!("{}", render_report(&trace, metrics.as_ref()));
    Ok(())
}

/// Renders a `knnta.snapshot.v1` telemetry snapshot as text tables,
/// optionally re-reading the file on an interval (`--watch MS --iters N`).
fn top(positional: &[&String], opts: &Opts) -> Result<(), String> {
    let [snap_path] = positional else {
        return Err("top needs exactly one snapshot file argument".into());
    };
    let watch_ms: u64 = opts.num("watch", 0)?;
    let iters: usize = opts.num("iters", 1)?;
    for i in 0..iters.max(1) {
        let raw = std::fs::read_to_string(snap_path).map_err(|e| format!("{snap_path}: {e}"))?;
        let snap = knnta::obs::SnapshotDoc::parse(&raw).map_err(|e| format!("{snap_path}: {e}"))?;
        if i > 0 {
            outln!();
        }
        out!("{}", knnta::obs::render_top(&snap));
        if watch_ms > 0 && i + 1 < iters.max(1) {
            std::thread::sleep(std::time::Duration::from_millis(watch_ms));
        }
    }
    Ok(())
}

/// Checks sliding-window latency quantiles in a telemetry snapshot against
/// bounds; any violation is an error, so the process exits non-zero — usable
/// directly as a CI / deploy gate.
fn slo(opts: &Opts) -> Result<(), String> {
    let path = opts.str("snapshot")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = knnta::obs::SnapshotDoc::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    snap.validate().map_err(|e| format!("{path}: {e}"))?;
    let default_hist = knnta::service::W_E2E_US.to_string();
    let hist_name = opts.num::<String>("hist", default_hist)?;
    let hist = snap
        .histogram(&hist_name)
        .ok_or(format!("{path}: no histogram `{hist_name}` in snapshot"))?;
    if hist.count == 0 {
        return Err(format!(
            "{path}: `{hist_name}` holds no samples in the current window — cannot assess the SLO"
        ));
    }
    let bound_of = |key: &str| -> Result<Option<u64>, String> {
        match opts.0.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{key}: bad value `{v}`")),
        }
    };
    let checks: [(&str, u64, Option<u64>); 3] = [
        ("p50", hist.p50, bound_of("p50-us")?),
        ("p95", hist.p95, bound_of("p95-us")?),
        ("p99", hist.p99, bound_of("p99-us")?),
    ];
    if checks.iter().all(|(_, _, bound)| bound.is_none()) {
        return Err("slo needs at least one of --p50-us / --p95-us / --p99-us".into());
    }
    outln!(
        "slo:         `{hist_name}` over {} samples in the window (tick {})",
        hist.count, snap.tick
    );
    let mut violations = 0usize;
    for (label, measured, bound) in checks {
        let Some(bound) = bound else { continue };
        let ok = measured <= bound;
        outln!(
            "  {label} {measured} µs <= {bound} µs: {}",
            if ok { "ok" } else { "VIOLATION" }
        );
        violations += usize::from(!ok);
    }
    if violations > 0 {
        return Err(format!("{violations} SLO bound(s) violated"));
    }
    outln!("slo:         all bounds hold");
    Ok(())
}

fn mwa(opts: &Opts) -> Result<(), String> {
    let index = open_index(opts)?;
    let q = parse_query(opts)?;
    let (hits, adj) = index.mwa_pruning(&q);
    for (rank, h) in hits.iter().enumerate() {
        outln!("top-{}: poi {} (score {:.4})", rank + 1, h.poi.0, h.score);
    }
    match (adj.lower, adj.upper) {
        (Some(l), Some(u)) => {
            outln!("results change below alpha0 = {l:.4} or above alpha0 = {u:.4}")
        }
        (Some(l), None) => outln!("results change below alpha0 = {l:.4} only"),
        (None, Some(u)) => outln!("results change above alpha0 = {u:.4} only"),
        (None, None) => outln!("no weight change alters this top-k"),
    }
    Ok(())
}

fn skyline(opts: &Opts) -> Result<(), String> {
    let index = open_index(opts)?;
    let q = parse_query(opts)?;
    let sky = index.skyline(q.point, q.interval);
    outln!("poi        distance   check-ins");
    for h in &sky {
        outln!("{:<9}  {:<9.3}  {}", h.poi.0, h.distance, h.aggregate);
    }
    eprintln!("({} POIs on the skyline)", sky.len());
    Ok(())
}
