//! The traced run (`--trace 1`): where the time goes, layer by layer.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public function; nothing inside the program is instrumented.
//! Per-layer totals cover every call. Every [`SAMPLE_EVERY`]-th item also
//! keeps its full span chain (name, start, end, parent, the item's index
//! as identifier); the chains stay in memory, are written as NDJSON when
//! the run ends and are folded into per-layer self time.
//!
//! Served path, on the workload's own items:
//! 1. the timed pass once, for the engine's counters, checkpoint sizes,
//!    provenance and the load generator's lag;
//! 2. the engine alone, one call per item, closed loop, on one thread;
//! 3. the engine's layers driven one by one in the engine's order
//!    (route → quality → reorder → pipeline over the released sequence),
//!    once with a span around every layer call and once without any clock
//!    read, taking turns with step 2 every few thousand items so all three
//!    see the same host; the engine's time minus the layers' is its glue,
//!    and the traced loop's time over the untraced one's is the tracing
//!    overhead;
//! 4. the record filter and the correlation transform over the released
//!    records, again traced and untraced; the pipeline's time minus theirs
//!    is scoring.
//!
//! Paper protocol: spans around each `read_csv_file`, around each cell's
//! runner fan-out (with every vehicle's runner time) and its sweeps, plus
//! the filter and transform passes over the loaded fleet, traced and
//! untraced.
//!
//! Every traced run ends with the attribution self-test: on a small fleet,
//! a delay of a fifth of the pass's wall time is spread over the quality
//! monitor's calls, and the per-layer report must put it there and on no
//! other layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, Engine, Filter, Layers, TransformId, Transformer, CELLS};
use crate::alloc;
use crate::check::{self, Checks};
use crate::eval;
use crate::flat::{FlatStream, Kind};
use crate::report::Metrics;
use crate::serve::{self, Load, Spec};
use crate::stats;

/// Per-layer metrics of the result line with their units, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("gen.lag_p99_ms", "ms"),
    ("ingest.input.busy_s", "s"),
    ("ingest.router.busy_s", "s"),
    ("ingest.quality.busy_s", "s"),
    ("ingest.quality.flagged_ratio", "ratio"),
    ("ingest.reorder.busy_s", "s"),
    ("ingest.reorder.reordered_ratio", "ratio"),
    ("ingest.reorder.duplicate_ratio", "ratio"),
    ("ingest.reorder.late_dropped", "count"),
    ("ingest.reorder.peak_depth", "count"),
    ("ingest.engine.busy_s", "s"),
    ("ingest.glue.busy_s", "s"),
    ("ingest.overhead_ratio", "ratio"),
    ("ingest.allocs_per_record", "allocs/record"),
    ("ingest.dead_letter_ratio", "ratio"),
    ("ingest.emit.alarms_per_record", "ratio"),
    ("ingest.emit.provenance_mb", "MB"),
    ("ingest.fanout.calls", "count"),
    ("ingest.fanout.shard_skew", "ratio"),
    ("ingest.checkpoint.write_s", "s"),
    ("ingest.checkpoint.restore_s", "s"),
    ("ingest.checkpoint.ledger_mb", "MB"),
    ("ingest.checkpoint.state_mb", "MB"),
    ("pipeline.busy_s", "s"),
    ("pipeline.allocs_per_record", "allocs/record"),
    ("pipeline.alarms_per_emission", "ratio"),
    ("pipeline.filter.busy_s", "s"),
    ("pipeline.filter.kept_ratio", "ratio"),
    ("pipeline.transform.busy_s", "s"),
    ("pipeline.transform.emit_ratio", "ratio"),
    ("pipeline.score.busy_s", "s"),
    ("pipeline.score.fits", "count"),
    ("csv.read.busy_s", "s"),
    ("runner.cp_raw.busy_s", "s"),
    ("runner.cp_delta.busy_s", "s"),
    ("runner.cp_mean.busy_s", "s"),
    ("runner.cp_corr.busy_s", "s"),
    ("runner.grand_mean.busy_s", "s"),
    ("runner.grand_corr.busy_s", "s"),
    ("runner.critical_path_ratio", "ratio"),
    ("evaluation.sweep.busy_s", "s"),
    ("trace.records_per_s", "records/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.clock_ns", "ns"),
    ("trace.selftest.target_share", "ratio"),
    ("trace.selftest.leak_share", "ratio"),
];

/// Largest share of a traced pass's wall time its spans may leave
/// unattributed (the benchmark's own loop between spans). The additivity
/// check fails beyond it.
pub const ADDITIVITY_TOLERANCE: f64 = 0.05;

/// Every `SAMPLE_EVERY`-th item keeps its full span chain.
const SAMPLE_EVERY: usize = 4096;

/// Calls per span in the filter and transform passes, whose calls are
/// too short to time one by one.
const CHUNK: usize = 1024;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

/// Sampled span chains, in memory until the run ends.
#[derive(Debug)]
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, id });
        self.spans.len() - 1
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover.
    fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    fn write_ndjson(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}

/// Cost of one `Instant::now()`, in ns: the least of five calibrations.
fn clock_ns() -> f64 {
    (0..5)
        .map(|_| {
            let n = 200_000;
            let t = Instant::now();
            for _ in 0..n {
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `busy` less one clock read per call (each span contains one).
fn corrected_s(busy_ns: u64, calls: u64, clock: f64) -> f64 {
    (busy_ns as f64 - calls as f64 * clock).max(0.0) * 1e-9
}

// ---------------------------------------------------------------------------
// The served path, layer by layer
// ---------------------------------------------------------------------------

const INPUT: usize = 0;
const ROUTER: usize = 1;
const GLUE: usize = 2;
const QUALITY: usize = 3;
const REORDER: usize = 4;
const PIPELINE: usize = 5;
const LAYERS: [&str; 6] =
    ["ingest.input", "ingest.router", "bench.glue", "ingest.quality", "ingest.reorder", "pipeline"];

/// What one decomposition pass measured.
#[derive(Debug, Default, Clone)]
struct Decomposition {
    /// The item loop, end to end.
    wall_ns: u64,
    busy_ns: [u64; 6],
    calls: [u64; 6],
    pipeline_allocs: u64,
    released_records: u64,
    alarms: u64,
    fits: u64,
    /// Delay the self-test added inside quality-monitor spans.
    injected_ns: u64,
}

impl Decomposition {
    /// Share of the wall time no span covers, beyond the one clock read
    /// each gap between items holds.
    fn unattributed(&self, items: usize, clock: f64) -> f64 {
        let covered: u64 = self.busy_ns.iter().sum();
        (self.wall_ns as f64 - covered as f64 - items as f64 * clock) / self.wall_ns as f64
    }
}

/// Drives items through the engine's layers one by one. Every item costs
/// eight clock reads: input → router → glue (lane lookup, the engine's
/// validation, recycling the release buffer) → quality → reorder →
/// pipeline, contiguous, then the benchmark's bookkeeping, timed as glue
/// too.
struct Decomposer<'a> {
    layers: Layers,
    d: Decomposition,
    released: Vec<adapter::Item>,
    filling: Vec<bool>,
    inject_ns: u64,
    spans: Option<&'a mut Spans>,
}

impl<'a> Decomposer<'a> {
    fn new(shards: usize, inject_ns: u64, spans: Option<&'a mut Spans>) -> Self {
        Decomposer {
            layers: Layers::new(shards),
            d: Decomposition::default(),
            released: Vec::new(),
            filling: Vec::new(),
            inject_ns,
            spans,
        }
    }

    fn feed(&mut self, lane: usize) {
        for it in &self.released {
            self.d.released_records += u64::from(adapter::is_record(it));
            self.d.alarms += self.layers.pipeline(lane, it) as u64;
        }
    }

    /// Items `range` of `s`; their loop counts towards the wall time.
    fn items(&mut self, s: &FlatStream, range: std::ops::Range<usize>) {
        let begin = Instant::now();
        for i in range {
            self.item(s, i);
        }
        self.d.wall_ns += begin.elapsed().as_nanos() as u64;
    }

    fn item(&mut self, s: &FlatStream, i: usize) {
        let t0 = Instant::now();
        let it = adapter::build_item(s, i);
        let t1 = Instant::now();
        black_box(self.layers.route(&it));
        let t2 = Instant::now();
        let lane = self.layers.lane(adapter::vehicle_of(&it));
        let valid = self.layers.valid(&it);
        let record = adapter::is_record(&it);
        self.released.clear();
        let t3 = Instant::now();
        if record {
            black_box(self.layers.quality(lane, &it));
            if self.inject_ns > 0 && self.d.calls[QUALITY].is_multiple_of(INJECT_EVERY) {
                let t = Instant::now();
                let mut waited = Duration::ZERO;
                while waited < Duration::from_nanos(self.inject_ns) {
                    waited = t.elapsed();
                }
                self.d.injected_ns += waited.as_nanos() as u64;
            }
        }
        let t4 = Instant::now();
        if valid {
            self.layers.reorder(lane, it, &mut self.released);
        } else {
            drop(it);
        }
        let t5 = Instant::now();
        let a5 = alloc::calls();
        self.feed(lane);
        let a6 = alloc::calls();
        let t6 = Instant::now();

        let d = &mut self.d;
        let ts = [t0, t1, t2, t3, t4, t5, t6];
        for l in 0..6 {
            d.busy_ns[l] += (ts[l + 1] - ts[l]).as_nanos() as u64;
        }
        d.calls[INPUT] += 1;
        d.calls[ROUTER] += 1;
        d.calls[GLUE] += 2;
        d.calls[QUALITY] += u64::from(record);
        d.calls[REORDER] += u64::from(valid);
        d.calls[PIPELINE] += self.released.len() as u64;
        d.pipeline_allocs += a6 - a5;
        if lane >= self.filling.len() {
            self.filling.resize(lane + 1, true);
        }
        let now_filling = self.layers.filling(lane);
        d.fits += u64::from(self.filling[lane] && !now_filling);
        self.filling[lane] = now_filling;
        if let Some(sp) = self.spans.as_deref_mut() {
            if i.is_multiple_of(SAMPLE_EVERY) {
                let root = sp.push("item", t0, t6, None, i as u64);
                for l in 0..6 {
                    sp.push(LAYERS[l], ts[l], ts[l + 1], Some(root), i as u64);
                }
            }
        }
        d.busy_ns[GLUE] += t6.elapsed().as_nanos() as u64;
    }

    /// End of stream: every buffer flushes through its pipeline.
    fn finish(mut self) -> Decomposition {
        let begin = Instant::now();
        for lane in 0..self.layers.lanes() {
            let t0 = Instant::now();
            self.released.clear();
            self.layers.flush(lane, &mut self.released);
            let t1 = Instant::now();
            let a1 = alloc::calls();
            self.feed(lane);
            let a2 = alloc::calls();
            let t2 = Instant::now();
            let d = &mut self.d;
            d.busy_ns[REORDER] += (t1 - t0).as_nanos() as u64;
            d.busy_ns[PIPELINE] += (t2 - t1).as_nanos() as u64;
            d.calls[REORDER] += 1;
            d.calls[PIPELINE] += self.released.len() as u64;
            d.pipeline_allocs += a2 - a1;
        }
        self.d.wall_ns += begin.elapsed().as_nanos() as u64;
        self.d
    }
}

/// The whole stream through the layers one by one.
fn decompose(s: &FlatStream, shards: usize, inject_ns: u64) -> Decomposition {
    let mut dec = Decomposer::new(shards, inject_ns, None);
    dec.items(s, 0..s.len());
    dec.finish()
}

/// The same layer calls in the same order with no clock read, span or
/// count: the baseline the tracing overhead is measured against.
struct Untraced {
    layers: Layers,
    released: Vec<adapter::Item>,
}

impl Untraced {
    fn new(shards: usize) -> Self {
        Untraced { layers: Layers::new(shards), released: Vec::new() }
    }

    fn item(&mut self, s: &FlatStream, i: usize) {
        let it = adapter::build_item(s, i);
        black_box(self.layers.route(&it));
        let lane = self.layers.lane(adapter::vehicle_of(&it));
        let valid = self.layers.valid(&it);
        self.released.clear();
        if adapter::is_record(&it) {
            black_box(self.layers.quality(lane, &it));
        }
        if valid {
            self.layers.reorder(lane, it, &mut self.released);
        }
        self.feed(lane);
    }

    fn feed(&mut self, lane: usize) {
        for it in &self.released {
            black_box(self.layers.pipeline(lane, it));
        }
    }

    fn finish(mut self) {
        for lane in 0..self.layers.lanes() {
            self.released.clear();
            self.layers.flush(lane, &mut self.released);
            self.feed(lane);
        }
    }
}

/// The engine alone: one `ingest` per item on one thread, then `finish`.
#[derive(Debug, Default)]
struct EngineOnly {
    busy_ns: u64,
    calls: u64,
    allocs: u64,
}

/// Items per turn when the engine and the layers take turns over a stream.
const TURN: usize = 4096;

/// The engine alone, the layers one by one with spans, and the same layers
/// untraced, over the same items, taking turns every [`TURN`] items so all
/// three see the same host conditions. Allocations are counted in the
/// first two only. Returns the untraced layers' wall time in ns last.
fn engine_and_layers(
    s: &FlatStream,
    shards: usize,
    spans: &mut Spans,
) -> (EngineOnly, Decomposition, u64) {
    let mut e = Engine::new(shards);
    let mut r = EngineOnly::default();
    let mut dec = Decomposer::new(shards, 0, Some(&mut *spans));
    let mut plain = Untraced::new(shards);
    let mut plain_ns = 0;
    let mut engine_spans = Vec::new();
    for start in (0..s.len()).step_by(TURN) {
        let end = (start + TURN).min(s.len());
        alloc::set_counting(true);
        for i in start..end {
            let a = alloc::calls();
            let t0 = Instant::now();
            let out = e.ingest_one(s, i);
            let t1 = Instant::now();
            r.allocs += alloc::calls() - a;
            r.busy_ns += (t1 - t0).as_nanos() as u64;
            black_box(out);
            if i.is_multiple_of(SAMPLE_EVERY) {
                engine_spans.push((i, t0, t1));
            }
        }
        dec.items(s, start..end);
        alloc::set_counting(false);
        let t0 = Instant::now();
        for i in start..end {
            plain.item(s, i);
        }
        plain_ns += t0.elapsed().as_nanos() as u64;
    }
    alloc::set_counting(true);
    let t0 = Instant::now();
    black_box(e.finish());
    r.busy_ns += t0.elapsed().as_nanos() as u64;
    r.calls = s.len() as u64 + 1;
    let d = dec.finish();
    alloc::set_counting(false);
    let t0 = Instant::now();
    plain.finish();
    plain_ns += t0.elapsed().as_nanos() as u64;
    for (i, a, b) in engine_spans {
        spans.push("ShardedIngest", a, b, None, i as u64);
    }
    (r, d, plain_ns)
}

/// The record filter, then transforms, over each vehicle's records in
/// release order; spans cover [`CHUNK`] calls each. Each vehicle's records
/// are first gathered into one contiguous block, untimed, so the layers
/// read rows from cache as they do inside the pipeline. Every vehicle's
/// block also goes through the same calls untraced, for the overhead.
#[derive(Debug, Default)]
struct FilterTransform {
    filter_ns: u64,
    filter_spans: u64,
    records: u64,
    kept: u64,
    transform_ns: u64,
    transform_spans: u64,
    emitted: u64,
    /// Wall time of the traced and the untraced calls, each once per
    /// transformation whatever its weight.
    traced_ns: u64,
    untraced_ns: u64,
}

/// `transforms` pairs each transformation with how many cells use it; its
/// time and emissions count that many times.
fn filter_transform(
    s: &FlatStream,
    vehicles: &[(u32, Vec<usize>)],
    transforms: &[(TransformId, u64)],
) -> FilterTransform {
    let filter = Filter::paper();
    let mut r = FilterTransform::default();
    let mut block = FlatStream::default();
    let mut kept = FlatStream::default();
    for (k, (v, idx)) in vehicles.iter().enumerate() {
        block.clear();
        for &i in idx.iter().filter(|&&i| s.kinds[i] == Kind::Record) {
            block.push(*v, s.timestamps[i], Kind::Record, s.row(i));
        }
        // Untraced before traced on every other vehicle, so neither order
        // gains from the cache state the other leaves.
        let untraced_first = k % 2 == 0;
        let untraced = |kept: &mut FlatStream, r: &mut FilterTransform| {
            let t0 = Instant::now();
            filter_transform_untraced(&filter, &block, kept, transforms);
            r.untraced_ns += t0.elapsed().as_nanos() as u64;
        };
        if untraced_first {
            untraced(&mut kept, &mut r);
        }
        let t1 = Instant::now();
        let mut keep = Vec::with_capacity(block.len());
        for start in (0..block.len()).step_by(CHUNK) {
            let t0 = Instant::now();
            for i in start..(start + CHUNK).min(block.len()) {
                keep.push(filter.keep(block.row(i)));
            }
            r.filter_ns += t0.elapsed().as_nanos() as u64;
            r.filter_spans += 1;
        }
        kept.clear();
        for (i, _) in keep.iter().enumerate().filter(|(_, k)| **k) {
            kept.push(*v, block.timestamps[i], Kind::Record, block.row(i));
        }
        r.records += block.len() as u64;
        r.kept += kept.len() as u64;
        for &(id, weight) in transforms {
            let mut tr = Transformer::new(id);
            let (mut ns, mut emitted) = (0u64, 0u64);
            for start in (0..kept.len()).step_by(CHUNK) {
                let t0 = Instant::now();
                for i in start..(start + CHUNK).min(kept.len()) {
                    emitted += u64::from(tr.push(kept.timestamps[i], kept.row(i)));
                }
                ns += t0.elapsed().as_nanos() as u64;
                r.transform_spans += weight;
            }
            r.transform_ns += ns * weight;
            r.emitted += emitted * weight;
        }
        r.traced_ns += t1.elapsed().as_nanos() as u64;
        if !untraced_first {
            untraced(&mut kept, &mut r);
        }
    }
    r
}

/// [`filter_transform`]'s calls for one vehicle's block, with no clock read.
fn filter_transform_untraced(
    filter: &Filter,
    block: &FlatStream,
    kept: &mut FlatStream,
    transforms: &[(TransformId, u64)],
) {
    let keep: Vec<bool> = (0..block.len()).map(|i| filter.keep(block.row(i))).collect();
    kept.clear();
    for (i, _) in keep.iter().enumerate().filter(|(_, k)| **k) {
        kept.push(block.vehicles[i], block.timestamps[i], Kind::Record, block.row(i));
    }
    for &(id, _) in transforms {
        let mut tr = Transformer::new(id);
        for i in 0..kept.len() {
            black_box(tr.push(kept.timestamps[i], kept.row(i)));
        }
    }
}

// ---------------------------------------------------------------------------
// Attribution self-test
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SelfTest {
    /// Moved quality time ÷ injected delay (1 is perfect).
    target_share: f64,
    /// Largest move of any other layer ÷ injected delay (0 is perfect).
    leak_share: f64,
}

impl SelfTest {
    fn passed(&self) -> bool {
        (0.75..=1.25).contains(&self.target_share) && self.leak_share <= 0.25
    }
}

/// Baseline and injected passes per self-test attempt, alternated.
const SELFTEST_PAIRS: usize = 5;

/// The self-test delays every `INJECT_EVERY`-th quality-monitor call, so
/// each wait is long next to the clock reads that time it.
const INJECT_EVERY: u64 = 16;

/// Adds a delay of a fifth of the pass's wall time to the quality
/// monitor's calls and reads where the decomposition puts it. Each
/// injected pass is compared with the baseline pass just before it, so
/// both see the same host; the shares are medians over
/// [`SELFTEST_PAIRS`] pairs, each pair's layer growth divided by the delay
/// its waits measured. Up to three attempts, since host noise can swamp
/// one.
fn attribution_self_test(seed: u64) -> SelfTest {
    let s = adapter::clean_stream(&adapter::small_fleet(seed));
    let mut last = SelfTest { target_share: f64::NAN, leak_share: f64::NAN };
    for _ in 0..3 {
        let warm = decompose(&s, 1, 0);
        let waits = warm.calls[QUALITY].div_ceil(INJECT_EVERY).max(1);
        let per_wait = (0.2 * warm.wall_ns as f64 / waits as f64) as u64;
        let (mut target, mut leak) = (Vec::new(), Vec::new());
        for _ in 0..SELFTEST_PAIRS {
            let base = decompose(&s, 1, 0);
            let inj = decompose(&s, 1, per_wait.max(1));
            let injected = inj.injected_ns.max(1) as f64;
            let grew = |l: usize| (inj.busy_ns[l] as f64 - base.busy_ns[l] as f64) / injected;
            target.push(grew(QUALITY));
            leak.push((0..6).filter(|&l| l != QUALITY).map(|l| grew(l).abs()).fold(0.0, f64::max));
        }
        last = SelfTest { target_share: stats::median(&target), leak_share: stats::median(&leak) };
        if last.passed() {
            break;
        }
    }
    last
}

fn add_self_test(m: &mut Metrics, seed: u64, checks: &mut Checks) {
    let st = attribution_self_test(seed);
    checks.check(st.passed(), || {
        format!(
            "attribution self-test: {:.2} of the injected delay landed on the quality layer, \
             up to {:.2} on another",
            st.target_share, st.leak_share
        )
    });
    m.add("trace.selftest.target_share", "ratio", st.target_share);
    m.add("trace.selftest.leak_share", "ratio", st.leak_share);
}

fn check_additivity(unattributed: f64, what: &str, checks: &mut Checks) {
    checks.check(unattributed.abs() <= ADDITIVITY_TOLERANCE, || {
        format!(
            "additivity: {what} spans leave {:.1} % of the wall time unattributed (tolerance {:.0} %)",
            unattributed * 100.0,
            ADDITIVITY_TOLERANCE * 100.0
        )
    });
}

/// Reports the layers a workload does not exercise as 0.
fn zero(m: &mut Metrics, unused: impl Fn(&str) -> bool) {
    for (name, unit) in PER_LAYER.iter().filter(|(n, _)| unused(n)) {
        m.add(*name, unit, 0.0);
    }
}

/// Layers only the served path exercises.
fn serve_only(name: &str) -> bool {
    name.starts_with("gen.") || name.starts_with("ingest.")
}

/// Layers only the paper protocol exercises.
fn eval_only(name: &str) -> bool {
    ["csv.", "runner.", "evaluation."].iter().any(|p| name.starts_with(p))
}

/// CSV loads and protocol passes of a traced `eval-batch` run.
const TRACED_PASSES: usize = 3;

/// Throughput of the loops that take spans, traced and untraced, and the
/// tracing overhead: untraced over traced throughput, less one.
fn add_overhead(m: &mut Metrics, records: f64, traced_s: f64, untraced_s: f64) {
    m.add("trace.records_per_s", "records/s", records / traced_s);
    m.add("trace.untraced_records_per_s", "records/s", records / untraced_s);
    m.add("trace.overhead_ratio", "ratio", traced_s / untraced_s - 1.0);
}

pub fn serve_traced(
    workload: &str,
    seed: u64,
    spec: Spec,
    trace_file: &Path,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let inputs = crate::serve_inputs(workload, seed);
    let s = &inputs.stream;
    let oracle = adapter::replay_oracle(s);
    let clock = clock_ns();
    let mut spans = Spans::new();

    // 1. The timed pass once.
    let mut traced = serve::run(s, spec, true, &mut Vec::new())?;
    check::alarms(&std::mem::take(&mut traced.served).by_vehicle(), &oracle, checks);
    check::accounting(&traced.counts, s.len(), checks);

    // 2–4. Engine alone, layer by layer, filter and transform.
    let (engine, d, untraced_ns) = engine_and_layers(s, spec.shards, &mut spans);
    let oracle_alarms: usize = oracle.values().map(Vec::len).sum();
    checks.check(d.alarms as usize == oracle_alarms, || {
        format!("layer-by-layer pass raised {} alarms, sorted replay {oracle_alarms}", d.alarms)
    });
    let unattributed = d.unattributed(s.len(), clock);
    check_additivity(unattributed, "layer", checks);
    let order = s.canonical_order(adapter::signal_names().len());
    let ft = filter_transform(s, &order, &[(TransformId::Correlation, 1)]);

    let c = traced.counts;
    let items = s.len() as f64;
    let records = c.records.max(1) as f64;
    let layer_s = |l: usize| corrected_s(d.busy_ns[l], d.calls[l], clock);
    let engine_s = corrected_s(engine.busy_ns, engine.calls, clock);
    let pipeline_s = layer_s(PIPELINE);
    let filter_s = corrected_s(ft.filter_ns, ft.filter_spans, clock);
    let transform_s = corrected_s(ft.transform_ns, ft.transform_spans, clock);
    let shards: Vec<f64> = traced.shard_items.iter().map(|&n| n as f64).collect();

    let mut m = Metrics::default();
    let lag_p99 = match spec.load {
        Load::Paced { .. } => stats::quantile(&traced.lag_s, 0.99) * 1e3,
        Load::Batches { .. } => 0.0,
    };
    m.add("gen.lag_p99_ms", "ms", lag_p99);
    m.add("ingest.input.busy_s", "s", layer_s(INPUT));
    m.add("ingest.router.busy_s", "s", layer_s(ROUTER));
    m.add("ingest.quality.busy_s", "s", layer_s(QUALITY));
    m.add("ingest.quality.flagged_ratio", "ratio", c.quality_flagged as f64 / records);
    m.add("ingest.reorder.busy_s", "s", layer_s(REORDER));
    m.add("ingest.reorder.reordered_ratio", "ratio", c.reordered as f64 / items);
    m.add("ingest.reorder.duplicate_ratio", "ratio", c.duplicates as f64 / items);
    m.add("ingest.reorder.late_dropped", "count", c.late_dropped as f64);
    m.add("ingest.reorder.peak_depth", "count", c.peak_depth as f64);
    m.add("ingest.engine.busy_s", "s", engine_s);
    let layers_s =
        layer_s(INPUT) + layer_s(ROUTER) + layer_s(QUALITY) + layer_s(REORDER) + pipeline_s;
    m.add("ingest.glue.busy_s", "s", engine_s - layers_s);
    m.add("ingest.overhead_ratio", "ratio", engine_s / pipeline_s);
    m.add("ingest.allocs_per_record", "allocs/record", engine.allocs as f64 / records);
    m.add("ingest.dead_letter_ratio", "ratio", c.dead_letter as f64 / items);
    m.add("ingest.emit.alarms_per_record", "ratio", d.alarms as f64 / records);
    m.add("ingest.emit.provenance_mb", "MB", traced.provenance_bytes as f64 / 1e6);
    let fanout = match spec.load {
        Load::Batches { .. } => traced.batch_calls as f64,
        Load::Paced { .. } => 0.0,
    };
    m.add("ingest.fanout.calls", "count", fanout);
    m.add("ingest.fanout.shard_skew", "ratio", stats::max(&shards) / stats::mean(&shards));
    m.add("ingest.checkpoint.write_s", "s", stats::median(&traced.checkpoint_write_s));
    m.add("ingest.checkpoint.restore_s", "s", traced.restore_s);
    let ledger = traced.checkpoint_bytes.saturating_sub(traced.state_bytes);
    m.add("ingest.checkpoint.ledger_mb", "MB", ledger as f64 / 1e6);
    m.add("ingest.checkpoint.state_mb", "MB", traced.state_bytes as f64 / 1e6);
    m.add("pipeline.busy_s", "s", pipeline_s);
    m.add(
        "pipeline.allocs_per_record",
        "allocs/record",
        d.pipeline_allocs as f64 / d.released_records.max(1) as f64,
    );
    m.add("pipeline.alarms_per_emission", "ratio", d.alarms as f64 / ft.emitted.max(1) as f64);
    m.add("pipeline.filter.busy_s", "s", filter_s);
    m.add("pipeline.filter.kept_ratio", "ratio", ft.kept as f64 / ft.records.max(1) as f64);
    m.add("pipeline.transform.busy_s", "s", transform_s);
    m.add("pipeline.transform.emit_ratio", "ratio", ft.emitted as f64 / ft.kept.max(1) as f64);
    m.add("pipeline.score.busy_s", "s", pipeline_s - filter_s - transform_s);
    m.add("pipeline.score.fits", "count", d.fits as f64);
    zero(&mut m, eval_only);
    // Throughput of the loops that take spans per call or per chunk.
    let traced_s = (d.wall_ns + ft.traced_ns) as f64 * 1e-9;
    let untraced_s = (untraced_ns + ft.untraced_ns) as f64 * 1e-9;
    add_overhead(&mut m, items, traced_s, untraced_s);
    m.add("trace.unattributed_ratio", "ratio", unattributed);
    m.add("trace.clock_ns", "ns", clock);
    add_self_test(&mut m, seed, checks);
    for (name, ns) in spans.self_times() {
        m.add(format!("trace.sampled_self_ms.{name}"), "ms", ns as f64 * 1e-6);
    }
    spans.write_ndjson(trace_file)?;
    m.add("failed_fraction", "ratio", checks.failed_fraction());
    Ok(m)
}

// ---------------------------------------------------------------------------
// The paper protocol
// ---------------------------------------------------------------------------

/// Transform passes standing in for the six cells: raw and delta once,
/// mean and correlation twice (Closest-pair and Grand).
const CELL_TRANSFORMS: [(TransformId, u64); 4] = [
    (TransformId::Raw, 1),
    (TransformId::Delta, 1),
    (TransformId::Mean, 2),
    (TransformId::Correlation, 2),
];

pub fn eval_traced(
    seed: u64,
    dir: &Path,
    trace_file: &Path,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let clock = clock_ns();
    let mut spans = Spans::new();
    let mut reads: Vec<adapter::Read> = Vec::new();
    let fleet = crate::write_eval_inputs(seed, dir)?;
    let mut loaded = None;
    for _ in 0..TRACED_PASSES {
        drop(loaded.take());
        let l = adapter::load_fleet_csv(dir, fleet.vehicles.len(), |r| reads.push(r))?;
        check::frames(&fleet, &l, checks);
        loaded = Some(l);
    }
    let loaded = loaded.expect("TRACED_PASSES > 0");
    drop(fleet);
    let per_load = reads.len() / TRACED_PASSES;
    // Thread CPU time, as `setup_s` takes it.
    let read_s: Vec<f64> =
        reads.chunks(per_load).map(|c| c.iter().map(|r| r.cpu_s).sum()).collect();
    let root = spans.push("csv.load", reads[0].start, reads[per_load - 1].end, None, 0);
    for (k, r) in reads[..per_load].iter().enumerate() {
        spans.push("csv.read", r.start, r.end, Some(root), k as u64);
    }

    // The pass of median wall time stands for the protocol.
    let mut passes: Vec<eval::Pass> = (0..TRACED_PASSES).map(|_| eval::run(&loaded)).collect();
    for p in &passes {
        checks.check(p.results == passes[0].results, || {
            "protocol results differ between passes".into()
        });
    }
    passes.sort_by(|a, b| a.eval_s.total_cmp(&b.eval_s));
    let traced = passes.swap_remove(TRACED_PASSES / 2);
    drop(passes);

    let root = spans.push("eval.pass", traced.start, traced.end, None, 0);
    let mut covered = Duration::ZERO;
    for (k, cell) in CELLS.iter().enumerate() {
        let (a, b) = traced.cell_spans[k];
        let (c, e) = traced.sweep_spans[k];
        spans.push(cell.name, a, b, Some(root), k as u64);
        spans.push("evaluation.sweep", c, e, Some(root), k as u64);
        covered += (b - a) + (e - c);
    }
    let wall = traced.end - traced.start;
    let unattributed = 1.0 - covered.as_secs_f64() / wall.as_secs_f64();
    check_additivity(unattributed, "protocol", checks);

    let fleet = loaded.flat();
    let ft = filter_transform(&fleet, &fleet.canonical_order(fleet.row(0).len()), &CELL_TRANSFORMS);
    drop(fleet);

    let mut m = Metrics::default();
    zero(&mut m, serve_only);
    let runner_s: f64 = traced.vehicle_s.iter().flatten().sum();
    let filter_s = CELLS.len() as f64 * corrected_s(ft.filter_ns, ft.filter_spans, clock);
    let transform_s = corrected_s(ft.transform_ns, ft.transform_spans, clock);
    m.add("pipeline.busy_s", "s", runner_s);
    m.add("pipeline.allocs_per_record", "allocs/record", 0.0);
    m.add("pipeline.alarms_per_emission", "ratio", 0.0);
    m.add("pipeline.filter.busy_s", "s", filter_s);
    m.add("pipeline.filter.kept_ratio", "ratio", ft.kept as f64 / ft.records.max(1) as f64);
    m.add("pipeline.transform.busy_s", "s", transform_s);
    m.add(
        "pipeline.transform.emit_ratio",
        "ratio",
        ft.emitted as f64 / (ft.kept * 6).max(1) as f64,
    );
    m.add("pipeline.score.busy_s", "s", runner_s - filter_s - transform_s);
    m.add("pipeline.score.fits", "count", traced.fits.iter().sum::<usize>() as f64);
    m.add("csv.read.busy_s", "s", stats::median(&read_s));
    for (k, cell) in CELLS.iter().enumerate() {
        let (a, b) = traced.cell_spans[k];
        m.add(format!("runner.{}.busy_s", cell.name), "s", (b - a).as_secs_f64());
    }
    // Time-weighted over cells: the slowest vehicle sets each cell's wall.
    let slowest: f64 = traced.vehicle_s.iter().map(|v| stats::max(v)).sum();
    let mean: f64 = traced.vehicle_s.iter().map(|v| stats::mean(v)).sum();
    m.add("runner.critical_path_ratio", "ratio", slowest / mean);
    let sweep_s: f64 = traced.sweep_spans.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    m.add("evaluation.sweep.busy_s", "s", sweep_s);
    // Throughput of the loop that takes spans per chunk; the runner's
    // per-vehicle times are taken in timed runs too.
    let (traced_s, untraced_s) = (ft.traced_ns as f64 * 1e-9, ft.untraced_ns as f64 * 1e-9);
    add_overhead(&mut m, ft.records as f64, traced_s, untraced_s);
    m.add("trace.unattributed_ratio", "ratio", unattributed);
    m.add("trace.clock_ns", "ns", clock);
    add_self_test(&mut m, seed, checks);
    for (name, ns) in spans.self_times() {
        m.add(format!("trace.sampled_self_ms.{name}"), "ms", ns as f64 * 1e-6);
    }
    spans.write_ndjson(trace_file)?;
    m.add("failed_fraction", "ratio", checks.failed_fraction());
    Ok(m)
}
