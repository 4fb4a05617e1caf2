//! `navarchos` — command-line front end for the PdM framework.
//!
//! ```text
//! navarchos simulate --out DIR [--vehicles N] [--days N] [--seed N]
//!     Generate a synthetic fleet; writes <DIR>/vehicle-XX.csv telemetry,
//!     <DIR>/events.csv and <DIR>/ground_truth.csv.
//!
//! navarchos monitor --telemetry FILE [--events FILE] [--factor F]
//!     Stream one vehicle's CSV telemetry through the complete solution
//!     (correlation + Closest-pair) and print alarms.
//!
//! navarchos evaluate --dir DIR [--ph DAYS] [--factor F]
//!     Run the batch pipeline over a simulated fleet directory and report
//!     precision / recall / F0.5 under the prediction-horizon protocol.
//!
//! navarchos resample --telemetry FILE --out FILE [--period SECONDS]
//!     Put irregular CSV telemetry on a regular time grid (gap-aware:
//!     parking time is never interpolated across).
//!
//! navarchos serve-replay [--dir DIR | --vehicles N --days N --seed N] [--shards N]
//!     Interleave a fleet's telemetry into one arrival-ordered stream and
//!     serve it through the sharded ingest engine (per-vehicle reorder
//!     buffers, duplicate drop, dead-letter sink). `--dirty SEED` salts
//!     the stream with within-horizon reordering and duplicates first;
//!     `--verify` replays each vehicle sorted and exits nonzero unless the
//!     engine's alarms are identical.
//!
//! navarchos check-manifest --path FILE [--against BASELINE] [--slo-p99-ms N]
//!     Validate a run manifest against the navarchos-run-manifest schema
//!     (v2, or v1 for committed baselines), optionally gate the
//!     `alarm.latency_ns` p99 against an SLO, and optionally diff the
//!     manifest structurally against a committed baseline with relative
//!     tolerances (nonzero exit on regression) — the machine checks CI
//!     runs over emitted manifests.
//!
//! navarchos top --addr HOST:PORT [--interval-ms N] [--iterations N]
//!     Poll a live `--metrics-addr` scrape endpoint and render a refreshing
//!     per-shard table (records/s, queue depth, health, alarm p99) from
//!     consecutive snapshot deltas.
//! ```
//!
//! Argument parsing is by hand (the workspace's sanctioned dependency set
//! has no CLI crate); every flag takes the form `--name value`, except
//! the boolean switches in [`BOOL_FLAGS`] (`--trace`, `--metrics`).
//!
//! Observability: `NAVARCHOS_LOG` / `NAVARCHOS_METRICS` are honoured
//! first, then `--trace` (events to stderr) and `--metrics` (record
//! counters/histograms; `evaluate`/`explore` additionally write a run
//! manifest plus an NDJSON trace next to it). `--metrics-addr HOST:PORT`
//! on `serve-replay`/`evaluate` additionally starts the ops plane: a
//! background snapshot sampler (`--snapshot-ms`, default 1000) plus a
//! Prometheus-text scrape endpoint serving the latest snapshot.

use navarchos_core::detectors::DetectorKind;
use navarchos_core::evaluation::{evaluate_vehicle_instances, factor_grid, EvalCounts, EvalParams};
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::AlarmAggregator;
use navarchos_core::{PipelineConfig, StreamingPipeline, TransformKind};
use navarchos_fleetsim::FleetConfig;
use navarchos_obs as obs;
use navarchos_tsframe::csv::{read_csv_file, write_csv_file};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Environment first, then per-invocation switches override.
    if let Some(enabled) = obs::init_from_env() {
        eprintln!("[obs] {enabled}");
    }
    if flags.contains_key("trace") {
        obs::set_sink(Arc::new(obs::StderrSink));
    }
    if flags.contains_key("metrics") {
        obs::set_metrics_enabled(true);
    }
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&flags),
        "monitor" => cmd_monitor(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "explore" => cmd_explore(&flags),
        "resample" => cmd_resample(&flags),
        "serve-replay" => cmd_serve_replay(&flags),
        "check-manifest" => cmd_check_manifest(&flags),
        "top" => cmd_top(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
navarchos — unsupervised vehicle predictive maintenance (EDBT 2024 reproduction)

USAGE:
  navarchos simulate --out DIR [--vehicles N] [--days N] [--seed N] [--failures N]
  navarchos monitor  --telemetry FILE [--events FILE] [--factor F] [--trace]
  navarchos evaluate --dir DIR [--ph DAYS] [--metrics] [--manifest FILE] [--trace]
                     [--metrics-addr HOST:PORT [--snapshot-ms N]]
  navarchos explore  --dir DIR [--clusters K] [--metrics] [--manifest FILE]
  navarchos resample --telemetry FILE --out FILE [--period SECONDS] [--max-gap SECONDS] [--method linear|previous]
  navarchos serve-replay [--dir DIR | --vehicles N --days N --seed N] [--shards N] [--horizon-s S]
                         [--dirty SEED [--reorder-prob F] [--dup-prob F] [--drop-prob F] [--corrupt-prob F]]
                         [--corrupt-vehicle N [--corrupt-after FRAC] [--corrupt-mode nan|bias] [--corrupt-bias F]]
                         [--verify] [--metrics] [--manifest FILE] [--batch-size N] [--journal FILE]
                         [--checkpoint-every N [--checkpoint FILE]] [--restore FILE]
                         [--metrics-addr HOST:PORT [--snapshot-ms N] [--hold-s N]]
  navarchos check-manifest --path FILE [--against BASELINE] [--tol-pct N] [--time-tol-pct N]
                           [--ignore k1,k2] [--slo-p99-ms N]
  navarchos check-manifest --trend DIR [--time-tol-pct N] [--ignore k1,k2]
  navarchos top --addr HOST:PORT [--interval-ms N] [--iterations N]
  navarchos help

OBSERVABILITY:
  --trace           structured events to stderr (or NAVARCHOS_LOG=stderr|ndjson[:path])
  --metrics         record counters/histograms (or NAVARCHOS_METRICS=1; any non-empty
                    value except 0/false/off enables); evaluate and explore also write
                    a run manifest + NDJSON trace next to it
  --against FILE    diff the checked manifest against a committed baseline manifest;
                    regressions beyond tolerance exit nonzero (--tol-pct two-sided,
                    --time-tol-pct for timings, --ignore to skip exact keys)
  --slo-p99-ms N    fail check-manifest when the manifest's alarm.latency_ns p99
                    exceeds N milliseconds
  --metrics-addr A  serve the latest metric snapshot as Prometheus text on A
                    (HOST:PORT; implies --metrics); --snapshot-ms sets the
                    sampler cadence, serve-replay's --hold-s keeps the endpoint
                    up N seconds after the run so scrapers can catch it
  --journal FILE    serve-replay: append every alarm's provenance (arrival,
                    release watermark, per-stage timings) as NDJSON; summarise
                    with `cargo run -p xtask -- alarm-latency --journal FILE`.
                    Only this flag makes the engine stamp arrivals
  --batch-size N    serve-replay: feed the engine in N-item batches and observe
                    per-shard health between batches (0 = one batch)
  --checkpoint-every N  serve-replay: write a navarchos-checkpoint/v1 snapshot
                    of the full engine state every N stream items (to
                    --checkpoint FILE, default serve-checkpoint.bin; written
                    atomically via tmp + rename)
  --restore FILE    serve-replay: restore engine state from a checkpoint and
                    resume the regenerated stream at its cursor; run with the
                    same fleet/dirt/config flags as the checkpointed run —
                    alarms (prior + resumed) stay byte-identical to the
                    uninterrupted run, so --verify still passes
  --corrupt-vehicle N  serve-replay: corrupt vehicle N's records from
                    --corrupt-after (fraction of the stream, default 0.5)
                    onward — NaN bursts by default, a finite additive shift
                    with --corrupt-mode bias [--corrupt-bias F]; drives the
                    ingest.quality.* monitors and the alert.* burn rates
                    (with --metrics/--metrics-addr, burn-rate alerts are
                    evaluated at each batch boundary and exported)
  --trend DIR       walk the committed BENCH_PR*.json history in PR order and fail
                    on any consecutive timing regression beyond --time-tol-pct
                    (timing keys shared by both manifests only; files that are not
                    run manifests are reported and skipped)";

/// Switches that take no value; everything else is `--name value`.
const BOOL_FLAGS: &[&str] = &["trace", "metrics", "verify"];

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{arg}'"));
        };
        if BOOL_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "1".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// The live ops plane behind `--metrics-addr`: a background snapshot
/// sampler feeding a bounded ring, and a scrape endpoint serving the ring's
/// latest snapshot as Prometheus text. Both shut down when this is dropped.
struct OpsPlane {
    _sampler: obs::SamplerGuard,
    _server: obs::MetricsServer,
}

/// Starts the ops plane when `--metrics-addr HOST:PORT` is present (a live
/// scrape endpoint is meaningless without metrics, so the flag implies
/// `--metrics`). `--snapshot-ms` sets the sampler cadence (default 1 s).
fn start_ops_plane(flags: &BTreeMap<String, String>) -> Result<Option<OpsPlane>, String> {
    let Some(addr) = flags.get("metrics-addr") else {
        return Ok(None);
    };
    obs::set_metrics_enabled(true);
    let snapshot_ms: u64 = get_num(flags, "snapshot-ms", 1000)?;
    let ring = Arc::new(obs::SnapshotRing::new(64));
    let period = std::time::Duration::from_millis(snapshot_ms.max(1));
    let sampler = obs::start_sampler(period, Arc::clone(&ring));
    let server =
        obs::serve_metrics(addr, ring).map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
    eprintln!(
        "[obs] metrics endpoint on {} (snapshot every {} ms)",
        server.addr(),
        snapshot_ms.max(1)
    );
    Ok(Some(OpsPlane { _sampler: sampler, _server: server }))
}

fn get_num<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        None => Ok(default),
    }
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

fn cmd_simulate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let out: PathBuf = flags.get("out").ok_or("--out DIR is required")?.into();
    let mut cfg = FleetConfig::navarchos();
    cfg.n_vehicles = get_num(flags, "vehicles", cfg.n_vehicles)?;
    cfg.n_days = get_num(flags, "days", cfg.n_days)?;
    cfg.seed = get_num(flags, "seed", cfg.seed)?;
    cfg.n_failures = get_num(flags, "failures", cfg.n_failures.min(cfg.n_vehicles))?;
    cfg.n_recorded = cfg.n_recorded.min(cfg.n_vehicles);
    cfg.n_failures = cfg.n_failures.min(cfg.n_recorded);

    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let fleet = cfg.generate();

    for vd in &fleet.vehicles {
        let path = out.join(format!("{}.csv", vd.id));
        write_csv_file(&vd.frame, &path).map_err(|e| e.to_string())?;
    }

    // Recorded events, one file for the whole fleet.
    let mut events = String::from("vehicle,timestamp,kind\n");
    for vd in &fleet.vehicles {
        for e in vd.recorded_events() {
            events.push_str(&format!("{},{},{}\n", e.vehicle, e.timestamp, e.kind.label()));
        }
    }
    std::fs::write(out.join("events.csv"), events).map_err(|e| e.to_string())?;

    // Ground truth (what an evaluator may use; the pipeline must not).
    let mut truth = String::from("vehicle,fault,start,repair\n");
    for w in &fleet.faults {
        truth.push_str(&format!("{},{},{},{}\n", w.vehicle, w.kind.label(), w.start, w.repair));
    }
    std::fs::write(out.join("ground_truth.csv"), truth).map_err(|e| e.to_string())?;

    println!(
        "wrote {} vehicles ({} records), {} recorded events, {} failures to {}",
        fleet.vehicles.len(),
        fleet.total_records(),
        fleet.recorded_event_count(),
        fleet.recorded_repair_count(),
        out.display()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// monitor
// ---------------------------------------------------------------------------

fn cmd_monitor(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let telemetry: PathBuf = flags.get("telemetry").ok_or("--telemetry FILE is required")?.into();
    let factor: f64 = get_num(flags, "factor", 8.0)?;
    let frame = read_csv_file(&telemetry).map_err(|e| e.to_string())?;
    println!(
        "loaded {} records / {} signals from {}",
        frame.len(),
        frame.width(),
        telemetry.display()
    );

    let maintenance = match flags.get("events") {
        Some(path) => load_events(Path::new(path), None)?,
        None => Vec::new(),
    };

    let mut cfg =
        PipelineConfig::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
    cfg.threshold_factor = factor;
    let mut pipeline = StreamingPipeline::new(frame.names(), cfg);

    let mut events = maintenance.iter().peekable();
    let mut aggregator = AlarmAggregator::new(&EvalParams::days(30), 15);
    let mut row = Vec::new();
    let mut alarms = 0usize;
    let mut instances = 0usize;
    // Day offsets are relative to the vehicle's first record, matching the
    // per-day framing of the evaluation protocol and the fleet simulator.
    let t0 = frame.timestamps().first().copied().unwrap_or(0);
    for i in 0..frame.len() {
        let t = frame.timestamps()[i];
        while let Some(&&(mt, is_repair)) = events.peek() {
            if mt > t {
                break;
            }
            pipeline.process_event(is_repair);
            aggregator.reset();
            events.next();
        }
        frame.row_into(i, &mut row);
        for alarm in pipeline.process_record(t, &row) {
            alarms += 1;
            if let Some(instance) = aggregator.push(&alarm) {
                instances += 1;
                // Attribute the violating channels by name (the same
                // attribution the structured `pipeline.alarm` events carry),
                // not by bare index.
                let names: Vec<&str> = instance
                    .channels
                    .iter()
                    .map(|&c| pipeline.channel_names().get(c).map(String::as_str).unwrap_or("?"))
                    .collect();
                println!(
                    "day {:6.2} (t={}) OPERATOR ALARM: {} violations on {} features: {}",
                    (instance.start - t0) as f64 / 86_400.0,
                    instance.start,
                    instance.violations,
                    names.len(),
                    names.join(", ")
                );
            }
        }
    }
    println!(
        "{alarms} raw violations → {instances} operator alarms; final pipeline state: {}",
        pipeline.phase_name()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// evaluate
// ---------------------------------------------------------------------------

fn cmd_evaluate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let dir: PathBuf = flags.get("dir").ok_or("--dir DIR is required")?.into();
    let ph: i64 = get_num(flags, "ph", 30)?;
    let events_path = dir.join("events.csv");

    // Discover the vehicles from the telemetry files.
    let mut vehicle_files: Vec<(usize, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(num) = name.strip_prefix("vehicle-").and_then(|s| s.strip_suffix(".csv")) {
            if let Ok(v) = num.parse::<usize>() {
                vehicle_files.push((v, path));
            }
        }
    }
    vehicle_files.sort();
    if vehicle_files.is_empty() {
        return Err(format!("no vehicle-XX.csv files in {}", dir.display()));
    }

    let params = RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
    let eval = EvalParams::days(ph);
    let _ops = start_ops_plane(flags)?;

    // With --metrics the run writes a manifest (and, unless a sink is
    // already installed, an NDJSON trace next to it) so files like
    // BENCH_PR3.json are generated, never hand-edited.
    let mut manifest = flags.contains_key("metrics").then(|| obs::Manifest::new("evaluate"));
    let manifest_path = match flags.get("manifest") {
        Some(p) => PathBuf::from(p),
        None => dir.join("run-manifest.json"),
    };
    if let Some(m) = manifest.as_mut() {
        m.config("dir", dir.display().to_string());
        m.config("ph_days", ph);
        m.config("vehicles", vehicle_files.len());
        m.config("transform", "correlation");
        m.config("detector", "closest_pair");
        if !obs::events_enabled() {
            let trace_path = manifest_path.with_extension("trace.ndjson");
            match obs::NdjsonSink::create(&trace_path) {
                Ok(sink) => obs::set_sink(Arc::new(sink)),
                Err(e) => eprintln!("[obs] no trace file ({}: {e})", trace_path.display()),
            }
        }
    }

    let clock = obs::stage_clock();
    let mut frames = Vec::new();
    let mut repairs_per_vehicle = Vec::new();
    for (v, path) in &vehicle_files {
        let frame = read_csv_file(path).map_err(|e| e.to_string())?;
        let maintenance = load_events(&events_path, Some(*v))?;
        let repairs: Vec<i64> = maintenance.iter().filter(|&&(_, r)| r).map(|&(t, _)| t).collect();
        frames.push((frame, maintenance));
        repairs_per_vehicle.push(repairs);
    }
    if let Some(m) = manifest.as_mut() {
        m.end_stage("load", clock);
    }

    let clock = obs::stage_clock();
    let traces = navarchos_core::par_map(&frames, |_, (frame, maintenance)| {
        run_vehicle(frame, maintenance, &params)
    });
    if let Some(m) = manifest.as_mut() {
        m.end_stage("score_vehicles", clock);
    }

    let clock = obs::stage_clock();
    println!("threshold-factor sweep (PH = {ph} days):");
    let mut best: Option<(f64, EvalCounts)> = None;
    for factor in factor_grid() {
        let mut counts = EvalCounts::default();
        for (vs, repairs) in traces.iter().zip(&repairs_per_vehicle) {
            let instances = vs.alarm_instances(factor, &eval);
            counts.merge(&evaluate_vehicle_instances(&instances, repairs, eval));
        }
        println!(
            "  factor {factor:6.2}: tp {:2}  fp {:3}  fn {:2}  precision {:.2}  recall {:.2}  F0.5 {:.2}",
            counts.tp,
            counts.fp,
            counts.fn_,
            counts.precision(),
            counts.recall(),
            counts.f05()
        );
        if best.as_ref().map(|(_, b)| counts.f05() > b.f05()).unwrap_or(true) {
            best = Some((factor, counts));
        }
    }
    if let Some(m) = manifest.as_mut() {
        m.end_stage("factor_sweep", clock);
    }
    if let Some((factor, counts)) = best {
        println!(
            "\nbest: factor {factor} → F0.5 {:.2} (precision {:.2}, recall {:.2})",
            counts.f05(),
            counts.precision(),
            counts.recall()
        );
        if let Some(m) = manifest.as_mut() {
            m.metric("best_factor", factor);
            m.metric("tp", counts.tp);
            m.metric("fp", counts.fp);
            m.metric("fn", counts.fn_);
            m.metric("precision", counts.precision());
            m.metric("recall", counts.recall());
            m.metric("f05", counts.f05());
        }
        // Alarm-latency measurement pass: replay the fleet through the
        // streaming pipeline at the chosen factor so the manifest reports
        // `alarm.latency_ns` (arrival-to-emission wall clock per alarm) —
        // the batch scorer above never raises runtime alarms.
        if let Some(m) = manifest.as_mut() {
            let clock = obs::stage_clock();
            let mut cfg = PipelineConfig::paper_default(
                TransformKind::Correlation,
                DetectorKind::ClosestPair,
            );
            cfg.threshold_factor = factor;
            let replay_alarms: usize = frames
                .iter()
                .map(|(frame, maintenance)| {
                    navarchos_core::replay_stream(frame, maintenance, cfg.clone()).len()
                })
                .sum();
            m.end_stage("alarm_replay", clock);
            m.metric("replay_alarms", replay_alarms);
        }
    }
    if let Some(m) = manifest {
        m.write(&manifest_path)
            .map_err(|e| format!("write manifest {}: {e}", manifest_path.display()))?;
        println!("run manifest written to {}", manifest_path.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// explore
// ---------------------------------------------------------------------------

fn cmd_explore(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use navarchos_cluster::{linkage, Linkage};
    use navarchos_tsframe::aggregate::{daily_aggregate, znormalize_columns, SECONDS_PER_DAY};
    use navarchos_tsframe::FilterSpec;

    let dir: PathBuf = flags.get("dir").ok_or("--dir DIR is required")?.into();
    let k: usize = get_num(flags, "clusters", 9)?;

    let mut vehicle_files: Vec<(usize, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(num) = name.strip_prefix("vehicle-").and_then(|s| s.strip_suffix(".csv")) {
            if let Ok(v) = num.parse::<usize>() {
                vehicle_files.push((v, path));
            }
        }
    }
    vehicle_files.sort();
    if vehicle_files.is_empty() {
        return Err(format!("no vehicle-XX.csv files in {}", dir.display()));
    }

    let mut manifest = flags.contains_key("metrics").then(|| obs::Manifest::new("explore"));
    let manifest_path = match flags.get("manifest") {
        Some(p) => PathBuf::from(p),
        None => dir.join("explore-manifest.json"),
    };
    if let Some(m) = manifest.as_mut() {
        m.config("dir", dir.display().to_string());
        m.config("clusters", k);
        m.config("vehicles", vehicle_files.len());
    }

    // Day-level aggregation of the filtered telemetry, as in the paper's
    // Section 2 exploration.
    let clock = obs::stage_clock();
    let filter = FilterSpec::navarchos_default();
    let mut points = Vec::new();
    let mut owners = Vec::new();
    let mut dim = 0;
    for (v, path) in &vehicle_files {
        let frame = read_csv_file(path).map_err(|e| e.to_string())?;
        let filtered = filter.apply(&frame);
        for agg in daily_aggregate(&filtered, SECONDS_PER_DAY, 30) {
            let features = agg.feature_vector();
            dim = features.len();
            points.extend(features);
            owners.push(*v);
        }
    }
    if owners.len() < k {
        return Err(format!("only {} vehicle-days; need at least {k}", owners.len()));
    }
    // Cap the matrix (agglomerative clustering is O(n²)).
    let max_points = 2500;
    if owners.len() > max_points {
        let stride = owners.len().div_ceil(max_points);
        let mut kept_points = Vec::new();
        let mut kept_owners = Vec::new();
        for i in (0..owners.len()).step_by(stride) {
            kept_points.extend_from_slice(&points[i * dim..(i + 1) * dim]);
            kept_owners.push(owners[i]);
        }
        points = kept_points;
        owners = kept_owners;
    }
    if let Some(m) = manifest.as_mut() {
        m.end_stage("aggregate", clock);
        m.metric("vehicle_days", owners.len());
    }

    let clock = obs::stage_clock();
    znormalize_columns(&mut points, dim);
    let labels = linkage(&points, dim, Linkage::Average).cut_k(k);
    if let Some(m) = manifest.as_mut() {
        m.end_stage("cluster", clock);
    }

    println!("{} vehicle-days clustered into {k} groups:", owners.len());
    for c in 0..k {
        let mut members: Vec<usize> =
            owners.iter().zip(&labels).filter(|&(_, &l)| l == c).map(|(&v, _)| v).collect();
        let size = members.len();
        members.sort_unstable();
        members.dedup();
        println!(
            "  cluster {c}: {size:4} days across {:2} vehicles {}",
            members.len(),
            if members.len() == 1 {
                format!("(single vehicle: vehicle-{:02})", members[0])
            } else {
                String::new()
            }
        );
    }
    if let Some(m) = manifest {
        m.write(&manifest_path)
            .map_err(|e| format!("write manifest {}: {e}", manifest_path.display()))?;
        println!("run manifest written to {}", manifest_path.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-replay
// ---------------------------------------------------------------------------

/// Loads the fleet for `serve-replay`: `--dir` reads a `simulate` output
/// directory (vehicle-XX.csv + events.csv); otherwise the fleet is
/// generated in-process from `--vehicles/--days/--seed`.
fn load_replay_fleet(
    flags: &BTreeMap<String, String>,
) -> Result<Vec<(u32, navarchos_tsframe::Frame, Vec<(i64, bool)>)>, String> {
    if let Some(dir) = flags.get("dir") {
        let dir = Path::new(dir);
        let events_path = dir.join("events.csv");
        let mut vehicle_files: Vec<(usize, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(num) = name.strip_prefix("vehicle-").and_then(|s| s.strip_suffix(".csv")) {
                if let Ok(v) = num.parse::<usize>() {
                    vehicle_files.push((v, path));
                }
            }
        }
        vehicle_files.sort();
        if vehicle_files.is_empty() {
            return Err(format!("no vehicle-XX.csv files in {}", dir.display()));
        }
        let mut out = Vec::new();
        for (v, path) in vehicle_files {
            let frame = read_csv_file(&path).map_err(|e| e.to_string())?;
            let maintenance = load_events(&events_path, Some(v))?;
            out.push((v as u32, frame, maintenance));
        }
        Ok(out)
    } else {
        let mut cfg = FleetConfig::navarchos();
        cfg.n_vehicles = get_num(flags, "vehicles", cfg.n_vehicles)?;
        cfg.n_days = get_num(flags, "days", cfg.n_days)?;
        cfg.seed = get_num(flags, "seed", cfg.seed)?;
        cfg.n_recorded = cfg.n_recorded.min(cfg.n_vehicles);
        cfg.n_failures = cfg.n_failures.min(cfg.n_recorded);
        let fleet = cfg.generate();
        Ok(fleet
            .vehicles
            .into_iter()
            .map(|vd| {
                let maintenance: Vec<(i64, bool)> = vd
                    .events
                    .iter()
                    .filter(|e| e.recorded && e.kind.is_maintenance())
                    .map(|e| (e.timestamp, e.kind == navarchos_fleetsim::EventKind::Repair))
                    .collect();
                (vd.id.0, vd.frame, maintenance)
            })
            .collect())
    }
}

/// Pushes a fresh metrics snapshot into the alert ring and runs one
/// burn-rate evaluation pass, printing (and accumulating) any transitions.
/// No-op when alerting is off (no `--metrics`/`--metrics-addr`).
fn observe_alerts(
    alerting: &mut Option<(obs::BurnRateEvaluator, obs::SnapshotRing)>,
    log: &mut Vec<obs::AlertTransition>,
) {
    let Some((eval, ring)) = alerting.as_mut() else {
        return;
    };
    ring.push(obs::take_snapshot());
    for t in eval.evaluate(ring) {
        println!(
            "  alert: {} {} -> {} (burn fast {:.1}x, slow {:.1}x)",
            t.name,
            t.from.name(),
            t.to.name(),
            t.burn_fast,
            t.burn_slow
        );
        log.push(t);
    }
}

/// Writes a checkpoint atomically: serialise, write to `<path>.tmp`,
/// rename. A crash mid-write leaves the previous checkpoint intact.
fn write_checkpoint_file(
    path: &Path,
    engine: &navarchos_ingest::ShardedIngest,
    cursor: u64,
    alarms: &[navarchos_ingest::FleetAlarm],
) -> Result<(), String> {
    let bytes = navarchos_ingest::write_checkpoint(engine, cursor, alarms);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))?;
    Ok(())
}

/// Serves a fleet's interleaved (optionally dirtied) event stream through
/// the sharded ingest engine and reports what the engine did with it;
/// `--verify` additionally replays every vehicle sorted and fails unless
/// the engine's alarms are byte-identical.
fn cmd_serve_replay(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use navarchos_ingest::{IngestConfig, ShardedIngest};

    let shards: usize = get_num(flags, "shards", 4)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let mut cfg = IngestConfig::paper_default(shards);
    cfg.horizon_s = get_num(flags, "horizon-s", cfg.horizon_s)?;
    if cfg.horizon_s < 0 {
        return Err("--horizon-s must be non-negative".to_string());
    }

    let mut manifest = flags.contains_key("metrics").then(|| obs::Manifest::new("serve-replay"));
    let manifest_path: PathBuf =
        flags.get("manifest").map(PathBuf::from).unwrap_or_else(|| "serve-manifest.json".into());
    let _ops = start_ops_plane(flags)?;

    let clock = obs::stage_clock();
    let vehicles = load_replay_fleet(flags)?;
    let names = vehicles[0].1.names().to_vec();
    for (v, frame, _) in &vehicles {
        if frame.names() != names.as_slice() {
            return Err(format!(
                "vehicle {v}: signal set differs from vehicle {} — one engine serves one schema",
                vehicles[0].0
            ));
        }
    }
    let refs: Vec<(u32, &navarchos_tsframe::Frame, &[(i64, bool)])> =
        vehicles.iter().map(|(v, f, m)| (*v, f, m.as_slice())).collect();
    let mut stream = navarchos_fleetsim::interleave_streams(&refs);
    let clean_len = stream.len();

    let mut lossy = false;
    let mut dirt: Option<navarchos_fleetsim::DirtyConfig> = None;
    if let Some(seed) = flags.get("dirty") {
        let seed: u64 = seed.parse().map_err(|e| format!("--dirty: {e}"))?;
        let mut d = navarchos_fleetsim::DirtyConfig::reorder_and_dup(seed);
        // Keep the dirt inside the engine's tolerance unless overridden:
        // equivalence is only promised for delays strictly under the horizon.
        d.reorder_horizon_s = cfg.horizon_s.max(1);
        d.reorder_prob = get_num(flags, "reorder-prob", d.reorder_prob)?;
        d.dup_prob = get_num(flags, "dup-prob", d.dup_prob)?;
        d.drop_prob = get_num(flags, "drop-prob", d.drop_prob)?;
        d.corrupt_prob = get_num(flags, "corrupt-prob", d.corrupt_prob)?;
        lossy = d.drop_prob > 0.0 || d.corrupt_prob > 0.0;
        if let Some(m) = manifest.as_mut() {
            m.config("dirty_seed", seed);
            m.config("reorder_prob", d.reorder_prob);
            m.config("dup_prob", d.dup_prob);
            m.config("drop_prob", d.drop_prob);
            m.config("corrupt_prob", d.corrupt_prob);
        }
        dirt = Some(d);
    }
    // `--corrupt-vehicle N` switches on a targeted corruption campaign:
    // that vehicle's records are corrupted from `--corrupt-after FRAC`
    // (default 0.5) of the stream onward — NaN bursts by default, a finite
    // additive drift with `--corrupt-mode bias [--corrupt-bias F]`. Works
    // with or without `--dirty` (targeting never perturbs background dirt).
    if let Some(v) = flags.get("corrupt-vehicle") {
        let vehicle: u32 = v.parse().map_err(|e| format!("--corrupt-vehicle: {e}"))?;
        let onset: f64 = get_num(flags, "corrupt-after", 0.5)?;
        if !(0.0..=1.0).contains(&onset) {
            return Err("--corrupt-after must be in [0, 1]".to_string());
        }
        let mode = match flags.get("corrupt-mode").map(String::as_str) {
            None | Some("nan") => navarchos_fleetsim::CorruptionMode::NanBurst,
            Some("bias") => {
                navarchos_fleetsim::CorruptionMode::Bias(get_num(flags, "corrupt-bias", 1.0e3)?)
            }
            Some(other) => {
                return Err(format!("--corrupt-mode must be nan or bias, got '{other}'"))
            }
        };
        if let Some(m) = manifest.as_mut() {
            m.config("corrupt_vehicle", vehicle as usize);
            m.config("corrupt_after", onset);
        }
        let base = dirt.take().unwrap_or(navarchos_fleetsim::DirtyConfig {
            seed: 0,
            reorder_prob: 0.0,
            reorder_horizon_s: 0,
            dup_prob: 0.0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            targeted: None,
        });
        dirt = Some(base.with_target(vehicle, onset, mode));
        lossy = true;
    }
    if let Some(d) = &dirt {
        stream = navarchos_fleetsim::dirty_stream(&stream, d);
    }
    if let Some(m) = manifest.as_mut() {
        m.config("shards", shards);
        m.config("horizon_s", cfg.horizon_s);
        m.config("vehicles", vehicles.len());
        m.config("clean_stream_items", clean_len);
        m.config("stream_items", stream.len());
        m.end_stage("load", clock);
    }
    println!(
        "serving {} stream items from {} vehicles through {shards} shard(s) \
         (lateness horizon {} s)",
        stream.len(),
        vehicles.len(),
        cfg.horizon_s
    );

    // `--batch-size N` feeds the engine in N-item slices with a health
    // observation between slices — the cadence that drives the per-shard
    // health FSM (0, the default, ingests everything as one batch and
    // health is only observed once, at the end).
    let batch_size: usize = get_num(flags, "batch-size", 0)?;
    // `--checkpoint-every N` snapshots the full engine state (plus stream
    // cursor and alarm ledger) every N items; `--restore FILE` resumes a
    // checkpointed run. The stream is regenerated deterministically from
    // the same flags, so skipping the cursor's worth of items lands the
    // restored engine exactly where the checkpointed one stopped.
    let checkpoint_every: usize = get_num(flags, "checkpoint-every", 0)?;
    let checkpoint_path: PathBuf =
        flags.get("checkpoint").map(PathBuf::from).unwrap_or_else(|| "serve-checkpoint.bin".into());
    // Burn-rate alerting rides on metrics: its own snapshot ring is fed at
    // batch boundaries (not the ops-plane sampler cadence) so a replay
    // that outruns wall-clock still accumulates evaluable deltas.
    let mut alerting =
        (flags.contains_key("metrics") || flags.contains_key("metrics-addr")).then(|| {
            (obs::BurnRateEvaluator::new(obs::default_policies()), obs::SnapshotRing::new(64))
        });
    let mut alert_log: Vec<obs::AlertTransition> = Vec::new();
    let clock = obs::stage_clock();
    let started = std::time::Instant::now();
    let dirty_len = stream.len() as u64;
    let mut engine;
    let mut alarms: Vec<navarchos_ingest::FleetAlarm>;
    let mut cursor: u64 = 0;
    if let Some(restore_path) = flags.get("restore") {
        let bytes = std::fs::read(restore_path).map_err(|e| format!("read {restore_path}: {e}"))?;
        let restored = navarchos_ingest::read_checkpoint(&names, cfg.clone(), &bytes)
            .map_err(|e| format!("restore {restore_path}: {e}"))?;
        engine = restored.engine;
        cursor = restored.cursor;
        alarms = restored.prior_alarms;
        if cursor > dirty_len {
            return Err(format!(
                "restore {restore_path}: checkpoint cursor {cursor} is past the regenerated \
                 stream ({dirty_len} items) — was the run configured identically?"
            ));
        }
        println!(
            "restored engine from {restore_path}: cursor {cursor}, {} prior alarm(s)",
            alarms.len()
        );
        stream.drain(..cursor as usize);
    } else {
        engine = ShardedIngest::new(&names, cfg.clone());
        alarms = Vec::new();
    }
    // Provenance costs clock reads per record, so only the journal turns
    // it on.
    engine.set_provenance(flags.contains_key("journal"));
    let cursor_at_start = cursor;
    let mut checkpoint_writes = 0usize;
    let mut transitions = Vec::new();
    observe_alerts(&mut alerting, &mut alert_log); // baseline snapshot
    let chunk_size = if batch_size > 0 { batch_size } else { checkpoint_every };
    if chunk_size == 0 {
        alarms.extend(engine.ingest_batch(stream));
    } else {
        // Checkpoints land at chunk boundaries, once per crossed multiple
        // of `checkpoint_every`; the end-of-stream boundary is skipped so
        // the file left behind always points mid-stream.
        let every = checkpoint_every as u64;
        let mut ckpt_bucket = if every > 0 { cursor / every } else { 0 };
        let mut chunk = stream;
        while !chunk.is_empty() {
            let rest = chunk.split_off(chunk_size.min(chunk.len()));
            cursor += chunk.len() as u64;
            alarms.extend(engine.ingest_batch(chunk));
            if batch_size > 0 {
                transitions.extend(engine.observe_health());
                observe_alerts(&mut alerting, &mut alert_log);
            }
            if every > 0 && cursor / every > ckpt_bucket && !rest.is_empty() {
                ckpt_bucket = cursor / every;
                write_checkpoint_file(&checkpoint_path, &engine, cursor, &alarms)?;
                checkpoint_writes += 1;
            }
            chunk = rest;
        }
    }
    alarms.extend(engine.finish());
    if checkpoint_writes > 0 {
        println!("wrote {checkpoint_writes} checkpoint(s) to {}", checkpoint_path.display());
    }
    transitions.extend(engine.observe_health());
    observe_alerts(&mut alerting, &mut alert_log);
    let wall = started.elapsed().as_secs_f64();
    if let Some(m) = manifest.as_mut() {
        m.end_stage("ingest", clock);
    }
    for t in &transitions {
        println!("  health: shard {} {} -> {}", t.shard, t.from.as_str(), t.to.as_str());
    }
    if let Some((eval, _)) = &alerting {
        let summary: Vec<String> =
            eval.states().iter().map(|(n, s)| format!("{n}={}", s.name())).collect();
        println!("  alerts: {} ({} transition(s))", summary.join(" "), alert_log.len());
    }

    let stats = engine.stats();
    let health = engine.health_states();
    for (i, (s, v)) in engine.shard_stats().iter().zip(engine.vehicles_per_shard()).enumerate() {
        println!(
            "  shard {i}: {v:3} vehicles, {:7} records, {:5} reordered, peak queue depth {}, \
             health {}",
            s.records,
            s.reordered,
            s.peak_queue_depth,
            health.get(i).map(|h| h.as_str()).unwrap_or("?")
        );
    }
    println!(
        "ingested {} records + {} maintenance markers in {wall:.3}s ({:.0} records/s)",
        stats.records,
        stats.maintenance,
        stats.records as f64 / wall.max(1e-9)
    );
    println!(
        "  reordered {}, duplicates {}, late-dropped {}, dead-lettered {}, forced releases {}",
        stats.reordered,
        stats.duplicates,
        stats.late_dropped,
        stats.dead_letter,
        stats.forced_releases
    );
    println!("  {} alarms across {} vehicles", stats.alarms, vehicles.len());
    for dl in engine.dead_letters().iter().take(5) {
        println!("  dead letter: vehicle {} t={} {:?}", dl.vehicle, dl.timestamp, dl.reason);
    }
    if let Some(m) = manifest.as_mut() {
        m.metric("ingest_wall_seconds", wall);
        m.metric("ingest_records_per_s", stats.records as f64 / wall.max(1e-9));
        m.metric("records", stats.records);
        m.metric("released", stats.released);
        m.metric("reordered", stats.reordered);
        m.metric("duplicates", stats.duplicates);
        m.metric("late_dropped", stats.late_dropped);
        m.metric("dead_letter", stats.dead_letter);
        m.metric("forced_releases", stats.forced_releases);
        m.metric("alarms", stats.alarms);
        m.metric("peak_queue_depth", stats.peak_queue_depth);
        m.metric("health_transitions", transitions.len());
        m.metric("checkpoints_written", checkpoint_writes);
        m.metric("restored_cursor", cursor_at_start as usize);
        m.metric(
            "health_worst",
            health.iter().map(|h| h.gauge_value()).max().unwrap_or(0) as usize,
        );
        if let Some((eval, _)) = &alerting {
            m.metric("alert_transitions", alert_log.len());
            m.metric(
                "alert_worst",
                eval.states().iter().map(|(_, s)| s.as_u64()).max().unwrap_or(0) as usize,
            );
        }
    }

    // `--journal FILE` — the alarm provenance journal: one NDJSON object
    // per alarm with the arrival timestamp, the watermark that released it,
    // and the per-stage wall-clock split. `xtask alarm-latency` summarises.
    if let Some(journal_path) = flags.get("journal") {
        let prov = engine.drain_provenance();
        let mut out = String::new();
        for p in &prov {
            let line = obs::Json::Obj(vec![
                ("vehicle".to_string(), obs::Json::from(u64::from(p.vehicle))),
                ("shard".to_string(), obs::Json::from(p.shard)),
                ("alarm_timestamp".to_string(), obs::Json::from(p.alarm_timestamp)),
                ("channel".to_string(), obs::Json::from(p.channel_name.as_str())),
                ("watermark_ts".to_string(), obs::Json::from(p.watermark_ts)),
                ("arrival_ns".to_string(), obs::Json::from(p.arrival_ns)),
                ("release_ns".to_string(), obs::Json::from(p.release_ns)),
                ("emit_ns".to_string(), obs::Json::from(p.emit_ns)),
                ("buffer_wait_ns".to_string(), obs::Json::from(p.buffer_wait_ns())),
                ("pipeline_ns".to_string(), obs::Json::from(p.pipeline_ns())),
            ]);
            out.push_str(&line.to_compact_string());
            out.push('\n');
        }
        std::fs::write(journal_path, out).map_err(|e| format!("write {journal_path}: {e}"))?;
        println!("alarm provenance journal ({} alarm(s)) written to {journal_path}", prov.len());
    }

    let mut verify_failure = None;
    if flags.contains_key("verify") {
        if lossy {
            eprintln!(
                "warning: --verify with dropping/corrupting dirt — equivalence with the \
                 sorted replay is not expected to hold"
            );
        }
        let clock = obs::stage_clock();
        let frames: Vec<(navarchos_tsframe::Frame, Vec<(i64, bool)>)> =
            vehicles.iter().map(|(_, f, m)| (f.clone(), m.clone())).collect();
        let per_vehicle = navarchos_core::replay_interleaved(&frames, &cfg.pipeline);
        let expected: BTreeMap<u32, Vec<navarchos_core::Alarm>> = vehicles
            .iter()
            .map(|(v, _, _)| *v)
            .zip(per_vehicle)
            .filter(|(_, a)| !a.is_empty())
            .collect();
        let mut got: BTreeMap<u32, Vec<navarchos_core::Alarm>> = BTreeMap::new();
        for fa in &alarms {
            got.entry(fa.vehicle).or_default().push(fa.alarm.clone());
        }
        // Counter accounting: every stream item must be offered (a restore
        // that skips or double-feeds records shifts `offered` off the
        // stream length) and every offered item must land in exactly one
        // outcome bucket. Alarm equivalence alone can miss an eaten
        // record whose loss happens not to change any alarm.
        let offered = stats.records + stats.maintenance;
        let accounted = stats.released + stats.duplicates + stats.late_dropped + stats.dead_letter;
        let accounting_ok = offered == dirty_len && accounted == offered;
        println!(
            "verify: accounting — offered {offered} of {dirty_len} stream items; released {} \
             + duplicates {} + late-dropped {} + dead-lettered {} = {accounted}",
            stats.released, stats.duplicates, stats.late_dropped, stats.dead_letter
        );
        let ok = got == expected;
        if let Some(m) = manifest.as_mut() {
            m.end_stage("verify", clock);
            m.metric("verified", usize::from(ok && accounting_ok));
        }
        if !accounting_ok {
            verify_failure = Some(format!(
                "serve-replay --verify: counter accounting shows lost or double-counted \
                 records (offered {offered} of {dirty_len}, outcome buckets sum to {accounted})"
            ));
        }
        if ok {
            println!(
                "verify: engine alarms byte-identical to sorted per-vehicle replay \
                 ({} alarmed vehicles)",
                expected.len()
            );
        } else {
            let mut diverged: Vec<u32> = expected
                .keys()
                .chain(got.keys())
                .filter(|v| expected.get(v) != got.get(v))
                .copied()
                .collect();
            diverged.sort_unstable();
            diverged.dedup();
            // Print the first mismatching alarm of each diverged vehicle,
            // both sides, so the failure is debuggable from the CI log
            // alone (a bare vehicle list forces a local repro).
            let fmt_alarm = |a: Option<&navarchos_core::Alarm>| match a {
                Some(a) => format!(
                    "t={} channel {} ({}) score {:.6} threshold {:.6}",
                    a.timestamp, a.channel, a.channel_name, a.score, a.threshold
                ),
                None => "<no alarm at this index>".to_string(),
            };
            for v in diverged.iter().take(5) {
                let e = expected.get(v).map(Vec::as_slice).unwrap_or(&[]);
                let g = got.get(v).map(Vec::as_slice).unwrap_or(&[]);
                let i = e
                    .iter()
                    .zip(g.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| e.len().min(g.len()));
                println!(
                    "verify: vehicle {v} diverges at alarm {i} (sorted replay raised {}, \
                     engine raised {}):",
                    e.len(),
                    g.len()
                );
                println!("  expected: {}", fmt_alarm(e.get(i)));
                println!("  got:      {}", fmt_alarm(g.get(i)));
            }
            if diverged.len() > 5 {
                println!("verify: ... and {} more diverged vehicle(s)", diverged.len() - 5);
            }
            verify_failure = Some(format!(
                "serve-replay --verify: engine alarms differ from sorted replay on \
                 vehicle(s) {diverged:?}"
            ));
        }
    }

    // `--hold-s N` keeps the process (and with it the `--metrics-addr`
    // endpoint) alive N seconds after the run so external scrapers get a
    // window to observe the final counters and health gauges.
    let hold_s: u64 = get_num(flags, "hold-s", 0)?;
    if hold_s > 0 {
        eprintln!("[obs] holding for {hold_s} s before exit");
        std::thread::sleep(std::time::Duration::from_secs(hold_s));
    }

    if let Some(m) = manifest {
        m.write(&manifest_path)
            .map_err(|e| format!("write manifest {}: {e}", manifest_path.display()))?;
        println!("run manifest written to {}", manifest_path.display());
    }
    match verify_failure {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// check-manifest
// ---------------------------------------------------------------------------

/// Reads and schema-validates one manifest file.
fn read_manifest(path: &Path) -> Result<obs::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    obs::manifest::validate(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

/// One-line identity of a validated manifest: which code produced it and
/// under what configuration — so CI logs say *what* was checked, not just
/// that something passed.
fn manifest_identity(doc: &obs::Json) -> String {
    let schema = doc.get("schema").and_then(obs::Json::as_str).unwrap_or("?");
    let command = doc.get("command").and_then(obs::Json::as_str).unwrap_or("?");
    let git = doc.get("git").and_then(obs::Json::as_str).unwrap_or("unknown");
    let config = match doc.get("config") {
        Some(obs::Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    obs::Json::Str(s) => s.clone(),
                    other => other.to_compact_string(),
                };
                format!("{k}={v}")
            })
            .collect::<Vec<_>>()
            .join(" "),
        _ => String::new(),
    };
    format!("{schema} · {command} @ {git} · {config}")
}

/// Parses a run manifest and checks it against the schema (v2, or v1 for
/// committed baselines); the CI smoke job runs this over the manifest an
/// `evaluate --metrics` run emits. `--slo-p99-ms` additionally gates the
/// `alarm.latency_ns` p99, and `--against` diffs the manifest against a
/// committed baseline with relative tolerances, exiting nonzero on any
/// regression.
fn cmd_check_manifest(flags: &BTreeMap<String, String>) -> Result<(), String> {
    if let Some(dir) = flags.get("trend") {
        return check_manifest_trend(Path::new(dir), flags);
    }
    let path: PathBuf = flags.get("path").ok_or("--path FILE or --trend DIR is required")?.into();
    let doc = read_manifest(&path)?;
    println!("{}: valid — {}", path.display(), manifest_identity(&doc));

    if flags.contains_key("slo-p99-ms") {
        let slo_ms: f64 = get_num(flags, "slo-p99-ms", 0.0)?;
        let p99_ns = doc
            .get("histograms")
            .and_then(|h| h.get("alarm.latency_ns"))
            .and_then(|h| h.get("p99"))
            .and_then(obs::Json::as_num)
            .ok_or_else(|| {
                "--slo-p99-ms: manifest has no alarm.latency_ns histogram; produce one with a \
                 metrics-enabled run that replays alarms (evaluate --metrics or bench_baseline)"
                    .to_string()
            })?;
        let p99_ms = p99_ns / 1.0e6;
        if p99_ms > slo_ms {
            return Err(format!("alarm latency SLO exceeded: p99 {p99_ms:.3} ms > {slo_ms} ms"));
        }
        println!("alarm latency SLO ok: p99 {p99_ms:.3} ms <= {slo_ms} ms");
    }

    if let Some(baseline_path) = flags.get("against") {
        let baseline = read_manifest(Path::new(baseline_path))?;
        let cfg = obs::DiffConfig {
            tol_pct: get_num(flags, "tol-pct", 25.0)?,
            time_tol_pct: get_num(flags, "time-tol-pct", 50.0)?,
            ignore: flags
                .get("ignore")
                .map(|s| {
                    s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect()
                })
                .unwrap_or_default(),
            eps: 1e-6,
        };
        let report = obs::diff_manifests(&doc, &baseline, &cfg);
        print!("{}", report.render());
        if !report.ok() {
            return Err(format!(
                "{} regression(s) against {baseline_path}",
                report.regressions.len()
            ));
        }
        println!("no regressions against {baseline_path}");
    }
    Ok(())
}

/// The PR number of a committed `BENCH_PR<k>.json` benchmark record.
fn bench_pr_number(name: &str) -> Option<u32> {
    name.strip_prefix("BENCH_PR")?.strip_suffix(".json")?.parse().ok()
}

/// `check-manifest --trend DIR`: walks every `BENCH_PR<k>.json` in `DIR` in
/// PR order and holds each consecutive pair of *run manifests* to the
/// timing-only trend rule ([`obs::diff_timings`]) — committed history must
/// not get monotonically slower past tolerance. Files in the series that
/// are not run manifests (the pre-manifest bench records) are reported and
/// skipped rather than failing the walk.
fn check_manifest_trend(dir: &Path, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut series: Vec<(u32, String)> = rd
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            bench_pr_number(&name).map(|k| (k, name))
        })
        .collect();
    series.sort();
    if series.len() < 2 {
        return Err(format!(
            "--trend: found {} BENCH_PR*.json file(s) in {} — need at least 2 to walk",
            series.len(),
            dir.display()
        ));
    }

    let cfg = obs::DiffConfig {
        tol_pct: get_num(flags, "tol-pct", 25.0)?,
        time_tol_pct: get_num(flags, "time-tol-pct", 50.0)?,
        ignore: flags
            .get("ignore")
            .map(|s| s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect())
            .unwrap_or_default(),
        eps: 1e-6,
    };

    let mut prev: Option<(String, obs::Json)> = None;
    let mut steps = 0usize;
    let mut regressions = 0usize;
    for (_, name) in &series {
        let doc = match read_manifest(&dir.join(name)) {
            Ok(doc) => doc,
            Err(e) => {
                println!("{name}: not a run manifest, skipped ({e})");
                continue;
            }
        };
        println!("{name}: {}", manifest_identity(&doc));
        if let Some((prev_name, prev_doc)) = &prev {
            let report = obs::diff_timings(&doc, prev_doc, &cfg);
            steps += 1;
            if report.ok() {
                println!("  {prev_name} -> {name}: ok ({} timing comparison(s))", report.compared);
            } else {
                print!("{}", report.render());
                regressions += report.regressions.len();
            }
        }
        prev = Some((name.clone(), doc));
    }
    if steps == 0 {
        return Err("--trend: fewer than 2 valid run manifests in the series".to_string());
    }
    if regressions > 0 {
        return Err(format!("{regressions} timing regression(s) across {steps} trend step(s)"));
    }
    println!("trend ok: {steps} step(s), no timing regressions beyond {}%", cfg.time_tol_pct);
    Ok(())
}

// ---------------------------------------------------------------------------
// top
// ---------------------------------------------------------------------------

/// One parsed scrape of a `--metrics-addr` endpoint: the snapshot rebuilt
/// into [`obs::MetricsSnapshot`] form (so [`obs::delta`] computes rates the
/// same way the in-process ops plane does) plus the raw summary samples for
/// quantile display.
struct ScrapedSnapshot {
    snap: obs::MetricsSnapshot,
    summaries: Vec<obs::Sample>,
}

/// Rebuilds a metrics snapshot from Prometheus exposition text: the
/// snapshot timestamp comes from the `# navarchos ops-plane snapshot at
/// t_ns=N` header, counters/gauges are classified by their `# TYPE` lines,
/// and everything else (summary quantiles, `_sum`/`_count`) is kept as raw
/// samples.
fn parse_scrape(text: &str) -> Result<ScrapedSnapshot, String> {
    let mut t_ns = 0u64;
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# navarchos ops-plane snapshot at t_ns=") {
            t_ns = rest.trim().parse().unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                kinds.insert(name.to_string(), kind.to_string());
            }
        }
    }
    let mut snap = obs::MetricsSnapshot {
        t_ns,
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        histograms: BTreeMap::new(),
        sketches: BTreeMap::new(),
    };
    let mut summaries = Vec::new();
    for s in obs::parse_exposition(text)? {
        match kinds.get(&s.name).map(String::as_str) {
            Some("counter") => {
                snap.counters.insert(s.name, s.value.max(0.0) as u64);
            }
            Some("gauge") => {
                snap.gauges.insert(s.name, s.value.max(0.0) as u64);
            }
            _ => summaries.push(s),
        }
    }
    Ok(ScrapedSnapshot { snap, summaries })
}

/// Renders one refresh of the ops tables from the current scrape and (when
/// available) the previous one. Rates print as `-` until two distinct
/// snapshots have been seen — a rate needs an interval.
///
/// Layout: a per-shard health table, then burn-rate alert states, then
/// `ingest.quality.*` monitor gauges, then every remaining gauge, then the
/// summary (histogram/sketch) quantiles. Each table's name column is sized
/// to its longest entry, so metric names are never truncated.
fn render_top(addr: &str, scraped: &ScrapedSnapshot, prev: Option<&obs::MetricsSnapshot>) {
    let snap = &scraped.snap;
    let d = prev.map(|p| obs::delta(p, snap));
    let fresh = d.as_ref().is_some_and(|d| d.dt_ns > 0);
    let rate = |name: &str| -> String {
        match &d {
            Some(d) if fresh => format!("{:.0}", d.counter_rate(name)),
            _ => "-".to_string(),
        }
    };
    let quantile = |metric: &str, q: &str| -> Option<f64> {
        scraped
            .summaries
            .iter()
            .find(|s| s.name == metric && s.labels.iter().any(|(k, v)| k == "quantile" && v == q))
            .map(|s| s.value)
    };
    let alarm_p99 = quantile("alarm_latency_ns", "0.99")
        .map(|v| format!("{:.2} ms", v / 1.0e6))
        .unwrap_or_else(|| "-".to_string());
    println!(
        "navarchos top @ {addr}  t={:.1}s  ingest {} rec/s  alarm p99 {alarm_p99}",
        snap.t_ns as f64 / 1.0e9,
        rate("ingest_records"),
    );
    println!("  {:>5}  {:<9} {:>10} {:>11}", "shard", "health", "rec/s", "queue p90");
    for (name, &hv) in &snap.gauges {
        let Some(id) = name.strip_prefix("ingest_shard").and_then(|r| r.strip_suffix("_health"))
        else {
            continue;
        };
        let health = match hv {
            0 => "ok",
            1 => "degraded",
            2 => "stalled",
            _ => "?",
        };
        let depth = quantile(&format!("ingest_shard{id}_queue_depth"), "0.9")
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  {:>5}  {:<9} {:>10} {:>11}",
            id,
            health,
            rate(&format!("ingest_shard{id}_records")),
            depth
        );
    }

    // Burn-rate alert states: one row per `alert.<name>.state` gauge, with
    // the burn gauges (exported as milli-multiples) and transition count.
    let alerts: Vec<(&str, u64)> = snap
        .gauges
        .iter()
        .filter_map(|(n, &v)| {
            n.strip_prefix("alert_").and_then(|r| r.strip_suffix("_state")).map(|a| (a, v))
        })
        .collect();
    if !alerts.is_empty() {
        let w = alerts.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max("alert".len());
        println!(
            "  {:<w$}  {:<8} {:>10} {:>10} {:>12}",
            "alert", "state", "burn fast", "burn slow", "transitions"
        );
        for (name, v) in &alerts {
            let state = match v {
                0 => "ok",
                1 => "warning",
                2 => "firing",
                _ => "?",
            };
            let burn = |kind: &str| -> String {
                snap.gauges
                    .get(&format!("alert_{name}_burn_{kind}_m"))
                    .map(|&m| format!("{:.1}x", m as f64 / 1000.0))
                    .unwrap_or_else(|| "-".to_string())
            };
            let transitions = snap
                .counters
                .get(&format!("alert_{name}_transitions"))
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".to_string());
            println!(
                "  {:<w$}  {:<8} {:>10} {:>10} {:>12}",
                name,
                state,
                burn("fast"),
                burn("slow"),
                transitions
            );
        }
    }

    // Remaining gauges in two groups: data-quality monitors first, then
    // everything not already rendered above.
    let rendered_above = |n: &str| {
        n.starts_with("alert_") || (n.starts_with("ingest_shard") && n.ends_with("_health"))
    };
    let group = |title: &str, rows: &[(&String, &u64)]| {
        if rows.is_empty() {
            return;
        }
        let w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(title.len());
        println!("  {:<w$} {:>12}", title, "value");
        for (name, value) in rows {
            println!("  {:<w$} {:>12}", name, value);
        }
    };
    let (quality, other): (Vec<_>, Vec<_>) = snap
        .gauges
        .iter()
        .filter(|(n, _)| !rendered_above(n))
        .partition(|(n, _)| n.starts_with("ingest_quality_"));
    group("quality", &quality);
    group("gauge", &other);

    // Summary quantiles (histograms and quantile sketches): one row per
    // exported summary family.
    let mut summary_names: Vec<&str> = scraped
        .summaries
        .iter()
        .filter(|s| s.labels.iter().any(|(k, _)| k == "quantile"))
        .map(|s| s.name.as_str())
        .collect();
    summary_names.sort_unstable();
    summary_names.dedup();
    if !summary_names.is_empty() {
        let w = summary_names.iter().map(|n| n.len()).max().unwrap_or(0).max("summary".len());
        println!("  {:<w$} {:>14} {:>14} {:>14}", "summary", "p50", "p90", "p99");
        for name in summary_names {
            let q = |q: &str| {
                quantile(name, q).map(|v| format!("{v:.3}")).unwrap_or_else(|| "-".to_string())
            };
            println!("  {:<w$} {:>14} {:>14} {:>14}", name, q("0.5"), q("0.9"), q("0.99"));
        }
    }
}

/// `top --addr HOST:PORT` — polls a live scrape endpoint and renders the
/// per-shard table every `--interval-ms` (default 1000). `--iterations N`
/// stops after N refreshes (0, the default, polls until interrupted).
fn cmd_top(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").ok_or("--addr HOST:PORT is required")?;
    let interval_ms: u64 = get_num(flags, "interval-ms", 1000)?;
    let iterations: u64 = get_num(flags, "iterations", 0)?;
    let mut prev: Option<obs::MetricsSnapshot> = None;
    let mut round = 0u64;
    loop {
        let text = obs::scrape(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
        let scraped = parse_scrape(&text)?;
        render_top(addr, &scraped, prev.as_ref());
        prev = Some(scraped.snap);
        round += 1;
        if iterations != 0 && round >= iterations {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// resample
// ---------------------------------------------------------------------------

fn cmd_resample(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use navarchos_tsframe::{resample, FillMethod, ResampleSpec};

    let input: PathBuf = flags.get("telemetry").ok_or("--telemetry FILE is required")?.into();
    let out: PathBuf = flags.get("out").ok_or("--out FILE is required")?.into();
    let period: i64 = get_num(flags, "period", 60)?;
    let max_gap: i64 = get_num(flags, "max-gap", 6 * 3_600)?;
    if period <= 0 || max_gap <= 0 {
        return Err("--period and --max-gap must be positive".to_string());
    }
    let method = match flags.get("method").map(String::as_str) {
        None | Some("linear") => FillMethod::Linear,
        Some("previous") => FillMethod::Previous,
        Some(other) => return Err(format!("--method must be linear or previous, got '{other}'")),
    };

    let frame = read_csv_file(&input).map_err(|e| e.to_string())?;
    let gridded = resample(&frame, ResampleSpec { period, max_gap, method });
    write_csv_file(&gridded, &out).map_err(|e| e.to_string())?;
    println!(
        "{} records -> {} grid points at {period} s ({} written)",
        frame.len(),
        gridded.len(),
        out.display(),
    );
    Ok(())
}

/// Loads `(timestamp, is_repair)` maintenance events from events.csv,
/// optionally filtered to one vehicle.
fn load_events(path: &Path, vehicle: Option<usize>) -> Result<Vec<(i64, bool)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return Ok(Vec::new()), // events are optional
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != 3 {
            return Err(format!("{}: line {} malformed", path.display(), i + 1));
        }
        let v: usize = cells[0].trim().parse().map_err(|e| format!("bad vehicle: {e}"))?;
        if let Some(want) = vehicle {
            if v != want {
                continue;
            }
        }
        let t: i64 = cells[1].trim().parse().map_err(|e| format!("bad timestamp: {e}"))?;
        match cells[2].trim() {
            "service" => out.push((t, false)),
            "repair" => out.push((t, true)),
            _ => {} // inspections / DTCs don't reset the reference
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn bench_pr_numbers_parse_numerically() {
        assert_eq!(bench_pr_number("BENCH_PR3.json"), Some(3));
        assert_eq!(bench_pr_number("BENCH_PR12.json"), Some(12));
        assert_eq!(bench_pr_number("BENCH.json"), None);
        assert_eq!(bench_pr_number("BENCH_PRx.json"), None);
        assert_eq!(bench_pr_number("BENCH_PR3.json.bak"), None);
    }

    #[test]
    fn parse_flags_happy_path() {
        let args: Vec<String> =
            ["--out", "/tmp/x", "--vehicles", "8"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("out").map(String::as_str), Some("/tmp/x"));
        assert_eq!(f.get("vehicles").map(String::as_str), Some("8"));
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        let args: Vec<String> = ["simulate"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args: Vec<String> = ["--out"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_boolean_switches_take_no_value() {
        let args: Vec<String> =
            ["--metrics", "--dir", "/tmp/x", "--trace"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("metrics").map(String::as_str), Some("1"));
        assert_eq!(f.get("trace").map(String::as_str), Some("1"));
        assert_eq!(f.get("dir").map(String::as_str), Some("/tmp/x"));
    }

    #[test]
    fn get_num_defaults_and_parses() {
        let f = flags(&[("days", "42")]);
        assert_eq!(get_num::<usize>(&f, "days", 7).unwrap(), 42);
        assert_eq!(get_num::<usize>(&f, "missing", 7).unwrap(), 7);
        let bad = flags(&[("days", "not-a-number")]);
        assert!(get_num::<usize>(&bad, "days", 7).is_err());
    }

    #[test]
    fn load_events_filters_and_sorts() {
        let dir = std::env::temp_dir().join("navarchos-cli-test-events");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.csv");
        std::fs::write(
            &path,
            "vehicle,timestamp,kind\n1,200,repair\n0,100,service\n1,50,service\n1,75,inspection\n",
        )
        .unwrap();
        let all = load_events(&path, None).unwrap();
        assert_eq!(all, vec![(50, false), (100, false), (200, true)], "inspections dropped");
        let only_v1 = load_events(&path, Some(1)).unwrap();
        assert_eq!(only_v1, vec![(50, false), (200, true)]);
        // A missing file is not an error (events are optional).
        assert!(load_events(&dir.join("nope.csv"), None).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
