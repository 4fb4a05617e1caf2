//! `perfbench`: the served-path and paper-protocol benchmark.
//!
//! ```text
//! perfbench --workload <serve-paced|serve-dirty|eval-batch> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit, a `report` JSON line with the same,
//! and as the last line the result object: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits nonzero when any reference check fails.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod adapter;
mod alloc;
mod check;
mod eval;
mod flat;
mod host;
mod mem;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Checks;
use report::Metrics;
use serve::{Load, Spec};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics of the result line with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("records_per_s", "records/s")];

/// `serve-paced`: one shard, one call per item, open loop at about a
/// quarter of the engine's one-shard capacity.
pub const PACED: Spec = Spec { shards: 1, load: Load::Paced { rate: 250_000.0 } };

/// `serve-dirty`: two shards fed in 65,536-item batches, closed loop.
pub const DIRTY: Spec = Spec { shards: 2, load: Load::Batches { size: 1 << 16 } };

/// The vehicle whose records turn to NaN from mid-stream in `serve-dirty`.
pub const NAN_VICTIM: u32 = 7;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve-paced", "serve-dirty", "eval-batch"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// The build directory: the checkout's when the benchmark runs from one.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("perfbench/target"), PathBuf::from)
}

/// Scratch space for generated files, removed when the run ends.
fn scratch_dir(args: &Args) -> PathBuf {
    target_dir().join("perfbench-scratch").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

/// Where a traced run writes its sampled span chains.
fn trace_file(args: &Args) -> PathBuf {
    target_dir().join("perfbench-traces").join(format!("{}-{}.ndjson", args.workload, args.seed))
}

/// Fewest passes a timed run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Repeats `pass` until the next one would overrun `seconds` (at least
/// [`MIN_PASSES`] times). Returns the passes and, per pass, the share of
/// the guest's busy CPU time that was stolen.
fn repeat<T>(
    seconds: f64,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    let start = Instant::now();
    let (mut out, mut steal) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let ticks = host::Ticks::now();
        out.push(pass()?);
        steal.push(host::Ticks::now().steal_share_since(ticks));
        let took = t.elapsed();
        if out.len() >= MIN_PASSES && start.elapsed() + took > Duration::from_secs_f64(seconds) {
            return Ok((out, steal));
        }
    }
}

/// Each pass's busy times less the share of that pass that was stolen.
fn unstolen(rows: &[Vec<f64>], steal: &[f64]) -> Vec<Vec<f64>> {
    rows.iter().zip(steal).map(|(r, s)| r.iter().map(|b| b * (1.0 - s)).collect()).collect()
}

/// Generated inputs of a served-path workload.
struct ServeInputs {
    stream: flat::FlatStream,
    truth: adapter::Truth,
}

fn serve_inputs(workload: &str, seed: u64) -> ServeInputs {
    if workload == "serve-paced" {
        let fleet = adapter::paper_fleet(seed);
        ServeInputs { stream: adapter::clean_stream(&fleet), truth: adapter::truth_of(&fleet) }
    } else {
        let fleet = adapter::wide_fleet(seed);
        ServeInputs {
            stream: adapter::lossy_stream(&fleet, seed, NAN_VICTIM),
            truth: adapter::truth_of(&fleet),
        }
    }
}

fn serve_timed(args: &Args, spec: Spec, checks: &mut Checks) -> Result<Metrics, String> {
    if spec.shards == 1 {
        // One shard runs on this thread alone. Left free, the guest moved
        // it between vCPUs, which moved its throughput by up to a quarter
        // from run to run.
        host::pin_to_current_cpu()?;
    }
    let inputs = serve_inputs(&args.workload, args.seed);
    let s = &inputs.stream;
    let oracle = adapter::replay_oracle(s);
    check::self_test(&oracle, checks);
    let paced = matches!(spec.load, Load::Paced { .. });
    // One latency per alarm, in a buffer sized and touched before any
    // peak reset, so filling it adds no resident memory to a pass.
    let alarms: usize = oracle.values().map(Vec::len).sum();
    let mut latency_s = if paced { vec![f64::NAN; alarms] } else { Vec::new() };

    let mut quality = None;
    let (mut peak, mut pooled) = (None, Vec::new());
    let base = mem::reset_peak()?;
    let (passes, steal) = repeat(args.seconds, || {
        let mut pass = serve::run(s, spec, false, &mut latency_s)?;
        if peak.is_none() {
            peak = Some(mem::added_peak_mib(base)?);
        }
        pooled.extend_from_slice(&latency_s);
        let served = std::mem::take(&mut pass.served).by_vehicle();
        check::alarms(&served, &oracle, checks);
        check::accounting(&pass.counts, s.len(), checks);
        quality.get_or_insert_with(|| adapter::served_quality(&served, &inputs.truth));
        Ok(pass)
    })?;
    let (quality, peak) = (quality.expect("at least one pass"), peak.expect("at least one pass"));

    let mut m = Metrics::default();
    let per_pass = |f: &dyn Fn(&serve::Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let setups: Vec<Vec<f64>> = passes.iter().map(|p| vec![p.new_s, p.restore_s]).collect();
    m.add("setup_s", "s", stats::sum_of_quantiles(&setups, 0.25));
    let rps = per_pass(&|p| p.items as f64 / p.busy_s);
    let chunks: Vec<Vec<f64>> = passes.iter().map(|p| p.chunk_busy_s.clone()).collect();
    let wall_rate = s.len() as f64 / stats::sum_of_quantiles(&chunks, 0.25);
    let rate = s.len() as f64 / stats::sum_of_quantiles(&unstolen(&chunks, &steal), 0.25);
    m.add("records_per_s", "records/s", rate);
    m.add("records_per_wall_s", "records/s", wall_rate);
    m.add("host.steal_share", "ratio", stats::median(&steal));
    m.add("peak_rss_mb", "MiB", peak);
    m.add("records_per_s.min_pass", "records/s", stats::quantile(&rps, 0.0));
    m.add("records_per_s.max_pass", "records/s", stats::max(&rps));
    if paced {
        m.add("alarm_latency_p50_us", "us", stats::quantile(&pooled, 0.5) * 1e6);
        m.add("alarm_latency_p99_ms", "ms", stats::quantile(&pooled, 0.99) * 1e3);
        m.add("alarm_latency_samples", "count", pooled.len() as f64);
    }
    let writes: Vec<f64> =
        passes.iter().flat_map(|p| p.checkpoint_write_s.iter().copied()).collect();
    m.add("checkpoint_write_ms", "ms", stats::median(&writes) * 1e3);
    m.add("checkpoint_mb", "MB", stats::median(&per_pass(&|p| p.checkpoint_bytes as f64)) / 1e6);
    m.add("served_f05", "F0.5", quality.f05);
    m.add("served_tp", "count", quality.tp as f64);
    m.add("served_fp", "count", quality.fp as f64);
    m.add("passes", "count", passes.len() as f64);
    m.add("items_per_pass", "count", s.len() as f64);
    m.add("failed_fraction", "ratio", checks.failed_fraction());
    Ok(m)
}

/// Writes the paper fleet as CSV, as `navarchos simulate` does: the
/// generated input of `eval-batch`.
fn write_eval_inputs(seed: u64, dir: &std::path::Path) -> Result<adapter::FleetData, String> {
    let fleet = adapter::paper_fleet(seed);
    adapter::write_fleet_csv(&fleet, dir)?;
    Ok(fleet)
}

fn eval_timed(args: &Args, dir: &std::path::Path, checks: &mut Checks) -> Result<Metrics, String> {
    let fleet = write_eval_inputs(args.seed, dir)?;
    let (mut setups, mut peak) = (Vec::new(), None);
    let mut records = 0;
    // Every pass loads the fleet, then runs the protocol on it. The peak
    // counts from the written files on: loading them is the system's work.
    let base = mem::reset_peak()?;
    let (passes, steal) = repeat(args.seconds, || {
        let mut reads = Vec::new();
        let loaded = adapter::load_fleet_csv(dir, fleet.vehicles.len(), |r| reads.push(r.cpu_s))?;
        setups.push(reads);
        let pass = eval::run(&loaded);
        if peak.is_none() {
            peak = Some(mem::added_peak_mib(base)?);
        }
        check::frames(&fleet, &loaded, checks);
        records = loaded.records();
        Ok(pass)
    })?;
    for p in &passes[1..] {
        checks.check(p.results == passes[0].results, || {
            "protocol results differ between passes".into()
        });
    }
    let records = records as f64;
    let parts: Vec<Vec<f64>> = passes.iter().map(eval::Pass::components).collect();
    let eval_s = stats::sum_of_quantiles(&unstolen(&parts, &steal), 0.25);
    let mut m = Metrics::default();
    m.add("setup_s", "s", stats::sum_of_quantiles(&setups, 0.25));
    m.add("records_per_s", "records/s", records / eval_s);
    m.add("records_per_wall_s", "records/s", records / stats::sum_of_quantiles(&parts, 0.25));
    m.add("host.steal_share", "ratio", stats::median(&steal));
    m.add("peak_rss_mb", "MiB", peak.expect("at least one pass"));
    m.add("eval_s", "s", eval_s);
    m.add("eval_f05", "F0.5", passes[0].headline_f05);
    m.add("passes", "count", passes.len() as f64);
    m.add("records", "count", records);
    m.add("failed_fraction", "ratio", checks.failed_fraction());
    Ok(m)
}

fn run(args: &Args, scratch: &std::path::Path, checks: &mut Checks) -> Result<Metrics, String> {
    let spec = if args.workload == "serve-paced" { PACED } else { DIRTY };
    match (args.workload.as_str(), args.trace) {
        ("eval-batch", false) => eval_timed(args, scratch, checks),
        ("eval-batch", true) => trace::eval_traced(args.seed, scratch, &trace_file(args), checks),
        (_, false) => serve_timed(args, spec, checks),
        (w, true) => trace::serve_traced(w, args.seed, spec, &trace_file(args), checks),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-paced|serve-dirty|eval-batch> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    adapter::force_obs_off();
    let scratch = scratch_dir(&args);
    let mut checks = Checks::default();
    let outcome = run(&args, &scratch, &mut checks);
    let _ = std::fs::remove_dir_all(&scratch);
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    report::print_report(&args.workload, args.seed, args.trace, &metrics);
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    let declared: &[(&str, &str)] = if args.trace { &trace::PER_LAYER } else { &END_TO_END };
    let line = match report::result_line(
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        &metrics,
        declared,
    ) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
