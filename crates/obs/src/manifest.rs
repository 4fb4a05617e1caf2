//! Run manifests: one JSON document per run that records what ran, on what
//! code, with what configuration, how long each stage took and what it
//! found. The CLI's `evaluate`/`explore --metrics` and `serve-replay
//! --metrics` runs write one; `navarchos check-manifest` checks it.
//!
//! Schema (`navarchos-run-manifest/v2`): an object with [`REQUIRED_KEYS`];
//! `stages` is an array of `{name, wall_seconds, cpu_seconds}` entries,
//! `counters` maps metric names to integers, `histograms` maps names to
//! `{count, mean, p50, p90, p99, p999, min, max}` summaries, `host` records the
//! machine the run executed on (`{os, arch, cpus}` — timings are only
//! comparable within a host class), and `metrics` holds domain results
//! (detection F-scores, alarm counts, ...). [`validate`] — the machine
//! check CI runs over emitted manifests — accepts this schema only and
//! names any other in its error.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::metrics;

/// Schema identifier written into every manifest.
pub const SCHEMA: &str = "navarchos-run-manifest/v2";

/// Keys every manifest must contain to pass [`validate`].
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "command",
    "git",
    "host",
    "config",
    "stages",
    "counters",
    "histograms",
    "metrics",
    "wall_seconds",
    "cpu_seconds",
];

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository (e.g. an installed binary).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// `None` on platforms without procfs.
pub fn proc_cpu_seconds() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised comm (which may itself contain spaces
    // and parens): state is field 3; utime/stime are fields 14/15, so
    // indices 11 and 12 of the post-comm split.
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this workspace targets.
    Some((utime + stime) / 100.0)
}

/// The `host` object stamped into v2 manifests: enough machine identity
/// to tell whether two manifests' timings are comparable at all.
pub fn host_info() -> Json {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Json::Obj(vec![
        ("os".to_string(), Json::Str(std::env::consts::OS.to_string())),
        ("arch".to_string(), Json::Str(std::env::consts::ARCH.to_string())),
        ("cpus".to_string(), Json::from(cpus)),
    ])
}

/// A wall + CPU clock pair captured at stage start.
#[derive(Debug, Clone)]
pub struct StageClock {
    wall: Instant,
    cpu: Option<f64>,
}

/// Captures the clocks for a stage about to run.
pub fn stage_clock() -> StageClock {
    StageClock { wall: Instant::now(), cpu: proc_cpu_seconds() }
}

#[derive(Debug)]
struct StageRecord {
    name: String,
    wall_seconds: f64,
    cpu_seconds: Option<f64>,
}

/// Accumulates one run's manifest; [`Manifest::finish`] snapshots the
/// metric registry and renders the document.
#[derive(Debug)]
pub struct Manifest {
    command: String,
    started: Instant,
    started_cpu: Option<f64>,
    config: Vec<(String, Json)>,
    metrics: Vec<(String, Json)>,
    stages: Vec<StageRecord>,
}

impl Manifest {
    /// Starts a manifest for `command` (`"evaluate"`, `"serve-replay"`,
    /// ...). Clocks start now.
    pub fn new(command: &str) -> Manifest {
        Manifest {
            command: command.to_string(),
            started: Instant::now(),
            started_cpu: proc_cpu_seconds(),
            config: Vec::new(),
            metrics: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Records one configuration key (seed, window, paths, ...).
    pub fn config(&mut self, key: &str, value: impl Into<Json>) {
        self.config.push((key.to_string(), value.into()));
    }

    /// Records one result metric (detection scores, overhead, ...).
    pub fn metric(&mut self, key: &str, value: impl Into<Json>) {
        self.metrics.push((key.to_string(), value.into()));
    }

    /// Closes a stage opened with [`stage_clock`].
    pub fn end_stage(&mut self, name: &str, clock: StageClock) {
        let wall_seconds = clock.wall.elapsed().as_secs_f64();
        let cpu_seconds = match (clock.cpu, proc_cpu_seconds()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        self.stages.push(StageRecord { name: name.to_string(), wall_seconds, cpu_seconds });
    }

    /// Times `f` as a named stage.
    pub fn stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let clock = stage_clock();
        let out = f();
        self.end_stage(name, clock);
        out
    }

    /// Renders the manifest document, snapshotting the global metric
    /// registry for the `counters`/`histograms` sections.
    pub fn finish(self) -> Json {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let cpu_seconds = match (self.started_cpu, proc_cpu_seconds()) {
            (Some(a), Some(b)) => Json::Num(b - a),
            _ => Json::Null,
        };
        let snap = metrics::snapshot();
        let counters =
            Json::Obj(snap.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect());
        let gauges =
            Json::Obj(snap.gauges.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect());
        let sketches = Json::Obj(
            snap.sketches
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".to_string(), Json::from(s.count())),
                            ("mean".to_string(), Json::Num(s.mean())),
                            ("p50".to_string(), Json::Num(s.quantile(0.5))),
                            ("p90".to_string(), Json::Num(s.quantile(0.9))),
                            ("p99".to_string(), Json::Num(s.quantile(0.99))),
                            ("min".to_string(), Json::Num(s.min())),
                            ("max".to_string(), Json::Num(s.max())),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".to_string(), Json::from(h.count)),
                            ("mean".to_string(), Json::Num(h.mean())),
                            ("p50".to_string(), Json::from(h.quantile(0.5))),
                            ("p90".to_string(), Json::from(h.quantile(0.9))),
                            ("p99".to_string(), Json::from(h.quantile(0.99))),
                            ("p999".to_string(), Json::from(h.quantile(0.999))),
                            (
                                "min".to_string(),
                                if h.count == 0 { Json::Num(0.0) } else { Json::from(h.min) },
                            ),
                            ("max".to_string(), Json::from(h.max)),
                        ]),
                    )
                })
                .collect(),
        );
        let stages = Json::Arr(
            self.stages
                .into_iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::Str(s.name)),
                        ("wall_seconds".to_string(), Json::Num(s.wall_seconds)),
                        (
                            "cpu_seconds".to_string(),
                            s.cpu_seconds.map(Json::Num).unwrap_or(Json::Null),
                        ),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("command".to_string(), Json::Str(self.command)),
            ("git".to_string(), Json::Str(git_describe())),
            ("host".to_string(), host_info()),
            ("config".to_string(), Json::Obj(self.config)),
            ("stages".to_string(), stages),
            ("counters".to_string(), counters),
            // Additive beyond REQUIRED_KEYS: `gauges` and `sketches` are
            // emitted always but required never.
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
            ("sketches".to_string(), sketches),
            ("metrics".to_string(), Json::Obj(self.metrics)),
            ("wall_seconds".to_string(), Json::Num(wall_seconds)),
            ("cpu_seconds".to_string(), cpu_seconds),
        ])
    }

    /// Renders and writes the manifest (pretty-printed) to `path`.
    pub fn write(self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.finish().to_pretty_string())
    }
}

/// Checks a parsed manifest against the [`SCHEMA`]: the schema named, all
/// [`REQUIRED_KEYS`] present, sections of the right shape. Returns every
/// problem found.
pub fn validate(doc: &Json) -> Result<(), String> {
    let Json::Obj(_) = doc else {
        return Err("manifest is not a JSON object".to_string());
    };
    let mut problems = Vec::new();
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            problems.push(format!("missing required key `{key}`"));
        }
    }
    if let Some(s) = doc.get("schema").and_then(Json::as_str) {
        if s != SCHEMA {
            problems.push(format!("schema is `{s}`, expected `{SCHEMA}`"));
        }
    }
    if let Some(stages) = doc.get("stages") {
        match stages {
            Json::Arr(items) => {
                for (i, s) in items.iter().enumerate() {
                    if s.get("name").and_then(Json::as_str).is_none() {
                        problems.push(format!("stages[{i}] missing string `name`"));
                    }
                    if s.get("wall_seconds").and_then(Json::as_num).is_none() {
                        problems.push(format!("stages[{i}] missing numeric `wall_seconds`"));
                    }
                }
            }
            _ => problems.push("`stages` must be an array".to_string()),
        }
    }
    // `gauges` and `sketches` are optional: shape-checked only when
    // present.
    for section in ["host", "config", "counters", "histograms", "metrics", "gauges", "sketches"] {
        if let Some(v) = doc.get(section) {
            if !matches!(v, Json::Obj(_)) {
                problems.push(format!("`{section}` must be an object"));
            }
        }
    }
    if let Some(v) = doc.get("wall_seconds") {
        if v.as_num().is_none() {
            problems.push("`wall_seconds` must be a number".to_string());
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn finished_manifest_validates() {
        let mut m = Manifest::new("test");
        m.config("seed", 42u64);
        m.metric("f1", 0.5);
        m.stage("work", || std::thread::sleep(std::time::Duration::from_millis(1)));
        let doc = m.finish();
        validate(&doc).unwrap();
        // And it survives a serialise/parse cycle.
        let reparsed = json::parse(&doc.to_pretty_string()).unwrap();
        validate(&reparsed).unwrap();
        let stages = match reparsed.get("stages") {
            Some(Json::Arr(s)) => s,
            other => panic!("stages: {other:?}"),
        };
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("work"));
        assert!(stages[0].get("wall_seconds").and_then(Json::as_num).unwrap() > 0.0);
    }

    #[test]
    fn validate_rejects_incomplete_documents() {
        assert!(validate(&Json::Arr(vec![])).is_err());
        let missing = json::parse("{\"schema\": \"navarchos-run-manifest/v1\"}").unwrap();
        let err = validate(&missing).unwrap_err();
        assert!(err.contains("missing required key `stages`"), "{err}");
        let bad_schema = json::parse("{\"schema\": \"v0\"}").unwrap();
        assert!(validate(&bad_schema).unwrap_err().contains("expected"));
    }

    #[test]
    fn v1_documents_are_refused_and_v2_requires_host() {
        // A complete v1 document (no `host`, no `p90`) is refused by its
        // schema name: every writer emits v2.
        let v1 = json::parse(
            r#"{"schema": "navarchos-run-manifest/v1", "command": "bench",
                "git": "abc", "config": {}, "stages": [], "counters": {},
                "histograms": {}, "metrics": {}, "wall_seconds": 1.0,
                "cpu_seconds": 1.0}"#,
        )
        .unwrap();
        let err = validate(&v1).unwrap_err();
        assert!(err.contains("schema is `navarchos-run-manifest/v1`"), "{err}");
        // The same document claiming v2 must be rejected for missing host.
        let v2 = json::parse(&v1.to_pretty_string().replace("manifest/v1", "manifest/v2")).unwrap();
        let err = validate(&v2).unwrap_err();
        assert!(err.contains("host"), "{err}");
        assert!(!err.contains("schema is"), "{err}");
    }

    #[test]
    fn emitted_manifests_carry_gauges_and_sketches() {
        let mut m = Manifest::new("test");
        metrics::gauge("manifest.test_gauge").set(7);
        let s = metrics::sketch("manifest.test_sketch");
        for i in 0..10 {
            s.record(i as f64);
        }
        m.stage("noop", || {});
        let doc = m.finish();
        validate(&doc).unwrap();
        assert_eq!(
            doc.get("gauges").and_then(|g| g.get("manifest.test_gauge")).and_then(Json::as_num),
            Some(7.0)
        );
        let sk = doc.get("sketches").and_then(|s| s.get("manifest.test_sketch"));
        assert_eq!(sk.and_then(|s| s.get("count")).and_then(Json::as_num), Some(10.0));
        assert_eq!(sk.and_then(|s| s.get("max")).and_then(Json::as_num), Some(9.0));
        assert!(sk.and_then(|s| s.get("p90")).and_then(Json::as_num).is_some());
    }

    #[test]
    fn emitted_manifests_carry_host_and_p90() {
        let mut m = Manifest::new("test");
        metrics::histogram("manifest.test_ns").record(42);
        m.stage("noop", || {});
        let doc = m.finish();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert!(doc.get("host").and_then(|h| h.get("cpus")).and_then(Json::as_num).is_some());
        let hist = doc.get("histograms").and_then(|h| h.get("manifest.test_ns"));
        assert!(hist.and_then(|h| h.get("p90")).and_then(Json::as_num).is_some());
        assert!(hist.and_then(|h| h.get("p999")).and_then(Json::as_num).is_some());
    }

    #[test]
    fn cpu_clock_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let a = proc_cpu_seconds().expect("procfs available");
            assert!(a >= 0.0);
        }
    }

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe().is_empty());
    }
}
