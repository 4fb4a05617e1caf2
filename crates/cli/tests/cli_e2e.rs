//! End-to-end tests of the `navarchos` binary: simulate → evaluate →
//! monitor → explore over a temporary directory.

use std::path::PathBuf;
use std::process::Command;

fn navarchos() -> Command {
    Command::new(env!("CARGO_BIN_EXE_navarchos"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("navarchos-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn simulate_then_evaluate_and_explore() {
    let dir = temp_dir("flow");
    let out = navarchos()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--vehicles", "6", "--days", "80", "--failures", "2", "--seed", "5"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("vehicle-00.csv").exists());
    assert!(dir.join("events.csv").exists());
    assert!(dir.join("ground_truth.csv").exists());

    let out = navarchos()
        .args(["evaluate", "--dir", dir.to_str().unwrap(), "--ph", "30"])
        .output()
        .expect("run evaluate");
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("threshold-factor sweep"));
    assert!(text.contains("best: factor"));

    let out = navarchos()
        .args(["monitor", "--telemetry"])
        .arg(dir.join("vehicle-00.csv"))
        .args(["--events"])
        .arg(dir.join("events.csv"))
        .args(["--factor", "12"])
        .output()
        .expect("run monitor");
    assert!(out.status.success(), "monitor failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("loaded"));

    let out = navarchos()
        .args(["explore", "--dir", dir.to_str().unwrap(), "--clusters", "4"])
        .output()
        .expect("run explore");
    assert!(out.status.success(), "explore failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("cluster 0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_metrics_writes_valid_manifest_and_trace() {
    let dir = temp_dir("manifest");
    let out = navarchos()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--vehicles", "5", "--days", "60", "--failures", "1", "--seed", "9"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));

    let manifest = dir.join("run-manifest.json");
    let out = navarchos()
        .args(["evaluate", "--dir", dir.to_str().unwrap(), "--metrics"])
        .args(["--manifest", manifest.to_str().unwrap()])
        .output()
        .expect("run evaluate --metrics");
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(manifest.exists(), "manifest written");

    // The manifest parses, validates and carries per-stage timings plus the
    // pipeline's counters.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let doc = navarchos_obs::json::parse(&text).expect("manifest is valid JSON");
    navarchos_obs::manifest::validate(&doc).expect("manifest matches schema");
    let stages = match doc.get("stages") {
        Some(navarchos_obs::Json::Arr(s)) => s,
        other => panic!("stages: {other:?}"),
    };
    let names: Vec<_> =
        stages.iter().filter_map(|s| s.get("name").and_then(navarchos_obs::Json::as_str)).collect();
    assert_eq!(names, ["load", "score_vehicles", "factor_sweep", "alarm_replay"]);
    let records = doc
        .get("counters")
        .and_then(|c| c.get("runner.records"))
        .and_then(navarchos_obs::Json::as_num)
        .expect("runner.records counter present");
    assert!(records > 0.0, "vehicles streamed records: {records}");
    // The scoring core's sampled stage clocks ran (the batch runner and the
    // alarm replay both drive it).
    let filter_samples = doc
        .get("histograms")
        .and_then(|h| h.get("pipeline.stage.filter_ns"))
        .and_then(|h| h.get("count"))
        .and_then(navarchos_obs::Json::as_num);
    assert!(
        filter_samples.is_some_and(|n| n > 0.0),
        "pipeline.stage.filter_ns has samples: {filter_samples:?}"
    );
    assert!(doc.get("metrics").and_then(|m| m.get("f05")).is_some(), "detection metrics recorded");

    // An NDJSON trace was written next to it, and every line round-trips
    // through the hand-rolled parser.
    let trace = manifest.with_extension("trace.ndjson");
    assert!(trace.exists(), "trace written");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let mut events = 0;
    for line in trace_text.lines() {
        navarchos_obs::parse_line(line).expect("trace line parses");
        events += 1;
    }
    assert!(events > 0, "trace is not empty");

    // The alarm-replay pass recorded emission latencies.
    let latency = doc.get("histograms").and_then(|h| h.get("alarm.latency_ns"));
    let p99 = latency.and_then(|h| h.get("p99")).and_then(navarchos_obs::Json::as_num);
    assert!(p99.is_some(), "alarm.latency_ns p99 present: {latency:?}");

    // check-manifest accepts the real manifest (and says what it checked),
    // gates the latency SLO in both directions, and rejects garbage and
    // documents of the retired v1 schema.
    let out = navarchos()
        .args(["check-manifest", "--path", manifest.to_str().unwrap()])
        .output()
        .expect("run check-manifest");
    assert!(out.status.success(), "check failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("valid"));
    assert!(text.contains("evaluate @"), "identity line names the command: {text}");
    assert!(text.contains("vehicles=5"), "identity line summarises config: {text}");

    let out = navarchos()
        .args(["check-manifest", "--path", manifest.to_str().unwrap()])
        .args(["--slo-p99-ms", "60000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "lenient SLO failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SLO ok"));

    let out = navarchos()
        .args(["check-manifest", "--path", manifest.to_str().unwrap()])
        .args(["--slo-p99-ms", "0.000001"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "impossible SLO must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("SLO exceeded"));

    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"schema\": \"navarchos-run-manifest/v1\"}").unwrap();
    let out =
        navarchos().args(["check-manifest", "--path", bogus.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "incomplete manifest must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required key"));

    let v1 = dir.join("v1.json");
    let v2_text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&v1, v2_text.replace("navarchos-run-manifest/v2", "navarchos-run-manifest/v1"))
        .unwrap();
    let out =
        navarchos().args(["check-manifest", "--path", v1.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "a v1 manifest must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema is `navarchos-run-manifest/v1`"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitor_attributes_alarms_by_day_and_feature_name() {
    let dir = temp_dir("monitor");
    let out = navarchos()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--vehicles", "4", "--days", "80", "--failures", "2", "--seed", "3"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));

    // The seeded fleet pins each summary: vehicle 0's last recorded event
    // is a repair that leaves its reference unfilled, vehicle 2 alarms
    // between its service and its repair. Every alarm line carries a day
    // offset and names its features.
    for (vehicle, alarms, summary) in [
        ("00", 0, "0 raw violations → 0 operator alarms; final pipeline state: filling-reference"),
        (
            "02",
            9,
            "342 raw violations → 9 operator alarms; final pipeline state: filling-reference",
        ),
    ] {
        let out = navarchos()
            .args(["monitor", "--telemetry"])
            .arg(dir.join(format!("vehicle-{vehicle}.csv")))
            .args(["--events"])
            .arg(dir.join("events.csv"))
            .args(["--factor", "2"])
            .output()
            .expect("run monitor");
        assert!(out.status.success(), "monitor failed: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.lines().last(), Some(summary), "vehicle {vehicle}:\n{text}");
        let alarm_lines: Vec<&str> =
            text.lines().filter(|l| l.contains("OPERATOR ALARM")).collect();
        assert_eq!(alarm_lines.len(), alarms, "vehicle {vehicle}: one line per operator alarm");
        for line in alarm_lines {
            assert!(line.starts_with("day "), "alarm line carries a day offset: {line}");
            assert!(line.contains("features: "), "alarm line names features: {line}");
            let names = line.split("features: ").nth(1).unwrap_or("");
            assert!(
                names.chars().any(|c| c.is_alphabetic()),
                "feature attribution is by name, not index: {line}"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = navarchos().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = navarchos().args(["evaluate", "--dir", "/definitely/not/here"]).output().unwrap();
    assert!(!out.status.success());

    let out = navarchos().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn evaluate_names_the_file_line_and_cell_of_a_corrupted_value() {
    let dir = temp_dir("corrupt");
    let out = navarchos()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--vehicles", "3", "--days", "20", "--failures", "1", "--seed", "3"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));

    // Replace the third cell of line 5 in one vehicle's telemetry.
    let victim = dir.join("vehicle-01.csv");
    let text = std::fs::read_to_string(&victim).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut cells: Vec<&str> = lines[4].split(',').collect();
    cells[2] = "4x2";
    lines[4] = cells.join(",");
    std::fs::write(&victim, lines.join("\n") + "\n").unwrap();

    let out = navarchos().args(["evaluate", "--dir", dir.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "evaluate accepted a corrupted cell");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("{}: ", victim.display())), "file not named: {stderr}");
    assert!(stderr.contains("line 5: bad value '4x2'"), "line or cell not named: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resample_roundtrip() {
    let dir = temp_dir("resample");
    let input = dir.join("raw.csv");
    // Two rides, 30 s cadence, separated by a >6 h gap.
    let mut csv = String::from("timestamp,rpm,speed\n");
    for i in 0..20 {
        csv.push_str(&format!("{},{},{}\n", i * 30, 1500 + i * 10, 40 + i));
    }
    let resume = 19 * 30 + 8 * 3_600;
    for i in 0..20 {
        csv.push_str(&format!("{},{},{}\n", resume + i * 30, 2000, 60));
    }
    std::fs::write(&input, csv).unwrap();

    let out_path = dir.join("gridded.csv");
    let out = navarchos()
        .args(["resample", "--telemetry", input.to_str().unwrap()])
        .args(["--out", out_path.to_str().unwrap(), "--period", "60"])
        .output()
        .expect("run resample");
    assert!(out.status.success(), "resample failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&out_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("rpm"), "header preserved: {}", lines[0]);
    // Regular 60 s spacing within rides, and no grid points inside the gap.
    let stamps: Vec<i64> =
        lines[1..].iter().map(|l| l.split(',').next().unwrap().parse().unwrap()).collect();
    assert!(stamps.windows(2).all(|w| (w[1] - w[0]) % 60 == 0));
    assert!(!stamps.iter().any(|&t| t > 19 * 30 && t < resume), "gap bridged");

    // Invalid method is rejected.
    let out = navarchos()
        .args(["resample", "--telemetry", input.to_str().unwrap()])
        .args(["--out", out_path.to_str().unwrap(), "--method", "cubic"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_replay_writes_parsable_alarm_journal() {
    let dir = temp_dir("journal");
    let journal = dir.join("alarms.ndjson");
    let out = navarchos()
        .args(["serve-replay", "--vehicles", "12", "--days", "30", "--seed", "7"])
        .args(["--shards", "2", "--dirty", "99", "--verify"])
        .args(["--journal", journal.to_str().unwrap()])
        .output()
        .expect("run serve-replay");
    assert!(out.status.success(), "serve-replay failed: {}", String::from_utf8_lossy(&out.stderr));

    // The journal is NDJSON with the exact schema `xtask alarm-latency`
    // consumes: one object per alarm, stage stamps monotonically ordered,
    // each alarm's channel named from the engine's channel table.
    let engine = navarchos_ingest::ShardedIngest::new(
        &navarchos_fleetsim::PID_NAMES,
        navarchos_ingest::IngestConfig::paper_default(2),
    );
    let text = std::fs::read_to_string(&journal).expect("journal written");
    assert!(!text.trim().is_empty(), "a 12-vehicle dirty replay must raise alarms");
    for (i, line) in text.lines().enumerate() {
        let doc = navarchos_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("journal line {}: {e}", i + 1));
        for key in [
            "vehicle",
            "shard",
            "alarm_timestamp",
            "channel",
            "watermark_ts",
            "arrival_ns",
            "release_ns",
            "emit_ns",
            "buffer_wait_ns",
            "pipeline_ns",
        ] {
            assert!(doc.get(key).is_some(), "journal line {} lacks `{key}`", i + 1);
        }
        let channel = doc.get("channel").and_then(navarchos_obs::Json::as_str).unwrap();
        assert!(
            engine.channel_names().iter().any(|c| c == channel),
            "line {}: channel `{channel}` is none of {:?}",
            i + 1,
            engine.channel_names()
        );
        let num = |k: &str| doc.get(k).and_then(navarchos_obs::Json::as_num).unwrap();
        assert!(num("release_ns") >= num("arrival_ns"), "line {}: negative buffer wait", i + 1);
        assert!(num("emit_ns") >= num("release_ns"), "line {}: negative pipeline time", i + 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_replay_ops_plane_is_scrapable_live() {
    // Pid-salted port so parallel test invocations don't collide.
    let port = 21000 + (std::process::id() % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");
    let mut child = navarchos()
        .args(["serve-replay", "--vehicles", "10", "--days", "30", "--seed", "11"])
        .args(["--shards", "2", "--batch-size", "2000"])
        .args(["--metrics-addr", &addr, "--snapshot-ms", "50", "--hold-s", "60"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve-replay");

    // Poll the live endpoint until a snapshot carries both the ingest
    // counters and the per-shard health gauges (they appear once the
    // sampler has ticked after the first batch); the clean stream must
    // report every shard Ok (gauge value 0).
    let mut seen = false;
    let mut last = String::new();
    for _ in 0..150 {
        if let Ok(text) = navarchos_obs::scrape(&addr) {
            last = text;
            let samples =
                navarchos_obs::parse_exposition(&last).expect("endpoint speaks exposition format");
            let healths: Vec<f64> = samples
                .iter()
                .filter(|s| s.name.starts_with("ingest_shard") && s.name.ends_with("_health"))
                .map(|s| s.value)
                .collect();
            if samples.iter().any(|s| s.name == "ingest_records") && healths.len() == 2 {
                assert!(
                    healths.iter().all(|&v| v == 0.0),
                    "clean stream must scrape as Ok on every shard, got {healths:?}\n{last}"
                );
                seen = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(seen, "never scraped ingest counters + 2 health gauges from {addr}; last:\n{last}");
}
