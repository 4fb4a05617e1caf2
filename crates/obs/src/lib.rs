//! `navarchos-obs` — the workspace observability layer: spans, counters,
//! log-linear histograms, structured-event sinks and run manifests.
//!
//! Hand-rolled and dependency-free (the build is offline; this crate must
//! never be the reason a fleet run fails to build), mirroring the vendored
//! shims' philosophy. The design optimises for the *disabled* case: with
//! tracing and metrics off — the default — instrumented code pays one
//! relaxed atomic load per probe. The `scoring_path` Criterion group in
//! `navarchos-bench` times the Closest-pair scoring loop with metrics off
//! and on, side by side.
//!
//! # Switches
//!
//! | control | effect |
//! |---------|--------|
//! | `NAVARCHOS_LOG=stderr` | human-readable event lines on stderr |
//! | `NAVARCHOS_LOG=ndjson[:path]` | NDJSON trace file (default `navarchos-trace.ndjson`) |
//! | `NAVARCHOS_LOG=` / `0` / `false` / `off` / unset | null sink, events disabled |
//! | `NAVARCHOS_LOG=<anything else non-empty>` | treated as on → stderr sink |
//! | `NAVARCHOS_METRICS=<non-empty, not `0`/`false`/`off`>` | counters + histograms recorded |
//! | `NAVARCHOS_METRICS=` / `0` / `false` / `off` / unset | metrics disabled |
//! | CLI `--trace` / `--metrics` | same switches, per invocation |
//!
//! Truthiness is permissive on purpose: `NAVARCHOS_METRICS=yes`, `=on` and
//! `=2` all enable metrics; only the empty string and the explicit
//! off-words (`0`, `false`, `off`, case-insensitive) disable. An
//! unrecognised non-empty `NAVARCHOS_LOG` value falls back to the stderr
//! sink rather than silently discarding the trace the user asked for.
//!
//! # Layers
//!
//! [`json`] (value/writer/parser) → [`event`] (NDJSON encode/decode) →
//! [`sink`] (null / stderr / NDJSON file) → [`metrics`] (registry) →
//! [`sketch`] (mergeable quantile sketches) → [`span`] (RAII timing) →
//! [`manifest`] (per-run JSON document + schema check) → [`flame`]
//! (trace → folded stacks) → [`snapshot`] (periodic registry snapshots +
//! deltas) → [`export`] (Prometheus text exposition + scrape endpoint) →
//! [`alert`] (multi-window burn-rate alerting over the snapshot ring).

pub mod alert;
pub mod event;
pub mod export;
pub mod flame;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod sketch;
pub mod snapshot;
pub mod span;

pub use alert::{default_policies, AlertState, AlertTransition, BurnRateEvaluator, BurnRatePolicy};
pub use event::{encode_ndjson, parse_line, Event};
pub use export::{
    parse_exposition, render_prometheus, sanitize_metric_name, scrape, serve_metrics,
    MetricsServer, Sample,
};
pub use flame::{fold_spans, fold_trace, render_folded, SpanClose};
pub use json::Json;
pub use manifest::{stage_clock, Manifest, StageClock};
pub use metrics::{
    counter, gauge, histogram, probe_sample_mask, sketch, Counter, Gauge, Histogram,
};
pub use sink::{NdjsonSink, NullSink, Sink, StderrSink};
pub use sketch::{rank_error_bound, QuantileSketch, Sketch};
pub use snapshot::{
    delta, start_sampler, take_snapshot, CounterDelta, MetricsSnapshot, SamplerGuard,
    SnapshotDelta, SnapshotRing,
};
pub use span::{current_span_id, span, span_child_of, Span};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static EVENTS_ON: AtomicBool = AtomicBool::new(false);
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// True when a real sink is installed and events should be built and
/// emitted. One relaxed load: cheap enough for per-record call sites.
#[inline]
pub fn events_enabled() -> bool {
    // Relaxed: a standalone on/off flag with no data published alongside
    // it; a stale read only delays when a thread notices the toggle.
    EVENTS_ON.load(Ordering::Relaxed)
}

/// True when counters/histograms should record.
#[inline]
pub fn metrics_enabled() -> bool {
    // Relaxed: same contract as events_enabled — no dependent data.
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turns event emission on or off.
pub fn set_events_enabled(on: bool) {
    // Relaxed: the flag orders nothing; sink installation synchronises
    // separately through the RwLock in sink_slot.
    EVENTS_ON.store(on, Ordering::Relaxed);
}

/// Turns metric recording on or off.
pub fn set_metrics_enabled(on: bool) {
    // Relaxed: the flag orders nothing; registry access synchronises
    // through its own Mutex.
    METRICS_ON.store(on, Ordering::Relaxed);
}

fn sink_slot() -> &'static RwLock<Arc<dyn Sink>> {
    static SLOT: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(NullSink)))
}

/// Installs `sink` as the event destination and enables emission. Pass a
/// [`NullSink`] (or call [`set_events_enabled`]`(false)`) to silence.
pub fn set_sink(sink: Arc<dyn Sink>) {
    let slot = sink_slot();
    // Poisoning here means a reader panicked while holding the lock; the
    // Arc slot itself is always a valid value, so recover and proceed.
    match slot.write() {
        Ok(mut guard) => *guard = sink,
        Err(poisoned) => *poisoned.into_inner() = sink,
    }
    set_events_enabled(true);
}

/// Nanoseconds since the first obs call in this process (monotonic).
pub fn elapsed_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Emits an event to the installed sink. Call sites on hot paths should
/// guard with [`events_enabled`] before *building* the event.
pub fn emit(e: &Event) {
    if !events_enabled() {
        return;
    }
    static EMITTED: OnceLock<Arc<Counter>> = OnceLock::new();
    EMITTED.get_or_init(|| counter("events.emitted")).incr();
    let sink = {
        let slot = sink_slot();
        match slot.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    };
    sink.event(e);
}

/// True when a switch value means "off": empty after trimming, or one of
/// the explicit off-words `0` / `false` / `off` (case-insensitive). Every
/// other non-empty value counts as on, so `NAVARCHOS_METRICS=yes` behaves
/// like `=1` instead of silently no-oping.
pub fn env_value_is_off(value: &str) -> bool {
    let v = value.trim();
    v.is_empty()
        || v.eq_ignore_ascii_case("0")
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("off")
}

/// What a `NAVARCHOS_LOG` value asks for, resolved before any sink is
/// touched so the policy is unit-testable without mutating process env.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogSpec {
    /// Null sink, events stay disabled.
    Off,
    /// Human-readable lines on stderr. Carries a note when the value was
    /// unrecognised and stderr is the fallback.
    Stderr(Option<String>),
    /// NDJSON trace file at the given path.
    Ndjson(String),
}

/// Parses a `NAVARCHOS_LOG` value into a [`LogSpec`]. Off-values (see
/// [`env_value_is_off`]) disable; `stderr` and `ndjson[:path]` select
/// sinks; any other non-empty value enables the stderr sink with a note,
/// because a user who set the variable wanted *some* trace.
pub fn parse_log_spec(value: &str) -> LogSpec {
    let spec = value.trim();
    if env_value_is_off(spec) {
        return LogSpec::Off;
    }
    if spec == "stderr" {
        return LogSpec::Stderr(None);
    }
    if spec == "ndjson" || spec.starts_with("ndjson:") {
        let path = spec.strip_prefix("ndjson:").filter(|p| !p.is_empty());
        return LogSpec::Ndjson(path.unwrap_or("navarchos-trace.ndjson").to_string());
    }
    LogSpec::Stderr(Some(format!("unrecognised NAVARCHOS_LOG value `{spec}`")))
}

/// Configures sinks and flags from `NAVARCHOS_LOG` / `NAVARCHOS_METRICS`
/// (see the crate docs for accepted values: any non-empty value other
/// than `0`/`false`/`off` counts as on). Call once at process start; CLI
/// flags may still override afterwards. Returns a description of what was
/// enabled, for surfacing in `--help`-style diagnostics, or `None` when
/// everything stayed off.
pub fn init_from_env() -> Option<String> {
    // Pin the epoch so event timestamps measure from process start.
    let _ = elapsed_ns();
    let mut enabled = None;
    if let Ok(spec) = std::env::var("NAVARCHOS_LOG") {
        match parse_log_spec(&spec) {
            LogSpec::Off => {}
            LogSpec::Stderr(note) => {
                set_sink(Arc::new(StderrSink));
                enabled = Some(match note {
                    Some(n) => format!("events -> stderr ({n})"),
                    None => "events -> stderr".to_string(),
                });
            }
            LogSpec::Ndjson(path) => {
                let path = std::path::Path::new(&path);
                match NdjsonSink::create(path) {
                    Ok(sink) => {
                        set_sink(Arc::new(sink));
                        enabled = Some(format!("events -> {}", path.display()));
                    }
                    Err(e) => {
                        // Fall back to stderr rather than silently losing
                        // the trace the user asked for.
                        set_sink(Arc::new(StderrSink));
                        enabled = Some(format!(
                            "events -> stderr (could not create {}: {e})",
                            path.display()
                        ));
                    }
                }
            }
        }
    }
    if std::env::var("NAVARCHOS_METRICS").is_ok_and(|v| !env_value_is_off(&v)) {
        set_metrics_enabled(true);
        enabled = Some(match enabled {
            Some(s) => format!("{s}; metrics on"),
            None => "metrics on".to_string(),
        });
    }
    enabled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_gated() {
        // Flag state is global; this test only asserts the gating logic
        // around its own toggles.
        set_events_enabled(false);
        let before = metrics::counter("events.emitted").get();
        emit(&Event::new("dropped"));
        assert_eq!(metrics::counter("events.emitted").get(), before);
    }

    #[test]
    fn env_truthiness_is_permissive() {
        for off in ["", " ", "0", "false", "FALSE", "off", "Off", " 0 "] {
            assert!(env_value_is_off(off), "`{off}` should read as off");
        }
        for on in ["1", "true", "yes", "on", "2", "anything"] {
            assert!(!env_value_is_off(on), "`{on}` should read as on");
        }
    }

    #[test]
    fn log_spec_parses_sinks_and_falls_back() {
        assert_eq!(parse_log_spec("off"), LogSpec::Off);
        assert_eq!(parse_log_spec("0"), LogSpec::Off);
        assert_eq!(parse_log_spec(""), LogSpec::Off);
        assert_eq!(parse_log_spec("stderr"), LogSpec::Stderr(None));
        assert_eq!(parse_log_spec("ndjson"), LogSpec::Ndjson("navarchos-trace.ndjson".to_string()));
        assert_eq!(parse_log_spec("ndjson:/tmp/t.ndjson"), LogSpec::Ndjson("/tmp/t.ndjson".into()));
        // Unknown non-empty values enable the stderr sink with a note.
        match parse_log_spec("yes") {
            LogSpec::Stderr(Some(note)) => assert!(note.contains("yes"), "{note}"),
            other => panic!("expected stderr fallback, got {other:?}"),
        }
    }

    #[test]
    fn elapsed_ns_is_monotone() {
        let a = elapsed_ns();
        let b = elapsed_ns();
        assert!(b >= a);
    }
}
