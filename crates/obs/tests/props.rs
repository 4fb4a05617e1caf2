//! Property and concurrency tests for the observability layer: the
//! log-linear `Histogram` bucket contract, snapshot merging, span nesting
//! across real threads, and NDJSON event round-trips through the
//! hand-rolled parser (`encode_ndjson` / `parse_line`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use navarchos_obs::event::{encode_ndjson, parse_line, Event};
use navarchos_obs::flame::{fold_spans, fold_trace, parse_folded_line, render_folded, SpanClose};
use navarchos_obs::json::Json;
use navarchos_obs::metrics::{
    bucket_index, bucket_lower_bound, Histogram, HistogramSnapshot, BUCKETS,
};
use navarchos_obs::span::{current_depth, current_span_id, span};
use proptest::prelude::*;

// ---- histogram bucket contract -----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in a bucket whose lower bound does not exceed it,
    /// and the next bucket's lower bound (if any) strictly exceeds it.
    #[test]
    fn bucket_contains_its_value(v in 0u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        prop_assert!(bucket_lower_bound(i) <= v, "lb({i}) > {v}");
        if i + 1 < BUCKETS {
            prop_assert!(bucket_lower_bound(i + 1) > v, "next lb({}) <= {v}", i + 1);
        }
    }

    /// Bucket relative error stays within the 12.5% design bound above the
    /// linear range (exact below it).
    #[test]
    fn bucket_relative_error_bounded(v in 16u64..(1u64 << 60)) {
        let lb = bucket_lower_bound(bucket_index(v));
        let err = (v - lb) as f64 / v as f64;
        prop_assert!(err < 0.125, "relative error {err} for {v} (lb {lb})");
    }

    /// Merging per-part snapshots equals one histogram fed everything:
    /// counts, sum, min and max are all exact under merge.
    #[test]
    fn snapshot_merge_is_exact(
        xs in prop::collection::vec(0u64..1_000_000, 1..64),
        ys in prop::collection::vec(0u64..1_000_000, 1..64),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &x in &xs {
            ha.record(x);
            hall.record(x);
        }
        for &y in &ys {
            hb.record(y);
            hall.record(y);
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&ha.snapshot());
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }
}

// ---- NDJSON round-trip --------------------------------------------------

/// Characters that exercise every escape path in the encoder.
const CHARS: &[char] =
    &['a', 'Z', '0', ' ', '.', '_', '"', '\\', '\n', '\t', '\r', '\u{1}', 'é', '✓', '🚗'];

fn arb_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARS.len(), 0..max_len)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i]).collect())
}

/// Field keys must avoid the reserved envelope keys; prefixing guarantees
/// that without rejecting cases.
fn arb_key() -> impl Strategy<Value = String> {
    arb_string(6).prop_map(|s| format!("k{s}"))
}

fn arb_value() -> impl Strategy<Value = Json> {
    (0usize..5, -1.0e12f64..1.0e12, 0usize..CHARS.len(), 0u64..100).prop_flat_map(
        |(kind, num, ci, n)| {
            let leaf = match kind {
                0 => Json::Null,
                1 => Json::Bool(n % 2 == 0),
                2 => Json::Num(num),
                3 => Json::Str(CHARS[ci].to_string()),
                _ => Json::Arr((0..n % 4).map(|i| Json::Num(i as f64)).collect()),
            };
            Just(leaf)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_line` is a left inverse of `encode_ndjson` for events with
    /// non-reserved field keys and exactly-representable envelope ints.
    #[test]
    fn ndjson_roundtrip(
        name in arb_string(12),
        t_ns in 0u64..(1u64 << 52),
        span_id in 0u64..1_000_000,
        has_span in 0u64..2,
        keys in prop::collection::vec(arb_key(), 0..5),
        values in prop::collection::vec(arb_value(), 0..5),
    ) {
        let fields: Vec<(String, Json)> = keys
            .into_iter()
            .enumerate()
            // Deduplicate keys by position suffix so lookups stay unambiguous.
            .map(|(i, k)| (format!("{k}{i}"), values.get(i).cloned().unwrap_or(Json::Null)))
            .collect();
        let e = Event { name: format!("n{name}"), t_ns, span: (has_span == 1).then_some(span_id), fields };
        let line = encode_ndjson(&e);
        prop_assert!(!line.contains('\n'), "embedded newline in {line:?}");
        let back = parse_line(&line);
        prop_assert!(back.is_ok(), "{line:?} -> {back:?}");
        prop_assert_eq!(back.unwrap_or_else(|_| Event::new("unreachable")), e);
    }
}

// ---- folded-stacks converter round-trip ---------------------------------

/// Span names covering the sanitizer's reserved characters.
const SPAN_NAMES: &[&str] = &["load", "score_vehicles", "par map", "a;b", "run\tvehicle"];

/// A random span forest where every `dur_ns` is constructed bottom-up as
/// own self time plus the children's durations, so the folded output's
/// total weight is exactly the total self time. Parent links always point
/// at an earlier node, mirroring how a real trace can only close a child
/// before its parent's enclosing frame closes.
fn arb_forest() -> impl Strategy<Value = Vec<SpanClose>> {
    prop::collection::vec((0usize..1000, 0usize..SPAN_NAMES.len(), 1u64..10_000), 1..40).prop_map(
        |nodes| {
            let n = nodes.len();
            let mut durs: Vec<u64> = nodes.iter().map(|&(_, _, own)| own).collect();
            // Children sit strictly after their parent, so a reverse sweep
            // accumulates child durations before the parent is read.
            let parent = |i: usize, sel: usize| if i == 0 { None } else { Some(sel % i) };
            for i in (1..n).rev() {
                if let Some(p) = parent(i, nodes[i].0) {
                    durs[p] += durs[i];
                }
            }
            nodes
                .iter()
                .enumerate()
                .map(|(i, &(sel, name, _))| SpanClose {
                    id: i as u64 + 1,
                    parent: parent(i, sel).map(|p| p as u64 + 1),
                    name: SPAN_NAMES[name].to_string(),
                    dur_ns: durs[i],
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `render_folded` and `parse_folded_line` are inverses, and the folded
    /// weights conserve the forest's total self time exactly.
    #[test]
    fn folded_render_parse_roundtrip(spans in arb_forest()) {
        let folded = fold_spans(&spans);
        let total_self: u64 = folded.iter().map(|&(_, w)| w).sum();
        let own_total: u64 = {
            // Own time of node i = dur minus direct children's durations.
            let child_sum: Vec<u64> = spans.iter().fold(vec![0u64; spans.len()], |mut acc, s| {
                if let Some(p) = s.parent {
                    acc[p as usize - 1] += s.dur_ns;
                }
                acc
            });
            spans.iter().zip(&child_sum).map(|(s, &c)| s.dur_ns - c).sum()
        };
        prop_assert_eq!(total_self, own_total, "folded weights must conserve self time");

        let mut back = Vec::new();
        for line in render_folded(&folded).lines() {
            let (frames, w) = parse_folded_line(line)
                .map_err(|e| TestCaseError::Fail(format!("unparsable folded line: {e}")))?;
            prop_assert!(frames.iter().all(|f| !f.is_empty()));
            back.push((frames.join(";"), w));
        }
        prop_assert_eq!(back, folded);
    }

    /// Encoding the forest as NDJSON span events and running the whole
    /// `fold_trace` path gives the same folded lines as folding directly.
    #[test]
    fn fold_trace_matches_fold_spans(spans in arb_forest()) {
        let mut ndjson = String::new();
        for (i, s) in spans.iter().enumerate() {
            let mut e = Event::new("span");
            e.t_ns = i as u64;
            e.fields = vec![
                ("name".to_string(), Json::Str(s.name.clone())),
                ("id".to_string(), Json::Num(s.id as f64)),
                ("dur_ns".to_string(), Json::Num(s.dur_ns as f64)),
            ];
            if let Some(p) = s.parent {
                e.fields.push(("parent".to_string(), Json::Num(p as f64)));
            }
            ndjson.push_str(&encode_ndjson(&e));
            ndjson.push('\n');
        }
        let (folded, n) = fold_trace(&ndjson)
            .map_err(|e| TestCaseError::Fail(format!("fold_trace: {e}")))?;
        prop_assert_eq!(n, spans.len());
        prop_assert_eq!(folded, fold_spans(&spans));
    }
}

/// The committed obs-smoke trace (a real `simulate` + `evaluate --metrics`
/// run with `NAVARCHOS_LOG=ndjson:...`) must keep converting cleanly: every
/// line parses, the fold finds the pipeline's top-level spans, and the
/// rendered output survives a line-by-line re-parse.
#[test]
fn fixture_trace_folds_into_known_stacks() {
    let ndjson = include_str!("fixtures/obs-smoke.trace.ndjson");
    let (folded, n_spans) = fold_trace(ndjson).expect("fixture trace must stay parseable");
    assert!(n_spans > 0, "fixture contains no span events");
    assert!(!folded.is_empty());
    let stacks: Vec<&str> = folded.iter().map(|(s, _)| s.as_str()).collect();
    assert!(
        stacks.iter().any(|s| s.split(';').any(|f| f == "par_map")),
        "expected a par_map frame in {stacks:?}"
    );
    for line in render_folded(&folded).lines() {
        parse_folded_line(line).expect("rendered folded line must re-parse");
    }
}

// ---- span nesting under threads ----------------------------------------

/// Worker threads (the same substrate `par_map` runs on) each keep an
/// independent, well-nested span stack: ids are globally unique, parents
/// always point at the same thread's enclosing span, and depth returns to
/// zero — no cross-thread interleaving corruption.
#[test]
fn span_nesting_is_per_thread() {
    navarchos_obs::set_metrics_enabled(true);
    let collisions = Arc::new(AtomicUsize::new(0));
    let ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    for _ in 0..50 {
                        assert_eq!(current_depth(), 0);
                        let outer = span("props.outer");
                        let outer_id = outer.id().expect("enabled span has an id");
                        assert_eq!(current_span_id(), Some(outer_id));
                        assert_eq!(
                            outer.parent(),
                            None,
                            "outer span must not adopt another thread's frame"
                        );
                        {
                            let inner = span("props.inner");
                            assert_eq!(inner.parent(), Some(outer_id));
                            assert_eq!(current_depth(), 2);
                            seen.push(inner.id().expect("id"));
                        }
                        assert_eq!(current_depth(), 1);
                        assert_eq!(current_span_id(), Some(outer_id));
                        seen.push(outer_id);
                        drop(outer);
                        assert_eq!(current_depth(), 0);
                        assert_eq!(current_span_id(), None);
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).collect()
    });
    let mut all: Vec<u64> = ids.into_iter().flatten().collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    if all.len() != n {
        collisions.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(collisions.load(Ordering::Relaxed), 0, "span ids must be globally unique");
    assert_eq!(n, 8 * 50 * 2);
}

/// Out-of-order drops (a guard stored past its scope) must not corrupt the
/// stack for later spans.
#[test]
fn out_of_order_drop_keeps_stack_sound() {
    navarchos_obs::set_metrics_enabled(true);
    let base = current_depth();
    let a = span("props.a");
    let b = span("props.b");
    drop(a); // dropped before its child
    assert_eq!(current_span_id(), b.id());
    drop(b);
    assert_eq!(current_depth(), base);
}

// ---- snapshot deltas (ops plane) ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counter deltas between two snapshots are non-negative regardless of
    /// the raw values on either side (monotone counters saturate at 0).
    #[test]
    fn snapshot_counter_deltas_are_non_negative(
        pairs in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..24),
        dt in 0u64..10_000_000_000,
    ) {
        use navarchos_obs::snapshot::{delta, MetricsSnapshot};
        let mut older = MetricsSnapshot { t_ns: 0, ..Default::default() };
        let mut newer = MetricsSnapshot { t_ns: dt, ..Default::default() };
        for (i, (a, b)) in pairs.iter().enumerate() {
            older.counters.insert(format!("c{i}"), *a);
            newer.counters.insert(format!("c{i}"), *b);
        }
        let d = delta(&older, &newer);
        for (name, cd) in &d.counters {
            prop_assert!(cd.rate_per_s >= 0.0, "{name} rate went negative");
            let (a, b) = (older.counters[name], newer.counters[name]);
            prop_assert_eq!(cd.delta, b.saturating_sub(a), "{} delta mismatch", name);
        }
        // dt also saturates: reversing the snapshots still yields no
        // negative interval and no negative deltas.
        let r = delta(&newer, &older);
        prop_assert!(r.counters.values().all(|cd| cd.rate_per_s >= 0.0));
    }

    /// A ring never exceeds its capacity and always keeps the most recent
    /// snapshots in push order.
    #[test]
    fn snapshot_ring_is_bounded(cap in 2usize..16, n in 0usize..64) {
        use navarchos_obs::snapshot::{MetricsSnapshot, SnapshotRing};
        let ring = SnapshotRing::new(cap);
        for t in 0..n as u64 {
            ring.push(MetricsSnapshot { t_ns: t, ..Default::default() });
        }
        prop_assert!(ring.len() <= cap);
        prop_assert_eq!(ring.len(), n.min(cap));
        if n > 0 {
            prop_assert_eq!(ring.latest().unwrap().t_ns, n as u64 - 1);
        }
        if n >= 2 {
            let (older, newer) = ring.latest_pair().unwrap();
            prop_assert_eq!(older.t_ns + 1, newer.t_ns);
        }
    }

    /// render_prometheus output always parses back, and every counter and
    /// gauge survives the round trip by sanitized name and exact value.
    #[test]
    fn exposition_round_trips(
        counter_vals in prop::collection::vec(0u64..u64::MAX / 2, 0..12),
        gauge_vals in prop::collection::vec(0u64..1_000_000, 0..8),
        hist_vals in prop::collection::vec(0u64..1_000_000_000, 0..40),
    ) {
        use navarchos_obs::metrics::Histogram;
        use navarchos_obs::snapshot::MetricsSnapshot;
        use navarchos_obs::{parse_exposition, render_prometheus, sanitize_metric_name};
        let mut snap = MetricsSnapshot { t_ns: 1, ..Default::default() };
        for (i, v) in counter_vals.iter().enumerate() {
            snap.counters.insert(format!("ops.test.counter{i:02}"), *v);
        }
        for (i, v) in gauge_vals.iter().enumerate() {
            snap.gauges.insert(format!("ops.test.gauge{i:02}"), *v);
        }
        if !hist_vals.is_empty() {
            let h = Histogram::new();
            for v in &hist_vals {
                h.record(*v);
            }
            snap.histograms.insert("ops.test.latency_ns".to_string(), h.snapshot());
        }
        let text = render_prometheus(&snap);
        let samples = parse_exposition(&text).expect("renderer output must parse");
        for (name, v) in snap.counters.iter().chain(snap.gauges.iter()) {
            let sane = sanitize_metric_name(name);
            prop_assert!(
                samples.iter().any(|s| s.name == sane && s.value == *v as f64),
                "{name} ({sane}) lost in round trip"
            );
        }
        if !hist_vals.is_empty() {
            let count = samples
                .iter()
                .find(|s| s.name == "ops_test_latency_ns_count")
                .expect("summary count line");
            prop_assert_eq!(count.value, hist_vals.len() as f64);
            let quantiles: Vec<_> =
                samples.iter().filter(|s| s.name == "ops_test_latency_ns").collect();
            prop_assert_eq!(quantiles.len(), 3, "one line per summary quantile");
            prop_assert!(quantiles.iter().all(|s| s.labels.len() == 1));
        }
    }
}

// ---------------------------------------------------------------- sketch ---

/// Fraction of `sorted` strictly below / at-or-below `v` — the exact-rank
/// band a sketch estimate must land near.
fn exact_rank_band(sorted: &[f64], v: f64) -> (f64, f64) {
    let n = sorted.len() as f64;
    let lt = sorted.iter().filter(|x| **x < v).count() as f64 / n;
    let le = sorted.iter().filter(|x| **x <= v).count() as f64 / n;
    (lt, le)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every quantile estimate's exact rank stays within the documented
    /// rank-error bound of the requested rank (plus 1/n for the
    /// discreteness of small inputs). k = 64 forces real compaction at
    /// these lengths, so this exercises the compactor hierarchy, not the
    /// exact small-n path.
    #[test]
    fn sketch_quantiles_respect_documented_rank_error(
        mut vals in prop::collection::vec(-1.0e6f64..1.0e6, 1..1500),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        use navarchos_obs::QuantileSketch;
        let mut sk = QuantileSketch::new(64);
        for &v in &vals {
            sk.record(v);
        }
        vals.sort_by(f64::total_cmp);
        let eps = sk.rank_error_bound() + 1.0 / vals.len() as f64;
        for &q in &qs {
            let est = sk.quantile(q);
            let (lo, hi) = exact_rank_band(&vals, est);
            prop_assert!(
                lo - eps <= q && q <= hi + eps,
                "quantile({q}) = {est} has exact rank [{lo}, {hi}], outside +/-{eps}"
            );
        }
    }

    /// Merging is associative up to the error bound: both association
    /// orders agree exactly on count/min/max, agree closely on sum, and
    /// both satisfy the rank-error bound against the pooled exact data.
    #[test]
    fn sketch_merge_is_associative_within_bound(
        a in prop::collection::vec(-1.0e6f64..1.0e6, 0..400),
        b in prop::collection::vec(-1.0e6f64..1.0e6, 0..400),
        c in prop::collection::vec(-1.0e6f64..1.0e6, 1..400),
    ) {
        use navarchos_obs::QuantileSketch;
        let build = |vals: &[f64]| {
            let mut sk = QuantileSketch::new(64);
            for &v in vals {
                sk.record(v);
            }
            sk
        };
        let (ska, skb, skc) = (build(&a), build(&b), build(&c));
        // ((a + b) + c)
        let mut left = QuantileSketch::new(64);
        left.merge(&ska);
        left.merge(&skb);
        left.merge(&skc);
        // (a + (b + c))
        let mut bc = QuantileSketch::new(64);
        bc.merge(&skb);
        bc.merge(&skc);
        let mut right = QuantileSketch::new(64);
        right.merge(&ska);
        right.merge(&bc);

        let mut pooled: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        pooled.sort_by(f64::total_cmp);
        let n = pooled.len() as f64;
        prop_assert_eq!(left.count(), pooled.len() as u64);
        prop_assert_eq!(right.count(), pooled.len() as u64);
        prop_assert_eq!(left.min(), pooled[0]);
        prop_assert_eq!(right.min(), pooled[0]);
        prop_assert_eq!(left.max(), pooled[pooled.len() - 1]);
        prop_assert_eq!(right.max(), pooled[pooled.len() - 1]);
        let sum_scale = pooled.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((left.sum() - right.sum()).abs() / sum_scale < 1e-12);

        for sk in [&left, &right] {
            let eps = sk.rank_error_bound() + 1.0 / n;
            for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99] {
                let est = sk.quantile(q);
                let (lo, hi) = exact_rank_band(&pooled, est);
                prop_assert!(
                    lo - eps <= q && q <= hi + eps,
                    "merged quantile({q}) = {est} rank [{lo}, {hi}] outside +/-{eps}"
                );
            }
        }
    }
}
