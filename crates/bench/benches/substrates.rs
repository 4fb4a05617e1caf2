//! Criterion micro-benchmarks of the substrate kernels: nearest-neighbour
//! search, LOF, clustering, the statistics layer and the simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use navarchos_cluster::{linkage, Linkage};
use navarchos_fleetsim::faults::FaultEffects;
use navarchos_fleetsim::physics::{simulate_ride, ThermalState};
use navarchos_fleetsim::usage::RideKind;
use navarchos_fleetsim::vehicle::VehicleModel;
use navarchos_neighbors::{KnnIndex, LofModel, Metric, SortedNeighbors};
use navarchos_stat::correlation::pearson;
use navarchos_stat::martingale::{conformal_pvalue, PowerMartingale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_neighbors(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let reference: Vec<f64> = (0..1000).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let queries: Vec<f64> = (0..1024).map(|_| rng.gen_range(-1.2..1.2)).collect();

    let mut group = c.benchmark_group("nn_1d_1024_queries");
    group.throughput(Throughput::Elements(queries.len() as u64));
    let sorted = SortedNeighbors::new(&reference);
    group.bench_function("sorted_binary_search", |b| {
        b.iter(|| queries.iter().map(|&q| sorted.nearest_distance(q)).sum::<f64>())
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&q| reference.iter().map(|&v| (v - q).abs()).fold(f64::INFINITY, f64::min))
                .sum::<f64>()
        })
    });
    group.finish();

    let points: Vec<Vec<f64>> =
        (0..500).map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let mut group = c.benchmark_group("knn_lof");
    let idx = KnnIndex::new(&points, 6, Metric::Euclidean);
    let q: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
    group.bench_function("knn_k10_n500", |b| b.iter(|| idx.knn_score(&q, 10, None)));
    group.bench_function("lof_fit_n500", |b| {
        b.iter(|| LofModel::fit(&points, 6, 10, Metric::Euclidean).reference_scores()[0])
    });
    group.finish();
}

fn bench_cluster(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("agglomerative_linkage");
    for n in [200usize, 500, 1000] {
        let pts: Vec<f64> = (0..n * 4).map(|_| rng.gen_range(-10.0..10.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| linkage(pts, 4, Linkage::Average).merges().len())
        });
    }
    group.finish();
}

fn bench_stat(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let x: Vec<f64> = (0..45).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let y: Vec<f64> = (0..45).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let reference: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();

    let mut group = c.benchmark_group("stat_kernels");
    group.bench_function("pearson_45", |b| b.iter(|| pearson(&x, &y)));
    group.bench_function("conformal_pvalue_200", |b| {
        b.iter(|| conformal_pvalue(&reference, 0.42, 0.5))
    });
    group.bench_function("martingale_update", |b| {
        let mut m = PowerMartingale::default().with_window(60);
        b.iter(|| m.update(0.3))
    });
    group.finish();
}

/// Scoped fork-join helper against the serial loop it replaces — mostly a
/// smoke check that `par_map`'s spawn/join overhead stays proportionate
/// (on a single-core host the two are expected to be comparable).
fn bench_par(c: &mut Criterion) {
    let items: Vec<Vec<f64>> = (0..64)
        .map(|i| (0..4096).map(|j| ((i * 4096 + j) as f64 * 1e-3).sin()).collect())
        .collect();
    let mut group = c.benchmark_group("par_map_64x4096");
    group.bench_function("par_map", |b| {
        b.iter(|| {
            navarchos_core::par_map(&items, |_, v: &Vec<f64>| v.iter().sum::<f64>())
                .iter()
                .sum::<f64>()
        })
    });
    group.bench_function("serial", |b| {
        b.iter(|| items.iter().map(|v| v.iter().sum::<f64>()).sum::<f64>())
    });
    group.finish();
}

/// The observability substrate: sharded log-linear `Histogram` recording
/// (the per-task probe `par_map` pays when metrics are on), the
/// `BatchedRecorder` that hot loops batch into it, NDJSON event encoding
/// via `encode_ndjson` (the per-event sink cost), and the `fold_spans`
/// trace-to-flamegraph converter.
fn bench_obs(c: &mut Criterion) {
    use navarchos_obs::{encode_ndjson, BatchedRecorder, Event, Histogram, SpanClose};
    use std::sync::Arc;

    let mut group = c.benchmark_group("obs_kernels");
    let h = Histogram::new();
    let mut v = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            // A spread of magnitudes so bucketing, min and max all move.
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(v >> 40);
        })
    });
    group.bench_function("histogram_snapshot", |b| b.iter(|| h.snapshot().count));
    let target = Arc::new(Histogram::new());
    let mut rec = BatchedRecorder::new(Arc::clone(&target));
    group.bench_function("batched_recorder_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            rec.record(v >> 40);
        })
    });
    let e = Event::new("bench.encode")
        .field("vehicle", 17u64)
        .field("feature", "coolant~rpm")
        .field("score", 0.734_f64);
    group.bench_function("encode_ndjson", |b| b.iter(|| encode_ndjson(&e).len()));

    // A fleet-shaped span forest: 40 vehicle spans under one scoring root,
    // each with a filter/transform/score triple — the shape `xtask
    // flamegraph` folds from a real trace.
    let mut spans = vec![SpanClose { id: 1, parent: None, name: "score".into(), dur_ns: 1 << 30 }];
    for vehicle in 0..40u64 {
        let vid = 2 + vehicle * 4;
        spans.push(SpanClose {
            id: vid,
            parent: Some(1),
            name: "run_vehicle".into(),
            dur_ns: 1 << 24,
        });
        for (k, stage) in ["filter", "transform", "score"].iter().enumerate() {
            spans.push(SpanClose {
                id: vid + 1 + k as u64,
                parent: Some(vid),
                name: (*stage).into(),
                dur_ns: 1 << 22,
            });
        }
    }
    group.bench_function("fold_spans_161", |b| b.iter(|| navarchos_obs::fold_spans(&spans).len()));
    group.finish();
}

/// The ingest substrate: `ReorderBuffer` re-sequencing a within-horizon
/// jittered stream (the per-record cost of dirty-stream tolerance,
/// binary-search insert + watermark drain) against the pass-through cost
/// on an already-sorted stream, and `ShardRouter`'s hash route.
fn bench_ingest(c: &mut Criterion) {
    use navarchos_fleetsim::{StreamBody, StreamItem};
    use navarchos_ingest::{ReorderBuffer, ShardRouter};

    const HORIZON: i64 = 1800;
    let mut rng = StdRng::seed_from_u64(6);
    let clean: Vec<StreamItem> = (0..10_000)
        .map(|i| StreamItem {
            vehicle: 7,
            timestamp: i as i64 * 60,
            body: StreamBody::Record(vec![rng.gen_range(-1.0..1.0); 6]),
        })
        .collect();
    let mut keyed: Vec<(i64, usize, StreamItem)> = clean
        .iter()
        .enumerate()
        .map(|(seq, it)| (it.timestamp + rng.gen_range(0..HORIZON), seq, it.clone()))
        .collect();
    keyed.sort_by_key(|&(k, s, _)| (k, s));
    let jittered: Vec<StreamItem> = keyed.into_iter().map(|(_, _, it)| it).collect();

    let mut group = c.benchmark_group("reorder_buffer_10k");
    group.throughput(Throughput::Elements(clean.len() as u64));
    for (label, stream) in [("sorted", &clean), ("jittered", &jittered)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut buf = ReorderBuffer::new(HORIZON, 256);
                let mut out = Vec::with_capacity(stream.len());
                for it in stream {
                    buf.push(it.clone(), &mut out);
                }
                buf.flush_into(&mut out);
                out.len()
            })
        });
    }
    group.finish();

    let router = ShardRouter::new(8);
    let vehicles: Vec<u32> = (0..1024).map(|_| rng.gen_range(0..5000)).collect();
    let mut group = c.benchmark_group("shard_router");
    group.throughput(Throughput::Elements(vehicles.len() as u64));
    group.bench_function("route_1024", |b| {
        b.iter(|| vehicles.iter().map(|&v| router.route(v)).sum::<usize>())
    });
    group.finish();
}

fn bench_fleetsim(c: &mut Criterion) {
    let model = VehicleModel::compact();
    let mut group = c.benchmark_group("simulate_ride");
    group.throughput(Throughput::Elements(60));
    group.bench_function("regional_60min", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            out.clear();
            let mut thermal = ThermalState::cold(15.0);
            simulate_ride(
                &model,
                &FaultEffects::default(),
                &mut thermal,
                RideKind::Regional,
                0,
                60,
                15.0,
                &mut rng,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_neighbors,
    bench_cluster,
    bench_stat,
    bench_par,
    bench_obs,
    bench_ingest,
    bench_fleetsim
);
criterion_main!(benches);
