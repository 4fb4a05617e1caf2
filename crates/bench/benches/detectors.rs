//! Criterion micro-benchmarks of the step-3 detectors: fit and score costs
//! that explain the technique columns of Table 1 (Closest-pair's
//! order-of-magnitude advantage comes from its sorted 1-D queries).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use navarchos_core::detectors::{
    ClosestPairDetector, Detector, DetectorKind, DetectorParams, GrandDetector, GrandNcm,
    TranAdDetector, XgboostDetector,
};
use navarchos_core::reference::ReferenceProfile;
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::TransformKind;
use navarchos_fleetsim::FleetConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 15; // correlation features of 6 PIDs

fn reference(n: usize) -> ReferenceProfile {
    let mut rng = StdRng::seed_from_u64(7);
    let mut p = ReferenceProfile::new(DIM, n);
    for _ in 0..n {
        let row: Vec<f64> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        p.push(&row);
    }
    p
}

fn queries(n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(8);
    (0..n).map(|_| (0..DIM).map(|_| rng.gen_range(-1.2..1.2)).collect()).collect()
}

fn bench_fit(c: &mut Criterion) {
    let profile = reference(80);
    let names: Vec<String> = (0..DIM).map(|i| format!("f{i}")).collect();
    let params = DetectorParams::default();

    let mut group = c.benchmark_group("detector_fit");
    group.bench_function("closest_pair", |b| {
        b.iter(|| {
            let mut d = ClosestPairDetector::new(&names);
            d.fit(&profile);
            d.is_fitted()
        })
    });
    group.bench_function("grand_lof", |b| {
        b.iter(|| {
            let mut d = GrandDetector::new(DIM, GrandNcm::Lof, 10, 60);
            d.fit(&profile);
            d.is_fitted()
        })
    });
    group.bench_function("xgboost", |b| {
        b.iter(|| {
            let mut d = XgboostDetector::new(&names, &params);
            d.fit(&profile);
            d.is_fitted()
        })
    });
    group.sample_size(10);
    group.bench_function("tranad", |b| {
        b.iter(|| {
            let mut d = TranAdDetector::new(DIM, &params);
            d.fit(&profile);
            d.is_fitted()
        })
    });
    group.finish();
}

fn bench_score(c: &mut Criterion) {
    let profile = reference(80);
    let names: Vec<String> = (0..DIM).map(|i| format!("f{i}")).collect();
    let params = DetectorParams::default();
    let qs = queries(256);

    let mut group = c.benchmark_group("detector_score_256");
    group.throughput(Throughput::Elements(qs.len() as u64));

    let mut cp = ClosestPairDetector::new(&names);
    cp.fit(&profile);
    group.bench_function("closest_pair", |b| {
        b.iter(|| qs.iter().map(|q| cp.score(q)[0]).sum::<f64>())
    });

    let mut grand = GrandDetector::new(DIM, GrandNcm::Lof, 10, 60);
    grand.fit(&profile);
    group.bench_function("grand_lof", |b| {
        b.iter(|| qs.iter().map(|q| grand.score(q)[0]).sum::<f64>())
    });

    let mut xgb = XgboostDetector::new(&names, &params);
    xgb.fit(&profile);
    group.bench_function("xgboost", |b| b.iter(|| qs.iter().map(|q| xgb.score(q)[0]).sum::<f64>()));

    let mut tranad = TranAdDetector::new(DIM, &params);
    tranad.fit(&profile);
    group.sample_size(10);
    group.bench_function("tranad", |b| {
        b.iter(|| qs.iter().map(|q| tranad.score(q)[0]).sum::<f64>())
    });
    group.finish();
}

/// End-to-end scoring path of the paper's best cell (correlation ×
/// closest-pair) over one vehicle's telemetry — the per-vehicle unit of
/// work that Table 1's correlation column sums across the fleet.
fn bench_scoring_path(c: &mut Criterion) {
    let mut cfg = FleetConfig::small(1);
    cfg.n_vehicles = 1;
    cfg.n_recorded = 1;
    cfg.n_failures = 0;
    cfg.n_days = 60;
    let fleet = cfg.generate();
    let frame = &fleet.vehicles[0].frame;
    let params = RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);

    let mut group = c.benchmark_group("scoring_path");
    group.throughput(Throughput::Elements(frame.len() as u64));
    group.sample_size(10);
    group.bench_function("correlation_closest_pair_w45_s3", |b| {
        b.iter(|| run_vehicle(frame, &[], &params).timestamps.len())
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_score, bench_scoring_path);
criterion_main!(benches);
