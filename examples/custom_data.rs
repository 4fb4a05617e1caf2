//! Bring your own data: export simulated telemetry to CSV (standing in for
//! a real fleet-management export), load it back, and monitor it by hand
//! with the framework's building blocks: the correlation transformation
//! and the Closest-pair detector, the configuration of the paper's Table 2.
//!
//! Run with:
//! ```text
//! cargo run --release -p navarchos-examples --bin custom_data
//! ```

use navarchos_core::detectors::{DetectorKind, DetectorParams};
use navarchos_core::reference::ReferenceProfile;
use navarchos_core::Transform;
use navarchos_fleetsim::FleetConfig;
use navarchos_tsframe::csv::{read_csv, write_csv};
use navarchos_tsframe::{CorrelationTransform, FilterSpec};

fn main() {
    // 1. Pretend this CSV came from a real FMS export.
    let fleet = FleetConfig::small(5).generate();
    let fault = fleet.faults.iter().max_by_key(|w| w.repair).expect("has faults");
    let vehicle = &fleet.vehicles[fault.vehicle];
    let mut csv = Vec::new();
    write_csv(&vehicle.frame, &mut csv).expect("serialize telemetry");
    println!(
        "exported {} ({} bytes of CSV); developing fault: {}",
        vehicle.id,
        csv.len(),
        fault.kind.label()
    );

    // 2. Load it back as any downstream user would.
    let frame = read_csv(csv.as_slice()).expect("parse telemetry");
    let filtered = FilterSpec::navarchos_default().apply(&frame);
    println!("loaded {} records, {} after filtering", frame.len(), filtered.len());

    // 3. Step 1 by hand: hour-long correlation windows every 10 minutes.
    let mut transform = CorrelationTransform::new(filtered.names(), 45, 3).with_differencing();
    let features = transform.apply(&filtered);
    println!(
        "correlation transformation: {} windows × {} features",
        features.len(),
        features.width()
    );

    // 4. Fit on the first stretch (the reference profile), score the rest.
    let mut detector = DetectorKind::ClosestPair.build(
        features.width(),
        features.names(),
        &DetectorParams::default(),
    );
    let ref_len = (features.len() / 3).max(8);
    let mut profile = ReferenceProfile::new(features.width(), ref_len);
    for i in 0..ref_len {
        profile.push(&features.row(i));
    }
    detector.fit(&profile);

    // 5. Report the scores by fortnight so the fault ramp stands out. A
    //    window's score is its largest per-feature closest-pair distance.
    let mut buckets: Vec<(i64, f64, usize)> = Vec::new();
    for i in ref_len..features.len() {
        let t = features.timestamps()[i];
        let score = detector.score(&features.row(i)).into_iter().fold(0.0, f64::max);
        let day = (t - navarchos_fleetsim::START_EPOCH) / 86_400;
        let bucket = day / 14;
        match buckets.last_mut() {
            Some((b, sum, n)) if *b == bucket => {
                *sum += score;
                *n += 1;
            }
            _ => buckets.push((bucket, score, 1)),
        }
    }
    let fault_start_day = (fault.start - navarchos_fleetsim::START_EPOCH) / 86_400;
    let repair_day = (fault.repair - navarchos_fleetsim::START_EPOCH) / 86_400;
    println!(
        "\nmean closest-pair score per fortnight (fault ramp days {fault_start_day}–{repair_day}):"
    );
    let top = buckets.iter().map(|(_, sum, n)| sum / *n as f64).fold(0.0, f64::max);
    for (bucket, sum, n) in &buckets {
        let mean = sum / *n as f64;
        let lo = bucket * 14;
        let marker = if lo + 13 >= fault_start_day && lo <= repair_day { " ← fault" } else { "" };
        println!(
            "  days {:>3}-{:<3} {:.3} {}{marker}",
            lo,
            lo + 13,
            mean,
            "#".repeat((mean / top.max(f64::MIN_POSITIVE) * 40.0) as usize)
        );
    }
}
