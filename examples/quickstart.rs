//! Quickstart: simulate a small fleet, run the paper's complete solution
//! (correlation transformation + Closest-pair detection + self-tuning
//! thresholds + dynamic reference resets) on one vehicle's stream, and
//! print the alarms with their feature attribution.
//!
//! Run with:
//! ```text
//! cargo run --release -p navarchos-examples --bin quickstart
//! ```

use navarchos_core::detectors::DetectorKind;
use navarchos_core::evaluation::EvalParams;
use navarchos_core::pipeline::{walk, Walked};
use navarchos_core::{AlarmAggregator, PipelineConfig, StreamingPipeline, TransformKind};
use navarchos_fleetsim::{FleetConfig, PID_NAMES, START_EPOCH};

fn main() {
    // 1. A deterministic synthetic fleet (stands in for the FMS data).
    let fleet = FleetConfig::small(23).generate();
    println!(
        "generated {} vehicles / {} telemetry records / {} failures",
        fleet.vehicles.len(),
        fleet.total_records(),
        fleet.recorded_repair_count()
    );

    // 2. Pick a vehicle that actually fails, so there is something to find.
    // Prefer a sensor-type fault (MAF drift / intake leak) for the demo —
    // they carry the crispest correlation signature.
    let fault = fleet.faults.iter().max_by_key(|w| w.repair).expect("small fleet plans failures");
    let vehicle = &fleet.vehicles[fault.vehicle];
    println!(
        "monitoring {} — developing fault: {} (repair on day {})",
        vehicle.id,
        fault.kind.label(),
        (fault.repair - START_EPOCH) / 86_400
    );

    // 3. The paper's complete solution as a streaming pipeline.
    let mut cfg =
        PipelineConfig::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
    // Per-sample streaming alarms need a stiffer factor than the
    // daily-aggregated batch evaluation (see `navarchos_core::runner`).
    cfg.threshold_factor = 12.0;
    let mut pipeline = StreamingPipeline::new(&PID_NAMES, cfg);
    // Group raw violations into operator alarms with the validated
    // instance rules (persistence + multi-channel agreement).
    let mut aggregator =
        AlarmAggregator::new(&EvalParams::days(30), pipeline.channel_names().len());
    let mut instances = 0usize;

    // 4. Replay the vehicle's history: maintenance events reset the
    //    reference profile, records flow through filter → transform →
    //    detector → threshold.
    let mut alarms = 0usize;
    let mut weekly = vec![0usize; fleet.n_days / 7 + 1];
    walk(&vehicle.frame, &vehicle.maintenance_log(), |item| match item {
        Walked::Event(t, is_repair) => {
            println!(
                "day {:3}: {} → reference reset",
                (t - START_EPOCH) / 86_400,
                if is_repair { "repair" } else { "service" }
            );
            pipeline.process_event(is_repair);
        }
        Walked::Record(t, row) => {
            for alarm in pipeline.process_record(t, row) {
                alarms += 1;
                weekly[((alarm.timestamp - START_EPOCH) / (7 * 86_400)) as usize] += 1;
                let Some(instance) = aggregator.push(alarm.timestamp, alarm.channel) else {
                    continue;
                };
                instances += 1;
                if instances <= 8 {
                    println!(
                        "day {:3}: OPERATOR ALARM — {} violations on {} features (first: {})",
                        (instance.start - START_EPOCH) / 86_400,
                        instance.violations,
                        instance.channels.len(),
                        pipeline.channel_names()[alarm.channel]
                    );
                }
            }
        }
    });
    println!(
        "
total threshold violations: {alarms}"
    );
    println!("violations per week ('F' marks weeks inside the fault ramp):");
    let fault_start_week = (fault.start - START_EPOCH) / (7 * 86_400);
    let repair_week = (fault.repair - START_EPOCH) / (7 * 86_400);
    for (w, &n) in weekly.iter().enumerate() {
        let in_fault = (w as i64) >= fault_start_week && (w as i64) <= repair_week;
        println!(
            "  week {w:2} {} {:4} {}",
            if in_fault { "F" } else { " " },
            n,
            "█".repeat((n / 4).min(60))
        );
    }
}
