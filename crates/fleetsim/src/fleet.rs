//! Fleet assembly: puts vehicles, usage, physics, faults and events
//! together into a complete, deterministic synthetic dataset with the same
//! shape as the paper's Navarchos fleet.

use crate::events::{sort_events, Event, EventKind};
use crate::faults::{FaultEffects, FaultKind, FaultWindow};
use crate::physics::{ambient_temperature_with, simulate_ride, ThermalState};
use crate::types::{VehicleId, PID_NAMES, START_EPOCH};
use crate::usage::UsageProfile;
use crate::vehicle::VehicleModel;
use navarchos_tsframe::Frame;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seconds per simulated day.
const DAY: i64 = 86_400;

/// Configuration of a simulated fleet.
///
/// ```
/// use navarchos_fleetsim::FleetConfig;
///
/// let fleet = FleetConfig::small(7).generate();
/// assert_eq!(fleet.vehicles.len(), 6);
/// assert_eq!(fleet.recorded_repair_count(), 2);
/// // Deterministic: the same seed always produces the same fleet.
/// assert_eq!(fleet.total_records(), FleetConfig::small(7).generate().total_records());
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of vehicles.
    pub n_vehicles: usize,
    /// Number of simulated days.
    pub n_days: usize,
    /// Master seed; every run with the same config is bit-identical.
    pub seed: u64,
    /// Number of vehicles whose events are recorded by the FMS
    /// (the paper's `setting26`).
    pub n_recorded: usize,
    /// Number of failure (fault → repair) episodes, all placed on recorded
    /// vehicles.
    pub n_failures: usize,
    /// Range of degradation lead time before a repair, in days.
    pub fault_lead_days: (usize, usize),
    /// Range of the periodic service interval, in days.
    pub service_interval_days: (usize, usize),
    /// Probability that a service/inspection on a recorded vehicle is
    /// actually reported to the FMS (human indifference).
    pub recording_reliability: f64,
    /// Seasonal ambient-temperature amplitude (°C); 0 removes seasonality
    /// entirely (the seasonal-drift ablation's knob).
    pub seasonal_amplitude: f64,
}

impl FleetConfig {
    /// The paper's fleet: 40 vehicles over one year, 26 with recorded
    /// events, 9 failures. Produces ≈ 1.5 M records.
    pub fn navarchos() -> Self {
        FleetConfig {
            n_vehicles: 40,
            n_days: 365,
            seed: 20_240_326,
            n_recorded: 26,
            n_failures: 9,
            fault_lead_days: (25, 40),
            service_interval_days: (70, 100),
            recording_reliability: 0.85,
            seasonal_amplitude: 5.5,
        }
    }

    /// An urban-delivery fleet: dense short rides, tight service cadence —
    /// the regime where correlation windows are hardest to fill.
    pub fn urban_delivery(seed: u64) -> Self {
        FleetConfig {
            n_vehicles: 20,
            n_days: 365,
            seed,
            n_recorded: 16,
            n_failures: 5,
            fault_lead_days: (20, 35),
            service_interval_days: (45, 70),
            recording_reliability: 0.9,
            seasonal_amplitude: 5.5,
        }
    }

    /// A long-haul fleet: few vehicles, long motorway rides, sparse
    /// services — long detection segments with pronounced seasonal drift.
    pub fn long_haul(seed: u64) -> Self {
        FleetConfig {
            n_vehicles: 12,
            n_days: 365,
            seed,
            n_recorded: 10,
            n_failures: 4,
            fault_lead_days: (30, 45),
            service_interval_days: (100, 140),
            recording_reliability: 0.8,
            seasonal_amplitude: 5.5,
        }
    }

    /// A scaled-down fleet for tests and examples (≈ 60 k records).
    pub fn small(seed: u64) -> Self {
        FleetConfig {
            n_vehicles: 6,
            n_days: 100,
            seed,
            n_recorded: 4,
            n_failures: 2,
            fault_lead_days: (15, 25),
            service_interval_days: (30, 45),
            recording_reliability: 0.9,
            seasonal_amplitude: 5.5,
        }
    }

    /// Generates the fleet.
    ///
    /// # Panics
    /// If `n_recorded > n_vehicles` or `n_failures > n_recorded`.
    pub fn generate(&self) -> FleetData {
        assert!(self.n_recorded <= self.n_vehicles, "more recorded vehicles than vehicles");
        assert!(self.n_failures <= self.n_recorded, "failures must land on recorded vehicles");
        assert!(self.fault_lead_days.0 <= self.fault_lead_days.1);
        assert!(self.service_interval_days.0 <= self.service_interval_days.1);

        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- Vehicle roster ---------------------------------------------
        let (models, usages) = self.roster(&mut rng);

        // --- Recorded subset & failure plan -------------------------------
        let mut indices: Vec<usize> = (0..self.n_vehicles).collect();
        indices.shuffle(&mut rng);
        let recorded_set: Vec<usize> = indices[..self.n_recorded].to_vec();
        let mut failure_vehicles: Vec<usize> = recorded_set.clone();
        failure_vehicles.shuffle(&mut rng);
        failure_vehicles.truncate(self.n_failures);

        let mut faults = Vec::with_capacity(self.n_failures);
        for (i, &v) in failure_vehicles.iter().enumerate() {
            let lead = rng.gen_range(self.fault_lead_days.0..=self.fault_lead_days.1) as i64;
            // Leave ≥ 45 healthy days before degradation starts, so a
            // reference profile exists that predates the fault.
            let earliest = (lead + 45).min(self.n_days as i64 - 1);
            let latest = (self.n_days as i64 - 3).max(earliest + 1);
            let repair_day = rng.gen_range(earliest..latest);
            let kind = FaultKind::all()[i % FaultKind::all().len()];
            faults.push(FaultWindow {
                vehicle: v,
                start: START_EPOCH + (repair_day - lead) * DAY,
                repair: START_EPOCH + repair_day * DAY + rng.gen_range(8..18) * 3600,
                kind,
            });
        }

        // --- DTC plan (Figure 1 semantics) --------------------------------
        // One failure vehicle emits DTCs during its degradation (the rare
        // predictive case); another emits a long spurious burst after its
        // repair; a couple of healthy vehicles emit sporadic noise codes.
        let dtc_before_failure = failure_vehicles.first().copied();
        let dtc_after_repair = failure_vehicles.get(1).copied();
        let mut spurious_dtc_vehicles = Vec::new();
        for _ in 0..(self.n_vehicles / 10).max(1) {
            spurious_dtc_vehicles.push(rng.gen_range(0..self.n_vehicles));
        }

        // --- Per-vehicle generation ---------------------------------------
        let mut vehicles = Vec::with_capacity(self.n_vehicles);
        for v in 0..self.n_vehicles {
            let mut vrng = StdRng::seed_from_u64(
                self.seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(v as u64 + 1),
            );
            let recorded = recorded_set.contains(&v);
            let model = models[v].clone().jitter(&mut vrng);
            let usage = usages[v].clone();

            let mut frame = Frame::with_capacity(&PID_NAMES, self.n_days * 120);
            let mut events: Vec<Event> = Vec::new();
            let mut thermal = ThermalState::cold(12.0);
            let mut ride_buf: Vec<(i64, [f64; 6])> = Vec::with_capacity(256);
            // Every service slightly re-baselines the vehicle (new filters,
            // recalibrated sensors, fresh fluids): the paper's reason to
            // rebuild the reference profile after each maintenance event.
            let mut live_model = model.clone();

            // Service schedule.
            let mut next_service = vrng.gen_range(15..self.service_interval_days.1.max(16)) as i64;

            for day in 0..self.n_days {
                let day_start = START_EPOCH + day as i64 * DAY;

                // Planned maintenance events occur in the morning.
                if day as i64 == next_service {
                    events.push(Event {
                        vehicle: v,
                        timestamp: day_start + 8 * 3600,
                        kind: EventKind::Service,
                        recorded: recorded && vrng.gen_bool(self.recording_reliability),
                    });
                    next_service += vrng
                        .gen_range(self.service_interval_days.0..=self.service_interval_days.1)
                        as i64;
                    // Post-service re-baseline: small persistent shifts in
                    // sensor noise floors, idle calibration, manifold
                    // baseline and thermostat point.
                    for (n, base) in live_model.sensor_noise.iter_mut().zip(&model.sensor_noise) {
                        let step = 1.0 + 0.12 * crate::faults::normal(&mut vrng);
                        *n = (*n * step).clamp(base * 0.7, base * 1.4);
                    }
                    live_model.idle_rpm = (live_model.idle_rpm
                        + 10.0 * crate::faults::normal(&mut vrng))
                    .clamp(model.idle_rpm - 40.0, model.idle_rpm + 40.0);
                    live_model.map_idle_kpa = (live_model.map_idle_kpa
                        + 0.6 * crate::faults::normal(&mut vrng))
                    .clamp(model.map_idle_kpa - 2.0, model.map_idle_kpa + 2.0);
                    live_model.thermostat_open_c = (live_model.thermostat_open_c
                        + 0.5 * crate::faults::normal(&mut vrng))
                    .clamp(model.thermostat_open_c - 1.5, model.thermostat_open_c + 1.5);
                }
                // Rare inspections.
                if vrng.gen_bool(0.002) {
                    events.push(Event {
                        vehicle: v,
                        timestamp: day_start + 9 * 3600,
                        kind: EventKind::Inspection,
                        recorded: recorded && vrng.gen_bool(self.recording_reliability),
                    });
                }

                // Repairs (from the fault plan) — always recorded: these are
                // the 9 ground-truth failures of the dataset.
                for w in faults.iter().filter(|w| w.vehicle == v) {
                    if w.repair >= day_start && w.repair < day_start + DAY {
                        events.push(Event {
                            vehicle: v,
                            timestamp: w.repair,
                            kind: EventKind::Repair,
                            recorded: true,
                        });
                    }
                }

                // DTC emissions.
                self.emit_dtcs(
                    v,
                    day,
                    day_start,
                    &faults,
                    dtc_before_failure,
                    dtc_after_repair,
                    &spurious_dtc_vehicles,
                    &mut events,
                    &mut vrng,
                );

                // Operation.
                if !vrng.gen_bool(usage.operating_probability) {
                    continue;
                }
                let rides = usage.sample_ride_count(&mut vrng);
                let daily_jitter = 2.5 * crate::faults::normal(&mut vrng);
                let mut clock = day_start + vrng.gen_range(6 * 60..9 * 60) as i64 * 60;
                let day_end = day_start + 22 * 3600;
                for _ in 0..rides {
                    let kind = usage.sample_ride(&mut vrng);
                    let (lo, hi) = kind.duration_range();
                    let dur = vrng.gen_range(lo..hi);
                    if clock + (dur as i64) * 60 > day_end {
                        break;
                    }
                    let hour = ((clock - day_start) / 3600) as f64;
                    let ambient =
                        ambient_temperature_with(day, hour, daily_jitter, self.seasonal_amplitude);
                    let fx = FaultEffects::at(&faults, v, clock);
                    ride_buf.clear();
                    simulate_ride(
                        &live_model,
                        &fx,
                        &mut thermal,
                        kind,
                        clock,
                        dur,
                        ambient,
                        &mut vrng,
                        &mut ride_buf,
                    );
                    for (t, rec) in &ride_buf {
                        frame.push_row(*t, rec);
                    }
                    // Parking gap before the next ride.
                    clock += (dur as i64) * 60 + vrng.gen_range(30..200) as i64 * 60;
                }
            }

            sort_events(&mut events);
            vehicles.push(VehicleData {
                id: VehicleId(v as u32),
                model,
                usage,
                recorded,
                frame,
                events,
            });
        }

        FleetData { n_days: self.n_days, vehicles, faults }
    }

    /// Assigns model families and usage profiles across the fleet. A fixed
    /// fraction of "oddball" one-off vehicles with their own usage
    /// reproduces the single-vehicle clusters of the paper's Figure 2.
    fn roster(&self, rng: &mut StdRng) -> (Vec<VehicleModel>, Vec<UsageProfile>) {
        let n = self.n_vehicles;
        let mut models = Vec::with_capacity(n);
        let mut usages = Vec::with_capacity(n);
        let n_oddballs = if n >= 12 {
            4
        } else if n >= 6 {
            1
        } else {
            0
        };
        for v in 0..n {
            if v < n_oddballs {
                models.push(VehicleModel::oddball(v as u32));
                usages.push(match v % 4 {
                    0 => UsageProfile::micro_trips(),
                    1 => UsageProfile::motorway(),
                    2 => UsageProfile::errands(),
                    _ => UsageProfile::long_haul(),
                });
            } else {
                let m = match rng.gen_range(0..100) {
                    0..=39 => VehicleModel::compact(),
                    40..=59 => VehicleModel::sedan(),
                    60..=79 => VehicleModel::van(),
                    _ => VehicleModel::citycar(),
                };
                models.push(m);
                usages.push(match rng.gen_range(0..100) {
                    0..=59 => UsageProfile::regular(),
                    60..=74 => UsageProfile::errands(),
                    75..=89 => UsageProfile::long_haul(),
                    _ => UsageProfile::motorway(),
                });
            }
        }
        (models, usages)
    }

    // too_many_arguments: private per-day emission hook; bundling the fault
    // windows, logs and RNG into a struct would outlive this one call site.
    #[allow(clippy::too_many_arguments)]
    fn emit_dtcs(
        &self,
        v: usize,
        day: usize,
        day_start: i64,
        faults: &[FaultWindow],
        dtc_before_failure: Option<usize>,
        dtc_after_repair: Option<usize>,
        spurious: &[usize],
        events: &mut Vec<Event>,
        rng: &mut StdRng,
    ) {
        let _ = day;
        // Predictive DTCs: only the designated vehicle, while degradation
        // severity is high.
        if dtc_before_failure == Some(v) {
            for w in faults.iter().filter(|w| w.vehicle == v) {
                let sev = w.severity(day_start + 12 * 3600);
                if sev > 0.5 && rng.gen_bool(0.18 * sev) {
                    events.push(Event {
                        vehicle: v,
                        timestamp: day_start + rng.gen_range(7..21) as i64 * 3600,
                        kind: EventKind::Dtc(dtc_code_for(w.kind)),
                        recorded: true,
                    });
                }
            }
        }
        // Post-repair spurious burst: a stale code kept re-appearing long
        // after the repair (paper's vehicle 1).
        if dtc_after_repair == Some(v) {
            for w in faults.iter().filter(|w| w.vehicle == v) {
                let after = day_start - w.repair;
                if after > 0 && after < 70 * DAY && rng.gen_bool(0.25) {
                    events.push(Event {
                        vehicle: v,
                        timestamp: day_start + rng.gen_range(7..21) as i64 * 3600,
                        kind: EventKind::Dtc(dtc_code_for(w.kind)),
                        recorded: true,
                    });
                }
            }
        }
        // Background noise codes on a few vehicles, unrelated to health.
        if spurious.contains(&v) && rng.gen_bool(0.01) {
            events.push(Event {
                vehicle: v,
                timestamp: day_start + rng.gen_range(7..21) as i64 * 3600,
                kind: EventKind::Dtc(0o420_u16 + rng.gen_range(0..5)),
                recorded: true,
            });
        }
    }
}

/// A nominal DTC code per fault kind (cosmetic — codes render in Figure 1).
fn dtc_code_for(kind: FaultKind) -> u16 {
    match kind {
        FaultKind::ThermostatStuckOpen => 128, // P0128 coolant below thermostat temp
        FaultKind::RadiatorDegradation => 217, // P0217 engine overheat
        FaultKind::MafSensorDrift => 101,      // P0101 MAF range/performance
        FaultKind::IntakeLeak => 171,          // P0171 system too lean
    }
}

/// One simulated vehicle: its physical identity, telemetry and event log.
#[derive(Debug, Clone)]
pub struct VehicleData {
    /// Fleet-wide identifier.
    pub id: VehicleId,
    /// Physical model (after per-vehicle jitter).
    pub model: VehicleModel,
    /// Usage profile.
    pub usage: UsageProfile,
    /// Whether this vehicle's maintenance events are recorded by the FMS.
    pub recorded: bool,
    /// Telemetry: one row per operating minute, columns = [`PID_NAMES`].
    pub frame: Frame,
    /// All events (recorded and unrecorded), time-sorted.
    pub events: Vec<Event>,
}

impl VehicleData {
    /// Events visible to the pipeline (recorded only).
    pub fn recorded_events(&self) -> Vec<Event> {
        self.events.iter().copied().filter(|e| e.recorded).collect()
    }

    /// Timestamps of recorded repair events (the evaluation ground truth).
    pub fn recorded_repairs(&self) -> Vec<i64> {
        self.events
            .iter()
            .filter(|e| e.recorded && e.kind == EventKind::Repair)
            .map(|e| e.timestamp)
            .collect()
    }

    /// The recorded maintenance log (services and repairs) as time-sorted
    /// `(timestamp, is_repair)` pairs: the reference-reset triggers the
    /// pipeline sees.
    pub fn maintenance_log(&self) -> Vec<(i64, bool)> {
        self.events
            .iter()
            .filter(|e| e.recorded && e.kind.is_maintenance())
            .map(|e| (e.timestamp, e.kind == EventKind::Repair))
            .collect()
    }
}

/// A complete simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetData {
    /// Number of simulated days.
    pub n_days: usize,
    /// Per-vehicle data, indexed by `VehicleId::index`.
    pub vehicles: Vec<VehicleData>,
    /// Ground-truth fault windows (including their true start times, which
    /// the pipeline never sees).
    pub faults: Vec<FaultWindow>,
}

impl FleetData {
    /// Total telemetry records across the fleet.
    pub fn total_records(&self) -> usize {
        self.vehicles.iter().map(|v| v.frame.len()).sum()
    }

    /// Vehicle indices of the paper's `setting40` (all vehicles).
    pub fn setting40(&self) -> Vec<usize> {
        (0..self.vehicles.len()).collect()
    }

    /// Vehicle indices of the paper's `setting26` (vehicles with at least
    /// one recorded event).
    pub fn setting26(&self) -> Vec<usize> {
        (0..self.vehicles.len())
            .filter(|&v| self.vehicles[v].events.iter().any(|e| e.recorded))
            .collect()
    }

    /// Count of recorded events across the fleet (the paper's "121 events
    /// of interest").
    pub fn recorded_event_count(&self) -> usize {
        self.vehicles
            .iter()
            .flat_map(|v| &v.events)
            .filter(|e| e.recorded && !matches!(e.kind, EventKind::Dtc(_)))
            .count()
    }

    /// Count of recorded repair events (the paper's "9 failures").
    pub fn recorded_repair_count(&self) -> usize {
        self.vehicles
            .iter()
            .flat_map(|v| &v.events)
            .filter(|e| e.recorded && e.kind == EventKind::Repair)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::pid;

    fn small_fleet() -> FleetData {
        FleetConfig::small(7).generate()
    }

    #[test]
    fn deterministic_generation() {
        let a = FleetConfig::small(3).generate();
        let b = FleetConfig::small(3).generate();
        assert_eq!(a.total_records(), b.total_records());
        assert_eq!(a.vehicles[0].frame, b.vehicles[0].frame);
        assert_eq!(a.vehicles[2].events, b.vehicles[2].events);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FleetConfig::small(3).generate();
        let b = FleetConfig::small(4).generate();
        assert_ne!(a.vehicles[0].frame, b.vehicles[0].frame);
    }

    #[test]
    fn fleet_shape() {
        let fleet = small_fleet();
        assert_eq!(fleet.vehicles.len(), 6);
        assert!(fleet.total_records() > 10_000, "got {}", fleet.total_records());
        assert_eq!(fleet.faults.len(), 2);
        assert_eq!(fleet.recorded_repair_count(), 2);
        // Failures only on recorded vehicles.
        for w in &fleet.faults {
            assert!(fleet.vehicles[w.vehicle].recorded);
        }
    }

    #[test]
    fn setting26_subset_of_setting40() {
        let fleet = small_fleet();
        let s26 = fleet.setting26();
        let s40 = fleet.setting40();
        assert!(s26.len() <= s40.len());
        assert!(s26.iter().all(|v| s40.contains(v)));
        // Every setting26 vehicle has a recorded event.
        for &v in &s26 {
            assert!(!fleet.vehicles[v].recorded_events().is_empty());
        }
    }

    #[test]
    fn frames_time_ordered_and_physical() {
        let fleet = small_fleet();
        for vd in &fleet.vehicles {
            let ts = vd.frame.timestamps();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]));
            let rpm = vd.frame.column(pid::RPM);
            let speed = vd.frame.column(pid::SPEED);
            assert!(rpm.iter().all(|&r| (0.0..8000.0).contains(&r)));
            assert!(speed.iter().all(|&s| (0.0..=160.0).contains(&s)));
        }
    }

    #[test]
    fn repairs_match_fault_windows() {
        let fleet = small_fleet();
        for w in &fleet.faults {
            let repairs = fleet.vehicles[w.vehicle].recorded_repairs();
            assert!(repairs.contains(&w.repair), "repair event exists at fault end");
        }
    }

    #[test]
    fn unrecorded_vehicles_have_no_recorded_events() {
        let fleet = small_fleet();
        for vd in &fleet.vehicles {
            if !vd.recorded {
                assert!(
                    vd.recorded_events().iter().all(|e| matches!(e.kind, EventKind::Dtc(_))),
                    "only telemetry-borne DTCs may appear for unrecorded vehicles"
                );
            }
            // But services still *happen* to everyone.
            assert!(
                vd.events.iter().any(|e| e.kind == EventKind::Service),
                "vehicle {} had no service at all",
                vd.id
            );
        }
    }

    #[test]
    fn maintenance_reset_times_sorted() {
        let fleet = small_fleet();
        for vd in &fleet.vehicles {
            let m = vd.maintenance_log();
            assert!(m.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn scenario_presets_generate() {
        for cfg in [FleetConfig::urban_delivery(3), FleetConfig::long_haul(3)] {
            let mut small = cfg.clone();
            small.n_days = 40; // keep the test quick
            small.n_failures = small.n_failures.min(2);
            let fleet = small.generate();
            assert_eq!(fleet.vehicles.len(), small.n_vehicles);
            assert!(fleet.total_records() > 0);
        }
    }

    #[test]
    fn navarchos_scale_config() {
        let cfg = FleetConfig::navarchos();
        assert_eq!(cfg.n_vehicles, 40);
        assert_eq!(cfg.n_recorded, 26);
        assert_eq!(cfg.n_failures, 9);
    }
}
