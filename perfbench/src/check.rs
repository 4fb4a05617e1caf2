//! Reference checks behind `failed_fraction`: every output is compared
//! with a reference computation, and any failed check makes the command
//! exit nonzero.

use std::collections::BTreeMap;

use crate::adapter::{self, AlarmKey, Counts, FleetData, Loaded};

/// Checks made and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One check per vehicle: its served alarms must equal the oracle's,
/// field by field and floats by bit pattern.
pub fn alarms(
    served: &BTreeMap<u32, Vec<AlarmKey>>,
    oracle: &BTreeMap<u32, Vec<AlarmKey>>,
    checks: &mut Checks,
) {
    let none = Vec::new();
    let mut vehicles: Vec<u32> = served.keys().chain(oracle.keys()).copied().collect();
    vehicles.sort_unstable();
    vehicles.dedup();
    for v in vehicles {
        let got = served.get(&v).unwrap_or(&none);
        let want = oracle.get(&v).unwrap_or(&none);
        checks.check(got == want, || {
            let at =
                got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
            format!(
                "vehicle {v}: {} served alarms vs {} in sorted replay, first difference at {at}",
                got.len(),
                want.len()
            )
        });
    }
}

/// Every item sent is offered, and every offered item is released, a
/// duplicate, late-dropped or dead-lettered.
pub fn accounting(c: &Counts, sent: usize, checks: &mut Checks) {
    let offered = c.records + c.maintenance;
    checks.check(offered == sent as u64, || format!("offered {offered} of {sent} items sent"));
    let settled = c.released + c.duplicates + c.late_dropped + c.dead_letter;
    checks.check(settled == sent as u64, || {
        format!(
            "released {} + duplicates {} + late {} + dead-lettered {} = {settled}, sent {sent}",
            c.released, c.duplicates, c.late_dropped, c.dead_letter
        )
    });
}

/// One check per generated vehicle: its CSV-loaded frame must be
/// bit-identical to the generated one.
pub fn frames(fleet: &FleetData, loaded: &Loaded, checks: &mut Checks) {
    let n = fleet.vehicles.len();
    checks.check(loaded.ids.len() == n, || format!("loaded {} of {n} vehicles", loaded.ids.len()));
    for (v, same) in adapter::frames_identical(fleet, loaded).into_iter().enumerate() {
        checks.check(same, || {
            format!("vehicle {v}: CSV-loaded frame differs from the generated one")
        });
    }
}

/// Hands the alarm checker one deliberately altered alarm and expects
/// exactly that one vehicle to be counted as failed.
pub fn self_test(oracle: &BTreeMap<u32, Vec<AlarmKey>>, checks: &mut Checks) {
    let mut altered = oracle.clone();
    let victim = altered.values_mut().find(|a| !a.is_empty()).and_then(|a| a.last_mut());
    let Some(alarm) = victim else {
        checks.check(false, || "checker self-test: the oracle raised no alarm to alter".into());
        return;
    };
    alarm.score_bits ^= 1;
    let mut probe = Checks::default();
    alarms(&altered, oracle, &mut probe);
    checks.check(probe.failed == 1, || {
        format!("checker self-test: one altered alarm gave {} failed checks", probe.failed)
    });
}
