//! Maintenance and diagnostic events: services, repairs, inspections and
//! DTCs, each carrying the *recorded* flag that encodes the paper's partial
//! information (events happen to every vehicle, but the FMS only learns
//! about a subset).

/// The kind of a fleet event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Scheduled periodic service.
    Service,
    /// Unscheduled repair fixing a developed failure — the events PdM must
    /// predict.
    Repair,
    /// Minor maintenance that neither fixes nor indicates a failure (tyre
    /// change, inspection, recall visit).
    Inspection,
    /// Diagnostic trouble code emitted by the ECU. The payload is a
    /// compact code id (e.g. 301 renders as "P0301").
    Dtc(u16),
}

impl EventKind {
    /// True for the events that reset the reference profile under the
    /// paper's main policy (services *and* repairs).
    pub fn is_maintenance(&self) -> bool {
        matches!(self, EventKind::Service | EventKind::Repair)
    }

    /// Paper-style display label.
    pub fn label(&self) -> String {
        match self {
            EventKind::Service => "service".to_string(),
            EventKind::Repair => "repair".to_string(),
            EventKind::Inspection => "inspection".to_string(),
            EventKind::Dtc(code) => format!("DTC P{code:04}"),
        }
    }
}

/// One event in a vehicle's life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Index of the vehicle the event belongs to.
    pub vehicle: usize,
    /// Event timestamp.
    pub timestamp: i64,
    /// What happened.
    pub kind: EventKind,
    /// Whether the operator's FMS learned about the event. Unrecorded
    /// events exist in the ground truth but are invisible to the pipeline.
    pub recorded: bool,
}

/// Sorts events chronologically (stable on equal timestamps).
pub fn sort_events(events: &mut [Event]) {
    events.sort_by_key(|e| (e.timestamp, e.vehicle));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_classification() {
        assert!(EventKind::Service.is_maintenance());
        assert!(EventKind::Repair.is_maintenance());
        assert!(!EventKind::Inspection.is_maintenance());
        assert!(!EventKind::Dtc(301).is_maintenance());
    }

    #[test]
    fn dtc_label_format() {
        assert_eq!(EventKind::Dtc(301).label(), "DTC P0301");
        assert_eq!(EventKind::Repair.label(), "repair");
    }

    #[test]
    fn sort_and_filter() {
        let mut evs = vec![
            Event { vehicle: 1, timestamp: 50, kind: EventKind::Repair, recorded: true },
            Event { vehicle: 0, timestamp: 10, kind: EventKind::Service, recorded: false },
            Event { vehicle: 0, timestamp: 30, kind: EventKind::Dtc(420), recorded: true },
        ];
        sort_events(&mut evs);
        assert_eq!(evs[0].timestamp, 10);
        assert_eq!(evs[2].timestamp, 50);
    }
}
