//! Record filters applied before any data transformation (Section 3.2 of
//! the paper: "we first filter out records that correspond to the
//! stationary state of the vehicle and sensor faulty data").

use crate::frame::Frame;

/// Physically valid range for one signal; values outside are treated as
/// sensor faults and the whole record is dropped.
#[derive(Debug, Clone)]
pub struct ValidRange {
    /// Signal (column) name the range applies to.
    pub name: String,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

impl ValidRange {
    /// Convenience constructor.
    pub fn new(name: &str, min: f64, max: f64) -> Self {
        assert!(min <= max, "invalid range for {name}");
        ValidRange { name: name.to_string(), min, max }
    }
}

/// Filter specification: stationary-state detection plus per-signal valid
/// ranges.
#[derive(Debug, Clone, Default)]
pub struct FilterSpec {
    /// Name of the road-speed column; rows with speed below
    /// `min_moving_speed` *and* rpm below `min_running_rpm` count as
    /// stationary.
    pub speed_column: Option<String>,
    /// Name of the engine-speed column.
    pub rpm_column: Option<String>,
    /// Speed (km/h) below which the vehicle is considered not moving.
    pub min_moving_speed: f64,
    /// Engine speed (rpm) below which the engine is considered off/idle.
    pub min_running_rpm: f64,
    /// Per-signal physical plausibility ranges.
    pub valid_ranges: Vec<ValidRange>,
    /// Warm-up filter: records with this column below `warm_min` are
    /// dropped (the engine has not reached closed-loop operation, so its
    /// thermal signals reflect the cold start, not the vehicle's health).
    pub warm_column: Option<String>,
    /// Minimum value of `warm_column` for a record to be kept.
    pub warm_min: f64,
}

impl FilterSpec {
    /// The filter used for the six Navarchos PID signals: a record is
    /// stationary when the vehicle is not moving and the engine is at or
    /// below idle, and each PID has a physical plausibility window.
    pub fn navarchos_default() -> Self {
        FilterSpec {
            speed_column: Some("speed".to_string()),
            rpm_column: Some("rpm".to_string()),
            min_moving_speed: 3.0,
            min_running_rpm: 950.0,
            valid_ranges: vec![
                ValidRange::new("rpm", 0.0, 8000.0),
                ValidRange::new("speed", 0.0, 220.0),
                ValidRange::new("coolantTemp", -40.0, 135.0),
                ValidRange::new("intakeTemp", -40.0, 120.0),
                ValidRange::new("mapIntake", 5.0, 255.0),
                ValidRange::new("mafAirFlowRate", 0.0, 650.0),
            ],
            warm_column: Some("coolantTemp".to_string()),
            warm_min: 72.0,
        }
    }

    /// Computes the keep-mask for a frame: `true` = record survives.
    /// Records with any non-finite value are always dropped.
    pub fn mask(&self, frame: &Frame) -> Vec<bool> {
        let n = frame.len();
        let mut mask = vec![true; n];

        // Non-finite values anywhere → drop.
        for c in 0..frame.width() {
            let col = frame.column(c);
            for (m, &v) in mask.iter_mut().zip(col) {
                if !v.is_finite() {
                    *m = false;
                }
            }
        }

        // Stationary state: requires both columns to be configured & present.
        if let (Some(sc), Some(rc)) = (&self.speed_column, &self.rpm_column) {
            if let (Some(speed), Some(rpm)) = (frame.column_by_name(sc), frame.column_by_name(rc)) {
                for i in 0..n {
                    if speed[i] < self.min_moving_speed && rpm[i] < self.min_running_rpm {
                        mask[i] = false;
                    }
                }
            }
        }

        // Sensor plausibility ranges.
        for vr in &self.valid_ranges {
            if let Some(col) = frame.column_by_name(&vr.name) {
                for (m, &v) in mask.iter_mut().zip(col) {
                    if v < vr.min || v > vr.max {
                        *m = false;
                    }
                }
            }
        }

        // Warm-up filter.
        if let Some(wc) = &self.warm_column {
            if let Some(col) = frame.column_by_name(wc) {
                for (m, &v) in mask.iter_mut().zip(col) {
                    if v < self.warm_min {
                        *m = false;
                    }
                }
            }
        }

        mask
    }

    /// Applies the filter, returning the surviving rows.
    pub fn apply(&self, frame: &Frame) -> Frame {
        frame.filter_rows(&self.mask(frame))
    }

    /// Resolves the filter's column names against a record schema once,
    /// for streams that check many records of that schema.
    pub fn resolve<S: AsRef<str>>(&self, names: &[S]) -> RowFilter {
        RowFilter {
            stationary: self.stationary_columns(names),
            min_moving_speed: self.min_moving_speed,
            min_running_rpm: self.min_running_rpm,
            bounds: self.bounds(names).collect(),
        }
    }

    /// Streaming variant: whether a single record survives the filter.
    /// Resolves the column names on every call; a stream of records of one
    /// schema should [`FilterSpec::resolve`] once and use [`RowFilter::keep`].
    pub fn keep_row(&self, names: &[String], row: &[f64]) -> bool {
        RowFilter::passes(
            row,
            self.stationary_columns(names),
            self.min_moving_speed,
            self.min_running_rpm,
            self.bounds(names),
        )
    }

    /// Positions of the speed and rpm columns, when both are configured
    /// and present.
    fn stationary_columns<S: AsRef<str>>(&self, names: &[S]) -> Option<(usize, usize)> {
        match (&self.speed_column, &self.rpm_column) {
            (Some(sc), Some(rc)) => Some((position(names, sc)?, position(names, rc)?)),
            _ => None,
        }
    }

    /// Every per-column bound present in `names` as `(column, min, max)`,
    /// inclusive: the valid ranges, then the warm-up minimum.
    fn bounds<'a, S: AsRef<str>>(
        &'a self,
        names: &'a [S],
    ) -> impl Iterator<Item = (usize, f64, f64)> + 'a {
        let ranges = self
            .valid_ranges
            .iter()
            .filter_map(|vr| Some((position(names, &vr.name)?, vr.min, vr.max)));
        let warm = self
            .warm_column
            .as_deref()
            .and_then(|wc| Some((position(names, wc)?, self.warm_min, f64::INFINITY)));
        ranges.chain(warm)
    }
}

/// First position of `name` in a schema (as [`Frame::column_index`]).
fn position<S: AsRef<str>>(names: &[S], name: &str) -> Option<usize> {
    names.iter().position(|n| n.as_ref() == name)
}

/// A [`FilterSpec`] resolved against one record schema
/// ([`FilterSpec::resolve`]): column positions looked up once, so keeping
/// or dropping a record is a finiteness scan plus a few comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowFilter {
    /// `(speed, rpm)` positions when the stationary check applies.
    stationary: Option<(usize, usize)>,
    min_moving_speed: f64,
    min_running_rpm: f64,
    /// `(column, min, max)`, inclusive; the warm-up minimum rides here
    /// with an infinite maximum.
    bounds: Vec<(usize, f64, f64)>,
}

impl RowFilter {
    /// Whether a record survives the filter: every value finite, not
    /// stationary, every bounded column in range. A record too short to
    /// hold a column the filter reads is dropped, like a non-finite one.
    pub fn keep(&self, row: &[f64]) -> bool {
        Self::passes(
            row,
            self.stationary,
            self.min_moving_speed,
            self.min_running_rpm,
            self.bounds.iter().copied(),
        )
    }

    /// The one row predicate, over resolved column positions.
    fn passes(
        row: &[f64],
        stationary: Option<(usize, usize)>,
        min_moving_speed: f64,
        min_running_rpm: f64,
        mut bounds: impl Iterator<Item = (usize, f64, f64)>,
    ) -> bool {
        if row.iter().any(|v| !v.is_finite()) {
            return false;
        }
        if let Some((si, ri)) = stationary {
            let (Some(&speed), Some(&rpm)) = (row.get(si), row.get(ri)) else { return false };
            if speed < min_moving_speed && rpm < min_running_rpm {
                return false;
            }
        }
        !bounds.any(|(i, min, max)| row.get(i).map_or(true, |&v| v < min || v > max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid_frame() -> Frame {
        let mut f = Frame::new(&[
            "rpm",
            "speed",
            "coolantTemp",
            "intakeTemp",
            "mapIntake",
            "mafAirFlowRate",
        ]);
        // Normal driving record.
        f.push_row(0, &[2000.0, 50.0, 90.0, 25.0, 100.0, 30.0]);
        // Stationary: speed ~0, idle rpm.
        f.push_row(60, &[800.0, 0.0, 88.0, 24.0, 35.0, 8.0]);
        // Moving but low rpm (coasting) — kept: not both conditions met.
        f.push_row(120, &[900.0, 40.0, 89.0, 24.0, 40.0, 10.0]);
        // Sensor fault: impossible coolant temperature.
        f.push_row(180, &[2500.0, 70.0, 250.0, 26.0, 120.0, 45.0]);
        // NaN record.
        f.push_row(240, &[2200.0, f64::NAN, 90.0, 25.0, 110.0, 40.0]);
        f
    }

    #[test]
    fn navarchos_filter_drops_expected_rows() {
        let f = pid_frame();
        let spec = FilterSpec::navarchos_default();
        let mask = spec.mask(&f);
        assert_eq!(mask, vec![true, false, true, false, false]);
        let g = spec.apply(&f);
        assert_eq!(g.len(), 2);
        assert_eq!(g.timestamps(), &[0, 120]);
    }

    #[test]
    fn keep_row_matches_mask() {
        let f = pid_frame();
        let spec = FilterSpec::navarchos_default();
        let mask = spec.mask(&f);
        let names = f.names().to_vec();
        for (i, &keep) in mask.iter().enumerate() {
            assert_eq!(spec.keep_row(&names, &f.row(i)), keep, "row {i}");
        }
    }

    #[test]
    fn empty_spec_keeps_finite_rows() {
        let f = pid_frame();
        let spec = FilterSpec::default();
        let mask = spec.mask(&f);
        assert_eq!(mask, vec![true, true, true, true, false], "only NaN row dropped");
    }

    #[test]
    fn missing_columns_are_ignored() {
        let mut f = Frame::new(&["x"]);
        f.push_row(0, &[1.0]);
        let spec = FilterSpec::navarchos_default();
        assert_eq!(spec.mask(&f), vec![true]);
    }

    #[test]
    #[should_panic]
    fn invalid_range_panics() {
        ValidRange::new("x", 2.0, 1.0);
    }
}
