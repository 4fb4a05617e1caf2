//! Reference-profile construction (framework step 2): the dynamic
//! "healthy" dataset `Ref` that detectors are fitted on, rebuilt whenever
//! a maintenance event signals that the vehicle should be back to normal
//! operation — without any guarantee the collected data is noise-free.

/// When the reference profile is discarded and rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResetPolicy {
    /// Reset on every recorded service *or* repair — the paper's main
    /// policy (Table 2).
    #[default]
    OnServiceOrRepair,
    /// Reset only on recorded repairs — the ablation of Table 3 (ignoring
    /// services keeps vehicles pinned to their initial-state profile).
    OnRepairOnly,
    /// Never reset: the initial profile stays forever.
    Never,
}

impl ResetPolicy {
    /// Whether a maintenance event of the given kind triggers a reset.
    /// `is_repair` distinguishes repairs from plain services.
    pub fn resets_on(&self, is_repair: bool) -> bool {
        match self {
            ResetPolicy::OnServiceOrRepair => true,
            ResetPolicy::OnRepairOnly => is_repair,
            ResetPolicy::Never => false,
        }
    }
}

/// A growable reference profile of transformed samples.
#[derive(Debug, Clone)]
pub struct ReferenceProfile {
    dim: usize,
    capacity: usize,
    data: Vec<f64>,
}

impl ReferenceProfile {
    /// Creates an empty profile collecting up to `capacity` samples of
    /// width `dim`.
    pub fn new(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0 && capacity > 0);
        ReferenceProfile { dim, capacity, data: Vec::with_capacity(dim * capacity) }
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the profile holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the profile reached its target length and is ready for
    /// detector fitting.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Sample width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds a sample while the profile is filling; returns true when this
    /// push completed the profile.
    pub fn push(&mut self, x: &[f64]) -> bool {
        assert_eq!(x.len(), self.dim, "sample width mismatch");
        if self.is_full() {
            return false;
        }
        self.data.extend_from_slice(x);
        let completed = self.is_full();
        if completed && navarchos_obs::metrics_enabled() {
            static FILLS: std::sync::OnceLock<std::sync::Arc<navarchos_obs::Counter>> =
                std::sync::OnceLock::new();
            FILLS.get_or_init(|| navarchos_obs::counter("reference.fills")).incr();
        }
        completed
    }

    /// Discards everything (a maintenance reset).
    pub fn clear(&mut self) {
        if !self.data.is_empty() && navarchos_obs::metrics_enabled() {
            static RESETS: std::sync::OnceLock<std::sync::Arc<navarchos_obs::Counter>> =
                std::sync::OnceLock::new();
            RESETS.get_or_init(|| navarchos_obs::counter("reference.resets")).incr();
        }
        self.data.clear();
    }

    /// The collected samples as a row-major matrix buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Sample `i`.
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Copies the samples into per-row vectors (for index structures that
    /// want owned points).
    pub fn rows(&self) -> Vec<Vec<f64>> {
        (0..self.len()).map(|i| self.sample(i).to_vec()).collect()
    }
}

// Restore writes `data` directly instead of replaying `push` so the
// `reference.fills` counter is not re-bumped by a restore — checkpoint
// restore must be invisible to fleet telemetry.
impl navarchos_stat::Snapshot for ReferenceProfile {
    fn write_state(&self, w: &mut navarchos_stat::SnapWriter) {
        w.put_usize(self.dim);
        w.put_usize(self.capacity);
        w.put_f64_slice(&self.data);
    }
}

impl navarchos_stat::Restore for ReferenceProfile {
    fn read_state(
        &mut self,
        r: &mut navarchos_stat::SnapReader<'_>,
    ) -> Result<(), navarchos_stat::SnapError> {
        let dim = r.get_usize()?;
        let capacity = r.get_usize()?;
        if dim != self.dim || capacity != self.capacity {
            return Err(navarchos_stat::SnapError::Corrupt("ReferenceProfile shape mismatch"));
        }
        // Into the buffer `new` sized for a full profile.
        let data = r.get_f64_iter()?;
        if data.len() % dim != 0 || data.len() > dim * capacity {
            return Err(navarchos_stat::SnapError::Corrupt("ReferenceProfile data mismatch"));
        }
        self.data.clear();
        self.data.extend(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_semantics() {
        assert!(ResetPolicy::OnServiceOrRepair.resets_on(false));
        assert!(ResetPolicy::OnServiceOrRepair.resets_on(true));
        assert!(!ResetPolicy::OnRepairOnly.resets_on(false));
        assert!(ResetPolicy::OnRepairOnly.resets_on(true));
        assert!(!ResetPolicy::Never.resets_on(true));
        assert!(!ResetPolicy::Never.resets_on(false));
    }

    #[test]
    fn profile_fills_to_capacity() {
        let mut p = ReferenceProfile::new(2, 3);
        assert!(!p.push(&[1.0, 2.0]));
        assert!(!p.push(&[3.0, 4.0]));
        assert!(p.push(&[5.0, 6.0]), "completing push returns true");
        assert!(p.is_full());
        assert!(!p.push(&[7.0, 8.0]), "pushes after full are ignored");
        assert_eq!(p.len(), 3);
        assert_eq!(p.sample(1), &[3.0, 4.0]);
    }

    #[test]
    fn clear_resets() {
        let mut p = ReferenceProfile::new(1, 2);
        p.push(&[1.0]);
        p.push(&[2.0]);
        assert!(p.is_full());
        p.clear();
        assert!(p.is_empty());
        assert!(!p.is_full());
    }

    #[test]
    fn rows_roundtrip() {
        let mut p = ReferenceProfile::new(2, 2);
        p.push(&[1.0, 2.0]);
        p.push(&[3.0, 4.0]);
        assert_eq!(p.rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(p.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_width_panics() {
        let mut p = ReferenceProfile::new(2, 2);
        p.push(&[1.0]);
    }
}
