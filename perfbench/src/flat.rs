//! The load generator's own input representation: flat columns, so no
//! per-record allocation happens before the timed call builds the engine's
//! input type.

use std::collections::BTreeMap;

/// What one stream item carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A telemetry record; its values are `FlatStream::row(i)`.
    Record,
    /// A maintenance marker: a service (`false`) or a repair (`true`).
    Maintenance(bool),
}

/// A fleet feed in arrival order, held as columns.
#[derive(Debug)]
pub struct FlatStream {
    pub timestamps: Vec<i64>,
    pub vehicles: Vec<u32>,
    pub kinds: Vec<Kind>,
    /// `offsets[i]..offsets[i + 1]` indexes item `i`'s values in `values`.
    /// Corrupted records may be shorter than the schema.
    offsets: Vec<usize>,
    values: Vec<f64>,
}

impl Default for FlatStream {
    fn default() -> Self {
        FlatStream::with_capacity(0, 0)
    }
}

impl FlatStream {
    pub fn with_capacity(items: usize, width: usize) -> Self {
        let mut offsets = Vec::with_capacity(items + 1);
        offsets.push(0);
        FlatStream {
            timestamps: Vec::with_capacity(items),
            vehicles: Vec::with_capacity(items),
            kinds: Vec::with_capacity(items),
            offsets,
            values: Vec::with_capacity(items * width),
        }
    }

    pub fn push(&mut self, vehicle: u32, timestamp: i64, kind: Kind, row: &[f64]) {
        self.vehicles.push(vehicle);
        self.timestamps.push(timestamp);
        self.kinds.push(kind);
        self.values.extend_from_slice(row);
        self.offsets.push(self.values.len());
    }

    pub fn clear(&mut self) {
        self.timestamps.clear();
        self.vehicles.clear();
        self.kinds.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.values.clear();
    }

    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Per vehicle (ascending), the items a correct engine releases, in
    /// release order: records of the schema's arity with finite values and
    /// all maintenance markers, the first copy of each exact duplicate,
    /// sorted by timestamp with maintenance before a same-time record.
    pub fn canonical_order(&self, width: usize) -> Vec<(u32, Vec<usize>)> {
        let mut per_vehicle: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for i in 0..self.len() {
            let valid = match self.kinds[i] {
                Kind::Record => {
                    self.row(i).len() == width && self.row(i).iter().all(|v| v.is_finite())
                }
                Kind::Maintenance(_) => true,
            };
            if valid {
                per_vehicle.entry(self.vehicles[i]).or_default().push(i);
            }
        }
        let rank = |k: Kind| u8::from(k == Kind::Record);
        per_vehicle
            .into_iter()
            .map(|(v, mut idx)| {
                // Stable: equal keys keep arrival order, so the first copy wins.
                idx.sort_by_key(|&i| (self.timestamps[i], rank(self.kinds[i])));
                idx.dedup_by(|b, a| {
                    self.timestamps[*a] == self.timestamps[*b]
                        && self.kinds[*a] == self.kinds[*b]
                        && self
                            .row(*a)
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(self.row(*b).iter().map(|x| x.to_bits()))
                });
                (v, idx)
            })
            .collect()
    }
}
