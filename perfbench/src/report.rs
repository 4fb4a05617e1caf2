//! Output, all on standard output: a table of every metric the run
//! measured, a `report` line carrying the same as JSON for the steadiness
//! summary, and last the result line with the declared metrics only.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric { name: name.into(), unit, value });
    }
}

/// JSON number: finite values with all their digits, anything else null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn metrics_object<'a>(ms: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = ms
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints every metric as a table, then the `report` JSON line.
pub fn print_report(workload: &str, seed: u64, trace: bool, all: &Metrics) {
    let width = all.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
    println!("perfbench {workload} seed {seed} trace {}", u8::from(trace));
    for m in &all.0 {
        println!("  {:width$}  {:>16}  {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    println!(
        "report {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"metrics\": {}}}",
        escape(workload),
        u8::from(trace),
        metrics_object(all.0.iter())
    );
}

/// The contract's result line: the `declared` metrics, in order. Fails
/// when one was not measured or carries another unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    all: &Metrics,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut picked = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let m = all
            .0
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit {
            return Err(format!("metric {name} measured in {}, declared in {unit}", m.unit));
        }
        picked.push(m);
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(picked.into_iter())
    ))
}
