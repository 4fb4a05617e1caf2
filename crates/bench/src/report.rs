//! Plain-text reporting helpers shared by the experiment harness.
//! Results are written under `results/` in the current directory and
//! echoed to stdout.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Directory experiment outputs are written to: `results/` under the
/// current directory, resolved when the program runs (so a binary built in
/// one checkout writes into the checkout it is run from).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes `content` to `results/<name>` and echoes it to stdout.
pub fn emit(name: &str, content: &str) {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result file");
    // Echo through one explicitly locked handle (L7: library code never
    // uses the print macros) so the report stays contiguous even when a
    // trace sink is interleaving stderr lines.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{content}");
    let _ = writeln!(out, "[written to {}]", path.display());
    if navarchos_obs::events_enabled() {
        navarchos_obs::emit(
            &navarchos_obs::Event::new("report.emit")
                .field("name", name)
                .field("bytes", content.len())
                .field("path", path.display().to_string()),
        );
    }
}

/// Formats a markdown-style table: a header row plus data rows.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    out.push_str(&fmt_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(), &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// A compact horizontal bar for text "figures": `len` characters scaled to
/// `value / max`.
pub fn bar(value: f64, max: f64, len: usize) -> String {
    if !(value.is_finite() && max > 0.0) {
        return String::new();
    }
    let filled = ((value / max) * len as f64).round().clamp(0.0, len as f64) as usize;
    "█".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let rows = vec![
            vec!["a".to_string(), "1.00".to_string()],
            vec!["longer-name".to_string(), "0.5".to_string()],
        ];
        let t = table(&["name", "score"], &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4, "header + separator + 2 rows");
        // All lines equally wide.
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w), "{t}");
        assert!(t.contains("longer-name"));
    }

    #[test]
    fn bar_scales_and_handles_degenerates() {
        assert_eq!(bar(1.0, 1.0, 10).chars().count(), 10);
        assert_eq!(bar(0.5, 1.0, 10).chars().count(), 5);
        assert_eq!(bar(0.0, 1.0, 10), "");
        assert_eq!(bar(2.0, 1.0, 10).chars().count(), 10, "clamped at full");
        assert_eq!(bar(f64::NAN, 1.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
