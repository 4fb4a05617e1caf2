//! Plain-CSV import/export for frames — the interchange surface a fleet
//! operator would use to feed their own telemetry into the framework. The
//! format is one header row (`timestamp,<signal>,…`) followed by one data
//! row per record, timestamps as integer Unix seconds.
//!
//! Implemented by hand (no quoting/escaping: telemetry is purely numeric)
//! to stay inside the workspace's sanctioned dependency set. The reader
//! makes one pass over one buffer: it finds the `,` and `\n` cuts one
//! 64-bit word at a time and hands each cell to std's `str::parse`
//! straight into columns reserved once, at the most rows the file can
//! hold.

use crate::frame::Frame;
use std::io::{BufWriter, Read, Write};

/// Errors raised by CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file, with a line number (1-based) and
    /// description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A signal name [`write_csv`] refuses because [`read_csv`] would not
    /// read the same schema back.
    Name {
        /// The refused name.
        name: String,
        /// Why it is refused.
        reason: &'static str,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv i/o error: {e}"),
            CsvError::Parse { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            CsvError::Name { name, reason } => write!(f, "csv signal name {name:?} {reason}"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } | CsvError::Name { .. } => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The first name in `names` that the header row cannot carry, with why.
/// `read_csv` trims each header cell and cuts at `,` and `\n`, and a
/// schema must name each signal once.
fn name_fault<S: AsRef<str>>(names: &[S]) -> Option<(usize, &'static str)> {
    // In name order, a name equal to the one before it repeats an earlier
    // column (ties sort by column).
    let mut sorted: Vec<(&str, usize)> = names.iter().map(AsRef::as_ref).zip(0..).collect();
    sorted.sort_unstable();
    let mut repeats = vec![false; names.len()];
    for pair in sorted.windows(2) {
        if let [(a, _), (b, j)] = pair {
            repeats[*j] |= a == b;
        }
    }
    names.iter().zip(repeats).enumerate().find_map(|(j, (name, repeat))| {
        let name = name.as_ref();
        if name.is_empty() {
            Some((j, "is empty"))
        } else if name.contains([',', '\n', '\r']) {
            Some((j, "contains ',', '\\n' or '\\r'"))
        } else if name.trim() != name {
            Some((j, "has surrounding whitespace"))
        } else if repeat {
            Some((j, "is a duplicate"))
        } else {
            None
        }
    })
}

/// Writes a frame as CSV. Refuses, before writing anything, a signal name
/// that would read back as a different schema: empty, duplicated, holding
/// `,`, `\n` or `\r`, or with surrounding whitespace.
pub fn write_csv<W: Write>(frame: &Frame, writer: W) -> Result<(), CsvError> {
    if let Some((j, reason)) = name_fault(frame.names()) {
        return Err(CsvError::Name { name: frame.names()[j].clone(), reason });
    }
    let mut w = BufWriter::new(writer);
    write!(w, "timestamp")?;
    for name in frame.names() {
        write!(w, ",{name}")?;
    }
    writeln!(w)?;
    let mut row = Vec::with_capacity(frame.width());
    for i in 0..frame.len() {
        frame.row_into(i, &mut row);
        write!(w, "{}", frame.timestamps()[i])?;
        for v in &row {
            write!(w, ",{v}")?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a frame from CSV. Rows must be time-ordered (frames are
/// append-only); a `NaN` cell is accepted and will be dropped by the
/// record filter downstream. Blank and whitespace-only lines are skipped,
/// every cell is trimmed, and an empty, duplicated or `\r`-holding signal
/// name is refused at line 1.
///
/// Errors are reported line by line, the first faulty line winning, and a
/// line that is not UTF-8 fails as [`std::io::ErrorKind::InvalidData`].
/// The whole input is read first, so an error of `reader` itself is
/// reported before any fault in the text.
pub fn read_csv<R: Read>(mut reader: R) -> Result<Frame, CsvError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse(&bytes)
}

/// Convenience: writes a frame to a file path.
pub fn write_csv_file(frame: &Frame, path: &std::path::Path) -> Result<(), CsvError> {
    write_csv(frame, std::fs::File::create(path)?)
}

/// Convenience: reads a frame from a file path, in one read.
pub fn read_csv_file(path: &std::path::Path) -> Result<Frame, CsvError> {
    parse(&std::fs::read(path)?)
}

fn parse(bytes: &[u8]) -> Result<Frame, CsvError> {
    if bytes.is_empty() {
        return Err(CsvError::Parse { line: 1, message: "empty file".into() });
    }
    // A line is UTF-8 exactly when it lies wholly before the first invalid
    // byte (`\n` never continues a sequence), so only the lines before that
    // one are parsed: a fault in them still wins.
    let (text, valid_to_end) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, true),
        Err(e) => {
            let valid = std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default();
            (&valid[..valid.rfind('\n').map_or(0, |i| i + 1)], false)
        }
    };
    let not_utf8 = || {
        CsvError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    };
    if text.is_empty() {
        return Err(not_utf8());
    }

    let mut cells = Cells::new(text);
    let (first, mut ends_line) = cells.next().unwrap_or_default();
    let first = trim(first);
    if !first.eq_ignore_ascii_case("timestamp") {
        return Err(CsvError::Parse {
            line: 1,
            message: format!("first column must be 'timestamp', got '{first}'"),
        });
    }
    let mut names = Vec::new();
    while !ends_line {
        let Some((cell, end)) = cells.next() else { break };
        names.push(trim(cell).to_string());
        ends_line = end;
    }
    if names.is_empty() {
        return Err(CsvError::Parse { line: 1, message: "no signal columns".into() });
    }
    if let Some((j, reason)) = name_fault(&names) {
        return Err(CsvError::Parse {
            line: 1,
            message: format!("signal name '{}' in column {} {reason}", names[j], j + 2),
        });
    }

    let rows = max_rows(&text[cells.start..], names.len());
    let mut timestamps: Vec<i64> = Vec::with_capacity(rows);
    let mut columns: Vec<Vec<f64>> = names.iter().map(|_| Vec::with_capacity(rows)).collect();
    let mut line = 1;
    while let Some((first, mut ends_line)) = cells.next() {
        line += 1;
        let first = trim(first);
        if ends_line && first.is_empty() {
            continue;
        }
        let ts: i64 = first
            .parse()
            .map_err(|e| CsvError::Parse { line, message: format!("bad timestamp: {e}") })?;
        let mut got = 0;
        while !ends_line {
            let Some((cell, end)) = cells.next() else { break };
            let cell = trim(cell);
            let v: f64 = cell.parse().map_err(|e| CsvError::Parse {
                line,
                message: format!("bad value '{cell}': {e}"),
            })?;
            if let Some(column) = columns.get_mut(got) {
                column.push(v);
            }
            got += 1;
            ends_line = end;
        }
        if got != names.len() {
            return Err(CsvError::Parse {
                line,
                message: format!("expected {} values, got {got}", names.len()),
            });
        }
        if let Some(&last) = timestamps.last() {
            if ts < last {
                return Err(CsvError::Parse {
                    line,
                    message: format!("timestamps must be non-decreasing ({ts} after {last})"),
                });
            }
        }
        timestamps.push(ts);
    }
    if !valid_to_end {
        return Err(not_utf8());
    }
    Ok(Frame::from_columns(names, timestamps, columns))
}

/// `str::trim`, without its Unicode scan when both ends are visible ASCII
/// (as every cell `write_csv` writes is).
fn trim(cell: &str) -> &str {
    match (cell.as_bytes().first(), cell.as_bytes().last()) {
        (Some(a), Some(b)) if a.is_ascii_graphic() && b.is_ascii_graphic() => cell,
        _ => cell.trim(),
    }
}

/// An upper bound on the rows `body` holds for `width` signals, exact for
/// a file without blank lines: each line is at most one row, and a row
/// takes at least one byte per cell and a comma between each two (so a
/// wide header over many blank lines reserves little).
fn max_rows(body: &str, width: usize) -> usize {
    let lines = count_newlines(body.as_bytes()) + usize::from(!body.ends_with('\n'));
    lines.min(body.len() / (2 * width + 1))
}

/// The number of `\n` in `bytes`, counted 255 bytes at a time in a byte
/// (a loop the compiler vectorises).
fn count_newlines(bytes: &[u8]) -> usize {
    let in_chunk = |c: &[u8]| c.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    bytes.chunks(255).map(|c| usize::from(in_chunk(c))).sum()
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH: u64 = 0x8080_8080_8080_8080;
const ONES: u64 = 0x0101_0101_0101_0101;

/// The high bit of every byte of `word` that equals `byte`. Exact: no
/// carry crosses a byte, as `(x & LOW7) + LOW7` stays below 0x100 per byte.
fn bytes_equal(word: u64, byte: u8) -> u64 {
    let x = word ^ (ONES * u64::from(byte));
    !(((x & LOW7) + LOW7) | x) & HIGH
}

/// The cells of a text in order, each with whether it ends its line. The
/// text is cut at every `,` and `\n`; a cut after the last `\n` ends the
/// last line, and a `,` is always followed by a cell, if only an empty one.
struct Cells<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Start of the next cell.
    start: usize,
    /// Whether the last cut was a `,`.
    open: bool,
    /// Offset of the next word to scan; the masks come from the one before.
    next_word: usize,
    /// Cuts of that word not yet taken, one high bit per byte.
    cuts: u64,
    /// The `\n` cuts of that word.
    newlines: u64,
}

impl<'a> Cells<'a> {
    fn new(text: &'a str) -> Self {
        let bytes = text.as_bytes();
        Cells { text, bytes, start: 0, open: false, next_word: 0, cuts: 0, newlines: 0 }
    }
}

impl<'a> Iterator for Cells<'a> {
    type Item = (&'a str, bool);

    // `parse` calls this from two loops; inlined into both, the cutter's
    // state stays in registers.
    #[inline(always)]
    fn next(&mut self) -> Option<(&'a str, bool)> {
        while self.cuts == 0 {
            let at = self.next_word;
            let word = match self.bytes.get(at..at + 8) {
                Some(w) => u64::from_le_bytes(<[u8; 8]>::try_from(w).unwrap_or_default()),
                // The last, short word, zero-padded (a zero byte is no cut).
                None => {
                    let rest = self.bytes.get(at..).unwrap_or_default();
                    if rest.is_empty() {
                        // No cut left: what follows the last one is the
                        // last cell.
                        let len = self.bytes.len();
                        if self.start == len && !self.open {
                            return None;
                        }
                        let cell = &self.text[self.start..];
                        (self.start, self.open) = (len, false);
                        return Some((cell, true));
                    }
                    rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b))
                }
            };
            self.newlines = bytes_equal(word, b'\n');
            self.cuts = self.newlines | bytes_equal(word, b',');
            self.next_word = at + 8;
        }
        let bit = self.cuts & self.cuts.wrapping_neg();
        self.cuts ^= bit;
        let end = self.next_word - 8 + (bit.trailing_zeros() / 8) as usize;
        let ends_line = self.newlines & bit != 0;
        let cell = &self.text[self.start..end];
        (self.start, self.open) = (end + 1, !ends_line);
        Some((cell, ends_line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Frame {
        let mut f = Frame::new(&["rpm", "speed"]);
        f.push_row(100, &[1500.0, 42.5]);
        f.push_row(160, &[1800.25, 50.0]);
        f.push_row(220, &[900.0, 0.0]);
        f
    }

    fn parse_error(text: &str) -> (usize, String) {
        match read_csv(text.as_bytes()) {
            Err(CsvError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_preserves_frame() {
        let f = sample_frame();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let g = read_csv(buf.as_slice()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn header_and_format() {
        let mut buf = Vec::new();
        write_csv(&sample_frame(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("timestamp,rpm,speed\n"));
        assert!(text.contains("100,1500,42.5"));
    }

    #[test]
    fn rejects_missing_timestamp_header() {
        let err = read_csv("time,rpm\n1,2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = read_csv("timestamp,a,b\n10,1.0\n".as_bytes()).unwrap_err();
        match err {
            CsvError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("expected 2"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_unordered_timestamps() {
        let err = read_csv("timestamp,a\n10,1.0\n5,2.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn rejects_garbage_values() {
        let err = read_csv("timestamp,a\n10,hello\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad value"));
    }

    #[test]
    fn skips_blank_lines_and_accepts_nan() {
        let f = read_csv("timestamp,a\n10,1.0\n\n20,NaN\n".as_bytes()).unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.column(0)[1].is_nan());
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn cells_are_cut_across_words_and_at_the_end() {
        // Cells that straddle 8-byte words, CRLF, no final newline, and a
        // trailing comma at the very end (an input the equivalence
        // property test reaches only rarely).
        let f = read_csv("timestamp , a,b\r\n1,  0.25 ,123456789.5\r\n\r\n 2,-0,inf".as_bytes());
        let f = f.unwrap();
        assert_eq!(f.names(), ["a", "b"]);
        assert_eq!(f.timestamps(), &[1, 2]);
        assert_eq!(f.column(0)[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(f.column(1), &[123456789.5, f64::INFINITY]);
        assert_eq!(
            parse_error("timestamp,a\n1,2,"),
            (2, "bad value '': cannot parse float from empty string".into())
        );
    }

    #[test]
    fn wide_header_over_blank_lines_reserves_little() {
        let width = 50_000;
        let names: Vec<String> = (0..width).map(|j| format!("s{j}")).collect();
        let blank = "\n".repeat(1_000_000);
        // 1,000,000 bytes hold at most 9 rows of 100,001 bytes.
        assert_eq!(max_rows(&blank, width), 9);
        let f = read_csv(format!("timestamp,{}\n{blank}", names.join(",")).as_bytes()).unwrap();
        assert_eq!((f.width(), f.len()), (width, 0));
        // On written frames the bound is the row count, final newline or not.
        let mut buf = Vec::new();
        write_csv(&sample_frame(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (_, body) = text.split_once('\n').unwrap();
        assert_eq!(max_rows(body, 2), 3);
        assert_eq!(max_rows(body.trim_end(), 2), 3);
        assert_eq!(max_rows("1,2,3", 2), 1);
        assert_eq!(max_rows("1,2", 2), 0);
    }

    #[test]
    fn refuses_empty_and_duplicate_signal_names_at_line_1() {
        assert_eq!(
            parse_error("timestamp,a,,b\n1,1,2,3\n"),
            (1, "signal name '' in column 3 is empty".into())
        );
        assert_eq!(
            parse_error("timestamp,a,b, a\n1,1,2,3\n"),
            (1, "signal name 'a' in column 4 is a duplicate".into())
        );
        assert_eq!(
            parse_error("timestamp,a,\n1,1,2\n"),
            (1, "signal name '' in column 3 is empty".into())
        );
    }

    #[test]
    fn write_refuses_names_that_read_back_differently() {
        for (name, reason) in [
            ("a,b", "contains ',', '\\n' or '\\r'"),
            ("a\nb", "contains ',', '\\n' or '\\r'"),
            ("a\r", "contains ',', '\\n' or '\\r'"),
            (" a", "has surrounding whitespace"),
            ("a\t", "has surrounding whitespace"),
            ("", "is empty"),
        ] {
            let mut f = Frame::new(&["ok", name]);
            f.push_row(0, &[1.0, 2.0]);
            let mut buf = Vec::new();
            match write_csv(&f, &mut buf) {
                Err(CsvError::Name { name: n, reason: r }) => {
                    assert_eq!((n.as_str(), r), (name, reason));
                }
                other => panic!("{name:?}: unexpected {other:?}"),
            }
            assert!(buf.is_empty(), "nothing is written for a refused schema");
        }
        let dup = Frame::new(&["a", "b", "a"]);
        let err = write_csv(&dup, Vec::new()).unwrap_err();
        assert_eq!(err.to_string(), "csv signal name \"a\" is a duplicate");
    }
}
