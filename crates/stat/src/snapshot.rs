//! Framed-binary snapshot codec and the `Snapshot`/`Restore` traits.
//!
//! Every piece of per-vehicle mutable state in the workspace — incremental
//! transform accumulators, window cadences, reference profiles, tuned
//! thresholds, detector streaming state, reorder buffers — serialises
//! through this module so a serving process can checkpoint at an arbitrary
//! record, restart, and resume with **byte-identical** alarms.
//!
//! Design rules:
//!
//! * Little-endian fixed-width integers; `f64` travels as raw IEEE-754 bits
//!   via [`f64::to_bits`], so restore reproduces the exact value including
//!   negative zero, subnormals and NaN payloads. Byte-identical alarms are
//!   only possible because nothing is ever re-derived through a different
//!   floating-point path.
//! * Every read is bounds-checked and returns `Result` — a truncated or
//!   corrupted snapshot yields [`SnapError`], never a panic (the workspace
//!   L11 panic-freedom lint covers this crate).
//! * Sequences are length-prefixed (`u64`); readers validate the prefix
//!   against the remaining buffer before allocating, so a corrupt length
//!   cannot trigger a pathological allocation.
//! * Types restore **in place**: construct from config first, then
//!   [`Restore::read_state`] overwrites the mutable state, validating
//!   structural invariants against the already-configured shape and
//!   returning [`SnapError::Corrupt`] on mismatch.

use std::error::Error;
use std::fmt;

/// Errors surfaced while decoding a snapshot. Decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value could be read (truncated file).
    UnexpectedEof,
    /// The leading magic string did not match the expected format tag.
    BadMagic,
    /// The format version is one this build does not understand.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// Structurally invalid data: bad tag, impossible length, or state
    /// that contradicts the configuration it is being restored into.
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of input"),
            SnapError::BadMagic => write!(f, "snapshot magic mismatch: not a navarchos snapshot"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot version mismatch: found v{found}, this build supports v{expected}"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl Error for SnapError {}

/// Append-only writer producing the framed-binary snapshot encoding.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64` (lossless on every supported target).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its raw IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write `Option<i64>` as a presence byte plus the value.
    pub fn put_opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_i64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Write `Option<f64>` as a presence byte plus the raw bits.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed sequence of `f64` bit patterns from any
    /// iterator (slices, `VecDeque` halves, etc.).
    pub fn put_f64_seq<I>(&mut self, len: usize, it: I)
    where
        I: IntoIterator<Item = f64>,
    {
        self.put_usize(len);
        let mut written = 0usize;
        for v in it {
            self.put_f64(v);
            written += 1;
        }
        debug_assert_eq!(written, len, "put_f64_seq length prefix mismatch");
    }

    /// Write a length-prefixed slice of `f64`.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_f64_seq(vs.len(), vs.iter().copied());
    }

    /// Write a nested frame: the body produced by `f`, length-prefixed.
    /// Readers can skip or bound nested state without understanding it.
    ///
    /// The body is written in place: a zero `u64` prefix is reserved, `f`
    /// appends the body after it, and the prefix is then patched with the
    /// body's length. The bytes equal [`SnapWriter::put_bytes`] of a body
    /// built on its own, without copying it once per nesting level. `f`
    /// writes into the enclosing buffer, which is why the writer exposes
    /// no length for it to read.
    pub fn put_frame(&mut self, f: impl FnOnce(&mut SnapWriter)) {
        let at = self.buf.len();
        self.put_u64(0);
        f(self);
        let body = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&body.to_le_bytes());
    }
}

/// The CRC-32 polynomial of IEEE 802.3, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Bytes [`crc32`] folds per step.
const CRC32_SLICES: usize = 16;

/// Slicing-by-16 tables, built by `const` evaluation. `CRC32_TABLES[0][b]`
/// is the CRC register after shifting byte `b` through it alone, and
/// `CRC32_TABLES[k][b]` the same byte followed by `k` zero bytes, so one
/// lookup per byte position folds a whole 16-byte block.
static CRC32_TABLES: [[u32; 256]; CRC32_SLICES] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; CRC32_SLICES] {
    let mut t = [[0u32; 256]; CRC32_SLICES];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC32_SLICES {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of IEEE 802.3 (reflected polynomial `0xEDB8_8320`, initial
/// value and final XOR `0xFFFF_FFFF`): the integrity trailer of every
/// checkpoint. `crc32(b"123456789") == 0xCBF4_3926`.
///
/// Table-driven slicing-by-16: each step folds 16 input bytes through 16
/// lookups into 16 KiB of compile-time tables, and the tail goes one
/// byte at a time through the first table. Over a 7.36 MB buffer (the
/// serve-dirty benchmark's midpoint checkpoint) on a 2-vCPU x86-64 host,
/// best of 20 runs: 1.6–1.7 GB/s, against 1.24–1.28 GB/s for
/// slicing-by-8 and 0.15 GB/s for the bitwise loop this replaced, which
/// spent about 50 ms of every write and every restore of that checkpoint.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(CRC32_SLICES);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][usize::from(lo as u8)]
            ^ t[14][usize::from((lo >> 8) as u8)]
            ^ t[13][usize::from((lo >> 16) as u8)]
            ^ t[12][usize::from((lo >> 24) as u8)]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// Bounds-checked reader over a snapshot byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader over the full slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte out of range")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a `usize`; values beyond the platform width are corrupt.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an `Option<i64>` written by [`SnapWriter::put_opt_i64`].
    pub fn get_opt_i64(&mut self) -> Result<Option<i64>, SnapError> {
        if self.get_bool()? {
            Ok(Some(self.get_i64()?))
        } else {
            Ok(None)
        }
    }

    /// Read an `Option<f64>` written by [`SnapWriter::put_opt_f64`].
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapError> {
        if self.get_bool()? {
            Ok(Some(self.get_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Read a sequence length and validate it against the bytes actually
    /// remaining (each element occupying at least `elem_size` bytes), so a
    /// corrupt prefix cannot drive a huge allocation.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        if elem_size > 0 && n > self.remaining() / elem_size {
            return Err(SnapError::Corrupt("sequence length exceeds buffer"));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let n = self.get_len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("invalid utf-8 string"))
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed `f64` sequence into a `Vec`.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, SnapError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Enter a nested frame written by [`SnapWriter::put_frame`]: returns a
    /// reader restricted to the frame body and advances past it.
    pub fn get_frame(&mut self) -> Result<SnapReader<'a>, SnapError> {
        Ok(SnapReader::new(self.get_bytes()?))
    }

    /// Require that the frame/buffer was consumed exactly — trailing bytes
    /// mean the writer and reader disagree about the format.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_at_end() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after state"))
        }
    }
}

/// Serialise this value's mutable state into a snapshot writer.
///
/// Implementations write *state*, not configuration: the restoring side
/// reconstructs the value from its own configuration first and then calls
/// [`Restore::read_state`], which validates that the snapshot matches the
/// configured shape.
pub trait Snapshot {
    /// Append this value's mutable state to `w`.
    fn write_state(&self, w: &mut SnapWriter);

    /// Convenience: encode the state into a fresh byte vector.
    fn state_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.write_state(&mut w);
        w.into_bytes()
    }
}

/// Overwrite this value's mutable state from a snapshot reader.
pub trait Restore {
    /// Replace mutable state with the snapshot's. On error the value may be
    /// partially overwritten and must be discarded, but the call never
    /// panics.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_usize(123);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_opt_i64(Some(-1));
        w.put_opt_i64(None);
        w.put_opt_f64(Some(2.5));
        w.put_str("navarchos");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 123);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_opt_i64().unwrap(), Some(-1));
        assert_eq!(r.get_opt_i64().unwrap(), None);
        assert_eq!(r.get_opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.get_str().unwrap(), "navarchos");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(r.get_f64_vec().is_err(), "cut at {cut} should error");
        }
        let mut ok = SnapReader::new(&bytes);
        assert_eq!(ok.get_f64_vec().unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.get_f64_vec(),
            Err(SnapError::Corrupt(_)) | Err(SnapError::UnexpectedEof)
        ));
    }

    #[test]
    fn frames_nest_and_bound() {
        let mut w = SnapWriter::new();
        w.put_frame(|inner| {
            inner.put_u32(1);
            inner.put_str("lane");
        });
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut inner = r.get_frame().unwrap();
        assert_eq!(inner.get_u32().unwrap(), 1);
        assert_eq!(inner.get_str().unwrap(), "lane");
        inner.finish().unwrap();
        assert_eq!(r.get_u32().unwrap(), 2);
        r.finish().unwrap();
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let bytes = [9u8];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_bool(), Err(SnapError::Corrupt("bool byte out of range")));
    }
}
