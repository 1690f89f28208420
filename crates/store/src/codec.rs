//! A compact, explicit binary codec.
//!
//! Everything persisted by `isis-store` goes through this module: little-
//! endian fixed-width integers, length-prefixed strings, and CRC32-guarded
//! frames. The format is deliberately hand-rolled — a database's on-disk
//! format is part of its contract, so every byte is written by code in this
//! file rather than by a derive.

use std::fmt;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), byte-at-a-time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A length prefix or tag was out of range.
    Corrupt(String),
    /// A checksum did not match.
    ChecksumMismatch,
    /// The format version is not supported.
    BadVersion(u32),
    /// The magic bytes did not match.
    BadMagic,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte sink with typed writers.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
    /// `Some(n)` for a writer that only measures: `n` bytes so far.
    measured: Option<usize>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer appending to `buf`, so an encoding can land behind bytes
    /// its caller already wrote.
    pub fn over(buf: Vec<u8>) -> Writer {
        Writer {
            buf,
            measured: None,
        }
    }

    /// A writer that keeps nothing and only counts what is written
    /// through it, so an encoding can be sized before it is written.
    pub(crate) fn measuring() -> Writer {
        Writer {
            buf: Vec::new(),
            measured: Some(0),
        }
    }

    /// How many bytes have been written (or, measuring, counted).
    pub(crate) fn written(&self) -> usize {
        self.measured.unwrap_or(self.buf.len())
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.measured {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (borrowed; empty for a measuring writer).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes an f64 by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }

    /// Writes raw bytes with a length prefix.
    pub fn bytes_field(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.put(b);
    }

    /// Writes an `Option<T>` via a presence byte.
    pub fn option<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Writer, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Writes a sequence with a u32 count prefix.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Writer, &T)) {
        self.u32(items.len() as u32);
        for it in items {
            f(self, it);
        }
    }
}

/// A cursor over bytes with typed readers.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads an f64 by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting bytes other than 0/1.
    pub fn boolean(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8".into()))
    }

    /// Reads a length-prefixed byte field.
    pub fn bytes_field(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        self.take(n)
    }

    /// Reads an `Option<T>`.
    pub fn option<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(CodecError::Corrupt(format!("option byte {b}"))),
        }
    }

    /// Reads a u32-count-prefixed sequence.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.u32()? as usize;
        // Guard against hostile counts: each element takes ≥ 1 byte.
        if n > self.remaining() {
            return Err(CodecError::Corrupt(format!("sequence count {n} too large")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Bytes of a frame header: `[len u32][crc u32]`.
pub const FRAME_HEADER: usize = 8;

/// Wraps a payload in a checksummed frame: `[len u32][crc u32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER);
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Fills in the header of the frame `buf` holds: its first
/// [`FRAME_HEADER`] bytes are overwritten with the length and checksum of
/// the payload that follows them. [`frame`] without copying the payload.
pub fn seal_frame(buf: &mut [u8]) {
    let (header, payload) = buf.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads one frame from the front of `buf`, returning `(payload,
/// bytes_consumed)`. A torn or corrupt frame yields an error; callers
/// replaying logs treat that as end-of-log.
pub fn read_frame(buf: &[u8]) -> Result<(&[u8], usize), CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::UnexpectedEof);
    }
    let mut len4 = [0u8; 4];
    let mut crc4 = [0u8; 4];
    len4.copy_from_slice(&buf[0..4]);
    crc4.copy_from_slice(&buf[4..8]);
    let len = u32::from_le_bytes(len4) as usize;
    let crc = u32::from_le_bytes(crc4);
    if buf.len() < 8 + len {
        return Err(CodecError::UnexpectedEof);
    }
    let payload = &buf[8..8 + len];
    if crc32(payload) != crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok((payload, 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitive_roundtrips() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(2.5);
        w.boolean(true);
        w.string("héllo");
        w.bytes_field(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert!(r.boolean().unwrap());
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.bytes_field().unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn options_and_seqs() {
        let mut w = Writer::new();
        w.option(&Some(9u32), |w, v| w.u32(*v));
        w.option(&None::<u32>, |w, v| w.u32(*v));
        w.seq(&[1u32, 2, 3], |w, v| w.u32(*v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.option(|r| r.u32()).unwrap(), Some(9));
        assert_eq!(r.option(|r| r.u32()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u32()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn truncated_input_errors_not_panics() {
        let mut w = Writer::new();
        w.string("hello world");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.string().is_err());
        }
    }

    #[test]
    fn bad_bytes_rejected() {
        let mut r = Reader::new(&[2]);
        assert_eq!(
            r.boolean().unwrap_err(),
            CodecError::Corrupt("bool byte 2".into())
        );
        let mut r = Reader::new(&[5, 0, 0, 0]);
        assert!(r.option(|r| r.u8()).is_err());
        // Hostile sequence count.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.seq(|r| r.u8()).is_err());
        // Invalid UTF-8.
        let mut w = Writer::new();
        w.bytes_field(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.string().is_err());
    }

    #[test]
    fn frames_roundtrip_and_detect_corruption() {
        let payload = b"the payload";
        let framed = frame(payload);
        let (got, consumed) = read_frame(&framed).unwrap();
        assert_eq!(got, payload);
        assert_eq!(consumed, framed.len());
        // Torn tail.
        assert_eq!(
            read_frame(&framed[..framed.len() - 1]).unwrap_err(),
            CodecError::UnexpectedEof
        );
        // Flipped bit.
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(read_frame(&bad).unwrap_err(), CodecError::ChecksumMismatch);
    }
}
