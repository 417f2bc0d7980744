//! A compact, protobuf-like wire format.
//!
//! §2 of the paper: reporting protocols are "built with Google Protocol
//! Buffers to minimize reporting overhead"; a typical AP averages ~1 kbit/s
//! to the backend. We implement the same encoding ideas from scratch:
//!
//! * **varints** — 7 bits per byte, little-endian groups, MSB continuation;
//! * **tagged fields** — `(field_number << 3) | wire_type`, allowing
//!   decoders to skip unknown fields (forward compatibility, which §2 calls
//!   out: the backend survives schema changes without losing data);
//! * **length-delimited** — nested messages, strings and byte blobs.
//!
//! The codec is allocation-light (encoding appends to a caller-provided
//! `Vec<u8>`) and decoding is zero-copy for bytes/strings.

use std::fmt;

/// Wire types, mirroring protobuf's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Varint-encoded integer.
    Varint = 0,
    /// Length-delimited bytes (nested messages, strings).
    LengthDelimited = 2,
    /// Fixed 8-byte little-endian value (doubles).
    Fixed64 = 1,
}

impl WireType {
    fn from_bits(bits: u64) -> Option<WireType> {
        match bits {
            0 => Some(WireType::Varint),
            1 => Some(WireType::Fixed64),
            2 => Some(WireType::LengthDelimited),
            _ => None,
        }
    }
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A varint exceeded 10 bytes (would overflow u64).
    VarintOverflow,
    /// A tag used a wire type this codec does not define.
    InvalidWireType(u64),
    /// A length prefix pointed past the end of the buffer.
    BadLength(usize),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A required field was missing or held an out-of-range value.
    Schema(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of input"),
            WireError::VarintOverflow => f.write_str("varint longer than 10 bytes"),
            WireError::InvalidWireType(t) => write!(f, "invalid wire type {t}"),
            WireError::BadLength(n) => write!(f, "length {n} exceeds remaining input"),
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::Schema(what) => write!(f, "schema violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends a varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a tagged varint field.
pub(crate) fn put_field_u64(out: &mut Vec<u8>, field: u32, v: u64) {
    put_varint(out, (u64::from(field) << 3) | WireType::Varint as u64);
    put_varint(out, v);
}

/// Appends a tagged double field (fixed64, little endian).
pub(crate) fn put_field_f64(out: &mut Vec<u8>, field: u32, v: f64) {
    put_varint(out, (u64::from(field) << 3) | WireType::Fixed64 as u64);
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a tagged length-delimited bytes field.
pub(crate) fn put_field_bytes(out: &mut Vec<u8>, field: u32, bytes: &[u8]) {
    put_varint(
        out,
        (u64::from(field) << 3) | WireType::LengthDelimited as u64,
    );
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a tagged string field.
pub fn put_field_str(out: &mut Vec<u8>, field: u32, s: &str) {
    put_field_bytes(out, field, s.as_bytes());
}

/// Appends a tagged length-delimited nested message through a caller
/// scratch buffer: `fill` encodes the message body into the cleared
/// `scratch`, which is then framed into `out` as a bytes field.
///
/// Hot encode loops call this with one long-lived scratch instead of
/// allocating a fresh `Vec` per record — the bytes produced are
/// identical either way.
pub(crate) fn put_field_msg(
    out: &mut Vec<u8>,
    field: u32,
    scratch: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    scratch.clear();
    fill(scratch);
    put_field_bytes(out, field, scratch);
}

/// A cursor over encoded bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// One decoded field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// A varint field.
    Varint {
        /// Field number.
        field: u32,
        /// Raw unsigned value.
        value: u64,
    },
    /// A fixed64/double field.
    Fixed64 {
        /// Field number.
        field: u32,
        /// Decoded double.
        value: f64,
    },
    /// A length-delimited field.
    Bytes {
        /// Field number.
        field: u32,
        /// Borrowed payload.
        value: &'a [u8],
    },
}

impl<'a> Field<'a> {
    /// The field number.
    pub(crate) fn number(&self) -> u32 {
        match self {
            Field::Varint { field, .. }
            | Field::Fixed64 { field, .. }
            | Field::Bytes { field, .. } => *field,
        }
    }

    /// Unsigned integer value, if this is a varint field.
    pub(crate) fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            Field::Varint { value, .. } => Ok(*value),
            _ => Err(WireError::Schema("expected varint field")),
        }
    }

    /// Double value, if this is a fixed64 field.
    pub(crate) fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            Field::Fixed64 { value, .. } => Ok(*value),
            _ => Err(WireError::Schema("expected fixed64 field")),
        }
    }

    /// Byte payload, if length-delimited.
    pub(crate) fn as_bytes(&self) -> Result<&'a [u8], WireError> {
        match self {
            Field::Bytes { value, .. } => Ok(value),
            _ => Err(WireError::Schema("expected length-delimited field")),
        }
    }

    /// UTF-8 string payload, if length-delimited.
    pub(crate) fn as_str(&self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.as_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<'a> Reader<'a> {
    /// Creates a reader over a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// True when all input is consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a raw varint.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        for i in 0..10 {
            let byte = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof)?;
            self.pos += 1;
            // The 10th byte may only contribute one bit.
            if i == 9 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Reads the next tagged field, or `None` at end of input.
    pub(crate) fn next_field(&mut self) -> Result<Option<Field<'a>>, WireError> {
        if self.is_empty() {
            return Ok(None);
        }
        let tag = self.read_varint()?;
        let field = (tag >> 3) as u32;
        let wt = WireType::from_bits(tag & 0x7).ok_or(WireError::InvalidWireType(tag & 0x7))?;
        match wt {
            WireType::Varint => {
                let value = self.read_varint()?;
                Ok(Some(Field::Varint { field, value }))
            }
            WireType::Fixed64 => {
                if self.remaining() < 8 {
                    return Err(WireError::UnexpectedEof);
                }
                let mut b = [0u8; 8];
                b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
                self.pos += 8;
                Ok(Some(Field::Fixed64 {
                    field,
                    value: f64::from_le_bytes(b),
                }))
            }
            WireType::LengthDelimited => {
                let len = self.read_varint()? as usize;
                if len > self.remaining() {
                    return Err(WireError::BadLength(len));
                }
                let value = &self.buf[self.pos..self.pos + len];
                self.pos += len;
                Ok(Some(Field::Bytes { field, value }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_small_values_one_byte() {
        let mut out = Vec::new();
        put_varint(&mut out, 0);
        put_varint(&mut out, 127);
        assert_eq!(out, vec![0, 127]);
    }

    #[test]
    fn varint_known_encodings() {
        let mut out = Vec::new();
        put_varint(&mut out, 300);
        assert_eq!(out, vec![0xAC, 0x02]); // protobuf's canonical example
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.read_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        let bad = [0xFFu8; 11];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn varint_truncated_detected() {
        let bad = [0x80u8];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_varint(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn tagged_fields_roundtrip() {
        let mut out = Vec::new();
        put_field_u64(&mut out, 1, 42);
        put_field_u64(&mut out, 2, 87);
        put_field_f64(&mut out, 3, -0.25);
        put_field_str(&mut out, 4, "rssi");
        put_field_bytes(&mut out, 5, &[9, 8, 7]);

        let mut r = Reader::new(&out);
        let f1 = r.next_field().unwrap().unwrap();
        assert_eq!(f1.number(), 1);
        assert_eq!(f1.as_u64().unwrap(), 42);
        let f2 = r.next_field().unwrap().unwrap();
        assert_eq!(f2.as_u64().unwrap(), 87);
        let f3 = r.next_field().unwrap().unwrap();
        assert_eq!(f3.as_f64().unwrap(), -0.25);
        let f4 = r.next_field().unwrap().unwrap();
        assert_eq!(f4.as_str().unwrap(), "rssi");
        let f5 = r.next_field().unwrap().unwrap();
        assert_eq!(f5.as_bytes().unwrap(), &[9, 8, 7]);
        assert_eq!(r.next_field().unwrap(), None);
    }

    #[test]
    fn unknown_fields_are_skippable() {
        // A decoder that only cares about field 2 can skip field 1.
        let mut out = Vec::new();
        put_field_str(&mut out, 1, "future-extension");
        put_field_u64(&mut out, 2, 7);
        let mut r = Reader::new(&out);
        let mut found = None;
        while let Some(f) = r.next_field().unwrap() {
            if f.number() == 2 {
                found = Some(f.as_u64().unwrap());
            }
        }
        assert_eq!(found, Some(7));
    }

    #[test]
    fn bad_length_prefix_rejected() {
        let mut out = Vec::new();
        put_varint(&mut out, (1 << 3) | 2); // field 1, length-delimited
        put_varint(&mut out, 1000); // claims 1000 bytes, provides none
        let mut r = Reader::new(&out);
        assert_eq!(r.next_field(), Err(WireError::BadLength(1000)));
    }

    #[test]
    fn invalid_wire_type_rejected() {
        let mut out = Vec::new();
        put_varint(&mut out, (1 << 3) | 5); // wire type 5 undefined here
        let mut r = Reader::new(&out);
        assert!(matches!(r.next_field(), Err(WireError::InvalidWireType(5))));
    }

    #[test]
    fn invalid_utf8_rejected_as_string_only() {
        let mut out = Vec::new();
        put_field_bytes(&mut out, 1, &[0xFF, 0xFE]);
        let mut r = Reader::new(&out);
        let f = r.next_field().unwrap().unwrap();
        assert!(f.as_bytes().is_ok());
        assert_eq!(f.as_str(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn type_confusion_rejected() {
        let mut out = Vec::new();
        put_field_u64(&mut out, 1, 5);
        let mut r = Reader::new(&out);
        let f = r.next_field().unwrap().unwrap();
        assert!(f.as_bytes().is_err());
        assert!(f.as_f64().is_err());
    }
}
