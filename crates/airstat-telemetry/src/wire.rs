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
    ///
    /// This and the other readers the report decoder calls per field are
    /// always inlined: a call that returns its `Result` through memory
    /// costs more than the read, and the compiler left them out of line
    /// in the record decoders (which then took half again as long).
    #[inline(always)]
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

    /// Reads the next tag as `(field number, wire type)`, or `None` at
    /// end of input; the value follows, for one of the `read_*` readers
    /// or [`Reader::pass_over`].
    #[inline(always)]
    pub(crate) fn next_tag(&mut self) -> Result<Option<(u32, WireType)>, WireError> {
        if self.is_empty() {
            return Ok(None);
        }
        let tag = self.read_varint()?;
        // A number past `u32` names no field; truncating it would alias
        // one that does.
        let field =
            u32::try_from(tag >> 3).map_err(|_| WireError::Schema("field number out of range"))?;
        let wt = WireType::from_bits(tag & 0x7).ok_or(WireError::InvalidWireType(tag & 0x7))?;
        Ok(Some((field, wt)))
    }

    /// Reads a fixed64 value's eight bytes, little-endian.
    #[inline(always)]
    pub(crate) fn read_fixed64(&mut self) -> Result<u64, WireError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(WireError::UnexpectedEof)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("invariant: the range is 8 bytes"),
        ))
    }

    /// Reads a length-delimited value.
    #[inline(always)]
    pub(crate) fn read_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_varint()? as usize;
        if len > self.remaining() {
            return Err(WireError::BadLength(len));
        }
        let value = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(value)
    }

    /// Passes over a value of wire type `found` that the decoder has no
    /// slot for, then refuses it if the field is known with wire type
    /// `expected`: a cut value is the reader's error before a mistyped
    /// one is a schema error, and an unknown field is skipped.
    #[inline(never)]
    pub(crate) fn pass_over(
        &mut self,
        found: WireType,
        expected: Option<WireType>,
    ) -> Result<(), WireError> {
        match found {
            WireType::Varint => self.read_varint().map(drop),
            WireType::Fixed64 => self.read_fixed64().map(drop),
            WireType::LengthDelimited => self.read_bytes().map(drop),
        }?;
        match expected {
            None => Ok(()),
            Some(WireType::Varint) => Err(WireError::Schema("expected varint field")),
            Some(WireType::Fixed64) => Err(WireError::Schema("expected fixed64 field")),
            Some(WireType::LengthDelimited) => {
                Err(WireError::Schema("expected length-delimited field"))
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

    /// One field's value, as a test reads it.
    #[derive(Debug, PartialEq)]
    enum Value<'a> {
        Varint(u64),
        Fixed64(f64),
        Bytes(&'a [u8]),
    }

    /// The next field whole, or `None` at end of input.
    fn next_field<'a>(r: &mut Reader<'a>) -> Result<Option<(u32, Value<'a>)>, WireError> {
        let Some((number, wire_type)) = r.next_tag()? else {
            return Ok(None);
        };
        let value = match wire_type {
            WireType::Varint => Value::Varint(r.read_varint()?),
            WireType::Fixed64 => Value::Fixed64(f64::from_bits(r.read_fixed64()?)),
            WireType::LengthDelimited => Value::Bytes(r.read_bytes()?),
        };
        Ok(Some((number, value)))
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
        let mut fields = Vec::new();
        while let Some(field) = next_field(&mut r).unwrap() {
            fields.push(field);
        }
        assert_eq!(
            fields,
            [
                (1, Value::Varint(42)),
                (2, Value::Varint(87)),
                (3, Value::Fixed64(-0.25)),
                (4, Value::Bytes(b"rssi")),
                (5, Value::Bytes(&[9, 8, 7])),
            ]
        );
    }

    #[test]
    fn unknown_fields_are_skippable() {
        // A decoder that only cares about field 2 can skip field 1.
        let mut out = Vec::new();
        put_field_str(&mut out, 1, "future-extension");
        put_field_u64(&mut out, 2, 7);
        let mut r = Reader::new(&out);
        let mut found = None;
        while let Some((number, wire_type)) = r.next_tag().unwrap() {
            if number == 2 {
                found = Some(r.read_varint().unwrap());
            } else {
                r.pass_over(wire_type, None).unwrap();
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
        assert_eq!(next_field(&mut r), Err(WireError::BadLength(1000)));
    }

    #[test]
    fn invalid_wire_type_rejected() {
        let mut out = Vec::new();
        put_varint(&mut out, (1 << 3) | 5); // wire type 5 undefined here
        let mut r = Reader::new(&out);
        assert!(matches!(r.next_tag(), Err(WireError::InvalidWireType(5))));
    }

    #[test]
    fn field_numbers_past_u32_are_rejected_not_truncated() {
        let mut out = Vec::new();
        put_varint(&mut out, ((1 << 32) | 1) << 3); // would truncate to field 1
        put_varint(&mut out, 7);
        let mut r = Reader::new(&out);
        assert_eq!(
            r.next_tag(),
            Err(WireError::Schema("field number out of range"))
        );
        let mut out = Vec::new();
        put_field_u64(&mut out, u32::MAX, 7);
        let mut r = Reader::new(&out);
        assert_eq!(next_field(&mut r), Ok(Some((u32::MAX, Value::Varint(7)))));
    }

    #[test]
    fn a_mistyped_field_is_read_whole_then_refused() {
        let mut out = Vec::new();
        put_field_u64(&mut out, 1, 5);
        put_field_str(&mut out, 2, "abc");
        let mut r = Reader::new(&out);
        let (_, wire_type) = r.next_tag().unwrap().unwrap();
        assert_eq!(
            r.pass_over(wire_type, Some(WireType::Fixed64)),
            Err(WireError::Schema("expected fixed64 field"))
        );
        let (number, wire_type) = r.next_tag().unwrap().unwrap();
        assert_eq!((number, wire_type), (2, WireType::LengthDelimited));
        assert_eq!(
            r.pass_over(wire_type, Some(WireType::Varint)),
            Err(WireError::Schema("expected varint field"))
        );
        assert!(r.is_empty());
        // A cut value is the reader's error first.
        let mut r = Reader::new(&out[..out.len() - 1]);
        r.next_tag().unwrap();
        r.read_varint().unwrap();
        let (_, wire_type) = r.next_tag().unwrap().unwrap();
        assert_eq!(
            r.pass_over(wire_type, Some(WireType::Varint)),
            Err(WireError::BadLength(3))
        );
    }
}
