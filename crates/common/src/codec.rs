//! Compact binary wire format for traces and reports.
//!
//! The paper measures report sizes per request (Fig. 8); to make those
//! measurements meaningful we serialize traces and reports with a small
//! hand-rolled codec rather than a textual format. Integers use LEB128
//! varints, signed integers are zigzag-encoded, and byte strings are
//! length-prefixed. The format is self-contained: no external
//! serialization crates are involved.

use std::fmt;

/// Error produced while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A varint ran longer than the maximum encodable width.
    VarintOverflow,
    /// The bytes decoded successfully but violate an invariant of the type.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of wire buffer"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::Malformed(what) => write!(f, "malformed wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets what was written but keeps the buffer, so one encoder
    /// can serve a run of values.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Writes an unsigned integer as a LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a signed integer with zigzag encoding.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes an `f64` as its raw little-endian bits.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a single byte.
    pub fn byte(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Offset of the next undecoded byte from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns true once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof)?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            result |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Reads a zigzag-encoded signed integer.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a raw little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// Reads a single byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a one-byte bool, rejecting values other than 0 and 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte not 0/1")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        self.bytes_ref().map(<[u8]>::to_vec)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        self.str_ref().map(str::to_owned)
    }

    /// [`Decoder::bytes`] without the copy: the byte string as a slice
    /// of the underlying buffer.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if (self.remaining() as u64) < len {
            return Err(WireError::UnexpectedEof);
        }
        let (start, end) = (self.pos, self.pos + len as usize);
        self.pos = end;
        Ok(&self.buf[start..end])
    }

    /// [`Decoder::str`] without the copy: the UTF-8-checked string as a
    /// slice of the underlying buffer.
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes_ref()?).map_err(|_| WireError::Malformed("invalid utf-8"))
    }
}

/// Most bytes a decoder reserves for a collection before its elements
/// arrive. A length prefix is only a claim: a forged one can name as
/// many elements as the buffer has bytes, and each element may take
/// many times its wire size in memory. Past this a collection grows as
/// it decodes.
pub const MAX_PREALLOC_BYTES: usize = 64 << 10;

/// The capacity to reserve for a collection of `T` whose wire length
/// prefix claims `len` elements: the claim, capped at
/// [`MAX_PREALLOC_BYTES`] worth of elements.
pub fn prealloc<T>(len: usize) -> usize {
    len.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

/// Types that know how to serialize themselves on the wire.
///
/// # Examples
///
/// ```
/// use orochi_common::codec::{Decoder, Encoder, Wire};
/// use orochi_common::ids::RequestId;
///
/// let mut enc = Encoder::new();
/// RequestId(42).encode(&mut enc);
/// let bytes = enc.into_bytes();
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(RequestId::decode(&mut dec).unwrap(), RequestId(42));
/// ```
pub trait Wire: Sized {
    /// Appends this value to `enc`.
    fn encode(&self, enc: &mut Encoder);
    /// Reads a value of this type from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Convenience: decodes from a byte slice, requiring full consumption.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        if !dec.is_done() {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(v)
    }
}

impl Wire for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.u64()
    }
}

impl Wire for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.i64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.i64()
    }
}

impl Wire for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.str()
    }
}

impl Wire for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.bool()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = dec.u64()? as usize;
        // Guard against hostile length prefixes: each element consumes at
        // least one byte, so `len` can never exceed the remaining buffer.
        if len > dec.remaining() {
            return Err(WireError::Malformed("vector length exceeds buffer"));
        }
        let mut out = Vec::with_capacity(prealloc::<T>(len));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.bool(false),
            Some(v) => {
                enc.bool(true);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        if dec.bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.u64(v);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.u64().unwrap(), v);
            assert!(dec.is_done());
        }
    }

    #[test]
    fn zigzag_roundtrip_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            let mut enc = Encoder::new();
            enc.i64(v);
            let bytes = enc.into_bytes();
            assert_eq!(Decoder::new(&bytes).i64().unwrap(), v);
        }
    }

    #[test]
    fn float_roundtrip_preserves_bits() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let mut enc = Encoder::new();
            enc.f64(v);
            let bytes = enc.into_bytes();
            assert_eq!(Decoder::new(&bytes).f64().unwrap().to_bits(), v.to_bits());
        }
        // NaN keeps its payload.
        let mut enc = Encoder::new();
        enc.f64(f64::NAN);
        let bytes = enc.into_bytes();
        assert!(Decoder::new(&bytes).f64().unwrap().is_nan());
    }

    #[test]
    fn string_roundtrip() {
        let mut enc = Encoder::new();
        enc.str("héllo wörld");
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).str().unwrap(), "héllo wörld");
    }

    #[test]
    fn borrowed_reads_match_owned_reads() {
        let mut enc = Encoder::new();
        enc.str("héllo");
        enc.bytes(&[0xff, 0x00]);
        enc.bytes(&[0xff]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.str_ref().unwrap(), "héllo");
        assert_eq!(dec.bytes_ref().unwrap(), &[0xff, 0x00]);
        assert_eq!(
            dec.str_ref().unwrap_err(),
            WireError::Malformed("invalid utf-8")
        );
        assert!(dec.is_done());
        assert_eq!(dec.bytes_ref().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn truncated_buffer_is_eof() {
        let mut enc = Encoder::new();
        enc.str("abcdef");
        let mut bytes = enc.into_bytes();
        bytes.truncate(3);
        assert_eq!(
            Decoder::new(&bytes).str().unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn varint_overflow_detected() {
        let bytes = [0xffu8; 11];
        assert_eq!(
            Decoder::new(&bytes).u64().unwrap_err(),
            WireError::VarintOverflow
        );
    }

    #[test]
    fn hostile_vec_length_rejected() {
        // Length prefix claims 2^40 elements in a 3-byte buffer.
        let mut enc = Encoder::new();
        enc.u64(1 << 40);
        let bytes = enc.into_bytes();
        assert!(matches!(
            <Vec<u64> as Wire>::from_wire_bytes(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn option_and_tuple_roundtrip() {
        let v: Option<(u64, String)> = Some((9, "x".to_string()));
        let bytes = v.to_wire_bytes();
        assert_eq!(
            <Option<(u64, String)> as Wire>::from_wire_bytes(&bytes).unwrap(),
            v
        );
        let n: Option<(u64, String)> = None;
        let bytes = n.to_wire_bytes();
        assert_eq!(
            <Option<(u64, String)> as Wire>::from_wire_bytes(&bytes).unwrap(),
            n
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u64.to_wire_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_wire_bytes(&bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
