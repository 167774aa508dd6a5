//! Compact binary wire format for traces and reports.
//!
//! The paper measures report sizes per request (Fig. 8); to make those
//! measurements meaningful we serialize traces and reports with a small
//! hand-rolled codec rather than a textual format. Integers use LEB128
//! varints, signed integers are zigzag-encoded, and byte strings are
//! length-prefixed. The format is self-contained: no external
//! serialization crates are involved.
//!
//! A value that repeats — the reports' SELECT texts and logged values —
//! can instead be written as a *shared* operand through a first-use
//! dictionary ([`Encoder::shared_str`], [`Decoder::shared_str`] and
//! their byte-string twins). Varint 0 means "a literal follows", and the
//! literal becomes the next entry of its table; any `k >= 1` names entry
//! `k - 1`. The encoder interns by content, so equal values give equal
//! bytes whatever handles they arrive in, and finds a handle it meets
//! again by its address ([`HandleMap`], which a reader of the decoded
//! handles can use the same way); the decoder turns each entry into one
//! shared handle that every reference clones, and rejects a table that
//! repeats a content. Texts and byte strings have one table
//! each. The tables are made on first use, so a codec that shares
//! nothing pays nothing for them.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

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
    /// The shared operands written so far, made on first use.
    dict: Option<Box<EncoderDict>>,
}

/// The encoder's half of the first-use dictionary, one table per kind:
/// each distinct content written so far -> its table position.
#[derive(Debug, Default)]
struct EncoderDict {
    strs: HandleMap<str, u64>,
    bytes: HandleMap<[u8], u64>,
}

/// A map keyed by the content of shared handles that finds a handle it
/// has met before by its address, so a handle referenced any number of
/// times costs at most two hashes of its content.
///
/// The first handle met with each content is kept as that content's
/// key; once it is met again it also goes into an address map. The key
/// holds the handle, so its address cannot be freed and reused by
/// another content while the map lives. Any other handle with an equal
/// content is found by hashing its content, and is neither kept nor
/// added to the address map.
#[derive(Debug)]
pub struct HandleMap<T: ?Sized, V> {
    /// Content -> value; the key is the first handle met with the
    /// content.
    entries: HashMap<Arc<T>, V>,
    /// A key of `entries` that was met again, by address -> its value.
    handles: HashMap<usize, V>,
}

impl<T: ?Sized, V> Default for HandleMap<T, V> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            handles: HashMap::new(),
        }
    }
}

impl<T: ?Sized + Eq + Hash, V: Copy> HandleMap<T, V> {
    /// The value of `key`'s content, made by `make` (and `key` kept) if
    /// the content is new.
    pub fn get_or_insert_with(&mut self, key: &Arc<T>, make: impl FnOnce() -> V) -> V {
        let addr = Arc::as_ptr(key) as *const u8 as usize;
        if let Some(&v) = self.handles.get(&addr) {
            return v;
        }
        if let Some((first, &v)) = self.entries.get_key_value(&**key) {
            if Arc::ptr_eq(first, key) {
                self.handles.insert(addr, v);
            }
            return v;
        }
        let v = make();
        self.entries.insert(Arc::clone(key), v);
        v
    }

    /// Number of distinct contents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no content has been met.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
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

    /// Forgets what was written, the dictionary too, but keeps the
    /// buffer, so one encoder can serve a run of values.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dict = None;
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

    /// Writes a text through the dictionary (see the module docs): a
    /// reference if equal text was written before, else the literal.
    pub fn shared_str(&mut self, v: &Arc<str>) {
        if self.reference(|d| &mut d.strs, v) {
            self.str(v);
        }
    }

    /// [`Encoder::shared_str`] for byte strings, over their own table.
    pub fn shared_bytes(&mut self, v: &Arc<[u8]>) {
        if self.reference(|d| &mut d.bytes, v) {
            self.bytes(v);
        }
    }

    /// Writes `v`'s reference, or the literal tag 0 if its content is new
    /// to its table: true if the literal must follow.
    fn reference<T: ?Sized + Eq + Hash>(
        &mut self,
        table: impl FnOnce(&mut EncoderDict) -> &mut HandleMap<T, u64>,
        v: &Arc<T>,
    ) -> bool {
        let table = table(self.dict.get_or_insert_with(Default::default));
        let next = table.len() as u64;
        let k = table.get_or_insert_with(v, || next);
        let new = k == next;
        self.u64(if new { 0 } else { k + 1 });
        new
    }
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared operands read so far, made on first use.
    dict: Option<Box<DecoderDict>>,
}

/// The decoder's half of the first-use dictionary, one table per kind.
#[derive(Debug, Default)]
struct DecoderDict {
    strs: DecoderTable<str>,
    bytes: DecoderTable<[u8]>,
}

/// One kind's entries read so far: entry `k - 1` is the handle a
/// reference `k` clones. The encoder writes each distinct content once,
/// and a table that repeats one is malformed, so equal contents always
/// decode to one handle.
#[derive(Debug)]
struct DecoderTable<T: ?Sized> {
    entries: Vec<Arc<T>>,
    contents: HashSet<Arc<T>>,
}

impl<T: ?Sized> Default for DecoderTable<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            contents: HashSet::new(),
        }
    }
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            dict: None,
        }
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

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed byte string, as a slice of the
    /// underlying buffer.
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

    /// Reads a text written by [`Encoder::shared_str`]: a literal becomes
    /// the next entry of the text table, a reference clones its entry's
    /// handle. A reference past the table, or a literal equal to an
    /// earlier entry, is malformed.
    pub fn shared_str(&mut self) -> Result<Arc<str>, WireError> {
        let k = self.shared_str_index()?;
        Ok(Arc::clone(&self.dict_table(|d| &mut d.strs).entries[k]))
    }

    /// [`Decoder::shared_str`] for byte strings, over their own table.
    pub fn shared_bytes(&mut self) -> Result<Arc<[u8]>, WireError> {
        let k = self.shared_bytes_index()?;
        Ok(Arc::clone(&self.dict_table(|d| &mut d.bytes).entries[k]))
    }

    /// [`Decoder::shared_str`] that returns the entry's position in the
    /// text table instead of a handle: a reader that keeps the table
    /// ([`Decoder::take_shared_strs`]) stores the index alone. Distinct
    /// positions hold distinct contents.
    pub fn shared_str_index(&mut self) -> Result<usize, WireError> {
        self.shared(|d| &mut d.strs, |dec| dec.str_ref().map(Arc::from))
    }

    /// [`Decoder::shared_str_index`] for byte strings.
    pub fn shared_bytes_index(&mut self) -> Result<usize, WireError> {
        self.shared(|d| &mut d.bytes, |dec| dec.bytes_ref().map(Arc::from))
    }

    /// The text table read so far, in entry order. The decoder's table
    /// starts over empty, so a later reference to an entry taken here is
    /// malformed.
    pub fn take_shared_strs(&mut self) -> Vec<Arc<str>> {
        std::mem::take(self.dict_table(|d| &mut d.strs)).entries
    }

    /// [`Decoder::take_shared_strs`] for byte strings.
    pub fn take_shared_bytes(&mut self) -> Vec<Arc<[u8]>> {
        std::mem::take(self.dict_table(|d| &mut d.bytes)).entries
    }

    fn dict_table<T: ?Sized>(
        &mut self,
        table: impl FnOnce(&mut DecoderDict) -> &mut DecoderTable<T>,
    ) -> &mut DecoderTable<T> {
        table(self.dict.get_or_insert_with(Default::default))
    }

    /// Reads one dictionary operand, returning its table position.
    fn shared<T: ?Sized + Eq + Hash>(
        &mut self,
        table: impl Fn(&mut DecoderDict) -> &mut DecoderTable<T>,
        literal: impl FnOnce(&mut Self) -> Result<Arc<T>, WireError>,
    ) -> Result<usize, WireError> {
        let k = self.u64()?;
        let entry = if k == 0 { Some(literal(self)?) } else { None };
        let table = self.dict_table(table);
        let Some(entry) = entry else {
            return usize::try_from(k - 1)
                .ok()
                .filter(|&i| i < table.entries.len())
                .ok_or(WireError::Malformed("dictionary reference past its table"));
        };
        if !table.contents.insert(Arc::clone(&entry)) {
            return Err(WireError::Malformed(
                "dictionary entry repeats an earlier one",
            ));
        }
        table.entries.push(entry);
        Ok(table.entries.len() - 1)
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
    fn handle_map_finds_a_handle_met_again_by_address_and_pins_the_first() {
        let mut map = HandleMap::<str, u32>::default();
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("x"), Arc::from("x"));
        let mut made = 0;
        for key in [&a, &a, &b, &b, &a] {
            let v = map.get_or_insert_with(key, || {
                made += 1;
                7
            });
            assert_eq!(v, 7);
        }
        assert_eq!((made, map.len()), (1, 1));
        // The first handle is kept, so its address stays its own, and
        // found by address once met again; an equal handle is neither.
        assert_eq!(map.handles.len(), 1);
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 1));
        assert_eq!(map.get_or_insert_with(&Arc::from("y"), || 8), 8);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn shared_operands_intern_by_content_and_decode_to_one_handle() {
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("SELECT 1"), Arc::from("SELECT 1"));
        let v: Arc<[u8]> = Arc::from(&b"SELECT 1"[..]);
        let mut enc = Encoder::new();
        enc.shared_str(&a);
        enc.shared_bytes(&v);
        enc.shared_str(&b);
        enc.shared_bytes(&v);
        let bytes = enc.into_bytes();
        // Two literals (one per table), then two one-byte references.
        assert_eq!(bytes.len(), 2 * (1 + 1 + 8) + 2);
        let mut dec = Decoder::new(&bytes);
        let (s1, v1, s2, v2) = (
            dec.shared_str().unwrap(),
            dec.shared_bytes().unwrap(),
            dec.shared_str().unwrap(),
            dec.shared_bytes().unwrap(),
        );
        assert!(dec.is_done());
        assert_eq!((&*s1, &*v1), ("SELECT 1", &b"SELECT 1"[..]));
        assert!(Arc::ptr_eq(&s1, &s2) && Arc::ptr_eq(&v1, &v2));

        // A second literal of one content is not what the encoder writes.
        let mut enc = Encoder::new();
        enc.u64(0);
        enc.str("x");
        enc.u64(0);
        enc.str("x");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.shared_str().is_ok());
        assert_eq!(
            dec.shared_str().unwrap_err(),
            WireError::Malformed("dictionary entry repeats an earlier one")
        );
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
