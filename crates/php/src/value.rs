//! PHP values: scalars and the ordered-hash array, with value semantics.
//!
//! PHP arrays are ordered maps from int/string keys to values, copied on
//! assignment. We implement the copy with `Rc` + copy-on-write
//! (`Arc::make_mut`), which also makes lane duplication cheap in the
//! multivalue VM. Key canonicalization, loose (`==`) versus identical
//! (`===`) comparison, and string conversion follow PHP semantics closely
//! enough for the evaluation applications; every conversion is
//! deterministic, which is what the audit requires (the server and the
//! verifier run the same rules).

use orochi_common::codec::{Decoder, Encoder, Wire, WireError};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A PHP value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// Booleans.
    Bool(bool),
    /// 64-bit integers.
    Int(i64),
    /// Doubles.
    Float(f64),
    /// Strings (cheaply clonable).
    Str(Arc<String>),
    /// Arrays (ordered hash, copy-on-write).
    Array(Arc<PhpArray>),
}

/// A canonicalized PHP array key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArrayKey {
    /// Integer key.
    Int(i64),
    /// String key (non-numeric).
    Str(String),
}

impl ArrayKey {
    /// Canonicalizes a value into an array key following PHP's rules:
    /// integral floats and canonical decimal strings become ints, bools
    /// become 0/1, null becomes `""`.
    pub fn from_value(v: &Value) -> ArrayKey {
        match v {
            Value::Null => ArrayKey::Str(String::new()),
            Value::Bool(b) => ArrayKey::Int(*b as i64),
            Value::Int(i) => ArrayKey::Int(*i),
            Value::Float(f) => ArrayKey::Int(*f as i64),
            Value::Str(s) => match canonical_int_string(s) {
                Some(i) => ArrayKey::Int(i),
                None => ArrayKey::Str(s.as_str().to_string()),
            },
            Value::Array(_) => ArrayKey::Str("Array".to_string()),
        }
    }

    /// The key as a value (for `foreach` and `array_keys`).
    pub fn to_value(&self) -> Value {
        match self {
            ArrayKey::Int(i) => Value::Int(*i),
            ArrayKey::Str(s) => Value::str(s.clone()),
        }
    }
}

/// Returns `Some(i)` if `s` is the canonical decimal representation of
/// an i64 (PHP's array-key canonicalization rule).
fn canonical_int_string(s: &str) -> Option<i64> {
    if s.is_empty() {
        return None;
    }
    let i: i64 = s.parse().ok()?;
    if i.to_string() == s {
        Some(i)
    } else {
        None
    }
}

/// The PHP array: insertion-ordered map with O(1) key lookup.
#[derive(Debug, Clone, Default)]
pub struct PhpArray {
    /// Entries in insertion order; deleted slots are `None` (compacted
    /// lazily on clone-heavy paths is unnecessary at our sizes).
    entries: Vec<Option<(ArrayKey, Value)>>,
    /// Key -> position in `entries`.
    index: HashMap<ArrayKey, usize>,
    /// Next automatic integer key.
    next_int: i64,
    /// Count of live entries.
    live: usize,
}

impl PhpArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries (`count()`).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Gets a value by key.
    pub fn get(&self, key: &ArrayKey) -> Option<&Value> {
        self.index
            .get(key)
            .and_then(|&pos| self.entries[pos].as_ref().map(|(_, v)| v))
    }

    /// True if the key exists (even with a null value —
    /// `array_key_exists`; note `isset` is false for null).
    pub fn has_key(&self, key: &ArrayKey) -> bool {
        self.index.contains_key(key)
    }

    /// Mutable access to a value by key.
    pub fn get_mut(&mut self, key: &ArrayKey) -> Option<&mut Value> {
        let pos = *self.index.get(key)?;
        self.entries[pos].as_mut().map(|(_, v)| v)
    }

    /// Removes and returns the last live entry (`array_pop`).
    pub fn pop_last(&mut self) -> Option<(ArrayKey, Value)> {
        let pos = self.entries.iter().rposition(|e| e.is_some())?;
        let (k, v) = self.entries[pos].take().expect("rposition found Some");
        self.index.remove(&k);
        self.live -= 1;
        Some((k, v))
    }

    /// Removes and returns the first live entry (`array_shift`).
    pub fn shift_first(&mut self) -> Option<(ArrayKey, Value)> {
        let pos = self.entries.iter().position(|e| e.is_some())?;
        let (k, v) = self.entries[pos].take().expect("position found Some");
        self.index.remove(&k);
        self.live -= 1;
        Some((k, v))
    }

    /// Sets `key = value`, preserving insertion order for existing keys.
    pub fn set(&mut self, key: ArrayKey, value: Value) {
        if let ArrayKey::Int(i) = key {
            if i >= self.next_int {
                self.next_int = i + 1;
            }
        }
        match self.index.get(&key) {
            Some(&pos) => {
                self.entries[pos] = Some((key, value));
            }
            None => {
                self.index.insert(key.clone(), self.entries.len());
                self.entries.push(Some((key, value)));
                self.live += 1;
            }
        }
    }

    /// Appends with the next automatic integer key (`$a[] = v`),
    /// returning the key used.
    pub fn push(&mut self, value: Value) -> i64 {
        let key = self.next_int;
        self.set(ArrayKey::Int(key), value);
        key
    }

    /// Removes a key (`unset`).
    pub fn remove(&mut self, key: &ArrayKey) -> Option<Value> {
        let pos = self.index.remove(key)?;
        let entry = self.entries[pos].take();
        self.live -= 1;
        entry.map(|(_, v)| v)
    }

    /// Iterates live `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&ArrayKey, &Value)> {
        self.entries
            .iter()
            .filter_map(|e| e.as_ref().map(|(k, v)| (k, v)))
    }

    /// Collects the live pairs (used by sort builtins, which rebuild).
    pub fn to_pairs(&self) -> Vec<(ArrayKey, Value)> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Rebuilds from pairs, keeping the given order and renumbering
    /// nothing (keys kept as-is).
    pub fn from_pairs(pairs: Vec<(ArrayKey, Value)>) -> Self {
        let mut out = Self::new();
        for (k, v) in pairs {
            out.set(k, v);
        }
        out
    }

    /// Rebuilds from values with fresh integer keys 0..n (used by
    /// `sort`, `array_values`).
    pub fn from_values(values: Vec<Value>) -> Self {
        let mut out = Self::new();
        for v in values {
            out.push(v);
        }
        out
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::new(s.into()))
    }

    /// Builds an array value.
    pub fn array(a: PhpArray) -> Value {
        Value::Array(Arc::new(a))
    }

    /// An empty array.
    pub fn empty_array() -> Value {
        Value::array(PhpArray::new())
    }

    /// PHP truthiness: `"", "0", 0, 0.0, null, false, []` are false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty() && s.as_str() != "0",
            Value::Array(a) => !a.is_empty(),
        }
    }

    /// The type name (`gettype`-style, used in diagnostics).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
        }
    }

    /// String conversion (echo, concatenation). Arrays render as
    /// `"Array"` like PHP (without the notice).
    pub fn to_php_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(true) => "1".to_string(),
            Value::Bool(false) => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_php_float(*f),
            Value::Str(s) => s.as_str().to_string(),
            Value::Array(_) => "Array".to_string(),
        }
    }

    /// [`Self::to_php_string`] without the copy when the value already
    /// is a string.
    pub fn as_php_str(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.to_php_string()),
        }
    }

    /// Integer conversion (`intval`): leading numeric prefix of strings.
    pub fn to_php_int(&self) -> i64 {
        match self {
            Value::Null => 0,
            Value::Bool(b) => *b as i64,
            Value::Int(i) => *i,
            Value::Float(f) => *f as i64,
            Value::Str(s) => parse_numeric_prefix(s).map(|f| f as i64).unwrap_or(0),
            Value::Array(a) => !a.is_empty() as i64,
        }
    }

    /// Float conversion (`floatval`).
    pub fn to_php_float(&self) -> f64 {
        match self {
            Value::Null => 0.0,
            Value::Bool(b) => *b as i64 as f64,
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Str(s) => parse_numeric_prefix(s).unwrap_or(0.0),
            Value::Array(a) => (!a.is_empty()) as i64 as f64,
        }
    }

    /// True if the value is a number or fully numeric string
    /// (`is_numeric`).
    pub fn is_numeric(&self) -> bool {
        match self {
            Value::Int(_) | Value::Float(_) => true,
            Value::Str(s) => {
                let t = s.trim();
                !t.is_empty() && t.parse::<f64>().is_ok()
            }
            _ => false,
        }
    }

    /// PHP loose equality (`==`).
    pub fn loose_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), b) => *a == b.is_truthy(),
            (a, Bool(b)) => a.is_truthy() == *b,
            (Null, b) => {
                !b.is_truthy() && !matches!(b, Array(_))
                    || matches!(b, Array(arr) if arr.is_empty())
            }
            (a, Null) => Value::Null.loose_eq(a),
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (Str(a), Str(b)) => {
                // PHP 8: numeric strings compare numerically.
                match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
                    (Ok(x), Ok(y)) => x == y,
                    _ => a == b,
                }
            }
            (Int(a), Str(s)) | (Str(s), Int(a)) => match s.trim().parse::<f64>() {
                Ok(x) => x == *a as f64,
                Err(_) => false,
            },
            (Float(a), Str(s)) | (Str(s), Float(a)) => match s.trim().parse::<f64>() {
                Ok(x) => x == *a,
                Err(_) => false,
            },
            (Array(a), Array(b)) => {
                if a.len() != b.len() {
                    return false;
                }
                a.iter().all(|(k, v)| match b.get(k) {
                    Some(w) => v.loose_eq(w),
                    None => false,
                })
            }
            _ => false,
        }
    }

    /// PHP identity (`===`): same type and same value.
    pub fn identical(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Str(a), Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Array(a), Array(b)) => {
                // One allocation is one value: every holder of the same
                // handle sees identical contents (PHP's own `===` starts
                // with this pointer test too).
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                if a.len() != b.len() {
                    return false;
                }
                // `===` also requires the same key order.
                a.iter()
                    .zip(b.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && va.identical(vb))
            }
            _ => false,
        }
    }

    /// PHP relational comparison (`<`, `<=`, ...); `None` when the
    /// operands do not admit an order (e.g. array vs scalar).
    pub fn loose_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
                (Ok(x), Ok(y)) => x.partial_cmp(&y),
                _ => Some(a.cmp(b)),
            },
            (Array(a), Array(b)) => Some(a.len().cmp(&b.len())),
            (Array(_), _) | (_, Array(_)) => None,
            (a, b) => a.to_php_float().partial_cmp(&b.to_php_float()),
        }
    }
}

/// PHP-style float formatting: integral values drop the fraction
/// (`2.0` echoes as `2`), others use the shortest roundtrip form.
pub fn format_php_float(f: f64) -> String {
    if f.is_nan() {
        return "NAN".to_string();
    }
    if f.is_infinite() {
        return if f > 0.0 { "INF" } else { "-INF" }.to_string();
    }
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        format!("{f}")
    }
}

/// Parses PHP's leading-numeric-prefix rule: `"12abc"` -> 12.
fn parse_numeric_prefix(s: &str) -> Option<f64> {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'+' | b'-' if i == 0 => end = i + 1,
            b'0'..=b'9' => {
                seen_digit = true;
                end = i + 1;
            }
            b'.' if !seen_dot => {
                seen_dot = true;
                end = i + 1;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return None;
    }
    t[..end].parse().ok()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_php_string())
    }
}

impl Wire for Value {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Value::Null => enc.byte(0),
            Value::Bool(b) => {
                enc.byte(1);
                enc.bool(*b);
            }
            Value::Int(i) => {
                enc.byte(2);
                enc.i64(*i);
            }
            Value::Float(f) => {
                enc.byte(3);
                enc.f64(*f);
            }
            Value::Str(s) => {
                enc.byte(4);
                enc.str(s);
            }
            Value::Array(a) => {
                enc.byte(5);
                enc.u64(a.len() as u64);
                for (k, v) in a.iter() {
                    match k {
                        ArrayKey::Int(i) => {
                            enc.byte(0);
                            enc.i64(*i);
                        }
                        ArrayKey::Str(s) => {
                            enc.byte(1);
                            enc.str(s);
                        }
                    }
                    v.encode(enc);
                }
                enc.u64(a.next_int as u64);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.byte()? {
            0 => Value::Null,
            1 => Value::Bool(dec.bool()?),
            2 => Value::Int(dec.i64()?),
            3 => Value::Float(dec.f64()?),
            4 => Value::str(dec.str()?),
            5 => {
                let n = dec.u64()? as usize;
                if n > dec.remaining() {
                    return Err(WireError::Malformed("array length exceeds buffer"));
                }
                let mut a = PhpArray::new();
                for _ in 0..n {
                    let key = match dec.byte()? {
                        0 => ArrayKey::Int(dec.i64()?),
                        1 => ArrayKey::Str(dec.str()?),
                        _ => return Err(WireError::Malformed("bad array key tag")),
                    };
                    let v = Value::decode(dec)?;
                    a.set(key, v);
                }
                a.next_int = dec.u64()? as i64;
                Value::array(a)
            }
            _ => return Err(WireError::Malformed("unknown php value tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_key_canonicalization() {
        assert_eq!(ArrayKey::from_value(&Value::str("5")), ArrayKey::Int(5));
        assert_eq!(
            ArrayKey::from_value(&Value::str("05")),
            ArrayKey::Str("05".into())
        );
        assert_eq!(ArrayKey::from_value(&Value::str("-3")), ArrayKey::Int(-3));
        assert_eq!(ArrayKey::from_value(&Value::Bool(true)), ArrayKey::Int(1));
        assert_eq!(ArrayKey::from_value(&Value::Float(2.9)), ArrayKey::Int(2));
        assert_eq!(
            ArrayKey::from_value(&Value::Null),
            ArrayKey::Str(String::new())
        );
    }

    #[test]
    fn array_preserves_insertion_order() {
        let mut a = PhpArray::new();
        a.set(ArrayKey::Str("z".into()), Value::Int(1));
        a.set(ArrayKey::Str("a".into()), Value::Int(2));
        a.set(ArrayKey::Int(10), Value::Int(3));
        let keys: Vec<_> = a.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![
                ArrayKey::Str("z".into()),
                ArrayKey::Str("a".into()),
                ArrayKey::Int(10)
            ]
        );
        // Overwrite preserves position.
        a.set(ArrayKey::Str("z".into()), Value::Int(9));
        let first = a.iter().next().unwrap();
        assert_eq!(first.0, &ArrayKey::Str("z".into()));
        assert!(first.1.identical(&Value::Int(9)));
    }

    #[test]
    fn push_uses_max_int_key_plus_one() {
        let mut a = PhpArray::new();
        assert_eq!(a.push(Value::Int(0)), 0);
        a.set(ArrayKey::Int(10), Value::Int(1));
        assert_eq!(a.push(Value::Int(2)), 11);
        // Deleting does not lower the next key (PHP behaviour).
        a.remove(&ArrayKey::Int(11));
        assert_eq!(a.push(Value::Int(3)), 12);
    }

    #[test]
    fn remove_and_count() {
        let mut a = PhpArray::new();
        a.push(Value::Int(1));
        a.push(Value::Int(2));
        assert_eq!(a.len(), 2);
        a.remove(&ArrayKey::Int(0));
        assert_eq!(a.len(), 1);
        assert!(!a.has_key(&ArrayKey::Int(0)));
        let remaining: Vec<_> = a.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(remaining, vec![ArrayKey::Int(1)]);
    }

    #[test]
    fn truthiness_table() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(!Value::str("0").is_truthy());
        assert!(!Value::empty_array().is_truthy());
        assert!(Value::str("0.0").is_truthy()); // PHP quirk: "0.0" is true.
        assert!(Value::Int(-1).is_truthy());
    }

    #[test]
    fn loose_equality_table() {
        assert!(Value::Int(0).loose_eq(&Value::str("0")));
        assert!(Value::Int(1).loose_eq(&Value::Bool(true)));
        assert!(Value::Null.loose_eq(&Value::Bool(false)));
        assert!(Value::str("1e1").loose_eq(&Value::Int(10)));
        assert!(!Value::str("abc").loose_eq(&Value::Int(0))); // PHP 8.
        assert!(Value::str("10").loose_eq(&Value::str("1e1")));
        assert!(!Value::str("abc").loose_eq(&Value::str("ABC")));
    }

    #[test]
    fn identity_is_strict() {
        assert!(!Value::Int(1).identical(&Value::Float(1.0)));
        assert!(!Value::Int(0).identical(&Value::str("0")));
        assert!(Value::str("x").identical(&Value::str("x")));
    }

    #[test]
    fn array_equality() {
        let mut a = PhpArray::new();
        a.set(ArrayKey::Str("k".into()), Value::Int(1));
        let mut b = PhpArray::new();
        b.set(ArrayKey::Str("k".into()), Value::str("1"));
        let (va, vb) = (Value::array(a), Value::array(b));
        assert!(va.loose_eq(&vb));
        assert!(!va.identical(&vb));
    }

    #[test]
    fn string_conversion() {
        assert_eq!(Value::Float(2.0).to_php_string(), "2");
        assert_eq!(Value::Float(2.5).to_php_string(), "2.5");
        assert_eq!(Value::Bool(true).to_php_string(), "1");
        assert_eq!(Value::Bool(false).to_php_string(), "");
        assert_eq!(Value::Null.to_php_string(), "");
    }

    #[test]
    fn numeric_prefix_parsing() {
        assert_eq!(Value::str("12abc").to_php_int(), 12);
        assert_eq!(Value::str("3.5x").to_php_float(), 3.5);
        assert_eq!(Value::str("abc").to_php_int(), 0);
        assert_eq!(Value::str("-7").to_php_int(), -7);
    }

    #[test]
    fn comparison() {
        assert_eq!(
            Value::Int(2).loose_cmp(&Value::str("10")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("apple").loose_cmp(&Value::str("banana")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("2").loose_cmp(&Value::str("10")),
            Some(Ordering::Less) // Numeric strings compare numerically.
        );
    }

    #[test]
    fn copy_on_write_semantics() {
        let mut a = PhpArray::new();
        a.push(Value::Int(1));
        let v1 = Value::array(a);
        let v2 = v1.clone();
        // Mutating v2's array must not affect v1 (value semantics).
        if let Value::Array(rc) = &v2 {
            let mut rc = rc.clone();
            Arc::make_mut(&mut rc).push(Value::Int(2));
            assert_eq!(rc.len(), 2);
        }
        if let Value::Array(rc) = &v1 {
            assert_eq!(rc.len(), 1);
        }
    }

    #[test]
    fn wire_roundtrip_nested() {
        let mut inner = PhpArray::new();
        inner.set(ArrayKey::Str("x".into()), Value::Float(1.5));
        let mut outer = PhpArray::new();
        outer.push(Value::array(inner));
        outer.set(ArrayKey::Str("s".into()), Value::str("hé"));
        outer.set(ArrayKey::Int(5), Value::Bool(true));
        let v = Value::array(outer);
        let bytes = v.to_wire_bytes();
        let back = Value::from_wire_bytes(&bytes).unwrap();
        assert!(v.identical(&back));
        // next_int survives the roundtrip.
        if let (Value::Array(a), Value::Array(b)) = (&v, &back) {
            let mut a2 = (**a).clone();
            let mut b2 = (**b).clone();
            assert_eq!(a2.push(Value::Null), b2.push(Value::Null));
        }
    }
}
