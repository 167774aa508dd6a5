//! PHP values: scalars and the ordered array, with value semantics.
//!
//! PHP arrays are ordered maps from int/string keys to values, copied on
//! assignment. We implement the copy with `Arc` + copy-on-write
//! (`Arc::make_mut`), which also makes lane duplication cheap in the
//! multivalue VM. Key canonicalization, loose (`==`) versus identical
//! (`===`) comparison, and string conversion follow PHP semantics closely
//! enough for the evaluation applications; every conversion is
//! deterministic, which is what the audit requires (the server and the
//! verifier run the same rules).
//!
//! An array is stored in the cheapest of three forms its keys allow (see
//! [`PhpArray`]); the form is invisible to everything but the cost:
//! iteration order, comparison and the wire bytes are the same in all
//! three. Lookups take a borrowed [`Key`], so reading `$a['k']` allocates
//! nothing.

use orochi_common::codec::{Decoder, Encoder, Wire, WireError};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

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
    /// Strings (cheaply clonable; one allocation holds count and bytes).
    Str(Arc<str>),
    /// Arrays (ordered map, copy-on-write).
    Array(Arc<PhpArray>),
}

/// A canonicalized PHP array key, owned (what an array stores).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArrayKey {
    /// Integer key.
    Int(i64),
    /// String key (non-numeric).
    Str(String),
}

/// A canonicalized PHP array key, borrowed (what every lookup takes and
/// what iteration yields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key<'a> {
    /// Integer key.
    Int(i64),
    /// String key (non-numeric).
    Str(&'a str),
}

impl<'a> Key<'a> {
    /// Canonicalizes a value into an array key following PHP's rules:
    /// integral floats and canonical decimal strings become ints, bools
    /// become 0/1, null becomes `""`. Borrows; never allocates.
    pub fn from_value(v: &'a Value) -> Key<'a> {
        match v {
            Value::Null => Key::Str(""),
            Value::Bool(b) => Key::Int(*b as i64),
            Value::Int(i) => Key::Int(*i),
            Value::Float(f) => Key::Int(*f as i64),
            Value::Str(s) => Key::of_str(s),
            Value::Array(_) => Key::Str("Array"),
        }
    }

    /// The key a string names: an int key when the string is a
    /// canonical decimal integer, else the string itself.
    pub fn of_str(s: &'a str) -> Key<'a> {
        match canonical_int_string(s) {
            Some(i) => Key::Int(i),
            None => Key::Str(s),
        }
    }

    /// The owned key (allocates for a string key).
    pub fn owned(self) -> ArrayKey {
        match self {
            Key::Int(i) => ArrayKey::Int(i),
            Key::Str(s) => ArrayKey::Str(s.to_owned()),
        }
    }

    /// The key as a value (for `foreach` and `array_keys`).
    pub fn to_value(self) -> Value {
        match self {
            Key::Int(i) => Value::Int(i),
            Key::Str(s) => Value::str(s),
        }
    }
}

impl ArrayKey {
    /// [`Key::from_value`], owned.
    pub fn from_value(v: &Value) -> ArrayKey {
        Key::from_value(v).owned()
    }

    /// The borrowed view of this key.
    pub fn as_key(&self) -> Key<'_> {
        match self {
            ArrayKey::Int(i) => Key::Int(*i),
            ArrayKey::Str(s) => Key::Str(s),
        }
    }

    /// The key as a value (for `foreach` and `array_keys`).
    pub fn to_value(&self) -> Value {
        self.as_key().to_value()
    }
}

/// Returns `Some(i)` if `s` is the canonical decimal representation of
/// an i64 (PHP's array-key canonicalization rule): an optional `-`, then
/// digits with no leading zero, `"0"` itself excepted and `"-0"` not.
fn canonical_int_string(s: &str) -> Option<i64> {
    let bytes = s.as_bytes();
    let digits = bytes.strip_prefix(b"-").unwrap_or(bytes);
    match digits {
        [] => return None,
        [b'0'] => return (digits.len() == bytes.len()).then_some(0),
        [b'0', ..] => return None,
        _ => {}
    }
    // 19 digits hold every i64; `parse` rejects the ones past the range.
    if digits.len() > 19 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    s.parse().ok()
}

/// Entries a keyed array holds before it builds a hash index: up to
/// here a linear scan over the keys costs less than hashing one.
pub const SMALL_MAP: usize = 8;

/// Arrays nested deeper than this in wire bytes are malformed: decoding
/// recurses once per level, and the bytes may be hostile.
pub const MAX_DECODE_DEPTH: usize = 128;

/// Entries a decoded array reserves before any of them is read. The
/// length on the wire is hostile until its entries arrive, and every
/// nesting level may claim the whole buffer at once, so a longer array
/// grows as its entries decode instead.
const DECODE_RESERVE: usize = 8 * SMALL_MAP;

/// PHP 8's fatal for `$a[] = v` when the next integer key is taken —
/// after a key of `PHP_INT_MAX`, the next free key saturates there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextKeyOccupied;

impl fmt::Display for NextKeyOccupied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Cannot add element to the array as the next element is already occupied")
    }
}

/// The PHP array: an insertion-ordered map in one of three forms,
/// chosen by its keys and changed only as they require.
///
/// * **Packed**: while the keys are exactly `0..n` in order, a plain
///   `Vec<Value>` with the keys implicit — lists, `explode` results,
///   query rows.
/// * **Small map**: otherwise, entries in insertion order searched
///   linearly while there are at most [`SMALL_MAP`] of them — sessions,
///   rows as assoc arrays, request parameters.
/// * **Indexed map**: past that size, the same entries plus an
///   open-addressed index keyed by a per-process random hash (the keys
///   come from requests); removed entries stay as tombstones until the
///   index next fills, which drops them and trims the room left to
///   twice the live entries.
///
/// A packed array becomes a map on the first key that breaks the
/// `0..n` run (a hole, a string key, a key past the end); a map never
/// turns back in place, but [`Wire`] decoding and the rebuilding
/// builtins construct the packed form whenever the keys allow it. The
/// next free integer key is kept explicitly in every form: PHP does not
/// lower it on `unset`, and saturates it at `i64::MAX`.
#[derive(Debug, Clone)]
pub struct PhpArray {
    repr: Repr,
    /// Next automatic integer key.
    next_int: i64,
}

#[derive(Debug, Clone)]
enum Repr {
    Packed(Vec<Value>),
    Map(Map),
}

/// The keyed forms: small while `slots` is empty, indexed after.
#[derive(Debug, Clone, Default)]
struct Map {
    /// Entries in insertion order; `None` is a removed entry, which only
    /// an indexed map keeps (a small one closes the gap).
    entries: Vec<Option<(ArrayKey, Value)>>,
    /// Live entries.
    live: usize,
    /// Open-addressed index: `position + 1` in `entries`, 0 for empty.
    /// A slot may name a removed entry (probing passes over it).
    slots: Vec<u32>,
}

/// The process-wide hash of an indexed map: keyed at random, so which
/// keys collide cannot be chosen from outside.
fn hash_key(key: Key<'_>) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(key)
}

impl Map {
    fn find(&self, key: Key<'_>) -> Option<usize> {
        let matches = |pos: usize| {
            self.entries[pos]
                .as_ref()
                .is_some_and(|(k, _)| k.as_key() == key)
        };
        if self.slots.is_empty() {
            return (0..self.entries.len()).find(|&pos| matches(pos));
        }
        let mask = self.slots.len() - 1;
        let mut at = hash_key(key) as usize & mask;
        loop {
            match self.slots[at] {
                0 => return None,
                slot if matches(slot as usize - 1) => return Some(slot as usize - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Appends an entry whose key is absent.
    fn insert_new(&mut self, key: ArrayKey, value: Value) {
        self.entries.push(Some((key, value)));
        self.live += 1;
        let pos = self.entries.len() - 1;
        if self.slots.is_empty() {
            if self.entries.len() > SMALL_MAP {
                self.reindex();
            }
        } else if 2 * self.entries.len() > self.slots.len() {
            self.reindex();
        } else {
            self.place(pos);
        }
    }

    /// Records entry `pos` in the index.
    fn place(&mut self, pos: usize) {
        let (key, _) = self.entries[pos].as_ref().expect("placing a live entry");
        let mask = self.slots.len() - 1;
        let mut at = hash_key(key.as_key()) as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = pos as u32 + 1;
    }

    /// Drops the tombstones and rebuilds the index at most half full
    /// (sized for the entries' capacity, so a map decoded or built at
    /// its final size indexes once). Dropping tombstones also trims the
    /// room to twice the live entries: a map that churns at a constant
    /// size keeps a constant footprint.
    fn reindex(&mut self) {
        if self.live < self.entries.len() {
            self.entries.retain(Option::is_some);
            self.entries.shrink_to(2 * self.live + 1);
        }
        let want = (2 * self.entries.capacity().max(self.entries.len() + 1)).next_power_of_two();
        self.slots.clear();
        self.slots.resize(want.max(4 * SMALL_MAP), 0);
        for pos in 0..self.entries.len() {
            self.place(pos);
        }
    }

    fn remove_at(&mut self, pos: usize) -> (ArrayKey, Value) {
        self.live -= 1;
        if self.slots.is_empty() {
            self.entries
                .remove(pos)
                .expect("small maps hold no tombstones")
        } else {
            self.entries[pos].take().expect("found entries are live")
        }
    }
}

impl Default for PhpArray {
    fn default() -> Self {
        PhpArray {
            repr: Repr::Packed(Vec::new()),
            next_int: 0,
        }
    }
}

impl PhpArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty list with room for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        PhpArray {
            repr: Repr::Packed(Vec::with_capacity(n)),
            next_int: 0,
        }
    }

    /// Creates an empty keyed array with room for `n` entries (for keys
    /// expected not to run `0..n`: parameters, columns).
    pub fn map_with_capacity(n: usize) -> Self {
        let mut map = Map {
            entries: Vec::with_capacity(n),
            ..Map::default()
        };
        if n > SMALL_MAP {
            map.reindex();
        }
        PhpArray {
            repr: Repr::Map(map),
            next_int: 0,
        }
    }

    /// Number of live entries (`count()`).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Packed(values) => values.len(),
            Repr::Map(map) => map.live,
        }
    }

    /// True if no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next automatic integer key (what `$a[] = v` would use).
    pub fn next_free_key(&self) -> i64 {
        self.next_int
    }

    /// Where `key` lives: an index into the packed values or the map's
    /// entries.
    fn locate(&self, key: Key<'_>) -> Option<usize> {
        match &self.repr {
            Repr::Packed(values) => packed_index(key, values.len()),
            Repr::Map(map) => map.find(key),
        }
    }

    /// The value [`Self::locate`] found.
    fn value_at(&mut self, at: usize) -> &mut Value {
        match &mut self.repr {
            Repr::Packed(values) => &mut values[at],
            Repr::Map(map) => {
                &mut map.entries[at]
                    .as_mut()
                    .expect("located entries are live")
                    .1
            }
        }
    }

    /// Gets a value by key.
    pub fn get(&self, key: Key<'_>) -> Option<&Value> {
        let at = self.locate(key)?;
        Some(match &self.repr {
            Repr::Packed(values) => &values[at],
            Repr::Map(map) => {
                &map.entries[at]
                    .as_ref()
                    .expect("located entries are live")
                    .1
            }
        })
    }

    /// True if the key exists (even with a null value —
    /// `array_key_exists`; note `isset` is false for null).
    pub fn has_key(&self, key: Key<'_>) -> bool {
        self.get(key).is_some()
    }

    /// Mutable access to a value by key.
    pub fn get_mut(&mut self, key: Key<'_>) -> Option<&mut Value> {
        let at = self.locate(key)?;
        Some(self.value_at(at))
    }

    /// The value at `key`, inserting a null first if the key is absent
    /// (the step of a nested write, `$a[k][..] = v`).
    pub fn get_or_insert_null(&mut self, key: Key<'_>) -> &mut Value {
        match self.locate(key) {
            Some(at) => self.value_at(at),
            None => self.insert_absent(key, Value::Null),
        }
    }

    /// Removes and returns the last live entry (`array_pop`). Like PHP,
    /// popping the entry just below the next free integer key lowers
    /// that key, so a popped list stays `0..n`.
    pub fn pop_last(&mut self) -> Option<(ArrayKey, Value)> {
        let (key, value) = match &mut self.repr {
            Repr::Packed(values) => {
                let v = values.pop()?;
                (ArrayKey::Int(values.len() as i64), v)
            }
            Repr::Map(map) => {
                let pos = map.entries.iter().rposition(Option::is_some)?;
                map.remove_at(pos)
            }
        };
        if let ArrayKey::Int(i) = key {
            if self.next_int.checked_sub(1) == Some(i) {
                self.next_int = i;
            }
        }
        Some((key, value))
    }

    /// Removes and returns the first live entry (the first half of
    /// `array_shift`, which then renumbers).
    pub fn shift_first(&mut self) -> Option<(ArrayKey, Value)> {
        let map = self.as_map();
        let pos = map.entries.iter().position(Option::is_some)?;
        Some(map.remove_at(pos))
    }

    /// Sets `key = value`, preserving insertion order for existing keys.
    pub fn set(&mut self, key: Key<'_>, value: Value) {
        match self.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                self.insert_absent(key, value);
            }
        }
    }

    /// Appends with the next automatic integer key (`$a[] = v`),
    /// returning the key used; fails like PHP 8 when that key is taken.
    pub fn push(&mut self, value: Value) -> Result<i64, NextKeyOccupied> {
        let key = self.next_int;
        if self.has_key(Key::Int(key)) {
            return Err(NextKeyOccupied);
        }
        self.insert_absent(Key::Int(key), value);
        Ok(key)
    }

    /// Inserts a key known to be absent, returning its slot.
    fn insert_absent(&mut self, key: Key<'_>, value: Value) -> &mut Value {
        let appends = match key {
            Key::Int(i) => {
                if i >= self.next_int {
                    self.next_int = i.saturating_add(1);
                }
                matches!(&self.repr, Repr::Packed(values) if i == values.len() as i64)
            }
            Key::Str(_) => false,
        };
        if appends {
            let Repr::Packed(values) = &mut self.repr else {
                unreachable!("checked packed above");
            };
            values.push(value);
            return values.last_mut().expect("just pushed");
        }
        let map = self.as_map();
        map.insert_new(key.owned(), value);
        let (_, v) = map
            .entries
            .last_mut()
            .and_then(Option::as_mut)
            .expect("just inserted");
        v
    }

    /// The keyed form, converting a packed array in place.
    fn as_map(&mut self) -> &mut Map {
        if let Repr::Packed(values) = &mut self.repr {
            let mut map = Map {
                entries: Vec::with_capacity(values.capacity().max(values.len() + 1)),
                live: values.len(),
                slots: Vec::new(),
            };
            map.entries.extend(
                values
                    .drain(..)
                    .enumerate()
                    .map(|(i, v)| Some((ArrayKey::Int(i as i64), v))),
            );
            if map.entries.len() > SMALL_MAP {
                map.reindex();
            }
            self.repr = Repr::Map(map);
        }
        match &mut self.repr {
            Repr::Map(map) => map,
            Repr::Packed(_) => unreachable!("converted above"),
        }
    }

    /// Removes a key (`unset`). Removing the last element of a list
    /// keeps it a list; any other removal from one makes it a map.
    pub fn remove(&mut self, key: Key<'_>) -> Option<Value> {
        if let Repr::Packed(values) = &mut self.repr {
            let i = packed_index(key, values.len())?;
            if i + 1 == values.len() {
                return values.pop();
            }
        }
        let map = self.as_map();
        let pos = map.find(key)?;
        Some(map.remove_at(pos).1)
    }

    /// Iterates live `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterates from an iteration position on: 0 is the start, and
    /// `Iter::pos` is where an iterator stands. A `foreach` keeps one
    /// position over its (shared, immutable) snapshot.
    fn iter_from(&self, position: usize) -> Iter<'_> {
        Iter {
            array: self,
            pos: position,
        }
    }

    /// Iterates the live values in order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.iter().map(|(_, v)| v)
    }

    /// Collects the live pairs (used by sort builtins, which rebuild).
    pub fn to_pairs(&self) -> Vec<(ArrayKey, Value)> {
        self.iter().map(|(k, v)| (k.owned(), v.clone())).collect()
    }

    /// Rebuilds from pairs, keeping the given order and renumbering
    /// nothing (keys kept as-is).
    pub fn from_pairs(pairs: Vec<(ArrayKey, Value)>) -> Self {
        let mut out = Self::with_capacity(pairs.len());
        for (k, v) in pairs {
            out.set(k.as_key(), v);
        }
        out
    }

    /// Rebuilds from values with fresh integer keys 0..n (used by
    /// `sort`, `array_values`).
    pub fn from_values(values: Vec<Value>) -> Self {
        PhpArray {
            next_int: values.len() as i64,
            repr: Repr::Packed(values),
        }
    }
}

/// The position of `key` in a packed array of `len` values.
fn packed_index(key: Key<'_>, len: usize) -> Option<usize> {
    match key {
        Key::Int(i) if i >= 0 && (i as u64) < len as u64 => Some(i as usize),
        _ => None,
    }
}

/// Iterator over a [`PhpArray`]'s live entries.
#[derive(Clone)]
pub struct Iter<'a> {
    array: &'a PhpArray,
    pos: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (Key<'a>, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        match &self.array.repr {
            Repr::Packed(values) => {
                let v = values.get(self.pos)?;
                self.pos += 1;
                Some((Key::Int(self.pos as i64 - 1), v))
            }
            Repr::Map(map) => loop {
                let entry = map.entries.get(self.pos)?;
                self.pos += 1;
                if let Some((k, v)) = entry {
                    return Some((k.as_key(), v));
                }
            },
        }
    }
}

/// An active `foreach`: the array as the loop found it and a position
/// in it. The snapshot is the array's handle, not a copy — a write to the
/// looped-over variable copies the array away from under it, so the loop
/// sees the entries it started with, as in PHP.
#[derive(Debug, Clone, Default)]
pub struct ForeachIter {
    array: Option<Arc<PhpArray>>,
    pos: usize,
}

impl ForeachIter {
    /// Starts a loop over `v`; anything but an array iterates nothing
    /// (PHP warns and skips the loop).
    pub fn over(v: &Value) -> Self {
        ForeachIter {
            array: match v {
                Value::Array(a) => Some(Arc::clone(a)),
                _ => None,
            },
            pos: 0,
        }
    }

    /// The entry the next step yields, without taking it.
    pub fn peek(&self) -> Option<(Key<'_>, &Value)> {
        self.array.as_deref()?.iter_from(self.pos).next()
    }

    /// Takes the next entry.
    pub fn next_entry(&mut self) -> Option<(Key<'_>, &Value)> {
        let mut iter = self.array.as_deref()?.iter_from(self.pos);
        let entry = iter.next()?;
        self.pos = iter.pos;
        Some(entry)
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
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
            Value::Str(s) => !s.is_empty() && &**s != "0",
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
            Value::Str(s) => s.to_string(),
            Value::Array(_) => "Array".to_string(),
        }
    }

    /// [`Self::to_php_string`] without the copy when the value already
    /// is a string.
    pub fn as_php_str(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_php_string()),
        }
    }

    /// Appends [`Self::to_php_string`] to `out` (an int without a string
    /// of its own).
    pub fn write_php_str(&self, out: &mut String) {
        match self {
            Value::Int(i) => {
                use std::fmt::Write;
                write!(out, "{i}").expect("writing to a String cannot fail");
            }
            Value::Str(s) => out.push_str(s),
            other => out.push_str(&other.to_php_string()),
        }
    }

    /// `a . b` in one allocation: both sides are written into a reused
    /// per-thread buffer, which the new string then copies.
    pub fn concat(a: &Value, b: &Value) -> Value {
        thread_local! {
            static BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
        }
        BUF.with_borrow_mut(|buf| {
            buf.clear();
            a.write_php_str(buf);
            b.write_php_str(buf);
            Value::str(buf.as_str())
        })
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
                        Key::Int(i) => {
                            enc.byte(0);
                            enc.i64(i);
                        }
                        Key::Str(s) => {
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
        decode_at(dec, 0)
    }
}

/// [`Value::decode`] for a value nested in `depth` arrays.
fn decode_at(dec: &mut Decoder<'_>, depth: usize) -> Result<Value, WireError> {
    Ok(match dec.byte()? {
        0 => Value::Null,
        1 => Value::Bool(dec.bool()?),
        2 => Value::Int(dec.i64()?),
        3 => Value::Float(dec.f64()?),
        4 => Value::str(dec.str_ref()?),
        5 => {
            if depth >= MAX_DECODE_DEPTH {
                return Err(WireError::Malformed("php array nested too deep"));
            }
            // Every entry takes at least three bytes (key tag, key,
            // value tag), which bounds the length.
            let n = dec.u64()? as usize;
            if n > dec.remaining() / 3 {
                return Err(WireError::Malformed("array length exceeds buffer"));
            }
            // Sized once (up to `DECODE_RESERVE`), packed while the keys
            // run 0..n; a string key borrows the buffer and is copied
            // only into a new entry.
            let room = n.min(DECODE_RESERVE);
            let mut a = PhpArray::new();
            for i in 0..n {
                let key = match dec.byte()? {
                    0 => Key::Int(dec.i64()?),
                    1 => Key::Str(dec.str_ref()?),
                    _ => return Err(WireError::Malformed("bad array key tag")),
                };
                if i == 0 {
                    a = match key {
                        Key::Int(0) => PhpArray::with_capacity(room),
                        _ => PhpArray::map_with_capacity(room),
                    };
                }
                let v = decode_at(dec, depth + 1)?;
                a.set(key, v);
            }
            a.next_int = dec.u64()? as i64;
            Value::array(a)
        }
        _ => return Err(WireError::Malformed("unknown php value tag")),
    })
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
    fn canonical_int_strings_match_the_round_trip_rule() {
        // The rule is "parses as i64 and prints back identically".
        for s in [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "+7",
            " 7",
            "7 ",
            "",
            "-",
            "1e3",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "12345678901234567890",
            "٣",
        ] {
            let want = s.parse::<i64>().ok().filter(|i| i.to_string() == s);
            assert_eq!(canonical_int_string(s), want, "{s:?}");
        }
    }

    #[test]
    fn array_preserves_insertion_order() {
        let mut a = PhpArray::new();
        a.set(Key::Str("z"), Value::Int(1));
        a.set(Key::Str("a"), Value::Int(2));
        a.set(Key::Int(10), Value::Int(3));
        let keys: Vec<_> = a.iter().map(|(k, _)| k.owned()).collect();
        assert_eq!(
            keys,
            vec![
                ArrayKey::Str("z".into()),
                ArrayKey::Str("a".into()),
                ArrayKey::Int(10)
            ]
        );
        // Overwrite preserves position.
        a.set(Key::Str("z"), Value::Int(9));
        let first = a.iter().next().unwrap();
        assert_eq!(first.0, Key::Str("z"));
        assert!(first.1.identical(&Value::Int(9)));
    }

    #[test]
    fn push_uses_max_int_key_plus_one() {
        let mut a = PhpArray::new();
        assert_eq!(a.push(Value::Int(0)), Ok(0));
        a.set(Key::Int(10), Value::Int(1));
        assert_eq!(a.push(Value::Int(2)), Ok(11));
        // Deleting does not lower the next key (PHP behaviour).
        a.remove(Key::Int(11));
        assert_eq!(a.push(Value::Int(3)), Ok(12));
    }

    #[test]
    fn remove_and_count() {
        let mut a = PhpArray::new();
        a.push(Value::Int(1)).unwrap();
        a.push(Value::Int(2)).unwrap();
        assert_eq!(a.len(), 2);
        a.remove(Key::Int(0));
        assert_eq!(a.len(), 1);
        assert!(!a.has_key(Key::Int(0)));
        let remaining: Vec<_> = a.iter().map(|(k, _)| k.owned()).collect();
        assert_eq!(remaining, vec![ArrayKey::Int(1)]);
    }

    #[test]
    fn max_int_key_saturates_the_next_key() {
        let mut a = PhpArray::new();
        a.set(Key::Int(i64::MAX), Value::Int(1));
        assert_eq!(a.next_free_key(), i64::MAX);
        // The next key is taken: PHP 8's fatal, not a wrap to i64::MIN.
        assert_eq!(a.push(Value::Int(2)), Err(NextKeyOccupied));
        assert_eq!(a.len(), 1);
        // A key just below saturates too, and one push then fills it.
        let mut b = PhpArray::new();
        b.set(Key::Int(i64::MAX - 1), Value::Null);
        assert_eq!(b.push(Value::Null), Ok(i64::MAX));
        assert_eq!(b.push(Value::Null), Err(NextKeyOccupied));
        // Freeing the last key frees the next slot, as in PHP.
        b.remove(Key::Int(i64::MAX));
        assert_eq!(b.push(Value::Null), Ok(i64::MAX));
    }

    #[test]
    fn full_array_round_trips_through_wire() {
        let mut a = PhpArray::new();
        a.push(Value::str("first")).unwrap();
        a.set(Key::Int(i64::MAX), Value::Int(1));
        let back = Value::from_wire_bytes(&Value::array(a).to_wire_bytes()).unwrap();
        let Value::Array(back) = back else {
            panic!("decoded an array");
        };
        assert_eq!(back.next_free_key(), i64::MAX);
        let mut back = (*back).clone();
        assert_eq!(back.push(Value::Null), Err(NextKeyOccupied));
        // A forged blob naming a max key decodes without overflowing.
        let mut enc = Encoder::new();
        enc.byte(5);
        enc.u64(1);
        enc.byte(0);
        enc.i64(i64::MAX);
        Value::Null.encode(&mut enc);
        enc.u64(7);
        assert!(Value::from_wire_bytes(&enc.into_bytes()).is_ok());
    }

    #[test]
    fn pop_lowers_the_next_key_and_keeps_a_list_packed() {
        let mut a = PhpArray::from_values(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(a.pop_last().map(|(k, _)| k), Some(ArrayKey::Int(2)));
        assert!(matches!(a.repr, Repr::Packed(_)));
        assert_eq!(a.push(Value::Int(9)), Ok(2));
        assert!(matches!(a.repr, Repr::Packed(_)));
        // Only the key just below the next free one lowers it.
        let mut m = PhpArray::new();
        m.set(Key::Int(5), Value::Null);
        m.set(Key::Str("s"), Value::Null);
        m.pop_last();
        assert_eq!(m.push(Value::Null), Ok(6));
        m.pop_last();
        assert_eq!(m.push(Value::Null), Ok(6));
    }

    #[test]
    fn forms_follow_the_keys() {
        let mut a = PhpArray::new();
        for i in 0..3 {
            a.push(Value::Int(i)).unwrap();
        }
        assert!(matches!(a.repr, Repr::Packed(_)));
        // Unsetting the tail keeps the run 0..n.
        a.remove(Key::Int(2));
        assert!(matches!(a.repr, Repr::Packed(_)));
        // A push past the hole it leaves does not.
        a.push(Value::Int(3)).unwrap();
        assert!(matches!(&a.repr, Repr::Map(m) if m.slots.is_empty()));
        for i in 0..SMALL_MAP as i64 {
            a.set(Key::Int(100 + i), Value::Int(i));
        }
        assert!(matches!(&a.repr, Repr::Map(m) if !m.slots.is_empty()));
        assert_eq!(a.len(), 3 + SMALL_MAP);
        assert!(a.get(Key::Int(3)).is_some() && a.get(Key::Int(2)).is_none());
    }

    #[test]
    fn churn_at_a_constant_size_keeps_a_constant_footprint() {
        // 20 live keys; each step inserts a new one and unsets the oldest.
        const LIVE: i64 = 20;
        let mut a = PhpArray::new();
        for i in 0..LIVE {
            a.set(Key::Int(2 * i), Value::Int(i));
        }
        for i in LIVE..100_000 {
            a.set(Key::Int(2 * i), Value::Int(i));
            assert!(a.remove(Key::Int(2 * (i - LIVE))).is_some());
            let Repr::Map(m) = &a.repr else {
                panic!("a list with holes is a map");
            };
            let (room, slots) = (m.entries.capacity(), m.slots.len());
            assert!(room <= 8 * LIVE as usize && slots <= 16 * LIVE as usize);
        }
        assert_eq!(a.len(), LIVE as usize);
        assert!(a.get(Key::Int(2 * 99_999)).is_some());
    }

    #[test]
    fn decode_takes_the_packed_form() {
        let list = Value::array(PhpArray::from_values(vec![Value::Null; 3]));
        let Value::Array(a) = Value::from_wire_bytes(&list.to_wire_bytes()).unwrap() else {
            panic!("decoded an array");
        };
        assert!(matches!(a.repr, Repr::Packed(_)));
    }

    #[test]
    fn wire_bytes_match_the_committed_goldens() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        // A session.
        let mut s = PhpArray::new();
        s.set(Key::Str("user"), Value::str("u17"));
        s.set(Key::Str("cart"), Value::str("3:1|9:2"));
        s.set(Key::Str("since"), Value::Int(1700000000));
        // A list holding every scalar and a nested map.
        let mut l = PhpArray::new();
        for v in [
            Value::Int(1),
            Value::Float(2.5),
            Value::Null,
            Value::Bool(true),
        ] {
            l.push(v).unwrap();
        }
        let mut inner = PhpArray::new();
        inner.push(Value::str("x")).unwrap();
        inner.set(Key::Int(7), Value::Int(-3));
        l.push(Value::array(inner)).unwrap();
        // A list whose unset tail leaves the next key past its length.
        let mut t = PhpArray::new();
        for i in 0..3 {
            t.push(Value::Int(i)).unwrap();
        }
        t.remove(Key::Int(2));
        // An indexed map with a removal, a negative key and a push.
        let mut m = PhpArray::new();
        for i in 0..10 {
            m.set(Key::Str(&format!("k{i}")), Value::Int(i));
        }
        m.remove(Key::Str("k3"));
        m.set(Key::Int(-4), Value::str("neg"));
        m.push(Value::str("p")).unwrap();
        let goldens = [
            (s, "050301047573657204037531370104636172740407333a317c393a32010573696e63650280c49fd50c00"),
            (l, "050500000202000203000000000000044000040000060101000805020000040178000e02050805"),
            (t, "0502000002000002020203"),
            (m, "050b01026b30020001026b31020201026b32020401026b34020801026b35020a01026b36020c01026b37020e01026b38021001026b390212000704036e6567000004017001"),
            (PhpArray::new(), "050000"),
        ];
        for (array, want) in goldens {
            let value = Value::array(array);
            let bytes = value.to_wire_bytes();
            assert_eq!(hex(&bytes), want);
            let back = Value::from_wire_bytes(&bytes).unwrap();
            assert!(back.identical(&value));
            assert_eq!(back.to_wire_bytes(), bytes);
        }
    }

    #[test]
    fn deep_nesting_is_malformed_not_a_stack_overflow() {
        // 200,000 nested one-element arrays: `[[[...]]]`.
        let depth = 200_000;
        let mut bytes = Vec::with_capacity(depth * 4 + 1);
        for _ in 0..depth {
            bytes.extend_from_slice(&[5, 1, 0, 0]);
        }
        bytes.push(0);
        bytes.extend(std::iter::repeat_n(0, depth));
        assert_eq!(
            Value::from_wire_bytes(&bytes).err(),
            Some(WireError::Malformed("php array nested too deep"))
        );
        // The limit itself still decodes.
        let mut ok = Vec::new();
        for _ in 0..MAX_DECODE_DEPTH {
            ok.extend_from_slice(&[5, 1, 0, 0]);
        }
        ok.push(0);
        ok.extend(std::iter::repeat_n(0, MAX_DECODE_DEPTH));
        assert!(Value::from_wire_bytes(&ok).is_ok());
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
        a.set(Key::Str("k"), Value::Int(1));
        let mut b = PhpArray::new();
        b.set(Key::Str("k"), Value::str("1"));
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
        a.push(Value::Int(1)).unwrap();
        let v1 = Value::array(a);
        let v2 = v1.clone();
        // Mutating v2's array must not affect v1 (value semantics).
        if let Value::Array(rc) = &v2 {
            let mut rc = rc.clone();
            Arc::make_mut(&mut rc).push(Value::Int(2)).unwrap();
            assert_eq!(rc.len(), 2);
        }
        if let Value::Array(rc) = &v1 {
            assert_eq!(rc.len(), 1);
        }
    }

    #[test]
    fn wire_roundtrip_nested() {
        let mut inner = PhpArray::new();
        inner.set(Key::Str("x"), Value::Float(1.5));
        let mut outer = PhpArray::new();
        outer.push(Value::array(inner)).unwrap();
        outer.set(Key::Str("s"), Value::str("hé"));
        outer.set(Key::Int(5), Value::Bool(true));
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
