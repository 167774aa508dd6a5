//! `PhpArray` against a plain ordered model, across all three of its
//! forms, and its decoder against damaged bytes.
//!
//! The model is what PHP's array is by definition: entries in insertion
//! order found by a linear search, plus the next free integer key with
//! PHP's rules spelled out (raised past every int key inserted,
//! saturating at `i64::MAX`, lowered only by a pop of the key just
//! below it). Whatever form the array takes — packed list, small map,
//! indexed map with tombstones — it must answer exactly as the model
//! does, and encode to the bytes the model's entries name.

use orochi_common::codec::{Encoder, Wire};
use orochi_common::rng::SplitMix64;
use orochi_php::value::{ArrayKey, Key, NextKeyOccupied, PhpArray, Value, SMALL_MAP};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set(ArrayKey, i64),
    Push(i64),
    Remove(ArrayKey),
    Pop,
    Shift,
    Get(ArrayKey),
}

#[derive(Debug, Default)]
struct Model {
    entries: Vec<(ArrayKey, i64)>,
    next_int: i64,
}

impl Model {
    fn position(&self, key: &ArrayKey) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == key)
    }

    /// Overwriting leaves the next free key alone; only an inserted int
    /// key can raise it (PHP's `_zend_hash_index_add_or_update`).
    fn set(&mut self, key: ArrayKey, v: i64) {
        if let Some(at) = self.position(&key) {
            self.entries[at].1 = v;
            return;
        }
        if let ArrayKey::Int(i) = key {
            if i >= self.next_int {
                self.next_int = i.saturating_add(1);
            }
        }
        self.entries.push((key, v));
    }

    fn push(&mut self, v: i64) -> Result<i64, NextKeyOccupied> {
        let key = self.next_int;
        if self.position(&ArrayKey::Int(key)).is_some() {
            return Err(NextKeyOccupied);
        }
        self.set(ArrayKey::Int(key), v);
        Ok(key)
    }

    fn remove(&mut self, key: &ArrayKey) -> Option<i64> {
        let at = self.position(key)?;
        Some(self.entries.remove(at).1)
    }

    fn pop(&mut self) -> Option<(ArrayKey, i64)> {
        let (k, v) = self.entries.pop()?;
        if let ArrayKey::Int(i) = k {
            if self.next_int.checked_sub(1) == Some(i) {
                self.next_int = i;
            }
        }
        Some((k, v))
    }

    fn shift(&mut self) -> Option<(ArrayKey, i64)> {
        (!self.entries.is_empty()).then(|| self.entries.remove(0))
    }

    /// The wire bytes these entries name, written out independently of
    /// `Value::encode`.
    fn wire_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.byte(5);
        enc.u64(self.entries.len() as u64);
        for (k, v) in &self.entries {
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
            enc.byte(2);
            enc.i64(*v);
        }
        enc.u64(self.next_int as u64);
        enc.into_bytes()
    }
}

fn key_strategy() -> impl Strategy<Value = ArrayKey> {
    prop_oneof![
        // Mostly dense small ints, so lists form and stay lists…
        (0i64..12).prop_map(ArrayKey::Int),
        (0i64..12).prop_map(ArrayKey::Int),
        // …broken by holes, negatives, the top of the range and strings.
        (-3i64..0).prop_map(ArrayKey::Int),
        (i64::MAX - 2..i64::MAX).prop_map(ArrayKey::Int),
        Just(ArrayKey::Int(i64::MAX)),
        "[a-d]{1,2}".prop_map(ArrayKey::Str),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            any::<i64>().prop_map(Op::Push),
            any::<i64>().prop_map(Op::Push),
            any::<i64>().prop_map(Op::Push),
            (key_strategy(), any::<i64>()).prop_map(|(k, v)| Op::Set(k, v)),
            (key_strategy(), any::<i64>()).prop_map(|(k, v)| Op::Set(k, v)),
            key_strategy().prop_map(Op::Remove),
            Just(Op::Pop),
            Just(Op::Shift),
            key_strategy().prop_map(Op::Get),
        ],
        0..64,
    )
}

fn int_of(v: Option<&Value>) -> Option<i64> {
    v.map(Value::to_php_int)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn array_matches_the_ordered_model(ops in ops_strategy()) {
        let mut arr = PhpArray::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Set(k, v) => {
                    arr.set(k.as_key(), Value::Int(v));
                    model.set(k, v);
                }
                Op::Push(v) => {
                    prop_assert_eq!(arr.push(Value::Int(v)), model.push(v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(int_of(arr.remove(k.as_key()).as_ref()), model.remove(&k));
                }
                Op::Pop => {
                    let got = arr.pop_last().map(|(k, v)| (k, v.to_php_int()));
                    prop_assert_eq!(got, model.pop());
                }
                Op::Shift => {
                    let got = arr.shift_first().map(|(k, v)| (k, v.to_php_int()));
                    prop_assert_eq!(got, model.shift());
                }
                Op::Get(k) => {
                    let want = model.position(&k).map(|at| model.entries[at].1);
                    prop_assert_eq!(int_of(arr.get(k.as_key())), want);
                    prop_assert_eq!(arr.has_key(k.as_key()), want.is_some());
                }
            }
            prop_assert_eq!(arr.len(), model.entries.len());
            prop_assert_eq!(arr.next_free_key(), model.next_int);
            let got: Vec<(ArrayKey, i64)> =
                arr.iter().map(|(k, v)| (k.owned(), v.to_php_int())).collect();
            prop_assert_eq!(&got, &model.entries);
            for (k, v) in &model.entries {
                prop_assert_eq!(int_of(arr.get(k.as_key())), Some(*v));
            }
        }
        // The bytes are the model's, and decode back to the same array.
        let value = Value::array(arr);
        let bytes = value.to_wire_bytes();
        prop_assert_eq!(&bytes, &model.wire_bytes());
        let back = Value::from_wire_bytes(&bytes).expect("own bytes decode");
        prop_assert!(back.identical(&value));
        prop_assert_eq!(back.to_wire_bytes(), bytes);
    }
}

/// The sequences above must actually reach every form and transition;
/// pin that with one deterministic walk through them.
#[test]
fn one_array_walks_every_form() {
    let mut arr = PhpArray::new();
    let mut model = Model::default();
    let mut step = |arr: &mut PhpArray, op: Op| match op {
        Op::Set(k, v) => {
            arr.set(k.as_key(), Value::Int(v));
            model.set(k, v);
        }
        Op::Push(v) => assert_eq!(arr.push(Value::Int(v)), model.push(v)),
        Op::Remove(k) => assert_eq!(int_of(arr.remove(k.as_key()).as_ref()), model.remove(&k)),
        Op::Pop => assert_eq!(
            arr.pop_last().map(|(k, v)| (k, v.to_php_int())),
            model.pop()
        ),
        Op::Shift => assert_eq!(
            arr.shift_first().map(|(k, v)| (k, v.to_php_int())),
            model.shift()
        ),
        Op::Get(_) => unreachable!("not used here"),
    };
    // A list, then a hole, a string key, growth past SMALL_MAP,
    // tombstones, and a push after the max key.
    for v in 0..4 {
        step(&mut arr, Op::Push(v));
    }
    step(&mut arr, Op::Pop);
    step(&mut arr, Op::Remove(ArrayKey::Int(1)));
    step(&mut arr, Op::Set(ArrayKey::Str("s".into()), 7));
    for v in 0..2 * SMALL_MAP as i64 {
        step(&mut arr, Op::Push(v));
    }
    for k in 4..10 {
        step(&mut arr, Op::Remove(ArrayKey::Int(k)));
    }
    step(&mut arr, Op::Shift);
    step(&mut arr, Op::Set(ArrayKey::Int(i64::MAX), 1));
    step(&mut arr, Op::Push(2));
    step(&mut arr, Op::Pop);
    step(&mut arr, Op::Push(3));
    let got: Vec<_> = arr
        .iter()
        .map(|(k, v)| (k.owned(), v.to_php_int()))
        .collect();
    assert_eq!(got, model.entries);
    assert_eq!(Value::array(arr).to_wire_bytes(), model.wire_bytes());
}

/// Session-shaped values: what `$_SESSION` and APC entries hold.
fn sessions() -> Vec<Value> {
    let mut cart = PhpArray::new();
    for (id, qty) in [(3, 1), (9, 2), (12, 5)] {
        cart.set(Key::Int(id), Value::Int(qty));
    }
    let mut session = PhpArray::new();
    session.set(Key::Str("user"), Value::str("ada"));
    session.set(Key::Str("cart"), Value::array(cart));
    session.set(Key::Str("since"), Value::Int(1_700_000_000));
    session.set(Key::Str("ratio"), Value::Float(0.25));
    session.set(Key::Str("flags"), Value::Bool(true));
    let list = PhpArray::from_values((0..SMALL_MAP as i64 + 3).map(Value::Int).collect());
    session.set(Key::Str("recent"), Value::array(list));
    vec![
        Value::array(session),
        Value::str("3:1|9:2"),
        Value::empty_array(),
    ]
}

#[test]
fn damaged_session_bytes_decode_or_fail_but_never_panic() {
    let mut rng = SplitMix64::new(0x5e55_10a5);
    let (mut ok, mut failed) = (0, 0);
    let mut tally = |r: Result<Value, _>| match r {
        Ok(_) => ok += 1,
        Err(_) => failed += 1,
    };
    for value in sessions() {
        let bytes = value.to_wire_bytes();
        for cut in 0..bytes.len() {
            tally(Value::from_wire_bytes(&bytes[..cut]));
        }
        for _ in 0..2_000 {
            let mut damaged = bytes.clone();
            let at = rng.next_below(damaged.len() as u64) as usize;
            damaged[at] ^= 1 + rng.next_below(255) as u8;
            tally(Value::from_wire_bytes(&damaged));
        }
    }
    // Both outcomes occur: the flips reach values, keys and framing.
    assert!(ok > 0 && failed > 0, "ok {ok}, failed {failed}");
}
