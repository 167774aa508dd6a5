//! The memoising per-lane helper against the loop it replaces: on any
//! lane vectors — operands aliased across lanes, equal contents behind
//! distinct allocations, scalars, univalues mixed in, lanes that error —
//! `LaneMemo::per_lane` returns exactly what computing every lane would,
//! or the same first error.

use orochi_accphp::mval::{LaneMemo, MVal};
use orochi_php::value::PhpArray;
use orochi_php::Value;
use proptest::prelude::*;
use std::sync::Arc;

/// xorshift64*: the test's own value picker, seeded by proptest.
struct Picker(u64);

impl Picker {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

/// A pool the lanes draw from: drawing the same entry twice aliases one
/// allocation; entries 0/1 and 4/5 are equal contents behind distinct
/// allocations; "boom" makes the operation fail.
fn pool() -> Vec<Value> {
    let list = |items: &[i64]| {
        Value::array(PhpArray::from_values(
            items.iter().map(|i| Value::Int(*i)).collect(),
        ))
    };
    vec![
        Value::str("alpha"),
        Value::str("alpha"),
        Value::str("beta"),
        Value::str("boom"),
        list(&[1, 2, 3]),
        list(&[1, 2, 3]),
        list(&[]),
        Value::Int(7),
        Value::Int(8),
        Value::Float(0.5),
        Value::Bool(true),
        Value::Null,
    ]
}

/// A pure function of one lane's operands that reads every one of them.
fn render(operands: &[MVal], lane: usize) -> Result<Value, usize> {
    let mut out = String::new();
    for m in operands {
        match m.lane(lane) {
            Value::Str(s) if &**s == "boom" => return Err(lane),
            Value::Array(a) => out.push_str(&format!("[{}]", a.len())),
            other => out.push_str(&other.to_php_string()),
        }
        out.push('/');
    }
    Ok(Value::str(out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoised_lanes_equal_the_plain_loop(
        lanes in 1usize..40,
        arity in 1usize..4,
        seed in any::<u64>(),
    ) {
        let pool = pool();
        let mut pick = Picker(seed | 1);
        let operands: Vec<MVal> = (0..arity)
            .map(|_| {
                if pick.below(4) == 0 {
                    MVal::Uni(pool[pick.below(pool.len())].clone())
                } else {
                    // Few distinct draws over many lanes: repeats are
                    // the common case, as in a real group.
                    let spread = 1 + pick.below(pool.len());
                    let values = (0..lanes).map(|_| pool[pick.below(spread)].clone()).collect();
                    MVal::Multi(Arc::new(values))
                }
            })
            .collect();
        let refs: Vec<&MVal> = operands.iter().collect();

        let naive: Result<Vec<Value>, usize> =
            (0..lanes).map(|l| render(&operands, l)).collect();
        let mut calls = 0;
        let memoised = LaneMemo::default().per_lane(&refs, lanes, |l| {
            calls += 1;
            render(&operands, l)
        });

        prop_assert!(calls <= lanes);
        match (naive, memoised) {
            (Ok(want), Ok(got)) => {
                prop_assert_eq!(want.len(), got.len());
                for (w, g) in want.iter().zip(&got) {
                    prop_assert!(w.identical(g), "want {:?}, got {:?}", w, g);
                }
            }
            (Err(want), Err(got)) => prop_assert_eq!(want, got),
            (want, got) => prop_assert!(false, "naive {:?} vs memoised {:?}", want, got),
        }
    }
}
