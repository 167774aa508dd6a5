//! Multivalues: the program state of a superposed execution (§3.1, §4.3).
//!
//! A multivalue holds one value per request ("lane") in the group. When
//! all lanes are identical the multivalue *collapses* to a univalue —
//! "this is crucial to deduplication" (§4.3): collapsed values let
//! subsequent instructions execute once instead of n times.
//!
//! Lanes share rather than copy. A value that reaches several lanes from
//! one source — a query-dedup hit, a row or cell read out of it, a result
//! computed once for equal operands — is the same `Arc` in each of them,
//! so collapse is a run of pointer compares ([`Value::identical`] tests
//! the pointer first) and [`LaneMemo::per_lane`] can recognise a
//! repeated operand without looking inside it.

use orochi_obs::LazyCounter;
use orochi_php::value::PhpArray;
use orochi_php::Value;
use std::sync::Arc;

/// Lanes of a multivalent pure operation answered from another lane of
/// the same instruction.
static LANE_MEMO_HITS: LazyCounter = LazyCounter::new("accphp_lane_memo_hits");
/// Lanes of a multivalent pure operation that were computed.
static LANE_MEMO_MISSES: LazyCounter = LazyCounter::new("accphp_lane_memo_misses");

/// A value of the superposed execution: either one value shared by every
/// lane, or one value per lane.
#[derive(Debug, Clone)]
pub enum MVal {
    /// All lanes hold this value.
    Uni(Value),
    /// Per-lane values; the vector length always equals the group's lane
    /// count ("a collapse is all or nothing", §4.3).
    Multi(Arc<Vec<Value>>),
}

impl MVal {
    /// Builds from per-lane values, collapsing when they all agree.
    pub fn from_lanes(lanes: Vec<Value>) -> Self {
        debug_assert!(!lanes.is_empty(), "groups have at least one lane");
        if lanes.iter().skip(1).all(|v| v.identical(&lanes[0])) {
            return MVal::Uni(lanes.into_iter().next().expect("non-empty"));
        }
        MVal::Multi(Arc::new(lanes))
    }

    /// True if the value is shared by all lanes.
    pub fn is_uni(&self) -> bool {
        matches!(self, MVal::Uni(_))
    }

    /// The value in lane `l`.
    pub fn lane(&self, l: usize) -> &Value {
        match self {
            MVal::Uni(v) => v,
            MVal::Multi(vs) => &vs[l],
        }
    }

    /// Per-lane truthiness; `Ok(b)` when uniform, `Err(())` when the
    /// lanes disagree (branch divergence).
    #[allow(clippy::result_unit_err)]
    pub fn uniform_truthiness(&self, lanes: usize) -> Result<bool, ()> {
        match self {
            MVal::Uni(v) => Ok(v.is_truthy()),
            MVal::Multi(vs) => {
                debug_assert_eq!(vs.len(), lanes, "multivalue lane count");
                let first = vs[0].is_truthy();
                if vs.iter().skip(1).all(|v| v.is_truthy() == first) {
                    Ok(first)
                } else {
                    Err(())
                }
            }
        }
    }
}

/// What the lane memo can tell about an operand without reading it:
/// scalars by value (floats by bit pattern), strings and arrays by the
/// allocation they point at. Equal identities mean identical values; the
/// converse need not hold — equal contents behind two allocations are
/// two identities, which costs a recomputation, never a wrong answer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Identity {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(*const u8),
    Array(*const PhpArray),
}

impl Identity {
    fn of(v: &Value) -> Identity {
        match v {
            Value::Null => Identity::Null,
            Value::Bool(b) => Identity::Bool(*b),
            Value::Int(i) => Identity::Int(*i),
            Value::Float(f) => Identity::Float(f.to_bits()),
            Value::Str(s) => Identity::Str(Arc::as_ptr(s).cast()),
            Value::Array(a) => Identity::Array(Arc::as_ptr(a)),
        }
    }

    /// (a word to hash, whether the identity is a pointer).
    fn word(self) -> (u64, bool) {
        match self {
            Identity::Null => (0, false),
            Identity::Bool(b) => (1 + b as u64, false),
            Identity::Int(i) => (i as u64 ^ 3, false),
            Identity::Float(bits) => (bits ^ 4, false),
            Identity::Str(p) => (p as u64, true),
            Identity::Array(p) => (p as u64, true),
        }
    }
}

/// Probes before a lane gives up on the memo and is simply computed:
/// bounds what colliding keys (the scalars in them come from requests)
/// can cost.
const MAX_PROBES: usize = 8;

/// The identity memo behind [`LaneMemo::per_lane`]: an open-addressed
/// table from a lane's operand identities to the first lane that had
/// them. One call's entries mean nothing to the next — the table is
/// wiped on entry — so the memo's lifetime is one instruction; the
/// struct only keeps the allocation, and the hit/miss tallies it adds
/// to the registry counters when dropped.
#[derive(Default)]
pub struct LaneMemo {
    /// `first lane + 1`, or 0 for an empty slot.
    slots: Vec<u32>,
    hits: u64,
    misses: u64,
    /// The most probes any one lane has made.
    #[cfg(test)]
    max_probes: usize,
}

impl Drop for LaneMemo {
    fn drop(&mut self) {
        LANE_MEMO_HITS.add(self.hits);
        LANE_MEMO_MISSES.add(self.misses);
    }
}

impl LaneMemo {
    /// Computes `f(lane)` for every lane, where `f` is a pure function
    /// of that lane's `operands`: a lane whose operands have the
    /// identity of an earlier lane's takes that lane's result (a clone —
    /// for a [`Value`], a scalar or a pointer copy) instead of running
    /// `f` again. The operands are borrowed for the whole call, so every
    /// `Arc` a key points at stays alive and no address is reused under
    /// it. A lane is looked up only if a string or an array is among its
    /// operands, univalent ones included: an operation on scalars alone
    /// (arithmetic, comparison) costs about what the lookup would.
    ///
    /// The first error ends the call, as in a plain loop over the lanes.
    pub fn per_lane<T: Clone, E>(
        &mut self,
        operands: &[&MVal],
        lanes: usize,
        mut f: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let identities = |lane: usize| {
            operands.iter().filter_map(move |m| match m {
                MVal::Uni(_) => None,
                MVal::Multi(vs) => Some(Identity::of(&vs[lane])),
            })
        };
        // Fibonacci hashing: the high bits of an odd multiple spread
        // aligned pointers and small integers alike.
        let key = |lane: usize| {
            identities(lane).fold((0u64, false), |(h, any_pointer), id| {
                let (word, pointer) = id.word();
                let h = (h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (h, any_pointer | pointer)
            })
        };
        let heap_univalue = operands
            .iter()
            .any(|m| matches!(m, MVal::Uni(Value::Str(_) | Value::Array(_))));
        let bits = (2 * lanes).next_power_of_two().trailing_zeros().max(1);
        let mask = (1usize << bits) - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, 0);

        let mut out: Vec<T> = Vec::with_capacity(lanes);
        let mut hits = 0u64;
        for lane in 0..lanes {
            let (hash, heap_operand) = key(lane);
            let mut first_with = None;
            if heap_operand || heap_univalue {
                let mut at = (hash >> (64 - bits)) as usize;
                for _probe in 0..MAX_PROBES {
                    #[cfg(test)]
                    {
                        self.max_probes = self.max_probes.max(_probe + 1);
                    }
                    match self.slots[at] {
                        0 => {
                            self.slots[at] = lane as u32 + 1;
                            break;
                        }
                        taken => {
                            let first = taken as usize - 1;
                            if identities(first).eq(identities(lane)) {
                                first_with = Some(first);
                                break;
                            }
                        }
                    }
                    at = (at + 1) & mask;
                }
            }
            let value = match first_with {
                Some(first) => {
                    hits += 1;
                    out[first].clone()
                }
                None => f(lane)?,
            };
            out.push(value);
        }
        self.hits += hits;
        self.misses += lanes as u64 - hits;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn per_lane<T: Clone, E>(
        operands: &[&MVal],
        lanes: usize,
        f: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        LaneMemo::default().per_lane(operands, lanes, f)
    }

    #[test]
    fn from_lanes_collapses_identical() {
        let m = MVal::from_lanes(vec![Value::Int(4), Value::Int(4), Value::Int(4)]);
        assert!(m.is_uni());
        let m = MVal::from_lanes(vec![Value::Int(4), Value::Int(5), Value::Int(4)]);
        assert!(!m.is_uni());
    }

    #[test]
    fn collapse_uses_identity_not_loose_equality() {
        // 4 == "4" loosely, but the lanes are NOT identical; collapsing
        // them would change later type-sensitive behaviour.
        let m = MVal::from_lanes(vec![Value::Int(4), Value::str("4")]);
        assert!(!m.is_uni());
    }

    #[test]
    fn single_lane_groups_are_always_uni() {
        let m = MVal::from_lanes(vec![Value::str("only")]);
        assert!(m.is_uni());
    }

    #[test]
    fn equal_contents_behind_distinct_allocations_still_collapse() {
        let m = MVal::from_lanes(vec![Value::str("same"), Value::str("same")]);
        assert!(m.is_uni());
    }

    #[test]
    fn uniform_truthiness_detects_divergence() {
        let ok = MVal::from_lanes(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(ok.uniform_truthiness(2), Ok(true));
        let div = MVal::from_lanes(vec![Value::Int(1), Value::Int(0)]);
        assert_eq!(div.uniform_truthiness(2), Err(()));
    }

    #[test]
    fn per_lane_computes_once_per_operand_identity() {
        let shared = Value::str("shared");
        let lanes = vec![
            shared.clone(),
            Value::str("shared"), // Equal contents, its own allocation.
            shared.clone(),
            Value::Int(7),
            shared,
        ];
        let text = MVal::Multi(Arc::new(lanes));
        let suffix = MVal::Uni(Value::str("!"));
        let calls = Cell::new(0);
        let out = per_lane::<Value, ()>(&[&text, &suffix], 5, |l| {
            calls.set(calls.get() + 1);
            Ok(Value::str(format!(
                "{}{}",
                text.lane(l).as_php_str(),
                suffix.lane(l).as_php_str()
            )))
        })
        .unwrap();
        // Lanes 0, 2 and 4 are one allocation: computed once, and the
        // three results are one allocation too.
        assert_eq!(calls.get(), 3);
        let rendered: Vec<String> = out.iter().map(Value::to_php_string).collect();
        assert_eq!(rendered, ["shared!", "shared!", "shared!", "7!", "shared!"]);
        match (&out[0], &out[1], &out[2], &out[4]) {
            (Value::Str(a), Value::Str(b), Value::Str(c), Value::Str(d)) => {
                assert!(Arc::ptr_eq(a, c) && Arc::ptr_eq(a, d));
                assert!(!Arc::ptr_eq(a, b));
            }
            other => panic!("expected strings, got {other:?}"),
        }
    }

    #[test]
    fn per_lane_keys_on_every_multivalent_operand() {
        let arr = Value::array(PhpArray::from_values(vec![Value::Int(10), Value::Int(20)]));
        let base = MVal::Multi(Arc::new(vec![arr.clone(), arr.clone(), arr]));
        let key = MVal::Multi(Arc::new(vec![Value::Int(0), Value::Int(1), Value::Int(0)]));
        let calls = Cell::new(0);
        let out = per_lane::<Value, ()>(&[&base, &key], 3, |l| {
            calls.set(calls.get() + 1);
            Ok(orochi_php::vm::ops::index_get(base.lane(l), key.lane(l)))
        })
        .unwrap();
        assert_eq!(calls.get(), 2, "same array, two distinct keys");
        let got: Vec<i64> = out.iter().map(Value::to_php_int).collect();
        assert_eq!(got, [10, 20, 10]);
    }

    #[test]
    fn colliding_int_lanes_stay_within_the_probe_bound() {
        // Ints whose Fibonacci hashes all share their top bits: every
        // lane lands on slot 0, the worst case a request can craft. A
        // univalent string beside them makes every lane look the memo up.
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let inverse = (0..6).fold(PHI, |y, _| {
            y.wrapping_mul(2u64.wrapping_sub(PHI.wrapping_mul(y)))
        });
        assert_eq!(PHI.wrapping_mul(inverse), 1);
        let lanes = 64usize;
        // The key of a lane is `(i ^ 3) * PHI`; pick `i` so the product
        // is a small multiple of 2^20, far below the table's top bits.
        let ints: Vec<i64> = (0..lanes as u64)
            .map(|t| ((t << 20).wrapping_mul(inverse) ^ 3) as i64)
            .collect();
        let bits = (2 * lanes).next_power_of_two().trailing_zeros();
        for &i in &ints {
            assert_eq!(((i as u64 ^ 3).wrapping_mul(PHI)) >> (64 - bits), 0);
        }
        // Each int fills two lanes, 64 apart: the repeat of a lane that
        // found a slot is a hit, the repeat of one that did not is
        // computed again.
        let values: Vec<Value> = ints.iter().chain(&ints).map(|&i| Value::Int(i)).collect();
        let lanes = values.len();
        let key = MVal::Multi(Arc::new(values));
        let suffix = MVal::Uni(Value::str("!"));
        let calls = Cell::new(vec![0u32; lanes]);
        let render = |l: usize| {
            format!(
                "{}{}",
                key.lane(l).to_php_string(),
                suffix.lane(l).as_php_str()
            )
        };
        let mut memo = LaneMemo::default();
        let out = memo
            .per_lane::<Value, ()>(&[&key, &suffix], lanes, |l| {
                let mut seen = calls.take();
                seen[l] += 1;
                calls.set(seen);
                Ok(Value::str(render(l)))
            })
            .unwrap();
        for (l, v) in out.iter().enumerate() {
            assert_eq!(v.to_php_string(), render(l), "lane {l}");
        }
        let calls = calls.take();
        assert!(
            calls.iter().all(|&n| n <= 1),
            "f runs at most once per lane"
        );
        assert_eq!(calls.iter().sum::<u32>() as usize, lanes - MAX_PROBES);
        assert!(memo.max_probes <= MAX_PROBES, "{} probes", memo.max_probes);
        assert_eq!(memo.max_probes, MAX_PROBES, "the crafted keys do collide");
    }

    #[test]
    fn per_lane_stops_at_the_first_error() {
        let v = MVal::Multi(Arc::new(vec![
            Value::str("a"),
            Value::str("b"),
            Value::str("c"),
        ]));
        let calls = Cell::new(0);
        let r = per_lane::<Value, usize>(&[&v], 3, |l| {
            calls.set(calls.get() + 1);
            if l == 1 {
                Err(l)
            } else {
                Ok(Value::Null)
            }
        });
        assert_eq!(r.unwrap_err(), 1);
        assert_eq!(calls.get(), 2);
    }
}
