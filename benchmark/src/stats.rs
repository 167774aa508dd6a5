//! Median / quartile helpers. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method) because
//! that is what the benchmark driver uses to judge run-to-run spread.

use crate::json::Json;

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` by the exclusive method; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The distribution of one metric over the trials of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile range as a share of the median (the driver's
    /// spread measure); 0 when the median is 0.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str, kind: &str) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("kind", Json::str(kind)),
            ("n", Json::Num(self.n as f64)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        Ok(Summary {
            n: v.num("n")? as usize,
            median: v.num("median")?,
            q1: v.num("q1")?,
            q3: v.num("q3")?,
            min: v.num("min")?,
            max: v.num("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_spread_and_json_round_trip() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 4.0, 1.0, 16.0));
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
        assert_eq!(
            Summary::from_json(&s.to_json("s", "end_to_end")).unwrap(),
            s
        );
    }
}
