//! The benchmark's own span recorder. Spans wrap calls into the
//! crates' public functions (the layers); nothing inside the program
//! is instrumented. Spans stay in memory and are written out once,
//! when the traced run ends.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of whichever span
    /// is open) and returns its result with the span's duration in
    /// seconds.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = self.ns(start);
        spans[idx].end_ns = self.ns(end);
        (result, (end - start).as_secs_f64())
    }

    /// Adds an interval measured elsewhere (a [`crate::trial`] executor
    /// wrapper times its own calls) as a child of the open span.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
    }

    /// Grafts spans recorded by another tracer (a trial child) under
    /// the open span, shifted so they start at `offset_ns`.
    pub fn adopt(&self, child: Vec<Span>, offset_ns: u64) {
        let graft = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        spans.extend(child.into_iter().map(|s| Span {
            name: s.name,
            start_ns: s.start_ns + offset_ns,
            end_ns: s.end_ns + offset_ns,
            parent: s.parent.map(|p| p + base).or(graft),
        }));
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children — worker
/// threads — count once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut cursor = me.start_ns;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    (me.end_ns - me.start_ns) - total
}

/// Durations in seconds of every span named `name`, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start", Json::Num(s.start_ns as f64)),
                    ("end", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(v: &Json) -> Result<Vec<Span>, String> {
    v.as_arr()
        .ok_or("spans: not an array")?
        .iter()
        .map(|s| {
            Ok(Span {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without a name")?
                    .to_string(),
                start_ns: s.num("start")? as u64,
                end_ns: s.num("end")? as u64,
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_intervals() {
        let spans = vec![
            span("audit", 100, 1100, None),
            span("group", 200, 400, Some(0)),
            // Two overlapping children (parallel workers): 500..800
            // and 700..900 cover 400 ns together, not 500.
            span("group", 500, 800, Some(0)),
            span("group", 700, 900, Some(0)),
            // A grandchild and an unrelated span do not count.
            span("inner", 250, 350, Some(1)),
            span("other", 0, 5000, None),
            // A child poking past the parent's end is clipped.
            span("late", 1000, 1300, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 200 - 400 - 100);
        assert_eq!(self_time_ns(&spans, 1), 200 - 100);
        assert_eq!(self_time_ns(&spans, 4), 100);
    }

    #[test]
    fn tracer_nests_and_adopts() {
        let tracer = Tracer::new();
        let (value, secs) = tracer.span("outer", || {
            let inner = tracer.span("inner", || 7).0;
            let at = Instant::now();
            tracer.record("timed elsewhere", at, at);
            inner + 1
        });
        assert_eq!(value, 8);
        assert!(secs >= 0.0);
        tracer.span("spawn", || {
            tracer.adopt(
                vec![
                    span("child.root", 0, 10, None),
                    span("child.leaf", 2, 4, Some(0)),
                ],
                1000,
            );
        });
        let spans = tracer.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "outer",
                "inner",
                "timed elsewhere",
                "spawn",
                "child.root",
                "child.leaf"
            ]
        );
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!((spans[4].start_ns, spans[5].end_ns), (1000, 1004));
        assert_eq!(spans_from_json(&spans_to_json(&spans)).unwrap(), spans);
    }
}
