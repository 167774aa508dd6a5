//! Time-precedence graph construction (§3.5, Fig. 6, §A.8).
//!
//! The verifier must materialize the trace's time-precedence partial
//! order `<Tr` (request `r1` precedes `r2` iff `r1`'s response departed
//! before `r2`'s request arrived) as graph edges. The paper contributes a
//! streaming algorithm that runs in `O(X + Z)` time — `X` requests, `Z`
//! the *minimum* number of edges needed (Lemma 12) — improving on
//! Anderson et al.'s `O(X·log X + Z)` offline algorithm. The algorithm
//! tracks a *frontier*: the set of latest, mutually concurrent requests;
//! every new arrival descends from all frontier members, and a departing
//! request evicts its parents from the frontier.
//!
//! # Implementation contract
//!
//! The frontier here is a **bitset over dense request indices** (see
//! [`orochi_trace::RidInterner`]): one bit per request, set while the
//! request is a frontier member. Iterating set bits in word order
//! yields indices ascending, so every run emits the edge list in the
//! same order — per arrival, parents ascend by arrival index. (Earlier
//! implementations used a `HashSet`, whose iteration order varied run
//! to run, then a sorted index array, whose `O(w)` memmoves made
//! adversarially wide frontiers quadratic in the width `w`.)
//!
//! [`for_each_frontier_edge`] is the streaming core: it emits each edge
//! as a `(from, to)` pair of dense indices through a callback and never
//! materializes an edge list, which is what lets the Fig. 5 graph
//! builder ([`crate::graph`]) stream the edges straight into its
//! two-pass CSR construction. Costs, in the terms of Lemma 11/12:
//!
//! * edge emission — `O(X + Z)` set-bit visits: each arrival emits
//!   exactly its parent set (`trailing_zeros` per member), and parent
//!   lists are recorded in a flat arena (requests arrive in dense-index
//!   order, so the arena is append-only);
//! * frontier maintenance — **O(1)** per membership change: responses
//!   set their own bit and clear each recorded parent's bit directly,
//!   with no memmove and no binary search;
//! * per arrival, the scan walks the words between the lowest and
//!   highest live bit (tracked bounds), skipping zero words at one
//!   word-read each — 64 potential members per read, which is what
//!   keeps adversarially wide concurrency (hundreds of in-flight
//!   requests) linear where the sorted array degraded.
//!
//! [`create_time_precedence_graph`] wraps the stream back into the
//! explicit [`TimePrecedenceGraph`] edge list for tests and tools;
//! [`dense_time_precedence`] is the quadratic reference implementation
//! used as a property-test oracle.

use orochi_common::ids::RequestId;
use orochi_trace::record::{BalancedTrace, DenseEvent, Event, RidInterner};
use std::collections::{HashMap, HashSet};

/// Explicit materialization of `<Tr`: `r1 <Tr r2` iff the graph has a
/// directed path from `r1` to `r2` (Lemma 2), with the minimum number of
/// edges (Lemma 12).
#[derive(Debug, Clone, Default)]
pub struct TimePrecedenceGraph {
    /// All requestIDs, in arrival order.
    pub nodes: Vec<RequestId>,
    /// Edges `(from, to)`; `from`'s response departed before `to`'s
    /// request arrived. Deterministically ordered: grouped by arriving
    /// request (trace order), sources ascending by arrival index.
    pub edges: Vec<(RequestId, RequestId)>,
}

impl TimePrecedenceGraph {
    /// Out-neighbour adjacency for traversals.
    pub fn adjacency(&self) -> HashMap<RequestId, Vec<RequestId>> {
        let mut adj: HashMap<RequestId, Vec<RequestId>> = HashMap::new();
        for rid in &self.nodes {
            adj.entry(*rid).or_default();
        }
        for (from, to) in &self.edges {
            adj.entry(*from).or_default().push(*to);
        }
        adj
    }

    /// True if a directed path exists from `from` to `to` (BFS; used by
    /// tests — the audit itself never needs reachability queries).
    pub fn has_path(&self, from: RequestId, to: RequestId) -> bool {
        let adj = self.adjacency();
        let mut seen = HashSet::new();
        let mut queue = vec![from];
        while let Some(cur) = queue.pop() {
            if cur == to {
                return true;
            }
            if !seen.insert(cur) {
                continue;
            }
            if let Some(next) = adj.get(&cur) {
                queue.extend(next.iter().copied());
            }
        }
        false
    }
}

/// `CreateTimePrecedenceGraph` (Fig. 6), streaming core: runs the
/// frontier algorithm over a pre-interned trace and emits every edge
/// `(from, to)` — as **dense arrival indices** — through `emit`, without
/// materializing an edge list.
///
/// Edge order is deterministic: edges are emitted grouped by arriving
/// request, in trace order, with each arrival's parents ascending by
/// index (set bits are visited in word-then-bit order). The stream is
/// side-effect-free on the interner, so callers needing two passes over
/// the same edges — like the CSR builder's count-then-fill construction
/// in [`crate::graph`] — simply call it twice.
///
/// Zero hashing: the interner resolved every requestID up front, and
/// this function touches only flat `u64`/`u32` arrays.
pub fn for_each_frontier_edge(interner: &RidInterner, mut emit: impl FnMut(u32, u32)) {
    let x = interner.num_requests();
    // "Latest" requests — the frontier — as a bitset over dense
    // indices; "parent(s)" of any new request. `lo..hi` bounds the
    // words that may hold live bits.
    let mut frontier: Vec<u64> = vec![0; x.div_ceil(64)];
    let (mut lo, mut hi) = (0usize, 0usize);
    // Parent lists live in one flat arena: arrivals happen in dense
    // index order, so request `k`'s parents occupy
    // `parents[parent_off[k]..parent_off[k + 1]]`.
    let mut parents: Vec<u32> = Vec::new();
    let mut parent_off: Vec<u32> = Vec::with_capacity(x + 1);
    parent_off.push(0);
    for event in interner.dense_events() {
        match event {
            DenseEvent::Request(idx) => {
                debug_assert_eq!(parent_off.len() as u32 - 1, idx, "arrival order");
                // Leading zero words are dead — cleared parents never
                // resurrect below the lowest live bit — so tighten the
                // bound while skipping them.
                while lo < hi && frontier[lo] == 0 {
                    lo += 1;
                }
                for (w, word) in frontier.iter().enumerate().take(hi).skip(lo) {
                    let mut bits = *word;
                    while bits != 0 {
                        let p = (w as u32) * 64 + bits.trailing_zeros();
                        emit(p, idx);
                        parents.push(p);
                        bits &= bits - 1;
                    }
                }
                parent_off.push(parents.len() as u32);
            }
            DenseEvent::Response(idx) => {
                // idx enters the frontier, evicting its parents. A
                // parent may already be gone — evicted by a sibling
                // whose response departed first; clearing a cleared
                // bit is a no-op.
                let (s, e) = (parent_off[idx as usize], parent_off[idx as usize + 1]);
                for k in s..e {
                    let p = parents[k as usize] as usize;
                    frontier[p / 64] &= !(1u64 << (p % 64));
                }
                let w = idx as usize / 64;
                debug_assert_eq!(
                    frontier[w] & (1u64 << (idx as usize % 64)),
                    0,
                    "balanced: one response per request"
                );
                frontier[w] |= 1u64 << (idx as usize % 64);
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
        }
    }
}

/// `CreateTimePrecedenceGraph` (Fig. 6): streaming construction of the
/// time-precedence graph in `O(X + Z)`.
///
/// This is the edge-list wrapper around [`for_each_frontier_edge`] used
/// by tests, benches, and tools; the audit's Fig. 5 graph builder
/// streams the same edges directly into its CSR arrays instead.
///
/// # Examples
///
/// ```
/// use orochi_common::ids::RequestId;
/// use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};
/// use orochi_core::precedence::create_time_precedence_graph;
///
/// // r1 completes before r2 arrives: r1 <Tr r2.
/// let (r1, r2) = (RequestId(1), RequestId(2));
/// let trace = Trace { events: vec![
///     Event::Request(r1, HttpRequest::get("/a", &[])),
///     Event::Response(r1, HttpResponse::ok(r1, "x")),
///     Event::Request(r2, HttpRequest::get("/b", &[])),
///     Event::Response(r2, HttpResponse::ok(r2, "y")),
/// ]};
/// let g = create_time_precedence_graph(&trace.ensure_balanced().unwrap());
/// assert_eq!(g.edges, vec![(r1, r2)]);
/// ```
pub fn create_time_precedence_graph(trace: &BalancedTrace<'_>) -> TimePrecedenceGraph {
    let interner = trace.intern_rids();
    let mut edges = Vec::new();
    for_each_frontier_edge(&interner, |from, to| {
        edges.push((interner.rid(from), interner.rid(to)));
    });
    TimePrecedenceGraph {
        nodes: interner.rids().to_vec(),
        edges,
    }
}

/// Quadratic reference construction: one edge for **every** pair with
/// `r1 <Tr r2` (no transitive reduction). Same reachability as the
/// frontier algorithm; `O(X²)` time and edges. It is the oracle in the
/// property tests.
pub fn dense_time_precedence(trace: &BalancedTrace<'_>) -> TimePrecedenceGraph {
    let mut graph = TimePrecedenceGraph::default();
    let rids: Vec<RequestId> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Request(rid, _) => Some(*rid),
            Event::Response(..) => None,
        })
        .collect();
    graph.nodes = rids.clone();
    for r1 in &rids {
        for r2 in &rids {
            if trace.precedes(*r1, *r2) {
                graph.edges.push((*r1, *r2));
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_trace::{HttpRequest, HttpResponse, Trace};

    fn req(rid: u64) -> Event {
        Event::Request(RequestId(rid), HttpRequest::get("/x", &[]))
    }

    fn resp(rid: u64) -> Event {
        Event::Response(RequestId(rid), HttpResponse::ok(RequestId(rid), "ok"))
    }

    #[test]
    fn sequential_chain_uses_transitive_reduction() {
        // r1 < r2 < r3; the frontier algorithm emits only the two
        // covering edges, not (r1, r3).
        let trace = Trace {
            events: vec![req(1), resp(1), req(2), resp(2), req(3), resp(3)],
        };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        assert_eq!(
            g.edges,
            vec![(RequestId(1), RequestId(2)), (RequestId(2), RequestId(3))]
        );
        // Reachability still holds transitively.
        assert!(g.has_path(RequestId(1), RequestId(3)));
    }

    #[test]
    fn concurrent_requests_have_no_edges() {
        let trace = Trace {
            events: vec![req(1), req(2), resp(2), resp(1)],
        };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn epoch_pattern_forms_bipartite_links() {
        // Two epochs of two concurrent requests each.
        let trace = Trace {
            events: vec![
                req(1),
                req(2),
                resp(1),
                resp(2),
                req(3),
                req(4),
                resp(3),
                resp(4),
            ],
        };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        let mut edges = g.edges.clone();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (RequestId(1), RequestId(3)),
                (RequestId(1), RequestId(4)),
                (RequestId(2), RequestId(3)),
                (RequestId(2), RequestId(4)),
            ]
        );
    }

    #[test]
    fn edge_order_is_index_ordered_and_deterministic() {
        // Per arrival, parents must ascend by arrival index — and the
        // whole edge list must be identical across constructions (the
        // old hash-set frontier varied run to run).
        let trace = Trace {
            events: vec![
                req(1),
                req(2),
                req(3),
                resp(3),
                resp(1),
                resp(2),
                req(4),
                resp(4),
            ],
        };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        assert_eq!(
            g.edges,
            vec![
                (RequestId(1), RequestId(4)),
                (RequestId(2), RequestId(4)),
                (RequestId(3), RequestId(4)),
            ]
        );
        for _ in 0..4 {
            assert_eq!(create_time_precedence_graph(&t).edges, g.edges);
        }
    }

    #[test]
    fn eviction_keeps_frontier_minimal() {
        // r1 finishes; r2 (arrived after r1 finished) finishes; then r3
        // arrives: r3 descends only from r2 (r1 was evicted), and r1's
        // precedence is implied transitively.
        let trace = Trace {
            events: vec![req(1), resp(1), req(2), resp(2), req(3), resp(3)],
        };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        let from_r1: Vec<_> = g.edges.iter().filter(|(f, _)| *f == RequestId(1)).collect();
        assert_eq!(from_r1.len(), 1);
    }

    #[test]
    fn matches_dense_oracle_reachability() {
        // A mixed pattern: overlapping and nested requests.
        let trace = Trace {
            events: vec![
                req(1),
                req(2),
                resp(1),
                req(3),
                resp(3),
                resp(2),
                req(4),
                resp(4),
            ],
        };
        let t = trace.ensure_balanced().unwrap();
        let fast = create_time_precedence_graph(&t);
        let dense = dense_time_precedence(&t);
        for r1 in &dense.nodes {
            for r2 in &dense.nodes {
                if r1 == r2 {
                    continue;
                }
                assert_eq!(
                    fast.has_path(*r1, *r2),
                    t.precedes(*r1, *r2),
                    "path({r1},{r2})"
                );
                assert_eq!(
                    dense.has_path(*r1, *r2),
                    t.precedes(*r1, *r2),
                    "dense({r1},{r2})"
                );
            }
        }
    }

    #[test]
    fn edge_count_is_minimal_for_epochs() {
        // P concurrent requests per epoch, E epochs: the minimum edge set
        // is the complete bipartite graph between adjacent epochs,
        // P*P*(E-1) edges (§A.8's intuition for Z).
        let (p, e) = (4u64, 3u64);
        let mut events = Vec::new();
        for epoch in 0..e {
            for i in 0..p {
                events.push(req(epoch * p + i + 1));
            }
            for i in 0..p {
                events.push(resp(epoch * p + i + 1));
            }
        }
        let trace = Trace { events };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        assert_eq!(g.edges.len() as u64, p * p * (e - 1));
    }

    #[test]
    fn empty_trace_yields_empty_graph() {
        let trace = Trace { events: vec![] };
        let t = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&t);
        assert!(g.nodes.is_empty());
        assert!(g.edges.is_empty());
    }
}
