//! Harness-side spans: the traced run wraps each call into a layer's public
//! function in one of these, keeps them in memory, and writes them out when
//! the run ends. Nothing here reaches into the program.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one replayed query share this.
    pub query_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread; the innermost open span is the parent of
/// the next one.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query_id: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Subsequent spans belong to query `id`.
    pub fn begin_query(&mut self, id: u64) {
        self.query_id = id;
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, usize) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query_id: self.query_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (out, index)
    }

    /// [`Recorder::span`] around a call that opens no spans of its own;
    /// returns the result and the span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let (out, index) = self.span(name, |_| f());
        (out, self.spans[index].duration_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest further (their own children
/// are charged to them) and may overlap each other (scatter workers); the
/// covered part is the union of the child intervals, clipped to the parent.
///
/// `spans` is a run of a recorder's spans starting at index `base` — one
/// query's worth, say; a parent before `base` is outside the run and its
/// child counts as a root.
pub fn self_times_ns(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn fold_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans, 0)) {
        let slot = out.entry(s.name).or_default();
        slot.0 += self_ns;
        slot.1 += 1;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("query_id", Json::Num(s.query_id as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span("query", 0, 100, None),
            // two scatter leaves overlapping on 30..40: union covers 10..60
            span("leaf", 10, 40, Some(0)),
            span("leaf", 30, 60, Some(0)),
            // nested under the first leaf: charged to the leaf, not the query
            span("read", 15, 25, Some(1)),
            // sticks out past its parent: clipped to 90..100
            span("gather", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans, 0), vec![40, 20, 30, 10, 30]);
        // the two leaves' subtree as a run of its own: parents are rebased
        assert_eq!(self_times_ns(&spans[1..4], 1), vec![20, 30, 10]);
        let folded = fold_by_name(&spans);
        assert_eq!(folded["leaf"], (50, 2));
        assert_eq!(folded["query"], (40, 1));
        // without overlap, self times add up to the root's duration
        let serial = vec![
            span("query", 0, 50, None),
            span("a", 5, 20, Some(0)),
            span("b", 20, 45, Some(0)),
            span("c", 21, 30, Some(2)),
        ];
        assert_eq!(self_times_ns(&serial, 0).iter().sum::<u64>(), 50);
    }

    #[test]
    fn recorder_parents_spans_by_nesting() {
        let mut rec = Recorder::new();
        rec.begin_query(7);
        let ((), outer) = rec.span("outer", |rec| {
            let (x, ns) = rec.time("inner", || 21 * 2);
            assert_eq!(x, 42);
            assert!(ns < 1_000_000_000);
        });
        let (_, sibling) = rec.span("sibling", |_| ());
        let spans = rec.spans();
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[sibling].parent, None);
        assert!(spans
            .iter()
            .all(|s| s.query_id == 7 && s.end_ns >= s.start_ns));
        assert!(
            spans[outer].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[outer].end_ns
        );
        let doc = to_json(spans);
        assert_eq!(doc.as_arr().len(), 3);
        assert_eq!(doc.as_arr()[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
